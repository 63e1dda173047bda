"""The boundary between Python values and descriptor vectors:
``infer_value_type`` / ``check_value`` (repro.interp.values) and
``from_python`` / ``to_python`` / ``infer_from_python`` (repro.vector.convert).

Four batteries: the round trip ``to_python(from_python(v, t), t) == v`` with
``t = infer_value_type(v)`` over the fuzz generator's arguments and an edge
corpus (floats compared by their bits); the level-wise walk against
element-by-element references (the kept element scans, and a recursive
converter written out here from the defining equations); and an error table
that pins exception class and message of every rejected input to the
literals the per-element walk produced before the boundary went level-wise;
and the law of the untyped door: typing a value by converting it
(``infer_from_python``) is ``infer_value_type`` followed by ``from_python``,
or declines, and then ``run`` / ``run_batched`` say what those two say.
"""

import random
import struct

import numpy as np
import pytest

from repro import compile_program
from repro.fuzz.differ import ALL_BACKENDS, lane_call
from repro.errors import EvalError, VectorError
from repro.fuzz.gen import gen_case
from repro.interp import values as V
from repro.interp.values import FunVal, check_value, infer_value_type
from repro.lang import types as T
from repro.lang.types import BOOL, FLOAT, INT, TFun, TSeq, TVar
from repro.lang.types import parse_type as ty
from repro.vector import convert
from repro.vector.convert import from_python, infer_from_python, to_python
from repro.vector.nested import NestedVector, VTuple
from tests.vector.test_batch_boundary import MALFORMED


class MyInt(int):
    pass


def bits(v):
    """``v`` with every float replaced by its eight bytes, so that NaN
    equals itself and -0.0 differs from 0.0."""
    if isinstance(v, float):
        return struct.pack("<d", v)
    if isinstance(v, (list, tuple)):
        return type(v)(map(bits, v))
    return v


def exact(v):
    """``v`` with every scalar paired with its exact class: 1, True and 1.0
    are equal in Python and are different P values."""
    if isinstance(v, (list, tuple)):
        return type(v)(map(exact, v))
    return (type(v), bits(v))


def roundtrip(v):
    t = infer_value_type(v)
    check_value(v, t)
    return to_python(from_python(v, t), t)


# -- round trip ---------------------------------------------------------------------

INT64_MAX = 2 ** 63 - 1
INT64_MIN = -2 ** 63

EDGE_CORPUS = [
    [], [[]], [[], []], [[[]]], [[], [[1]]], [[[]], [[], [2]]],
    [[], [[]], [[], [3.5]]],
    [1, 2, 3], [True, False], [0.5],
    [INT64_MAX, INT64_MIN, 0], [[INT64_MAX], [], [INT64_MIN]],
    [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324],
    [[float("nan")], [], [-0.0]],
    (1, True), (1, (2.0, [3])), ([], [True]), ([[1]], 2.5),
    [(1, 2.0), (3, 4.0)], [(1, (True, 2.0))], [[(1, 2)], [], [(3, 4), (5, 6)]],
    [(1, [2, 3]), (4, [])], [([1], [[2.0]]), ([], [[], [3.0]])],
    [(1, [(2, [True])]), (3, [])], [[], [(1, [])]],
    [[(float("nan"), -0.0)], [(float("inf"), 0.0)]],
]


@pytest.mark.parametrize("v", EDGE_CORPUS, ids=repr)
def test_edge_corpus_round_trips(v):
    assert exact(roundtrip(v)) == exact(v)


def test_fuzz_arguments_round_trip():
    for seed in range(200):
        case = gen_case(seed)
        for v, t in zip(case.args, case.types):
            check_value(v, ty(t))
            assert exact(to_python(from_python(v, ty(t)), ty(t))) == exact(v)
            assert exact(roundtrip(v)) == exact(v)    # at the inferred type


def test_empties_default_to_int_at_every_depth():
    assert infer_value_type([]) == ty("seq(int)")
    assert infer_value_type([[], []]) == ty("seq(seq(int))")
    assert infer_value_type([[], [[1.5]]]) == ty("seq(seq(seq(float)))")
    assert infer_value_type([((), [])]) == TSeq(T.TTuple((T.TTuple(()), ty("seq(int)"))))
    assert infer_value_type(([], [True])) == ty("(seq(int), seq(bool))")


def test_verdicts_on_subclasses_and_numpy_scalars():
    # isinstance decides, as it always has: subclasses of int and float are
    # P values (np.float64 is a float), NumPy integers and booleans are not
    # -- to the type checker; the converter takes them once a type is given
    assert infer_value_type(MyInt(3)) == INT
    assert infer_value_type([1, MyInt(3)]) == ty("seq(int)")
    assert infer_value_type([np.float64(1.5), 2.0]) == ty("seq(float)")
    assert infer_value_type(2 ** 63) == INT
    check_value([MyInt(3), 4], ty("seq(int)"))
    check_value([np.float64(1.5)], ty("seq(float)"))
    nv = from_python([np.int64(4), 5, MyInt(6), np.int32(7)], ty("seq(int)"))
    assert nv.values.dtype == np.int64 and nv.values.tolist() == [4, 5, 6, 7]
    assert from_python([np.bool_(True), False], ty("seq(bool)")).values.tolist() \
        == [True, False]
    assert from_python([np.float32(0.5), 1.5], ty("seq(float)")).values.tolist() \
        == [0.5, 1.5]
    assert exact(to_python(nv, ty("seq(int)"))) == exact([4, 5, 6, 7])
    # a tuple wider than its type is refused under a sequence as it is at
    # the top: a batch column of top-level tuples is a seq((int, int))
    with pytest.raises(VectorError, match=r"expected 2-tuple, got \(4, 5, 6\)"):
        from_python([(1, 2), (4, 5, 6)], ty("seq((int, int))"))


def test_shared_descriptors_of_a_sequence_of_tuples():
    v = [[(1, [True]), (2, [])], [], [(3, [False, True])]]
    a, b = from_python(v, ty("seq(seq((int, seq(bool))))")).items
    assert [d.tolist() for d in a.descs] == [[3], [2, 0, 1]]
    assert [d.tolist() for d in b.descs] == [[3], [2, 0, 1], [1, 0, 2]]
    assert a.values.tolist() == [1, 2, 3] and a.kind == "int"
    assert b.values.tolist() == [True, False, True] and b.kind == "bool"


# -- the level-wise walk against element-by-element references --------------------------

SCALARS = {INT: lambda r: r.choice([r.randrange(-9, 10), INT64_MAX, MyInt(3)]),
           BOOL: lambda r: r.random() < 0.5,
           FLOAT: lambda r: r.choice([r.random(), -0.0, float("inf"),
                                      np.float64(2.0)])}
JUNK = [True, 1, 2.5, None, "s", np.int64(4), np.bool_(True), (), (1,), (1, 2),
        (1, 2, 3), [], [1], [[1.0]], FunVal("f"), MyInt(7), {1: 2}]


def random_type(rng, depth=0):
    roll = rng.random()
    if depth >= 3 or roll < 0.3:
        return rng.choice([INT, BOOL, FLOAT])
    if roll < 0.7:
        return TSeq(random_type(rng, depth + 1))
    return T.TTuple(tuple(random_type(rng, depth + 1)
                          for _ in range(rng.choice([2, 3]))))


def random_value(rng, t, p_junk):
    if rng.random() < p_junk:
        return rng.choice(JUNK)
    if isinstance(t, TSeq):
        return [random_value(rng, t.elem, p_junk)
                for _ in range(rng.choice([0, 0, 1, 2, 3, 4]))]
    if isinstance(t, T.TTuple):
        return tuple(random_value(rng, it, p_junk) for it in t.items)
    return SCALARS[t](rng)


def outcome(f, *args):
    try:
        return f(*args)
    except (EvalError, VectorError, OverflowError) as e:
        return type(e), str(e)


def ref_from_python(v, t):
    """The conversion element by element, from its defining equations:
    ``Seq^d(a x b)`` is the pair of the projections at ``Seq^d(a)`` and
    ``Seq^d(b)``; ``Seq^d(scalar)`` is one descriptor per level, each the
    lengths of the level above's elements in order, and the leaves."""
    depth, leaf = T.seq_depth(t), T.peel(t, T.seq_depth(t))

    def project(x, d, i):
        return x[i] if d == 0 else [project(y, d - 1, i) for y in x]

    if isinstance(leaf, T.TTuple) and depth:
        return VTuple([ref_from_python(project(v, depth, i), T.seq_of(it, depth))
                       for i, it in enumerate(leaf.items)])
    if isinstance(t, T.TTuple):
        return VTuple([ref_from_python(x, it) for x, it in zip(v, t.items)])
    if not depth:
        return {INT: int, BOOL: bool, FLOAT: float}[t](v)
    descs, layer = [], [v]
    for _ in range(depth):
        descs.append([len(x) for x in layer])
        layer = [y for x in layer for y in x]
    kind = {INT: "int", BOOL: "bool", FLOAT: "float"}[leaf]
    return NestedVector([np.array(d, dtype=np.int64) for d in descs],
                        np.array(layer, dtype={"int": np.int64, "bool": np.bool_,
                                               "float": np.float64}[kind]), kind)


def coerced(v):
    """What a round trip returns: subclass instances come back as the plain
    class the leaf dtype stands for."""
    if isinstance(v, (list, tuple)):
        return type(v)(map(coerced, v))
    return {MyInt: int, np.float64: float}.get(type(v), type(v))(v)


@pytest.mark.parametrize("seed", range(8))
def test_level_wise_walk_agrees_with_the_element_scans(seed):
    rng = random.Random(seed)
    for _ in range(400):
        t = random_type(rng)
        v = random_value(rng, t, rng.choice([0, 0, 0.05, 0.3]))
        assert outcome(infer_value_type, v) == outcome(
            lambda: V._default_unknown(V._infer_partial(v))), v
        for against in (t, random_type(rng)):
            assert outcome(check_value, v, against, "argument") == outcome(
                V._first_mismatch, v, against, "argument"), (v, against)


@pytest.mark.parametrize("seed", range(8))
def test_conversion_agrees_with_the_recursive_reference(seed):
    rng = random.Random(1000 + seed)
    for _ in range(300):
        t = random_type(rng)
        v = random_value(rng, t, 0)
        vec = from_python(v, t)
        assert vec == ref_from_python(v, t), (v, t)
        assert exact(to_python(vec, t)) == exact(coerced(v)), (v, t)


# -- a value is typed by converting it ------------------------------------------------


def two_walks(v):
    """What the untyped door did before: infer, then convert."""
    t = infer_value_type(v)
    return t, from_python(v, t)


def facts(v):
    """Everything a vector value is: kind, every descriptor, dtype, bytes."""
    if isinstance(v, VTuple):
        return [facts(x) for x in v.items]
    if isinstance(v, NestedVector):
        return (v.kind, [(d.dtype.str, d.tobytes()) for d in v.descs],
                v.values.dtype.str, v.values.tobytes())
    return exact(v)


def assert_one_walk_is_the_two(v):
    got, want = infer_from_python(v), outcome(two_walks, v)
    if isinstance(want[0], T.Type):
        assert got is not None and got[0] == want[0], v
        assert facts(got[1]) == facts(want[1]), v
    else:       # it only ever declines: the two walks are left to say why
        assert got is None, (v, want)


@pytest.mark.parametrize("seed", range(8))
def test_typing_by_conversion_agrees_with_infer_then_convert(seed):
    rng = random.Random(seed)
    for _ in range(400):
        t = random_type(rng)
        assert_one_walk_is_the_two(
            random_value(rng, t, rng.choice([0, 0, 0.05, 0.3])))


@pytest.mark.parametrize("v", EDGE_CORPUS + JUNK + [
    [MyInt(3), 4], [[MyInt(3)], []], [1.5, np.float64(2.5)], np.float64(2.5),
    2 ** 63, [2 ** 63], [[1], [-2 ** 63 - 1]], (1, 2 ** 63), [(1, 2 ** 70)],
    ([1], [[2.5]]), [([], [True])], (), [()], [(1,)], (1, FunVal("f")),
    [FunVal("f")], [np.int64(3), 4], [True, np.bool_(False)], [1, 2.0],
], ids=repr)
def test_typing_by_conversion_on_the_edge_corpus(v):
    assert_one_walk_is_the_two(v)


def door_rows():
    """Every malformed (and the few well-formed) value of the three error
    tables, as one argument and as a column of requests."""
    yield from (row[0] for row in INFER_ERRORS + FROM_ERRORS)
    yield from (col for _t, col, _batch, _alone in MALFORMED)


IDENTITY = compile_program("fun f(x) = x")


@pytest.mark.parametrize("lane", [b for b in ALL_BACKENDS if b != "interp"])
def test_untyped_run_says_what_infer_then_convert_says(lane):
    backend, threads = lane_call(lane)

    def back(v):
        t, vec = two_walks(v)
        return exact(to_python(vec, t))

    for v in door_rows():
        assert outcome(lambda: exact(IDENTITY.run(
            "f", [v], backend, threads=threads))) == outcome(back, v), v
        column = v if isinstance(v, list) and v else [v, v]
        assert outcome(lambda: exact(IDENTITY.run_batched(
            "f", [[x] for x in column], backend, threads=threads))) \
            == outcome(back, column), v


def test_a_warm_untyped_run_scans_each_layer_once(monkeypatch):
    import repro.api as api
    prog = compile_program("fun f(v) = [x <- v: x + 1]")
    args = [list(range(50))]
    assert prog.run("f", args) == list(range(1, 51))     # warm, both ways
    assert prog.run_batched("f", [args, args]) == [list(range(1, 51))] * 2
    scans = []

    def counting(real):
        def groupby(layer, key):
            scans.append(len(layer))
            return real(layer, key)
        return groupby

    def never(*a):
        raise AssertionError("check_value on a value conversion has typed")
    for mod in (convert, V):
        monkeypatch.setattr(mod, "groupby", counting(mod.groupby))
    monkeypatch.setattr(api, "check_value", never)
    assert prog.run("f", args) == list(range(1, 51))
    assert scans == [1, 50]     # the argument, then its elements
    del scans[:]
    assert prog.run_batched("f", [args, args]) == [list(range(1, 51))] * 2
    assert scans == [1, 2, 100]     # the column, the requests, the elements


# -- error parity -----------------------------------------------------------------------

FUN = TFun((INT,), INT)
VAR = TVar(424242)
NO_FUN = ("cannot infer the type of a bare function value; "
          "pass explicit argument types")

INFER_ERRORS = [
    ([1, True], "heterogeneous sequence: [1, True]"),
    ([True, 1], "heterogeneous sequence: [True, 1]"),
    ([1, [1]], "heterogeneous sequence: [1, [1]]"),
    ([[1], 1], "heterogeneous sequence: [[1], 1]"),
    ([1, 2.0], "heterogeneous sequence: [1, 2.0]"),
    ([[], 1], "heterogeneous sequence: [[], 1]"),
    ([[1], [True]], "heterogeneous sequence: [[1], [True]]"),
    ([[1, True], "x"], "heterogeneous sequence: [1, True]"),
    (["x", [1, True]], "not a P value: 'x'"),
    ([[[1], [2.0]]], "heterogeneous sequence: [[1], [2.0]]"),
    ([(1, 2), (1, 2, 3)], "heterogeneous sequence: [(1, 2), (1, 2, 3)]"),
    ([(1, 2), (1, True)], "heterogeneous sequence: [(1, 2), (1, True)]"),
    ([(1, [2]), (1, [True])],
     "heterogeneous sequence: [(1, [2]), (1, [True])]"),
    ([(1, 2), [1, 2]], "heterogeneous sequence: [(1, 2), [1, 2]]"),
    (np.int64(3), f"not a P value: {np.int64(3)!r}"),
    ([1, np.int64(3)], f"not a P value: {np.int64(3)!r}"),
    (np.bool_(True), f"not a P value: {np.bool_(True)!r}"),
    (None, "not a P value: None"),
    ([1, None], "not a P value: None"),
    (FunVal("f"), NO_FUN),
    ([FunVal("f")], NO_FUN),
    ((1, FunVal("f")), NO_FUN),
    ({1: 2}, "not a P value: {1: 2}"),
    ([[1], "s"], "not a P value: 's'"),
    ((1, [2, "s"]), "not a P value: 's'"),
]

CHECK_ERRORS = [
    (True, INT, "argument: expected int, got True"),
    (1.0, INT, "argument: expected int, got 1.0"),
    (np.int64(3), INT, f"argument: expected int, got {np.int64(3)!r}"),
    (1, BOOL, "argument: expected bool, got 1"),
    (np.bool_(True), BOOL, f"argument: expected bool, got {np.bool_(True)!r}"),
    (1, FLOAT, "argument: expected float, got 1"),
    ([1, True], "seq(int)", "argument[2]: expected int, got True"),
    ([1, 2.0], "seq(int)", "argument[2]: expected int, got 2.0"),
    ([1.0, 2], "seq(float)", "argument[2]: expected float, got 2"),
    ([True, 0], "seq(bool)", "argument[2]: expected bool, got 0"),
    ((1, 2), "seq(int)", "argument: expected a sequence (list), got (1, 2)"),
    ([[1], 2], "seq(seq(int))",
     "argument[2]: expected a sequence (list), got 2"),
    ([[1, 2], [3, [4]]], "seq(seq(int))",
     "argument[2][2]: expected int, got [4]"),
    # depth first: the bool one level down comes before the 2 beside it
    ([[True], 2], "seq(seq(int))", "argument[1][1]: expected int, got True"),
    ([1], "(int, int)", "argument: expected a 2-tuple, got [1]"),
    ((1, 2, 3), "(int, int)", "argument: expected a 2-tuple, got (1, 2, 3)"),
    ([(1, 2), (1, 2, 3)], "seq((int, int))",
     "argument[2]: expected a 2-tuple, got (1, 2, 3)"),
    ([(1, "a"), ("b", 2)], "seq((int, int))",
     "argument[1].2: expected int, got 'a'"),
    ([(1, [2, 3]), (4, [5, True])], "seq((int, seq(int)))",
     "argument[2].2[2]: expected int, got True"),
    ([[(1, 2.0)], [(3, 4)]], "seq(seq((int, float)))",
     "argument[2][1].2: expected float, got 4"),
    (5, FUN, "argument: expected a function value, got 5"),
    ([FunVal("f"), 5], "seq(int)", "argument[1]: expected int, got <fun f>"),
    (5, VAR, "argument: cannot check against type ?424242"),
    ([1], TSeq(VAR), "argument[1]: cannot check against type ?424242"),
]

FROM_ERRORS = [
    (True, INT, VectorError, "expected int, got True"),
    (1.0, INT, VectorError, "expected int, got 1.0"),
    (1, BOOL, VectorError, "expected bool, got 1"),
    (1, FLOAT, VectorError, "expected float, got 1"),
    (5, "seq(int)", VectorError, "expected a sequence, got 5"),
    ((1, 2), "seq(int)", VectorError, "expected a sequence, got (1, 2)"),
    ([1, True], "seq(int)", VectorError, "expected int element, got True"),
    ([1, 2.0], "seq(int)", VectorError, "expected int element, got 2.0"),
    ([1.0, 2], "seq(float)", VectorError, "expected float element, got 2"),
    ([True, 1], "seq(bool)", VectorError, "expected bool element, got 1"),
    ([1, None], "seq(int)", VectorError, "expected int element, got None"),
    ([[1], 2], "seq(seq(int))", VectorError, "expected a sequence, got 2"),
    # level first: the 2 one level up comes before the bool and the None
    ([[True], 2, [None]], "seq(seq(int))", VectorError,
     "expected a sequence, got 2"),
    ([[1], [2, True]], "seq(seq(int))", VectorError,
     "expected int element, got True"),
    # int64 is the vector side's only integer: the boundary says so, typed
    (2 ** 63, INT, VectorError, f"integer {2 ** 63} does not fit int64"),
    ([1, 2 ** 63], "seq(int)", VectorError,
     f"integer {2 ** 63} does not fit int64"),
    ([INT64_MIN - 1], "seq(int)", VectorError,
     f"integer {INT64_MIN - 1} does not fit int64"),
    ([np.uint64(2 ** 63)], "seq(int)", VectorError,
     f"integer {np.uint64(2 ** 63)!r} does not fit int64"),
    ([[INT64_MAX], [2 ** 70, 2 ** 80]], "seq(seq(int))", VectorError,
     f"integer {2 ** 70} does not fit int64"),
    ((1, 2, 3), "(int, int)", VectorError, "expected 2-tuple, got (1, 2, 3)"),
    ([1, 2], "(int, int)", VectorError, "expected 2-tuple, got [1, 2]"),
    ([(1, 2), 5], "seq((int, int))", VectorError,
     "expected a tuple with >= 1 components, got 5"),
    ([(1,), (1, 2)], "seq((int, int))", VectorError,
     "expected a tuple with >= 2 components, got (1,)"),
    # a component's elements are looked at before the next is taken out
    ([(True, 2), (1,)], "seq((int, int))", VectorError,
     "expected int element, got True"),
    ([(1, True), (2,)], "seq((int, int))", VectorError,
     "expected a tuple with >= 2 components, got (2,)"),
    ([(), 5], "seq((int, int))", VectorError,
     "expected a tuple with >= 1 components, got ()"),
    # above tuples the structure is reported depth first
    ([[(1, 2)], 7, [5]], "seq(seq((int, int)))", VectorError,
     "expected a sequence, got 7"),
    ([[5], 7], "seq(seq((int, int)))", VectorError,
     "expected a tuple with >= 1 components, got 5"),
    (7, "seq(seq((int, int)))", VectorError, "expected a sequence, got 7"),
    ([(1, [2, True]), (3, 4)], "seq((int, seq(int)))", VectorError,
     "expected a sequence, got 4"),
    ([((1, 2), 3), (4, 5)], "seq(((int, int), int))", VectorError,
     "expected a tuple with >= 1 components, got 4"),
    (5, FUN, VectorError, "expected a function value, got 5"),
    ([5], TSeq(FUN), VectorError, "expected a function value, got 5"),
    ([1], TSeq(VAR), VectorError, "bad sequence leaf type ?424242"),
    (1, VAR, VectorError, "cannot convert to vector form at type ?424242"),
]


def frame(descs, values, kind="int"):
    return NestedVector([np.array(d) for d in descs], np.array(values), kind)


A = frame([[2], [1, 2]], [1, 2, 3])
B = frame([[2], [2, 1]], [4, 5, 6])

TO_ERRORS = [
    (5, "seq(int)", "expected NestedVector, got 5"),
    (A, "seq(seq((int, int)))", f"expected VTuple of frames, got {A!r}"),
    (A, "(int, int)", f"expected VTuple, got {A!r}"),
    (VTuple([A, B]), "seq(seq((int, int)))",
     "tuple components disagree on sequence lengths"),
    (VTuple([A, 5]), "seq(seq((int, int)))", "expected NestedVector, got 5"),
    (frame([[1]], [10 ** 6], "fun"), TSeq(FUN), "unknown function id 1000000"),
    (A, VAR, "cannot convert from vector form at type ?424242"),
]


def as_type(t):
    return ty(t) if isinstance(t, str) else t


def raised(f, *args):
    with pytest.raises(Exception) as info:
        f(*args)
    return info.type, str(info.value)


@pytest.mark.parametrize("v, message", INFER_ERRORS, ids=repr)
def test_infer_value_type_errors(v, message):
    assert raised(infer_value_type, v) == (EvalError, message)


@pytest.mark.parametrize("v, t, message", CHECK_ERRORS, ids=repr)
def test_check_value_errors(v, t, message):
    assert raised(check_value, v, as_type(t), "argument") == (EvalError, message)


@pytest.mark.parametrize("v, t, error, message", FROM_ERRORS, ids=repr)
def test_from_python_errors(v, t, error, message):
    assert raised(from_python, v, as_type(t)) == (error, message)


@pytest.mark.parametrize("v, t, message", TO_ERRORS)
def test_to_python_errors(v, t, message):
    assert raised(to_python, v, as_type(t)) == (VectorError, message)


def test_nothing_under_an_empty_sequence_is_checked():
    check_value([], TSeq(VAR))
    check_value([[], []], TSeq(TSeq(VAR)))
    check_value(([], 1), T.TTuple((TSeq(VAR), INT)))
