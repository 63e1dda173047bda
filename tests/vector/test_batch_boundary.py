"""The batch boundary is the level-wise converter one level up: a column of
N requests is one value of type ``seq(t)``.

Laws, each against ``repro.vector.batch`` (the pack/unpack walk the run
path used before, kept as the reference):

* ``from_python(col, seq(t))`` equals ``pack_values`` of the per-request
  conversions — kind, dtypes and bytes at every level;
* ``to_python(out, seq(t))`` equals ``unpack_values`` then per-request
  ``to_python`` — NaN payloads, ``-0.0`` and exact types included;

and a table that pins, for malformed requests, the error class, the
message and *which* offender is named: level order, not request order.
"""

import pytest

from repro import FunVal, compile_program
from repro.errors import EvalError, ReproError, VectorError
from repro.fuzz.gen import gen_case
from repro.lang.types import TSeq
from repro.lang.types import parse_type as ty
from repro.vector.batch import pack_values, unpack_values
from repro.vector.convert import from_python, to_python
from repro.vector.nested import NestedVector, VTuple

NAN, INF = float("nan"), float("inf")

#: (element type, the column: one value per request)
EDGES = [
    ("int", [0, -1, 2 ** 63 - 1, -2 ** 63]),
    ("bool", [True, False, True]),
    ("float", [NAN, -0.0, 0.0, INF, -INF, 5e-324]),
    ("seq(int)", [[], [1], [], [2, 3]]),
    ("seq(int)", [[], []]),
    ("seq(float)", [[NAN], [], [-0.0, 0.0]]),
    ("seq(seq(int))", [[], [[]], [[], [1]], [[2, 3], []]]),
    ("seq(seq(seq(bool)))", [[[[]]], [], [[], [[True], []]]]),
    ("(int, bool)", [(1, True), (2, False)]),
    ("(int, seq(float))", [(1, []), (2, [NAN, -0.0]), (3, [1.5])]),
    ("(int, (bool, seq(int)))", [(1, (True, [])), (2, (False, [4, 5]))]),
    ("seq((int, float))", [[], [(1, -0.0)], [(2, NAN), (3, 1.0)]]),
    ("seq((int, seq(int)))", [[(1, [])], [], [(2, [3]), (4, [5, 6])]]),
    ("seq(seq((int, (bool, seq(int)))))",
     [[], [[]], [[(1, (True, [2]))], [(3, (False, [])), (4, (True, [5]))]]]),
    ("(seq((int, int)), seq(seq(int)))",
     [([], []), ([(1, 2)], [[], [3]])]),
    ("(int) -> int", [FunVal("f"), FunVal("g"), FunVal("f")]),
    ("seq((int) -> int)", [[], [FunVal("f")], [FunVal("g"), FunVal("f")]]),
]


def leaves(v):
    """Every scalar / NestedVector leaf of a vector value, left to right,
    with the tuple structure they sit in."""
    if isinstance(v, VTuple):
        return ("tuple", [leaves(x) for x in v.items])
    assert isinstance(v, NestedVector), v
    return (v.kind, [(d.dtype.str, d.tobytes()) for d in v.descs],
            v.values.dtype.str, v.values.tobytes())


def exact(v):
    """A Python value with NaN, the zeros and bool/int told apart."""
    return repr(v)


def columns():
    yield from ((ty(t), col) for t, col in EDGES)
    cases = [gen_case(seed) for seed in range(207)]
    for seed in range(200):
        for j, t in enumerate(cases[seed].types):
            for n in (1, 2, 7):
                yield ty(t), [cases[seed + i].args[j] for i in range(n)]


def test_gen_case_argument_positions_share_a_type():
    # what lets a column be cut across neighbouring seeds
    assert len({gen_case(seed).types for seed in range(207)}) == 1


def test_column_conversion_equals_pack_of_the_requests():
    count = 0
    for t, col in columns():
        packed = pack_values([from_python(v, t) for v in col], t)
        assert leaves(from_python(col, TSeq(t))) == leaves(packed), (t, col)
        count += 1
    assert count == len(EDGES) + 200 * 5 * 3


def test_result_conversion_equals_unpack_of_the_requests():
    for t, col in columns():
        out = from_python(col, TSeq(t))
        parts = unpack_values(out, t, len(col))
        assert exact(to_python(out, TSeq(t))) \
            == exact([to_python(p, t) for p in parts]), (t, col)


@pytest.mark.parametrize("t, col", EDGES, ids=repr)
def test_the_boundary_is_the_identity(t, col):
    # split and merge are mutually inverse at seq(t)
    t = TSeq(ty(t))
    back = to_python(from_python(col, t), t, fun_factory=FunVal)
    assert exact(back) == exact(col)


# -- malformed requests ---------------------------------------------------------------

#: (element type, column, what the column conversion says, what the
#: conversion of the first malformed request alone says).  Both are
#: VectorError; the column walks level by level, so where requests are
#: malformed in different ways the shallowest misfit is named, not the
#: first request's.
MALFORMED = [
    ("seq(int)", [[1], 5], "expected a sequence, got 5",
     "expected a sequence, got 5"),
    ("seq(int)", [[1], [2, True]], "expected int element, got True",
     "expected int element, got True"),
    # request 0 is malformed two levels down, request 1 one level down
    ("seq(int)", [[True], 5], "expected a sequence, got 5",
     "expected int element, got True"),
    ("seq(seq(int))", [[[1.5]], [2], 3], "expected a sequence, got 3",
     "expected int element, got 1.5"),
    # a scalar position is one more element layer
    ("int", [1, 1.5], "expected int element, got 1.5",
     "expected int, got 1.5"),
    ("bool", [True, 0], "expected bool element, got 0",
     "expected bool, got 0"),
    # tuples: too wide is refused as it is for one request, too narrow or
    # not a tuple in the words of the layer walk
    ("(int, int)", [(1, 2), (1, 2, 3)], "expected 2-tuple, got (1, 2, 3)",
     "expected 2-tuple, got (1, 2, 3)"),
    ("(int, int)", [(1, 2), (1,)],
     "expected a tuple with >= 2 components, got (1,)",
     "expected 2-tuple, got (1,)"),
    ("(int, int)", [(1, 2), 5],
     "expected a tuple with >= 1 components, got 5",
     "expected 2-tuple, got 5"),
    ("(int, (int, int))", [(1, (2, 3)), (1, (2, 3, 4))],
     "expected 2-tuple, got (2, 3, 4)", "expected 2-tuple, got (2, 3, 4)"),
    # int64 is the vector side's only integer
    ("seq(int)", [[1], [2 ** 70]],
     f"integer {2 ** 70} does not fit int64",
     f"integer {2 ** 70} does not fit int64"),
    ("int", [1, -2 ** 63 - 1],
     f"integer {-2 ** 63 - 1} does not fit int64",
     f"integer {-2 ** 63 - 1} does not fit int64"),
]


def raised(f, *args):
    with pytest.raises(ReproError) as e:
        f(*args)
    return type(e.value), str(e.value)


@pytest.mark.parametrize("t, col, batch, alone", MALFORMED, ids=repr)
def test_malformed_requests(t, col, batch, alone):
    t = ty(t)
    assert raised(from_python, col, TSeq(t)) == (VectorError, batch)

    def one_by_one():
        for v in col:
            from_python(v, t)
    assert raised(one_by_one) == (VectorError, alone)


def test_run_batched_names_the_offender_in_level_order():
    prog = compile_program("fun main(s) = sum(s)")
    types = ("seq(int)",)
    good = [[1, 2]]
    # the lead is checked by value, like a lone run's arguments
    assert raised(prog.run_batched, "main", [[[True]], good], "vector",
                  types) == (EvalError, "argument[1]: expected int, got True")
    for backend in ("vector", "native"):
        assert raised(prog.run_batched, "main", [good, [[True]], [5]],
                      backend, types) \
            == (VectorError, "expected a sequence, got 5")
        assert raised(prog.run_batched, "main", [good, [[2 ** 70]], good],
                      backend, types) == raised(
            prog.run, "main", [[2 ** 70]], backend, types) \
            == (VectorError, f"integer {2 ** 70} does not fit int64")
    # arity is per request, before any column is cut
    assert raised(prog.run_batched, "main", [good, [[1], [2]]], "vector",
                  types) == (EvalError, "main expects 1 arguments, got 2")
    assert raised(prog.run_batched, "main", [good, [[1], [2]]]) \
        == (EvalError, "main expects 1 arguments, got 2")


def test_one_validated_vector_per_argument_column(monkeypatch):
    """A batch of n requests builds one checked NestedVector per argument
    column (the pack walk built n + 1)."""
    prog = compile_program("fun main(a, s, t) = a + sum(s) + sum(t)")
    argsets = [[i, [i] * i, list(range(i))] for i in range(9)]
    want = [prog.run("main", a) for a in argsets]
    assert prog.run_batched("main", argsets) == want        # warm
    import repro.api as api
    built = []
    real_init = NestedVector.__init__
    inside = [False]

    def init(self, *a, **kw):
        built.append(inside[0])
        real_init(self, *a, **kw)

    def crossing(real):
        def convert(*a):
            inside[0] = True
            try:
                return real(*a)
            finally:
                inside[0] = False
        return convert
    monkeypatch.setattr(NestedVector, "__init__", init)
    # a typed column crosses through from_python, an untyped one through
    # infer_from_python
    for door in ("from_python", "infer_from_python"):
        monkeypatch.setattr(api, door, crossing(getattr(api, door)))
    assert prog.run_batched("main", argsets) == want
    assert sum(built) == 3
    built.clear()
    types = ("int", "seq(int)", "seq(int)")
    assert prog.run_batched("main", argsets, types=types) == want
    assert sum(built) == 3


def test_a_short_batch_result_is_a_typed_error(monkeypatch):
    prog = compile_program("fun main(s) = sum(s)")
    argsets = [[[1]], [[2, 3]], [[4]]]
    assert prog.run_batched("main", argsets) == [1, 5, 4]
    from repro.vexec.evaluator import VectorEvaluator
    monkeypatch.setattr(
        VectorEvaluator, "call_raw",
        lambda self, name, vargs: from_python([1, 5], ty("seq(int)")))
    assert raised(prog.run_batched, "main", argsets) \
        == (VectorError, "batch of 2, expected 3")
