"""An elementwise op reads a depth-0 operand as a 0-d array, not as a
replicated frame: for every elementwise row of the catalog, every operand
position and every leaf kind the scheme admits, the result equals — kind,
descriptors, dtype and bytes — what the depth-1 kernel computes on the
replicated operand (under T1's extract/insert at depth 2)."""

import pytest

from repro import ReproError, compile_program
from repro.fuzz.differ import ALL_BACKENDS, lane_call
from repro.lang import builtins as B
from repro.lang.types import parse_type
from repro.vector import ops as O
from repro.vector.convert import from_python
from repro.vector.extract_insert import extract, insert
from repro.vector.nested import KIND_DTYPES
from repro.vexec.apply import Applier

#: a frame's elements and a scalar of each leaf kind; no zero in a frame
#: or scalar a checked op divides by, none negative under ``sqrt_``
ROWS = {"int": [[3, -7], [], [12, 5, -1]],
        "float": [[0.5, -2.25], [], [3.0, 1e300, -4.0]],
        "bool": [[True, False], [], [True, True, False]]}
SCALARS = {"int": -4, "float": 1.5, "bool": True}
CHECKED = {"div", "mod", "fdiv", "sqrt_"}


def operand_cases():
    for name in O.UFUNCS:
        row = B.get_builtin(name)
        arity = len(row.fresh_type().params)
        if arity < 2:
            continue        # a lone operand is never depth 0 in a frame
        for kind in row.arg_kinds:
            for pos in range(arity):
                for depth in (1, 2):
                    yield pytest.param(name, kind, pos, depth,
                                       id=f"{name}-{kind}-arg{pos}-d{depth}")


def frame(kind: str, depth: int, rows=None):
    rows = ROWS[kind] if rows is None else rows
    value = rows if depth == 2 else [x for r in rows for x in r]
    return from_python(value, parse_type(f"seq({kind})" if depth == 1
                                         else f"seq(seq({kind}))"))


def applied(name, args, pos, depth):
    """``name^depth`` through the applier, operand ``pos`` at depth 0."""
    depths = tuple(0 if i == pos else depth for i in range(len(args)))
    return Applier(None, lambda n: False).apply_named(name, args, depths,
                                                      depth, None)


def replicated(name, args, pos, depth):
    """The depth-1 kernel on the replicated operand, as T1 runs it."""
    lead = args[1 - pos]
    flat = [None if i == pos else extract(a, depth) if depth == 2 else a
            for i, a in enumerate(args)]
    flat[pos] = O.broadcast_to_count(args[pos], O.frame_len(flat[1 - pos]))
    got = O.apply_kernel(name, flat)
    return insert(got, lead, depth) if depth == 2 else got


def outcome(f):
    try:
        return f()
    except ReproError as e:
        return type(e), str(e)


def assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.kind == want.kind and len(got.descs) == len(want.descs)
    for g, w in zip((*got.descs, got.values), (*want.descs, want.values)):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("name, kind, pos, depth", operand_cases())
def test_a_scalar_operand_is_the_replicated_operand(name, kind, pos, depth):
    args = [SCALARS[kind], frame(kind, depth)]
    if pos == 1:
        args.reverse()
    got = applied(name, args, pos, depth)
    assert got.values.dtype == KIND_DTYPES[got.kind]
    assert_same(got, replicated(name, args, pos, depth))


@pytest.mark.parametrize("name", sorted(CHECKED - {"sqrt_"}))
@pytest.mark.parametrize("depth", (1, 2))
def test_a_zero_divisor_raises_only_on_a_non_empty_frame(name, depth):
    kind = B.get_builtin(name).arg_kinds[0]
    zero = KIND_DTYPES[kind](0).item()
    for rows in (ROWS[kind], [[], []], []):
        if depth == 1 and rows == [[], []]:
            continue
        args = [frame(kind, depth, rows), zero]
        got = outcome(lambda: applied(name, args, 1, depth))
        want = outcome(lambda: replicated(name, args, 1, depth))
        assert isinstance(got, tuple) == bool(sum(map(len, rows))), rows
        assert_same(got, want)


def test_sqrt_of_a_negative_raises_only_on_a_non_empty_frame():
    ap = Applier(None, lambda n: False)
    empty = from_python([], parse_type("seq(float)"))
    assert ap.apply_named("sqrt_", [empty], (1,), 1, None).values.size == 0
    with pytest.raises(ReproError, match="sqrt of negative value"):
        ap.apply_named("sqrt_", [from_python([-1.0], parse_type("seq(float)"))],
                       (1,), 1, None)


def test_mod_by_a_zero_scalar_over_an_empty_frame_answers_empty():
    prog = compile_program("fun f(v, k) = [x <- v: x mod k]")
    for lane in ALL_BACKENDS:
        backend, threads = lane_call(lane)
        assert prog.run("f", [[], 0], backend=backend,
                        threads=threads) == [], lane


def test_a_non_conformable_pair_keeps_its_words():
    a = frame("int", 2, [[1, 2], [3]])
    b = frame("int", 2, [[], [4]])
    with pytest.raises(ReproError) as got:
        Applier(None, lambda n: False).apply_named(
            "mul", [a, b], (2, 2), 2, None)
    assert str(got.value) == \
        "mul^1: non-conformable frames with lengths [1, 3]"
