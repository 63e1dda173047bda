"""A depth-0 ``restrict`` / ``combine`` runs its kernel at level 0, on the
sequence itself: it must equal the unit-frame round trip it replaces
(``unwrap1(k([wrap1(a), ...]))``) to the byte, and fail in the same words
at depth 0 as at depth 1."""

import random

import pytest

from repro import ReproError, compile_program
from repro.fuzz.differ import ALL_BACKENDS, lane_call
from repro.errors import EvalError
from repro.lang.types import parse_type
from repro.vector import ops as O
from repro.vector.convert import from_python
from repro.vector.nested import NestedVector, VTuple


def unit_round_trip(k, *args):
    """The reference: the depth-1 kernel on unit frames."""
    return O.unwrap1(k(*[O.wrap1(a) for a in args]))


def assert_same(got, want):
    """Equal leaf by leaf: kind, every descriptor and the value vector,
    dtype and bytes."""
    if isinstance(want, VTuple):
        assert isinstance(got, VTuple) and len(got.items) == len(want.items)
        for g, w in zip(got.items, want.items):
            assert_same(g, w)
        return
    assert isinstance(got, NestedVector) and got.kind == want.kind
    assert len(got.descs) == len(want.descs)
    for g, w in zip((*got.descs, got.values), (*want.descs, want.values)):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def nested(rng, depth: int, leaf: str):
    """A random value of type ``seq^depth(leaf)``, rows of 0..3 items."""
    if depth == 0:
        if leaf == "(int, float)":
            return (rng.randrange(-9, 10), rng.choice([0.5, -0.0, 2.25]))
        return rng.randrange(-9, 10)
    return [nested(rng, depth - 1, leaf) for _ in range(rng.randrange(4))]


def seq_type(depth: int, leaf: str):
    text = leaf
    for _ in range(depth):
        text = f"seq({text})"
    return parse_type(text)


#: mask shapes: all true, all false, mixed, and the empty mask
MASKS = {"all-true": lambda n, rng: [True] * n,
         "all-false": lambda n, rng: [False] * n,
         "mixed": lambda n, rng: [rng.random() < 0.5 for _ in range(n)],
         "empty": lambda n, rng: []}

#: (element depth below the sequence, leaf): depth-0 sequences of depth 1..4
ELEMENTS = [(0, "int"), (1, "int"), (2, "int"), (3, "int"),
            (0, "(int, float)"), (1, "(int, float)")]


def cases():
    for (inner, leaf) in ELEMENTS:
        for mask in MASKS:
            for seed in range(3):
                yield pytest.param(inner, leaf, mask, seed,
                                   id=f"seq{inner + 1}-{leaf}-{mask}-{seed}")


@pytest.mark.parametrize("inner, leaf, mask, seed", cases())
def test_level0_restrict_is_the_unit_frame_round_trip(inner, leaf, mask, seed):
    rng = random.Random(seed)
    n = 0 if mask == "empty" else rng.randrange(1, 7)
    t = seq_type(inner + 1, leaf)
    v = from_python([nested(rng, inner, leaf) for _ in range(n)], t)
    m = from_python(MASKS[mask](n, rng), parse_type("seq(bool)"))
    assert_same(O.k_restrict(v, m, level=0),
                unit_round_trip(O.k_restrict, v, m))


@pytest.mark.parametrize("inner, leaf, mask, seed", cases())
def test_level0_combine_is_the_unit_frame_round_trip(inner, leaf, mask, seed):
    rng = random.Random(seed)
    n = 0 if mask == "empty" else rng.randrange(1, 7)
    keep = MASKS[mask](n, rng)
    t = seq_type(inner + 1, leaf)
    v = from_python([nested(rng, inner, leaf) for _ in range(sum(keep))], t)
    u = from_python([nested(rng, inner, leaf)
                     for _ in range(n - sum(keep))], t)
    m = from_python(keep, parse_type("seq(bool)"))
    assert_same(O.k_combine(m, v, u, level=0),
                unit_round_trip(O.k_combine, m, v, u))


def test_level0_kernels_check_what_the_unit_frame_checked():
    t = parse_type("seq(int)")
    v, m = from_python([1, 2], t), from_python([True], parse_type("seq(bool)"))
    for level0, unit in ((lambda: O.k_restrict(v, m, level=0),
                          lambda: unit_round_trip(O.k_restrict, v, m)),
                         (lambda: O.k_combine(m, v, v, level=0),
                          lambda: unit_round_trip(O.k_combine, m, v, v))):
        with pytest.raises(EvalError) as got:
            level0()
        with pytest.raises(EvalError) as want:
            unit()
        assert str(got.value) == str(want.value)


#: (source, args) failing a length check at depth 0 and at depth 1
LENGTH_ERRORS = {
    "restrict depth 0": ("fun f(v, m) = restrict(v, m)", [[1, 2], [True]]),
    "restrict depth 1": ("fun f(vv, mm) = [i <- [1..#vv]: "
                         "restrict(vv[i], mm[i])]",
                         [[[3], [1, 2]], [[False], [True]]]),
    "combine depth 0": ("fun f(m, v, u) = combine(m, v, u)",
                        [[True], [1], [2]]),
    "combine depth 1": ("fun f(mm, vv, uu) = [i <- [1..#mm]: "
                        "combine(mm[i], vv[i], uu[i])]",
                        [[[True], [False]], [[1], []], [[], [2, 3]]]),
}

#: what the vector lanes say; the interpreter says the same check with
#: its counts (``restrict: lengths differ (2 vs 1)``, ``combine: #m (1) !=
#: #v + #u (1 + 1)``)
WORDS = {"restrict": ("restrict: lengths differ", "restrict: lengths differ"),
         "combine": ("combine: #m != #v + #u within some frame element",
                     "combine: #m (")}


@pytest.mark.parametrize("case", LENGTH_ERRORS)
def test_length_errors_read_the_same_at_depth_0_and_1(case):
    src, args = LENGTH_ERRORS[case]
    words, interp_words = WORDS[case.split()[0]]
    prog = compile_program(src)
    for lane in ALL_BACKENDS:
        backend, threads = lane_call(lane)
        with pytest.raises(ReproError) as got:
            prog.run("f", args, backend=backend, threads=threads)
        assert type(got.value) is EvalError, lane
        if backend == "interp":
            assert str(got.value).startswith(interp_words)
        else:
            assert str(got.value) == words, lane


def test_a_depth_0_pack_and_merge_wrap_no_unit_frame(monkeypatch):
    calls = []
    for name in ("wrap1", "unwrap1"):
        real = getattr(O, name)
        monkeypatch.setattr(O, name, lambda v, real=real, name=name:
                            calls.append(name) or real(v))
    prog = compile_program("fun f(v) = [x <- v: if x > 0 then x else 0 - x]")
    assert prog.run("f", [[3, -1, 4, -2]]) == [3, 1, 4, 2]
    assert calls == []
