"""The order-preserving subtree kernels: ``compress_subtrees`` and
``merge_subtrees`` are mutually inverse (partition, then stitch) and neither
permutes, so each equals the gather it replaced — on raw level lists, and
through the five kernels that moved onto them, whose gather-based bodies are
kept below as the oracle (values bit for bit, tuple leaves, error class and
message)."""

import random
import sys

import numpy as np
import pytest

from repro.errors import EvalError, VectorError
from repro.lang.types import parse_type
from repro.vector import ops as O
from repro.vector import segments as S
from repro.vector.convert import from_python
from repro.vector.nested import (
    NestedVector, VTuple, first_leaf, map_leaves, zip_leaves,
)
from repro.vector.ops import item_levels
from repro.vector.segments import INT_DTYPE

SEEDS = range(12)
DEPTHS = (1, 2, 3, 4)


#: leaf kinds of the vector model, as the dtype and values a level list holds
#: (a ``fun`` leaf is a vector of function ids); floats include the values
#: ``==`` cannot tell apart or equate
KINDS = ("int", "bool", "float", "fun")
FLOATS = (float("nan"), -0.0, 0.0, 1.5, -2.25, float("inf"), float("-inf"))


def random_leaves(rng: random.Random, kind: str, n: int) -> np.ndarray:
    if kind == "bool":
        return np.array([rng.random() < 0.5 for _ in range(n)], dtype=np.bool_)
    if kind == "float":
        return np.array([rng.choice(FLOATS) for _ in range(n)],
                        dtype=np.float64)
    lo, hi = (0, 5) if kind == "fun" else (-99, 100)
    return np.array([rng.randrange(lo, hi) for _ in range(n)],
                    dtype=INT_DTYPE)


def random_levels(rng: random.Random, depth: int, top: int,
                  kind: str = "int", holes: bool = False) -> list:
    """``[d_1, .., d_{depth-1}, values]`` under ``top`` nodes, with empty
    segments at every level; ``holes`` puts empty subtrees first, last and
    side by side at every level that has the room."""
    levels, n = [], top
    for _ in range(depth - 1):
        d = np.array([rng.choice((0, 0, 1, 2, 3)) for _ in range(n)],
                     dtype=INT_DTYPE)
        if holes and n >= 5:
            d[[0, n // 2, n // 2 + 1, -1]] = 0
            d[1] = 3                    # something left to select
        levels.append(d)
        n = int(d.sum())
    levels.append(random_leaves(rng, kind, n))
    return levels


def masks(rng: random.Random, n: int):
    yield "all-true", np.ones(n, dtype=np.bool_)
    yield "all-false", np.zeros(n, dtype=np.bool_)
    yield "random", np.array([rng.random() < 0.5 for _ in range(n)],
                             dtype=np.bool_)
    yield "alternating", np.arange(n) % 2 == 0
    if n:
        one = np.zeros(n, dtype=np.bool_)
        one[rng.randrange(n)] = True
        yield "one-true", one
        yield "one-false", ~one


def same_levels(a: list, b: list) -> bool:
    """Same dtypes and the same bits, level by level (not ``==``: NaN and
    -0.0 leaves)."""
    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.shape == y.shape
        and x.tobytes() == y.tobytes() for x, y in zip(a, b))


def forests(rng: random.Random, depth: int):
    """Level lists of every leaf kind: over no nodes (the zero-length
    mask), one, a few, and enough to hold the holes."""
    for kind in KINDS:
        for top in (0, 1, rng.randrange(2, 9)):
            yield f"{kind}/{top}", top, random_levels(rng, depth, top, kind)
        top = rng.randrange(6, 12)
        yield f"{kind}/{top}/holes", top, random_levels(rng, depth, top, kind,
                                                        holes=True)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("depth", DEPTHS)
def test_merge_inverts_compress(seed, depth):
    """ROADMAP 3d, partition-then-stitch: splitting an ordered forest by a
    mask and merging the halves by the same mask is the identity."""
    rng = random.Random(seed * 100 + depth)
    for which, top, levels in forests(rng, depth):
        for what, m in masks(rng, top):
            back = S.merge_subtrees(m, S.compress_subtrees(levels, m),
                                    S.compress_subtrees(levels, ~m))
            assert same_levels(back, levels), (which, what)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("depth", DEPTHS)
def test_compress_is_the_increasing_gather(seed, depth):
    rng = random.Random(seed * 100 + depth + 50)
    for which, top, levels in forests(rng, depth):
        for what, m in masks(rng, top):
            want = S.gather_subtrees(levels, np.flatnonzero(m))
            assert same_levels(S.compress_subtrees(levels, m), want), \
                (which, what)


def test_merge_rejects_depth_mismatch():
    one, two = [np.array([1])], [np.array([1]), np.array([2])]
    with pytest.raises(VectorError, match="depth mismatch"):
        S.merge_subtrees(np.array([True, False]), one, two)


def test_a_forest_that_does_not_fit_its_mask_is_a_typed_error():
    """Per level, from the sizes the index gives for free: NumPy's own
    IndexError / ValueError before, or a one-node forest silently
    broadcast into two slots."""
    T, F = True, False
    short = np.array([T, F, T])
    cases = [
        (lambda: S.compress_subtrees([np.arange(5)], short),
         "compress_subtrees: mask has 3 entries for 5 nodes"),
        (lambda: S.compress_subtrees([np.arange(2)], short),
         "compress_subtrees: mask has 3 entries for 2 nodes"),
        (lambda: S.compress_subtrees([np.array([1, 0, 1]), np.arange(5)],
                                     short),     # one level down
         "compress_subtrees: mask has 2 entries for 5 nodes"),
        (lambda: S.merge_subtrees(short, [np.arange(3)], [np.arange(1)]),
         "merge_subtrees: mask keeps 2 of a's 3 nodes"),
        (lambda: S.merge_subtrees(short, [np.arange(1)], [np.arange(1)]),
         "merge_subtrees: mask keeps 2 of a's 1 nodes"),
        (lambda: S.merge_subtrees(~short, [np.arange(1)], [np.arange(1)]),
         "merge_subtrees: mask keeps 2 of b's 1 nodes"),
        (lambda: S.merge_subtrees(short, [np.array([1, 1]), np.arange(2)],
                                  [np.array([2]), np.arange(3)]),
         "merge_subtrees: mask keeps 2 of b's 3 nodes"),
    ]
    for call, message in cases:
        with pytest.raises(VectorError) as got:
            call()
        assert str(got.value) == message


# -- restrict counts what it kept ---------------------------------------------

#: descriptors with no segment, one, and empty segments leading, trailing,
#: side by side and throughout
SEGMENTS = ([], [0], [4], [0, 3, 2], [3, 2, 0], [0, 0, 2, 0, 0, 5, 0],
            [0, 0, 0], [1] * 9, [7, 1, 0, 6])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", KINDS)
def test_restrict_counts_what_it_kept(seed, kind):
    """The new lengths are the kept items per segment — the segmented sum
    of the mask, int64, zero for an empty segment wherever it sits — and
    the values are the mask read, bit for bit."""
    rng = random.Random(f"{seed}/{kind}")
    for lens in SEGMENTS:
        counts = np.array(lens, dtype=INT_DTYPE)
        values = random_leaves(rng, kind, sum(lens))
        v = NestedVector([[len(lens)], lens], values, kind)
        for what, keep in masks(rng, sum(lens)):
            got = O.k_restrict(v, bools(keep.tolist(), lens))
            want = S.seg_sum(keep.astype(INT_DTYPE), counts)
            assert same_levels([*got.descs, got.values],
                               [v.descs[0], want, values[keep]]), (lens, what)
            assert got.descs[1].dtype == INT_DTYPE and got.kind == kind


def test_restrict_builds_one_index_per_op():
    """A flat frame of 3-tuples is three leaves under one mask: the index
    is per op, not per leaf."""
    rng = random.Random(3)
    lens = [3, 0, 4, 1]
    v = frame_of_seqs(rng, "(int, bool, int)", lens)
    m = bools([rng.random() < 0.5 for _ in range(sum(lens))], lens)
    assert len(v.items) == 3
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "c_call" and arg.__name__ == "nonzero"
    sys.setprofile(count)
    try:
        got = O.k_restrict(v, m)
    finally:
        sys.setprofile(None)
    assert calls == 1
    assert identical(got, gather_restrict(v, m))


# -- the five kernels against their gather-based bodies ----------------------
#
# The bodies below are the kernels as they stood before compress/merge:
# an index vector per op, one gather through the pooled levels.

def gather_seq_index(v, i):
    def go(leaf):
        lens = leaf.descs[1]
        O._check_index(i.values, lens, "index")
        idx = S.seg_starts(lens) + i.values - 1
        got = S.gather_subtrees(item_levels(leaf, 2), idx)
        return NestedVector([leaf.descs[0], *got[:-1]], got[-1], leaf.kind)
    return map_leaves(go, v)


def gather_restrict(v, m):
    mcounts = m.descs[1]
    keep = m.values
    new_counts = S.seg_sum(keep.astype(INT_DTYPE), mcounts)
    idx = np.flatnonzero(keep).astype(INT_DTYPE)

    def go(leaf):
        if not np.array_equal(leaf.descs[1], mcounts):
            raise EvalError("restrict: lengths differ")
        got = S.gather_subtrees(item_levels(leaf, 2), idx)
        return NestedVector([leaf.descs[0], new_counts, *got[:-1]], got[-1],
                            leaf.kind)
    return map_leaves(go, v)


def gather_combine(m, v, u):
    keep = m.values
    mcounts = m.descs[1]
    trues = S.seg_sum(keep.astype(INT_DTYPE), mcounts)
    falses = mcounts - trues
    rank_t = np.cumsum(keep) - 1
    rank_f = np.cumsum(~keep) - 1

    def go(vleaf, uleaf):
        if not np.array_equal(vleaf.descs[1], trues) or \
           not np.array_equal(uleaf.descs[1], falses):
            raise EvalError("combine: #m != #v + #u within some frame element")
        nv_items = int(vleaf.descs[1].sum())
        pool = S.concat_levels(item_levels(vleaf, 2), item_levels(uleaf, 2))
        idx = np.where(keep, rank_t, nv_items + rank_f).astype(INT_DTYPE)
        got = S.gather_subtrees(pool, idx)
        return NestedVector([m.descs[0], mcounts, *got[:-1]], got[-1],
                            vleaf.kind)
    return zip_leaves(go, v, u)


def gather_seq_cons(*args):
    k = len(args)
    n = O.frame_len(args[0])
    counts = np.full(n, k, dtype=INT_DTYPE)

    def go(*leaves):
        pool = item_levels(leaves[0], 1)
        for x in leaves[1:]:
            pool = S.concat_levels(pool, item_levels(x, 1))
        idx = (np.arange(n, dtype=INT_DTYPE)[:, None]
               + n * np.arange(k, dtype=INT_DTYPE)[None, :]).ravel()
        got = S.gather_subtrees(pool, idx)
        return NestedVector([leaves[0].descs[0], counts, *got[:-1]], got[-1],
                            leaves[0].kind)

    def zipn(vals):
        if isinstance(vals[0], VTuple):
            return VTuple([zipn([v.items[i] for v in vals])
                           for i in range(len(vals[0].items))])
        return go(*vals)
    return zipn(list(args))


def gather_concat(v, w):
    vc, wc = first_leaf(v).descs[1], first_leaf(w).descs[1]
    out_counts = vc + wc
    pos = S.seg_iota(out_counts)
    rep_vc = np.repeat(vc, out_counts)
    idx = np.where(pos < rep_vc,
                   np.repeat(S.seg_starts(vc), out_counts) + pos,
                   int(vc.sum()) + np.repeat(S.seg_starts(wc), out_counts)
                   + pos - rep_vc).astype(INT_DTYPE)

    def go(vleaf, wleaf):
        pool = S.concat_levels(item_levels(vleaf, 2), item_levels(wleaf, 2))
        got = S.gather_subtrees(pool, idx)
        return NestedVector([vleaf.descs[0], out_counts, *got[:-1]], got[-1],
                            vleaf.kind)
    return zip_leaves(go, v, w)


def identical(a, b) -> bool:
    """Same structure, dtypes and bits, leaf by leaf."""
    if isinstance(a, VTuple):
        return (isinstance(b, VTuple) and len(a.items) == len(b.items)
                and all(identical(x, y) for x, y in zip(a.items, b.items)))
    return (isinstance(b, NestedVector) and a.kind == b.kind
            and same_levels([*a.descs, a.values], [*b.descs, b.values]))


def outcome(fn, *args):
    try:
        return fn(*args)
    except (EvalError, VectorError) as exc:
        return type(exc), str(exc)


def agree(new, old, *args):
    got, want = outcome(new, *args), outcome(old, *args)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert identical(got, want)


#: element types the frames are drawn over: scalar, nested, tuple leaves
ELEMS = ("int", "seq(int)", "seq(seq(int))", "(int, bool)",
         "seq((int, seq(int)))")


def random_value(rng: random.Random, t: str):
    t = t.strip()
    if t == "int":
        return rng.randrange(-99, 100)
    if t == "bool":
        return rng.random() < 0.5
    if t.startswith("seq("):
        return [random_value(rng, t[4:-1])
                for _ in range(rng.choice((0, 0, 1, 2, 3)))]
    parts, depth, cur = [], 0, ""
    for ch in t[1:-1]:
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
            continue
        depth += ch == "("
        depth -= ch == ")"
        cur += ch
    return tuple(random_value(rng, p) for p in [*parts, cur])


def frame_of_seqs(rng: random.Random, elem: str, lens: list):
    """A depth-1 frame of ``len(lens)`` sequences of the given lengths."""
    py = [[random_value(rng, elem) for _ in range(n)] for n in lens]
    return from_python(py, parse_type(f"seq(seq({elem}))"))


def bools(values: list, lens: list) -> NestedVector:
    return NestedVector([[len(lens)], lens], np.array(values, dtype=bool),
                        "bool")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("elem", ELEMS)
def test_kernels_equal_their_gather_bodies(seed, elem):
    rng = random.Random(f"{seed}/{elem}")
    lens = [rng.choice((0, 0, 1, 2, 4)) for _ in range(rng.randrange(0, 6))]
    total = sum(lens)
    v = frame_of_seqs(rng, elem, lens)
    for what, keep in masks(rng, total):
        m = bools(keep.tolist(), lens)
        agree(O.k_restrict, gather_restrict, v, m)
        trues = S.seg_sum(keep.astype(INT_DTYPE),
                          np.array(lens, dtype=INT_DTYPE)).tolist()
        a = frame_of_seqs(rng, elem, trues)
        b = frame_of_seqs(rng, elem, [n - t for n, t in zip(lens, trues)])
        agree(O.k_combine, gather_combine, m, a, b)
    w = frame_of_seqs(rng, elem, [rng.choice((0, 1, 3)) for _ in lens])
    agree(O.k_concat, gather_concat, v, w)
    full = [n for n in lens if n]       # seq_index needs non-empty segments
    src = frame_of_seqs(rng, elem, full)
    i = from_python([rng.randrange(1, n + 1) for n in full],
                    parse_type("seq(int)"))
    agree(O.k_seq_index, gather_seq_index, src, i)
    x = from_python([random_value(rng, elem) for _ in lens],
                    parse_type(f"seq({elem})"))
    y = from_python([random_value(rng, elem) for _ in lens],
                    parse_type(f"seq({elem})"))
    agree(O.k_seq_cons, gather_seq_cons, x, y)
    agree(O.k_seq_cons, gather_seq_cons, x, y, x)   # three keep the gather


def test_errors_keep_class_message_and_first_offender():
    rng = random.Random(7)
    v = frame_of_seqs(rng, "seq(int)", [2, 0, 3])
    agree(O.k_restrict, gather_restrict, v,
          bools([True, False, True], [2, 1]))           # lengths differ
    m = bools([True, False, True, True, False], [2, 0, 3])
    agree(O.k_combine, gather_combine, m,
          frame_of_seqs(rng, "seq(int)", [1, 0, 1]),    # #m != #v + #u
          frame_of_seqs(rng, "seq(int)", [1, 0, 1]))
    for idx in ([1, 1, 4], [0, 1, 1], [3, 7, 9]):       # first offender
        agree(O.k_seq_index, gather_seq_index, v,
              from_python(idx, parse_type("seq(int)")))
    assert outcome(O.k_restrict, v, bools([True, False, True], [2, 1])) == \
        (EvalError, "restrict: lengths differ")
    assert outcome(O.k_seq_index, v,
                   from_python([1, 1, 4], parse_type("seq(int)"))) == \
        (EvalError, "index 1 out of range 1..0")
