"""Depth-1 parallel extensions of every P primitive (paper section 4.4).

The paper's translation rule T1 reduces every ``f^d`` (d >= 2) to ``f^1``
between ``extract``/``insert``, so the kernels here — together with the
depth-0 wrappers at the bottom — are the *complete* executable vocabulary of
the vector model V.

Kernel calling convention: every argument is a **depth-1 frame** — a vector
value whose top nesting level is the iteration space (all arguments share
the same top length).  Depth-0 arguments have already been replicated by the
evaluator (section 3: "we rely on parallel extensions of functions to
replicate such single values"), except where the section-4.5 shared-argument
fast paths below (``seq_index_shared``) apply; an elementwise op's value
function (:data:`UFUNCS`) reads a depth-0 operand as a 0-d array
(:func:`scalar_operand`).

Element types may be arbitrarily nested: every kernel that moves elements
hands the level arrays below them to one of the three subtree kernels of
:mod:`repro.vector.segments` — ``compress_subtrees`` / ``merge_subtrees``
where the order is kept (``restrict``, ``seq_index``, ``combine``,
``concat``, a two-element constructor), ``gather_subtrees`` where elements
are replicated or permuted.  An order-preserving op selects through one
increasing index vector: ``restrict`` takes the ``nonzero`` of its mask once
per op, shares it between the leaves of a tuple frame and counts the new
lengths from it; ``seq_index`` computes its index and never builds a mask
for flat items.  Results are built with :meth:`NestedVector.splice`, so
descriptor levels taken over from an argument are not validated again.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from repro.errors import EvalError, VectorError
from repro.guard import runtime as _guard
from repro.lang import builtins as B
from repro.lang import types as T
from repro.obs import runtime as _obs
from repro.vector import segments as S
from repro.vector.nested import (
    FUNTABLE, KIND_DTYPES, NestedVector, Value, VFun, VTuple, first_leaf,
    map_leaves, zip_leaves,
)
from repro.vector.segments import INT_DTYPE

# ---------------------------------------------------------------------------
# Frame helpers
# ---------------------------------------------------------------------------


def frame_len(v: Value) -> int:
    """Top length of a depth-1 frame."""
    leaf = first_leaf(v)
    if not isinstance(leaf, NestedVector):
        raise VectorError(f"not a frame: {v!r}")
    return leaf.top_length


def check_conformable(args: list[Value], what: str) -> int:
    """All depth-1 frames must agree on the top length; returns it."""
    n = frame_len(args[0])
    for a in args[1:]:
        if frame_len(a) != n:
            ns = sorted({frame_len(a) for a in args})
            raise VectorError(
                f"{what}: non-conformable frames with lengths {ns}")
    return n


def kind_of_scalar(t: T.Type) -> str:
    if isinstance(t, T.TInt):
        return "int"
    if isinstance(t, T.TBool):
        return "bool"
    if isinstance(t, T.TFloat):
        return "float"
    if isinstance(t, T.TFun):
        return "fun"
    raise VectorError(f"not a scalar leaf type: {t!r}")


def item_levels(nv: NestedVector, k: int) -> list[np.ndarray]:
    """Level arrays describing the *items at nesting level k* (1 = the frame
    elements themselves, 2 = elements of the frame's sequences, ...)."""
    return [*nv.descs[k:], nv.values]


def broadcast_to_count(c: Value, n: int) -> Value:
    """Replicate a depth-0 value ``c`` into a depth-1 frame of ``n`` copies."""
    out = _broadcast(c, n)
    # unit-frame wrapping (wrap1) also lands here; only real fan-out is a
    # replicate in the profile
    if n > 1 and _obs.PROFILER is not None:
        count_kernel("replicate", n, (), out)
    return out


def scalar_operand(c: Value) -> tuple[np.ndarray, str]:
    """Depth-0 scalar ``c`` as a kernel operand: a 0-d array of its leaf
    kind's dtype, and the kind.  An int outside int64 is refused in the
    boundary's words (:func:`repro.vector.convert.from_python`)."""
    if isinstance(c, bool):
        kind = "bool"
    elif isinstance(c, (float, np.floating)):
        kind = "float"
    elif isinstance(c, (int, np.integer)):
        kind = "int"
    elif isinstance(c, VFun):
        c, kind = FUNTABLE.intern(c.name), "fun"
    else:
        raise VectorError(f"cannot broadcast {c!r}")
    try:
        return np.array(c, KIND_DTYPES[kind]), kind
    except OverflowError:
        raise VectorError(f"integer {c!r} does not fit int64") from None


def _broadcast(c: Value, n: int) -> Value:
    if isinstance(c, VTuple):
        return VTuple([_broadcast(x, n) for x in c.items])
    if isinstance(c, NestedVector):
        top = np.array([n], dtype=INT_DTYPE)
        reps = np.full(n, c.top_length, dtype=INT_DTYPE)
        lower = [np.tile(d, n) for d in c.descs[1:]]
        return NestedVector.splice(np.tile(c.values, n), c.kind,
                                   new=[top, reps, *lower])
    # n copies of a scalar, not written out (section 4.5): a read-only
    # stride-0 view of one stored element
    one, kind = scalar_operand(c)
    values = np.ndarray((n,), one.dtype, one, 0, (0,))
    values.flags.writeable = False
    return NestedVector([[n]], values, kind)


def empty_frame_value(t: T.Type) -> Value:
    """A depth-0 empty value of sequence type ``t`` (used for depth-0 empty
    sequence literals and for ``__empty`` at j == 1)."""
    if isinstance(t, T.TSeq) and isinstance(t.elem, T.TTuple):
        return VTuple([empty_frame_value(T.TSeq(it)) for it in t.elem.items])
    if not isinstance(t, T.TSeq):
        raise VectorError(f"empty value must have sequence type, got {t!r}")
    depth = T.seq_depth(t)
    leaf = T.peel(t, depth)
    if isinstance(leaf, T.TTuple):
        # Seq^d(tuple): push outward
        return VTuple([empty_frame_value(T.seq_of(it, depth)) for it in leaf.items])
    descs = [np.array([0], dtype=INT_DTYPE)]
    for _ in range(depth - 1):
        descs.append(np.empty(0, dtype=INT_DTYPE))
    kind = kind_of_scalar(leaf)
    dtype = {"bool": np.bool_, "float": np.float64}.get(kind, INT_DTYPE)
    return NestedVector(descs, np.empty(0, dtype=dtype), kind)


# ---------------------------------------------------------------------------
# Elementwise scalar kernels
# ---------------------------------------------------------------------------


# a checked op raises only on a non-empty frame: an operand may be a
# depth-0 scalar (a 0-d array), which an empty frame never reads
def _fdiv_vals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.size and b.size and (b == 0.0).any():
        raise EvalError("division by zero")
    return a / b


def _sqrt_vals(a: np.ndarray) -> np.ndarray:
    if a.size and (a < 0).any():
        raise EvalError("sqrt of negative value")
    return np.sqrt(a)


def _div_vals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.size and b.size and (b == 0).any():
        raise EvalError("division by zero")
    return a // b


def _mod_vals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.size and b.size and (b == 0).any():
        raise EvalError("mod by zero")
    return a % b


#: the value-array function of every elementwise primitive: its kernel
#: applies it to a frame's flat values, a fused region
#: (:func:`repro.transform.fuse.eval_tree`) to its leaves'
UFUNCS: dict[str, Callable[..., np.ndarray]] = {
    "add": np.add, "sub": np.subtract, "mul": np.multiply,
    "div": _div_vals, "mod": _mod_vals, "max2": np.maximum,
    "min2": np.minimum, "neg": np.negative, "abs_": np.abs,
    "fdiv": _fdiv_vals, "sqrt_": _sqrt_vals,
    "real": lambda a: a.astype(np.float64),
    "trunc_": lambda a: np.trunc(a).astype(INT_DTYPE),
    "round_": lambda a: np.rint(a).astype(INT_DTYPE),
    "floor_": lambda a: np.floor(a).astype(INT_DTYPE),
    "ceil_": lambda a: np.ceil(a).astype(INT_DTYPE),
    "eq": np.equal, "ne": np.not_equal, "lt": np.less,
    "le": np.less_equal, "gt": np.greater, "ge": np.greater_equal,
    "and_": np.logical_and, "or_": np.logical_or, "not_": np.logical_not,
}


def _ew(name: str):
    """Elementwise kernel of primitive ``name``: its value function, the
    result kind its catalog row reads off the scheme."""
    op, row = UFUNCS[name], B.get_builtin(name)
    fixed, src = row.result_kind, row.kind_from

    def kernel(*args: NestedVector) -> NestedVector:
        vals = op(*[a.values for a in args])
        return args[0].with_values(vals, fixed if src is None
                                   else args[src].kind)
    return kernel


# ---------------------------------------------------------------------------
# Sequence kernels (all: depth-1 frame arguments)
# ---------------------------------------------------------------------------


def k_length(v: Value) -> NestedVector:
    leaf = first_leaf(v)
    if leaf.depth < 2:
        raise VectorError("length^1: frame elements are not sequences")
    return NestedVector.splice(leaf.descs[1].copy(), "int", leaf, 1)


def k_range1(n: NestedVector) -> NestedVector:
    lens = np.maximum(n.values, 0)
    return NestedVector.splice(S.seg_iota(lens) + 1, "int", n, 1, (lens,))


def k_range(a: NestedVector, b: NestedVector) -> NestedVector:
    lens = np.maximum(b.values - a.values + 1, 0)
    vals = S.seg_iota(lens) + np.repeat(a.values, lens)
    return NestedVector.splice(vals, "int", a, 1, (lens,))


def _range_error(what: str, i: np.ndarray,
                 lens: np.ndarray | int) -> EvalError:
    """The interpreter's words for the first index of ``i`` outside
    ``1..lens`` (a bound per index, or one for all)."""
    bad = int(((i < 1) | (i > lens)).argmax())
    n = lens if np.ndim(lens) == 0 else lens[bad]
    return EvalError(f"{what} {int(i[bad])} out of range 1..{int(n)}")


def _check_index(i: np.ndarray, lens: np.ndarray, what: str) -> None:
    if i.size and ((i < 1) | (i > lens)).any():
        raise _range_error(what, i, lens)


def k_seq_index(v: Value, i: NestedVector) -> Value:
    def go(leaf: NestedVector) -> NestedVector:
        lens = leaf.descs[1]
        _check_index(i.values, lens, "index")
        # one item per segment, so the index is increasing: a compress
        got = S._compress(item_levels(leaf, 2),
                          S.seg_starts(lens) + i.values - 1)
        return NestedVector.splice(got[-1], leaf.kind, leaf, 1, got[:-1])
    return map_leaves(go, v)


def k_seq_index_shared(v: Value, i: NestedVector) -> Value:
    """Section 4.5 fast path: the source sequence is a *shared* depth-0
    value; index without replicating it."""
    def go(leaf: NestedVector) -> NestedVector:
        n = int(leaf.descs[0][0])
        iv = i.values
        if iv.size and (int(iv.min()) < 1 or int(iv.max()) > n):
            # _check_index's report, without a full-size mask on the hot path
            raise _range_error("index", iv, n)
        got = S.gather_subtrees(item_levels(leaf, 1), i.values - 1)
        return NestedVector.splice(got[-1], leaf.kind, i, 1, got[:-1])
    out = map_leaves(go, v)
    if _obs.PROFILER is not None:
        count_kernel("seq_index_shared", int(i.values.size), (v, i), out)
    return out


def k_seq_index_segshared(v: Value, i: NestedVector,
                          seg_counts: np.ndarray) -> Value:
    """Segmented shared indexing (generalized section 4.5).

    ``v`` is a depth-1 frame of M *segments* (the sequences being indexed,
    one per enclosing iteration point); ``i`` is the flat depth-1 frame of
    indices, of which ``seg_counts[k]`` belong to segment k.  Gathers each
    index from *its own* segment without replicating the segment per index
    — the replication the naive translation would do is O(sum(len^2)).
    """
    seg_counts = np.asarray(seg_counts, dtype=INT_DTYPE)
    M = int(seg_counts.size)
    seg_of = np.repeat(np.arange(M, dtype=INT_DTYPE), seg_counts)

    def go(leaf: NestedVector) -> NestedVector:
        lens = leaf.descs[1]
        if lens.size != M:
            raise VectorError("segshared index: segment count mismatch")
        _check_index(i.values, lens[seg_of], "index")
        idx = S.seg_starts(lens)[seg_of] + i.values - 1
        got = S.gather_subtrees(item_levels(leaf, 2), idx)
        return NestedVector.splice(got[-1], leaf.kind, i, 1, got[:-1])
    out = map_leaves(go, v)
    if _obs.PROFILER is not None:
        count_kernel("seq_index_segshared", int(i.values.size), (v, i), out)
    return out


def k_seq_update(v: Value, i: NestedVector, x: Value) -> Value:
    def go(leaf: NestedVector, xleaf: Value) -> NestedVector:
        lens = leaf.descs[1]
        _check_index(i.values, lens, "update index")
        pos = S.seg_starts(lens) + i.values - 1
        total = int(lens.sum())
        if leaf.depth == 2:  # scalar elements: in-place on a copy
            vals = leaf.values.copy()
            vals[pos] = xleaf.values
            return leaf.with_values(vals, leaf.kind)
        mask = np.zeros(total, dtype=bool)
        mask[pos] = True
        seg_id = np.repeat(np.arange(len(lens), dtype=INT_DTYPE), lens)
        pool = S.concat_levels(item_levels(leaf, 2), item_levels(xleaf, 1))
        idx = np.arange(total, dtype=INT_DTYPE)
        idx[mask] = total + seg_id[mask]
        got = S.gather_subtrees(pool, idx)
        return NestedVector.splice(got[-1], leaf.kind, leaf, 2, got[:-1])
    return zip_leaves(go, v, x)


def k_restrict(v: Value, m: NestedVector, level: int = 1) -> Value:
    mcounts = m.descs[level]
    keep = m.values
    idx = keep.nonzero()[0]     # once per op: every leaf selects through it
    # the kept items per segment, counted from the index
    seg_of = np.arange(mcounts.size, dtype=INT_DTYPE).repeat(mcounts)
    new_counts = np.bincount(seg_of.take(idx), minlength=mcounts.size)

    def go(leaf: NestedVector) -> NestedVector:
        if not np.array_equal(leaf.descs[level], mcounts):
            raise EvalError("restrict: lengths differ")
        got = S._compress(item_levels(leaf, level + 1), idx, keep)
        return NestedVector.splice(got[-1], leaf.kind, leaf, level,
                                   (new_counts, *got[:-1]))
    return map_leaves(go, v)


def k_combine(m: NestedVector, v: Value, u: Value, level: int = 1) -> Value:
    keep = m.values
    mcounts = m.descs[level]
    trues = S.seg_sum(keep.astype(INT_DTYPE), mcounts)
    falses = mcounts - trues

    def go(vleaf: NestedVector, uleaf: NestedVector) -> NestedVector:
        if not np.array_equal(vleaf.descs[level], trues) or \
           not np.array_equal(uleaf.descs[level], falses):
            raise EvalError("combine: #m != #v + #u within some frame element")
        got = S.merge_subtrees(keep, item_levels(vleaf, level + 1),
                               item_levels(uleaf, level + 1))
        return NestedVector.splice(got[-1], vleaf.kind, m, level + 1,
                                   got[:-1])
    return zip_leaves(go, v, u)


def k_dist(c: Value, r: NestedVector) -> Value:
    if r.values.size and r.values.min() < 0:
        raise EvalError("dist: negative count")
    idx = np.repeat(np.arange(r.values.size, dtype=INT_DTYPE), r.values)

    def go(leaf: NestedVector) -> NestedVector:
        got = S.gather_subtrees(item_levels(leaf, 1), idx)
        return NestedVector.splice(got[-1], leaf.kind, r, 1,
                                   (r.values, *got[:-1]))
    return map_leaves(go, c)


def k_seq_cons(*args: Value) -> Value:
    """[e1,...,ek]^1 : interleave k conformable frames into length-k rows."""
    k = len(args)
    if k == 0:
        raise VectorError("seq_cons^1 needs at least one argument")
    n = frame_len(args[0])
    counts = np.full(n, k, dtype=INT_DTYPE)
    if k == 2:  # rows (a_m, b_m): the two frames merged alternately
        first = np.zeros(2 * n, dtype=np.bool_)
        first[0::2] = True

        def rows(leaves: tuple) -> list[np.ndarray]:
            return S.merge_subtrees(first, item_levels(leaves[0], 1),
                                    item_levels(leaves[1], 1))
    else:
        # element (m, t) -> pool index t*n + m
        idx = (np.arange(n, dtype=INT_DTYPE)[:, None]
               + n * np.arange(k, dtype=INT_DTYPE)[None, :]).ravel()

        def rows(leaves: tuple) -> list[np.ndarray]:
            pool = item_levels(leaves[0], 1)
            for x in leaves[1:]:
                pool = S.concat_levels(pool, item_levels(x, 1))
            return S.gather_subtrees(pool, idx)

    def go(*leaves: NestedVector) -> NestedVector:
        got = rows(leaves)
        return NestedVector.splice(got[-1], leaves[0].kind, leaves[0], 1,
                                   (counts, *got[:-1]))

    # zip across the tuple structure of all args
    def zipn(f, vals):
        if isinstance(vals[0], VTuple):
            return VTuple([zipn(f, [v.items[i] for v in vals])
                           for i in range(len(vals[0].items))])
        return f(*vals)
    return zipn(go, list(args))


def k_flatten(v: Value) -> Value:
    """flatten^1: pure descriptor surgery (the section-4.5 native version)."""
    def go(leaf: NestedVector) -> NestedVector:
        if leaf.depth < 3:
            raise VectorError("flatten^1: elements are not nested sequences")
        merged = S.seg_sum(leaf.descs[2], leaf.descs[1])
        return NestedVector.splice(leaf.values, leaf.kind, leaf, 1, (merged,),
                                   leaf, 3)
    return map_leaves(go, v)


def k_concat(v: Value, w: Value) -> Value:
    vleaf0, wleaf0 = first_leaf(v), first_leaf(w)
    vc, wc = vleaf0.descs[1], wleaf0.descs[1]
    out_counts = vc + wc
    # segment k of the result is vc[k] items of v, then wc[k] items of w
    runs = np.empty(2 * vc.size, dtype=INT_DTYPE)
    runs[0::2] = vc
    runs[1::2] = wc
    from_v = np.zeros(2 * vc.size, dtype=np.bool_)
    from_v[0::2] = True
    take_v = np.repeat(from_v, runs)

    def go(vleaf: NestedVector, wleaf: NestedVector) -> NestedVector:
        got = S.merge_subtrees(take_v, item_levels(vleaf, 2),
                               item_levels(wleaf, 2))
        return NestedVector.splice(got[-1], vleaf.kind, vleaf, 1,
                                   (out_counts, *got[:-1]))
    return zip_leaves(go, v, w)


def k_rank(v: NestedVector) -> NestedVector:
    """rank^1: 1-origin stable ascending ranks within each segment."""
    counts = v.descs[1]
    n = v.values.size
    if n == 0:
        return v.with_values(v.values.astype(INT_DTYPE), "int")
    seg_id = np.repeat(np.arange(counts.size, dtype=INT_DTYPE), counts)
    order = np.lexsort((np.arange(n), v.values, seg_id))  # stable per segment
    pos_in_seg = np.arange(n, dtype=INT_DTYPE) - np.repeat(
        S.seg_starts(counts), counts)
    ranks = np.empty(n, dtype=INT_DTYPE)
    ranks[order] = pos_in_seg + 1
    return v.with_values(ranks, "int")


def k_permute(v: Value, i: NestedVector) -> Value:
    """permute^1: scatter each segment's items to the 1-origin targets."""
    lens = i.descs[1]
    _check_index(i.values, np.repeat(lens, lens), "permute: index")
    total = int(lens.sum())
    inv = np.empty(total, dtype=INT_DTYPE)
    if total:
        targets = np.repeat(S.seg_starts(lens), lens) + i.values - 1
        seen = np.zeros(total, dtype=bool)
        seen[targets] = True
        if not seen.all():
            raise EvalError("permute: target indices are not a permutation")
        inv[targets] = np.arange(total, dtype=INT_DTYPE)

    def go(leaf: NestedVector) -> NestedVector:
        if not np.array_equal(leaf.descs[1], lens):
            raise EvalError("permute: lengths differ")
        got = S.gather_subtrees(item_levels(leaf, 2), inv)
        return NestedVector.splice(got[-1], leaf.kind, leaf, 2, got[:-1])
    return map_leaves(go, v)


def _fold(name: str):
    """Kernel of segmented fold ``name``: its ``FOLDS`` kernel over each
    segment; its catalog row says whether the result keeps the frame
    level (a reduction) or every level (a scan), and of what kind."""
    seg, row = S.FOLDS[name], B.get_builtin(name)
    keep = 1 if row.fold == "reduce" else 2

    def kernel(v: NestedVector) -> NestedVector:
        return NestedVector.splice(seg(v.values, v.descs[1]),
                                   row.result_kind or v.kind, v, keep)
    return kernel


# ---------------------------------------------------------------------------
# Kernel table
# ---------------------------------------------------------------------------

KERNELS: dict[str, Callable[..., Value]] = {
    **{name: _ew(name) for name in UFUNCS},
    "length": k_length,
    "range1": k_range1,
    "range": k_range,
    "seq_index": k_seq_index,
    "seq_update": k_seq_update,
    "restrict": k_restrict,
    "combine": k_combine,
    "dist": k_dist,
    "flatten": k_flatten,
    "concat": k_concat,
    **{name: _fold(name) for name in S.FOLDS},
    "rank": k_rank,
    "permute": k_permute,
    "__seq_cons": k_seq_cons,
    "__rep": lambda w, c: c,  # c was already replicated by the caller
}

#: the kernels whose segment counts are at descriptor ``level``: 1 for a
#: frame, 0 for a depth-0 sequence, whose ``descs[0]`` is its one segment
LEVEL0 = frozenset({"restrict", "combine"})


# ---------------------------------------------------------------------------
# Evaluator support: depth-0 construction, wrapping, frame surgery
# ---------------------------------------------------------------------------


def take_elements(frame: Value, idx: np.ndarray) -> Value:
    """Gather elements of a depth-1 frame by (0-based) index vector."""
    idx = np.asarray(idx, dtype=INT_DTYPE)

    def go(leaf: NestedVector) -> NestedVector:
        got = S.gather_subtrees(item_levels(leaf, 1), idx)
        return NestedVector.from_levels(len(idx), got, leaf.kind)
    return map_leaves(go, frame)


def seq_cons0(items: list[Value], seq_type: T.Type) -> Value:
    """Depth-0 sequence construction ``[e1, ..., ek]`` from element values."""
    if not items:
        return empty_frame_value(seq_type)
    k = len(items)
    units = [broadcast_to_count(x, 1) for x in items]

    def go(*leaves: NestedVector) -> NestedVector:
        pool = item_levels(leaves[0], 1)
        for x in leaves[1:]:
            pool = S.concat_levels(pool, item_levels(x, 1))
        got = S.gather_subtrees(pool, np.arange(k, dtype=INT_DTYPE))
        return NestedVector.from_levels(k, got, leaves[0].kind)

    def zipn(vals):
        if isinstance(vals[0], VTuple):
            return VTuple([zipn([v.items[i] for v in vals])
                           for i in range(len(vals[0].items))])
        return go(*vals)
    out = zipn(units)
    if _obs.PROFILER is not None:
        count_kernel("seq_cons", k, tuple(items), out)
    return out


def empty_frame_like(m: NestedVector, j: int, beta: T.Type) -> Value:
    """The paper's ``empty_frame``: a depth-``j`` frame structured like the
    top ``j-1`` levels of ``m`` but with no elements, of element type
    ``beta`` (rule R2d's untaken-branch placeholder)."""
    if isinstance(beta, T.TTuple):
        return VTuple([empty_frame_like(m, j, c) for c in beta.items])
    extra = T.seq_depth(beta)
    leaf = T.peel(beta, extra)
    if isinstance(leaf, T.TTuple):
        return VTuple([empty_frame_like(m, j, T.seq_of(c, extra))
                       for c in leaf.items])
    new = [np.zeros(len(m.descs[j - 1]), dtype=INT_DTYPE)]
    for _ in range(extra):
        new.append(np.empty(0, dtype=INT_DTYPE))
    kind = kind_of_scalar(leaf)
    dtype = {"bool": np.bool_, "float": np.float64}.get(kind, INT_DTYPE)
    return NestedVector.splice(np.empty(0, dtype=dtype), kind, m, j - 1, new)


def value_size(v: Value) -> int:
    """Total number of leaf elements held by a vector value (the amount of
    data a replication materializes — used for trace accounting)."""
    if isinstance(v, VTuple):
        return sum(value_size(x) for x in v.items)
    if isinstance(v, NestedVector):
        return int(v.values.size)
    return 1


def value_nbytes(v: Value) -> int:
    """Total storage of a vector value in bytes: the flat value vector plus
    every descriptor vector (scalars count as one 8-byte machine word)."""
    if isinstance(v, VTuple):
        return sum(value_nbytes(x) for x in v.items)
    if isinstance(v, NestedVector):
        return int(v.values.nbytes) + sum(int(d.nbytes) for d in v.descs)
    return 8


def count_kernel(op: str, n: int, args: tuple, result: Value,
                 layer: str = "kernel") -> None:
    """Profile one kernel invocation into ``layer`` (see
    docs/OBSERVABILITY.md): elements = leaf elements read + written (a
    scalar operand is one), bytes = full storage of inputs and output
    including descriptors (a scalar is one 8-byte word), frame length =
    top iteration-space size.

    Callers guard with ``_obs.PROFILER is not None`` so the disabled path
    never reaches the size computations here.
    """
    p = _obs.PROFILER
    if p is None:  # caller raced a deactivation; nothing to record
        return
    elems = value_size(result)
    nb = value_nbytes(result)
    for a in args:
        elems += value_size(a)
        nb += value_nbytes(a)
    p.count(layer, op, n, elems, nb)


def wrap1(v: Value) -> Value:
    """View a depth-0 value as a one-element depth-1 frame (for running the
    depth-1 kernels at depth 0)."""
    if isinstance(v, VTuple):
        return VTuple([wrap1(x) for x in v.items])
    if isinstance(v, NestedVector):
        return v.prepend_unit()
    return broadcast_to_count(v, 1)


def unwrap1(v: Value) -> Value:
    """Inverse of :func:`wrap1` on a kernel result.  Unambiguous without
    type information: a depth-1 NestedVector holds a scalar result, anything
    deeper holds a sequence result."""
    if isinstance(v, VTuple):
        return VTuple([unwrap1(x) for x in v.items])
    if not isinstance(v, NestedVector):
        raise VectorError(f"unwrap1: not a frame: {v!r}")
    if v.depth == 1:
        if v.values.size != 1:
            raise VectorError("unwrap1: not a unit frame")
        if v.kind == "bool":
            return bool(v.values[0])
        if v.kind == "fun":
            return VFun(FUNTABLE.name_of(int(v.values[0])))
        if v.kind == "float":
            return float(v.values[0])
        return int(v.values[0])
    return v.drop_unit()


@functools.cache    # one closure per primitive and level
def bind_kernel(name: str, level: int = 1) -> Callable[[list[Value]], Value]:
    """The depth-1 kernel for primitive ``name`` as a function of its frame
    list: conformability check, the kernel, the ``kernel``-layer profile
    record and the guard's kernel-boundary hook.  At ``level`` 0 (a
    :data:`LEVEL0` kernel) it is one application on depth-0 values: no
    frame to conform, a frame length of 1."""
    try:
        k = KERNELS[name]
    except KeyError:
        raise VectorError(f"no depth-1 kernel for {name!r}") from None
    if level != 1:
        k = functools.partial(k, level=level)
    what = f"{name}^1"

    def run(args: list[Value]) -> Value:
        n = (check_conformable(args, what) if args else 0) if level else 1
        result = k(*args)
        if _obs.PROFILER is not None:
            count_kernel(name, n, tuple(args), result)
        g = _guard.GUARD
        if g is not None and (g := g.state) is not None:
            g.after_kernel(name, n, result)
        return result
    return run


def apply_kernel(name: str, args: list[Value]) -> Value:
    """Invoke the depth-1 kernel for primitive ``name``."""
    return bind_kernel(name)(args)
