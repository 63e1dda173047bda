"""Segmented flat-vector kernels — the CVL substitute.

Every kernel is a pure NumPy computation with no Python-level loop over
elements (the max-scan uses a Hillis-Steele doubling loop: O(log max
segment length) passes, exactly a vector-model scan).  A segmented vector is
an ordinary value array plus a ``counts`` array of per-segment lengths; this
is one level of the paper's descriptor representation.

Three kernels move whole subtrees of a nested structure, given as its level
arrays, one pass per level and the same loop at every depth:

* :func:`compress_subtrees` keeps the top-level subtrees a mask selects, in
  order (``restrict``, and ``seq_index`` of one item per segment);
* :func:`merge_subtrees` interleaves two forests under a mask, in order
  (``combine``, ``concat``, the two-element sequence constructor) — the
  inverse of compressing by the mask and by its complement;
* :func:`gather_subtrees` selects by an index vector, for what replicates or
  permutes (``dist``, shared indexing, ``permute``, ``seq_update``, group
  dispatch).

All three read and write through an index: the order-preserving two get
theirs per level from one ``nonzero`` of that level's mask (an increasing
index, the witness of an order-preserving split), the gather has to
*expand* its own from level to level — two running sums, two ``repeat`` s
and an ``arange`` — and that expansion, not the index, is what it pays for.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import InvariantError, VectorError
from repro.guard import faults as _flt
from repro.guard import runtime as _guard
from repro.obs import runtime as _obs

INT_DTYPE = np.int64


def _note(op: str, frame_len: int, arrays: tuple) -> None:
    """Profile one segmented-kernel invocation into the ``segment`` layer
    (elements/bytes summed over every array read or written).  The disabled
    path is one attribute load and one ``is None`` test."""
    p = _obs.PROFILER
    if p is None:
        return
    elems = 0
    nbytes = 0
    for a in arrays:
        a = np.asarray(a)
        elems += int(a.size)
        nbytes += int(a.nbytes)
    p.count("segment", op, int(frame_len), elems, nbytes)


def _check_level_chain(stage: str, levels: list) -> None:
    """Strict-mode consistency check of a level list (Blelloch's VCODE
    debug-interpreter practice): every descriptor level must be
    non-negative and sum-chain onto the next level.  Catching corruption
    *here* — before ``np.repeat``/fancy indexing consume the counts —
    turns an inscrutable NumPy IndexError into a stage-named
    :class:`InvariantError`."""
    g = _guard.GUARD
    if g is None or (g := g.state) is None or not g.check:
        return
    for i in range(len(levels) - 1):
        d = np.asarray(levels[i])
        if d.size and int(d.min()) < 0:
            raise InvariantError(
                stage, f"level {i} contains a negative count ({int(d.min())})")
        want = int(d.sum())
        got = int(np.asarray(levels[i + 1]).size)
        if want != got:
            raise InvariantError(
                stage, f"sum(level {i}) = {want} but level {i + 1} "
                       f"has {got} entries")


def as_counts(a: np.ndarray) -> np.ndarray:
    """Validate a counts (descriptor) array: 1-D, non-negative integers."""
    a = np.asarray(a, dtype=INT_DTYPE)
    if a.ndim != 1:
        raise VectorError(f"descriptor must be 1-D, got shape {a.shape}")
    if a.size and a.min() < 0:
        raise VectorError("descriptor contains a negative count")
    return a


def seg_starts(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: the start offset of each segment."""
    out = np.empty(len(counts), dtype=INT_DTYPE)
    if len(counts):
        out[0] = 0
        np.cumsum(counts[:-1], out=out[1:])
    return out


def seg_iota(counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(c)`` for each count c (0-based).

    ``seg_iota([3,0,2]) == [0,1,2,0,1]`` — the flat implementation of the
    paper's ``range1`` parallel extension (up to the +1 index origin).
    """
    counts = np.asarray(counts, dtype=INT_DTYPE)
    total = int(counts.sum())
    if total == 0:
        out = np.empty(0, dtype=INT_DTYPE)
    elif counts.size == 1:
        # one segment (every top-level range1/range): a bare arange — the
        # repeat-and-subtract below would build two more full-size temps
        out = np.arange(total, dtype=INT_DTYPE)
    else:
        out = np.arange(total, dtype=INT_DTYPE) - np.repeat(
            seg_starts(counts), counts)
    _note("seg_iota", len(counts), (counts, out))
    return out


def seg_sum(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-segment sums (empty segments sum to 0), preserving dtype.

    Integers use the O(n) prefix-difference method.  Floats use
    ``np.add.reduceat`` so each segment is summed *independently and
    left-to-right*, bitwise-matching the reference interpreter (the
    prefix-difference method would accumulate across segment boundaries and
    round differently)."""
    if values.dtype == np.float64:
        # np.add.reduceat is *pairwise* and would round differently; a
        # per-segment sequential cumsum is the only NumPy reduction with
        # the interpreter's left-to-right associativity
        out = np.zeros(len(counts), dtype=np.float64)
        pos = 0
        for i, c in enumerate(counts):
            c = int(c)
            if c:
                # the fold starts at +0.0, as the interpreter's and the C
                # kernels' do: a segment of nothing but -0.0 sums to +0.0
                out[i] = 0.0 + np.cumsum(values[pos:pos + c])[-1]
            pos += c
    else:
        ends = np.cumsum(counts)
        cs = np.concatenate([np.zeros(1, dtype=INT_DTYPE),
                             np.cumsum(values, dtype=INT_DTYPE)])
        out = cs[ends] - cs[ends - counts]
    _note("seg_sum", len(counts), (values, counts, out))
    return out


def _seg_reduce_strict(values: np.ndarray, counts: np.ndarray, ufunc, what: str) -> np.ndarray:
    if counts.size and counts.min() == 0:
        raise VectorError(f"{what} of an empty sequence")
    if counts.size == 0:
        return np.empty(0, dtype=values.dtype)
    starts = seg_starts(counts)
    return ufunc.reduceat(values, starts)


def seg_max(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-segment maxima; empty segments are an error."""
    out = _seg_reduce_strict(values, counts, np.maximum, "maxval")
    _note("seg_max", len(counts), (values, counts, out))
    return out


def seg_min(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-segment minima; empty segments are an error."""
    out = _seg_reduce_strict(values, counts, np.minimum, "minval")
    _note("seg_min", len(counts), (values, counts, out))
    return out


def seg_any(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-segment boolean OR (empty segments yield False)."""
    return seg_sum(values.astype(INT_DTYPE), counts) > 0


def seg_all(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-segment boolean AND (empty segments yield True)."""
    return seg_sum(values.astype(INT_DTYPE), counts) == counts


def seg_plus_scan(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Exclusive plus-scan within each segment (identity 0).

    Floats take a per-segment path (cumsum restarted at each segment) so
    rounding matches the reference interpreter exactly; integers use the
    O(n) vectorized prefix-difference method."""
    if values.dtype == np.float64:
        out = np.zeros_like(values)
        pos = 0
        for c in counts:
            c = int(c)
            if c > 1:
                np.cumsum(values[pos:pos + c - 1], out=out[pos + 1:pos + c])
            pos += c
        out += 0.0      # every prefix starts at +0.0 (see seg_sum)
    elif values.size == 0:
        out = np.empty(0, dtype=INT_DTYPE)
    else:
        incl = np.cumsum(values, dtype=INT_DTYPE)
        excl = incl - values
        starts = seg_starts(counts)
        nonempty = counts > 0
        base = np.zeros(len(counts), dtype=INT_DTYPE)
        base[nonempty] = excl[starts[nonempty]]
        out = excl - np.repeat(base, counts)
    _note("seg_plus_scan", len(counts), (values, counts, out))
    return out


def seg_max_scan(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Inclusive running maximum within each segment.

    Hillis-Steele doubling: O(log max-segment-length) vectorized passes —
    the canonical vector-model scan."""
    n = values.size
    out = values.copy()
    if n == 0:
        _note("seg_max_scan", len(counts), (values, counts, out))
        return out
    seg_first = np.repeat(seg_starts(counts), counts)  # start index per slot
    shift = 1
    maxlen = int(counts.max()) if counts.size else 0
    pos = np.arange(n, dtype=INT_DTYPE)
    while shift < maxlen:
        src = pos - shift
        ok = src >= seg_first
        upd = out.copy()
        upd[ok] = np.maximum(out[ok], out[src[ok]])
        out = upd
        shift <<= 1
    _note("seg_max_scan", len(counts), (values, counts, out))
    return out


#: the NumPy kernel of each segmented fold, by primitive name; what kind
#: of fold it is (reduce or scan, strict or not) and the leaf kinds it
#: folds are its row in :mod:`repro.lang.builtins`
FOLDS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "sum": seg_sum,
    "maxval": seg_max,
    "minval": seg_min,
    "anytrue": seg_any,
    "alltrue": seg_all,
    "plus_scan": seg_plus_scan,
    "max_scan": seg_max_scan,
}


def tile_idx(seg_lens: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """Gather indices that repeat each length-``seg_lens[i]`` segment
    ``reps[i]`` times, in place.

    ``tile_idx([2,1],[2,3]) == [0,1,0,1,2,2,2]``.
    """
    seg_lens = np.asarray(seg_lens, dtype=INT_DTYPE)
    reps = np.asarray(reps, dtype=INT_DTYPE)
    if seg_lens.shape != reps.shape:
        raise VectorError("tile_idx: shape mismatch")
    starts = seg_starts(seg_lens)
    rep_lens = np.repeat(seg_lens, reps)
    rep_starts = np.repeat(starts, reps)
    if rep_lens.size == 0:
        return np.empty(0, dtype=INT_DTYPE)
    return seg_iota(rep_lens) + np.repeat(rep_starts, rep_lens)


def _finish_levels(op: str, frame_len: int, levels_in: tuple,
                   out: list[np.ndarray]) -> list[np.ndarray]:
    """The tail every subtree kernel shares: the ``segments.<op>`` fault
    sites (descriptor levels only — the leaf level is semantic data), the
    strict-mode level-chain check, and the ``segment``-layer profile
    record."""
    if _flt.INJECTOR is not None:
        _flt.visit(f"segments.{op}.desc-bump", out[:-1])
        _flt.visit(f"segments.{op}.desc-negate", out[:-1])
    if _guard.GUARD is not None:
        _check_level_chain(f"segments.{op}", out)
    if _obs.PROFILER is not None:
        _note(op, frame_len, (*levels_in, *out))
    return out


def compress_subtrees(levels: list[np.ndarray],
                      mask: np.ndarray) -> list[np.ndarray]:
    """Keep the top-level subtrees where ``mask`` is true, in order.

    ``levels`` is ``[d_1, ..., values]`` as for :func:`gather_subtrees`;
    ``mask`` has one boolean per node of the top level.  Each level is one
    ``take`` through the ``nonzero`` of its mask, and the mask of the next
    level is this one repeated by the child counts — the index is built
    per level, never expanded.  Equal to
    ``gather_subtrees(levels, flatnonzero(mask))``.
    """
    return _compress(levels, mask.nonzero()[0], mask)


def _compress(levels: list[np.ndarray], idx: np.ndarray,
              mask: np.ndarray | None = None) -> list[np.ndarray]:
    """:func:`compress_subtrees` for a caller that holds the increasing
    top-level index ``idx`` (``restrict``: one per op, shared by every tuple
    leaf; ``seq_index``: one item per segment).  ``mask`` is its flag form;
    without one it is scattered from ``idx`` only where something reads it
    — a level below the top, or the profile row."""
    n = levels[0].size
    if mask is None and (len(levels) > 1 or _obs.PROFILER is not None):
        mask = np.zeros(n, dtype=np.bool_)
        mask[idx] = True
    out: list[np.ndarray] = []
    cur = mask
    for k, level in enumerate(levels):
        if k:
            cur = cur.repeat(levels[k - 1])
            idx = cur.nonzero()[0]
        if cur is not None and cur.size != level.size:
            raise VectorError(f"compress_subtrees: mask has {cur.size} "
                              f"entries for {level.size} nodes")
        out.append(level.take(idx))
    return _finish_levels("compress_subtrees", n, (*levels, mask), out)


def merge_subtrees(mask: np.ndarray, a: list[np.ndarray],
                   b: list[np.ndarray]) -> list[np.ndarray]:
    """Interleave the subtrees of ``a`` and ``b``, in order: output node k
    is the next unused subtree of ``a`` where ``mask[k]`` is true, of ``b``
    where it is false (so ``mask`` holds ``len(a[0])`` trues and
    ``len(b[0])`` falses).  Each level is two indexed stores, through the
    ``nonzero`` of its mask and of the complement, and the mask of the next
    level is this one repeated by the merged child counts.
    The inverse of :func:`compress_subtrees`:
    ``merge(m, compress(L, m), compress(L, ~m)) == L``.
    """
    if len(a) != len(b):
        raise VectorError("merge_subtrees: depth mismatch")
    out: list[np.ndarray] = []
    frame_len = mask.size
    cur = mask
    last = len(a) - 1
    for k, (x, y) in enumerate(zip(a, b)):
        ia, ib = cur.nonzero()[0], (~cur).nonzero()[0]
        if ia.size != x.size:
            raise VectorError(f"merge_subtrees: mask keeps {ia.size} of "
                              f"a's {x.size} nodes")
        if ib.size != y.size:
            raise VectorError(f"merge_subtrees: mask keeps {ib.size} of "
                              f"b's {y.size} nodes")
        level = np.empty(cur.size, dtype=x.dtype)
        level[ia] = x
        level[ib] = y
        out.append(level)
        if k < last:
            cur = cur.repeat(level)
    return _finish_levels("merge_subtrees", frame_len, (mask, *a, *b), out)


def gather_subtrees(levels: list[np.ndarray], idx: np.ndarray) -> list[np.ndarray]:
    """Select subtrees by top-level index.

    ``levels`` is ``[d_1, d_2, ..., values]`` where each ``d_k`` gives the
    per-node child counts of one nesting level and the last entry holds leaf
    values.  ``idx`` (0-based, repetitions and omissions allowed) selects
    nodes of the top level; the result is the same shape of list describing
    the gathered forest.  This single kernel implements ``dist``,
    ``restrict``, ``combine``, ``seq_index`` and ``concat`` for nested
    element types.
    """
    idx = np.asarray(idx, dtype=INT_DTYPE)
    out: list[np.ndarray] = []
    cur = idx
    for level in levels[:-1]:
        counts = level.take(cur)
        starts = seg_starts(level)
        nxt = seg_iota(counts) + np.repeat(starts.take(cur), counts)
        out.append(counts)
        cur = nxt
    out.append(levels[-1].take(cur))
    return _finish_levels("gather_subtrees", int(idx.size), (*levels, idx),
                          out)


def concat_levels(a: list[np.ndarray], b: list[np.ndarray]) -> list[np.ndarray]:
    """Pool two level lists into one (subtrees of ``b`` renumbered after
    ``a``'s): simple levelwise concatenation, valid because offsets are
    recomputed from the concatenated descriptor at each level."""
    if len(a) != len(b):
        raise VectorError("concat_levels: depth mismatch")
    out = [np.concatenate([x, y]) for x, y in zip(a, b)]
    return _finish_levels("concat_levels", len(out[0]) if out else 0, (),
                          out)
