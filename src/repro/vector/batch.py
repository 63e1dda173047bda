"""Segment-batched packing: one extra descriptor level over N values.

**Not on the run path.**  A batch column is one value of type ``seq(t)``,
so :meth:`repro.api.CompiledProgram.run_batched` crosses the boundary with
:func:`repro.vector.convert.from_python` / ``to_python`` at ``seq(t)``;
nothing under ``src/`` imports this module.  It is kept for
``bench/layers.py``, which times it (``vector.pack_ms`` /
``vector.unpack_ms``), and as the per-request reference
``tests/vector/test_batch_boundary.py`` holds the boundary equal to.

The serving layer (:mod:`repro.serve`) coalesces N independent requests to
the same function ``f`` into a single vector pass: the i-th request's
argument values become the i-th *elements* of depth-extended frames, and
the batch executes as one call of the synthesized depth-1 extension
``f^1`` — the same T1 machinery (``f^d(e) = insert(f^1(extract(e, d)),
e, d)``) that realizes every nested application in the paper.  This module
holds the two representation manipulations that make a batch out of
values converted one request at a time:

* :func:`pack_values` — N vector values of P type ``t`` become one vector
  value of type ``seq(t)`` whose top descriptor is ``[N]``.  Scalars pack
  into a depth-1 frame; a depth-``d`` :class:`NestedVector` packs into a
  depth-``d+1`` one (new top descriptor ``[N]``, the old per-value top
  lengths concatenated into the next level, lower levels and value vectors
  concatenated); tuples pack componentwise.

* :func:`unpack_values` — the inverse, type-directed like
  :mod:`repro.vector.convert`: the batched result of type ``seq(t)`` is
  split back into N per-request values of type ``t``.

Law (tested property): ``unpack_values(pack_values(vs, t), t, len(vs))``
is element-wise equal to ``vs``.

Both directions validate the descriptor invariant on their output when
strict checking is active (stages ``batch:pack`` / ``batch:unpack``), so a
corrupt batch is caught at the serving boundary, not deep inside a kernel.
"""

from __future__ import annotations


import numpy as np

from repro.errors import VectorError
from repro.guard import runtime as _guard
from repro.lang import types as T
from repro.vector.nested import (
    FUNTABLE, KIND_DTYPES, NestedVector, VFun, VTuple, Value,
)
from repro.vector.segments import INT_DTYPE

__all__ = ["pack_values", "unpack_values"]

_SCALAR_KINDS = {T.TInt: "int", T.TBool: "bool", T.TFloat: "float"}


def _check(stage: str, v: Value) -> None:
    g = _guard.GUARD
    if g is not None and (g := g.state) is not None and g.check:
        g.check_value(stage, v)


def pack_values(vals: list, t: T.Type) -> Value:
    """Pack N vector values of P type ``t`` into one value of ``seq(t)``.

    The result's top descriptor is ``[N]``; element i of the packed frame
    is ``vals[i]``.  N must be >= 1 (an empty batch has no work to run).
    """
    if not vals:
        raise VectorError("pack_values: empty batch")
    out = _pack(vals, t)
    _check("batch:pack", out)
    return out


def _pack(vals: list, t: T.Type) -> Value:
    n = len(vals)
    kind = _SCALAR_KINDS.get(type(t))
    if kind is not None:
        return NestedVector([np.array([n], dtype=INT_DTYPE)],
                            np.asarray(vals), kind)
    if isinstance(t, T.TFun):
        ids = [FUNTABLE.intern(v.name if isinstance(v, VFun) else str(v))
               for v in vals]
        return NestedVector([np.array([n], dtype=INT_DTYPE)],
                            np.asarray(ids, dtype=INT_DTYPE), "fun")
    if isinstance(t, T.TTuple):
        for v in vals:
            if not isinstance(v, VTuple) or len(v.items) != len(t.items):
                raise VectorError(f"pack_values: expected {len(t.items)}-tuple, "
                                  f"got {v!r}")
        return VTuple([_pack([v.items[i] for v in vals], it)
                       for i, it in enumerate(t.items)])
    if isinstance(t, T.TSeq):
        # Seq^d(tuple): the VTuple sits outside the frames — componentwise.
        depth = T.seq_depth(t)
        leaf = T.peel(t, depth)
        if isinstance(leaf, T.TTuple):
            for v in vals:
                if not isinstance(v, VTuple):
                    raise VectorError(f"pack_values: expected VTuple of frames, "
                                      f"got {v!r}")
            return VTuple([_pack([v.items[i] for v in vals],
                                 T.seq_of(it, depth))
                           for i, it in enumerate(leaf.items)])
        return _pack_frames(vals, n)
    raise VectorError(f"pack_values: cannot pack at type {t!r}")


def _pack_frames(vals: list, n: int) -> NestedVector:
    depth = None
    kind = None
    for v in vals:
        if not isinstance(v, NestedVector):
            raise VectorError(f"pack_values: expected NestedVector, got {v!r}")
        if depth is None:
            depth, kind = v.depth, v.kind
        elif v.depth != depth or v.kind != kind:
            raise VectorError(
                f"pack_values: mixed batch (depth {v.depth}/{depth}, "
                f"kind {v.kind}/{kind})")
    descs = [np.array([n], dtype=INT_DTYPE),
             np.array([v.top_length for v in vals], dtype=INT_DTYPE)]
    for lvl in range(1, depth):
        descs.append(np.concatenate([v.descs[lvl] for v in vals]))
    values = np.concatenate([v.values for v in vals])
    return NestedVector(descs, values, kind)


def unpack_values(v: Value, t: T.Type, n: int) -> list:
    """Split a batched value of P type ``seq(t)`` back into N values of
    type ``t`` — the inverse of :func:`pack_values`."""
    _check("batch:unpack", v)
    return _unpack(v, t, n)


def _unpack(v: Value, t: T.Type, n: int) -> list:
    kind = _SCALAR_KINDS.get(type(t))
    if kind is not None or isinstance(t, T.TFun):
        if not isinstance(v, NestedVector) or v.depth != 1:
            raise VectorError(f"unpack_values: expected a depth-1 frame, "
                              f"got {v!r}")
        if v.top_length != n:
            raise VectorError(f"unpack_values: batch of {v.top_length}, "
                              f"expected {n}")
        if isinstance(t, T.TFun):
            return [VFun(FUNTABLE.name_of(i)) for i in v.values.tolist()]
        return np.asarray(v.values, dtype=KIND_DTYPES[kind]).tolist()
    if isinstance(t, T.TTuple):
        if not isinstance(v, VTuple) or len(v.items) != len(t.items):
            raise VectorError(f"unpack_values: expected VTuple, got {v!r}")
        comps = [_unpack(x, it, n) for x, it in zip(v.items, t.items)]
        return [VTuple([c[i] for c in comps]) for i in range(n)]
    if isinstance(t, T.TSeq):
        depth = T.seq_depth(t)
        leaf = T.peel(t, depth)
        if isinstance(leaf, T.TTuple):
            if not isinstance(v, VTuple):
                raise VectorError(f"unpack_values: expected VTuple of frames, "
                                  f"got {v!r}")
            comps = [_unpack(x, T.seq_of(it, depth), n)
                     for x, it in zip(v.items, leaf.items)]
            return [VTuple([c[i] for c in comps]) for i in range(n)]
        return _unpack_frames(v, n)
    raise VectorError(f"unpack_values: cannot unpack at type {t!r}")


def _unpack_frames(v: Value, n: int) -> list:
    if not isinstance(v, NestedVector) or v.depth < 2:
        raise VectorError(f"unpack_values: expected a batched frame, got {v!r}")
    if v.top_length != n:
        raise VectorError(f"unpack_values: batch of {v.top_length}, "
                          f"expected {n}")
    # descs[1] holds the per-request top lengths; walk the levels down,
    # splitting each by the element counts accumulated one level above.
    counts = v.descs[1]            # elements each request owns at this level
    out_descs = [[counts[i:i + 1]] for i in range(n)]
    for arr in (*v.descs[2:], v.values):
        bounds = np.concatenate(([0], np.cumsum(counts)))
        if bounds[-1] != arr.size:
            raise VectorError("unpack_values: descriptor/value size mismatch")
        cuts = bounds.tolist()
        pieces = [arr[a:b] for a, b in zip(cuts, cuts[1:])]
        if arr is v.values:
            return [NestedVector(d, p, v.kind)
                    for d, p in zip(out_descs, pieces)]
        for d, p in zip(out_descs, pieces):
            d.append(p)
        # one segmented sum: what each request owns one level further down
        below = np.concatenate(([0], np.cumsum(arr)))
        counts = below[bounds[1:]] - below[bounds[:-1]]
    raise AssertionError("unreachable")  # pragma: no cover
