"""The ``extract`` and ``insert`` representation manipulations (paper
section 4.2, Figure 2).

``extract(V, d)`` flattens the top ``d`` nesting levels of ``V`` by
replacing the top ``d`` descriptors with the singleton ``[sum(V_d)]`` — pure
descriptor surgery, no data movement.  ``insert(R, V, d)`` removes the top
(singleton) descriptor of ``R`` and re-attaches the top ``d`` descriptors of
``V``, requiring ``R_1[1] == sum(V_d)`` so the result is consistent.

Law (tested property): ``insert(extract(V, d), V, d) == V``.

Both operations act componentwise on tuples of frames.
"""

from __future__ import annotations

import numpy as np

from repro.errors import VectorError
from repro.guard import faults as _flt
from repro.guard import runtime as _guard
from repro.vector.nested import NestedVector, VTuple, map_leaves
from repro.vector.segments import INT_DTYPE


def extract(v, d: int):
    """Flatten the top ``d`` nesting levels of ``v`` (d >= 1)."""
    if isinstance(v, VTuple):
        return map_leaves(lambda x: extract(x, d), v)
    if not isinstance(v, NestedVector):
        raise VectorError(f"extract: not a nested sequence: {v!r}")
    if d < 1:
        raise VectorError(f"extract: depth must be >= 1, got {d}")
    if d > v.depth:
        raise VectorError(f"extract: depth {d} exceeds nesting depth {v.depth}")
    if d == 1:
        return v
    if d == v.depth:
        total = int(v.values.size)
    else:
        total = int(v.descs[d].size)
    top = np.array([total], dtype=INT_DTYPE)
    out = NestedVector.splice(v.values, v.kind, new=(top,), tail=v, j=d)
    if _flt.INJECTOR is not None:
        _flt.visit("extract_insert.extract.top-bump", [out.descs[0]])
        _flt.visit("extract_insert.extract.desc-negate", list(out.descs[1:]))
    g = _guard.GUARD
    if g is not None and (g := g.state) is not None and g.check:
        g.check_value("extract", out)
    return out


def insert(r, v, d: int):
    """Re-attach the top ``d`` descriptors of frame source ``v`` onto ``r``.

    ``r``'s top descriptor (a singleton, as produced by :func:`extract`) is
    removed and replaced by ``v``'s top ``d`` descriptors.
    """
    if isinstance(r, VTuple):
        return map_leaves(lambda x: insert(x, v, d), r)
    if not isinstance(r, NestedVector):
        raise VectorError(f"insert: not a nested sequence: {r!r}")
    if d < 1:
        raise VectorError(f"insert: depth must be >= 1, got {d}")
    if d == 1:
        return r
    frame = v
    if isinstance(frame, VTuple):
        from repro.vector.nested import first_leaf
        frame = first_leaf(frame)
    if not isinstance(frame, NestedVector) or frame.depth < d:
        raise VectorError(f"insert: frame source too shallow for depth {d}")
    want = frame.level_sum(d - 1)
    have = int(r.descs[0][0])
    if want != have:
        raise VectorError(
            f"insert: frame expects {want} elements but R has {have}")
    out = NestedVector.splice(r.values, r.kind, frame, d, tail=r, j=1)
    if _flt.INJECTOR is not None:
        _flt.visit("extract_insert.insert.desc-bump", list(out.descs[:d]))
        _flt.visit("extract_insert.insert.desc-negate", list(out.descs[:d]))
    g = _guard.GUARD
    if g is not None and (g := g.state) is not None and g.check:
        g.check_value("insert", out)
    return out
