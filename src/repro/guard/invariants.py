"""The segmented-vector invariant checker.

The whole representation of section 4 rests on one structural invariant —
a nested sequence is a chain of descriptor vectors ``V_1 .. V_d`` plus a
value vector, with ``#V_{i+1} = sum(V_i)`` — and on every descriptor being
a 1-D vector of non-negative counts whose top level is a singleton.  The
:class:`~repro.vector.nested.NestedVector` constructor validates this at
*construction* time, but NumPy arrays are mutable: a buggy kernel (or an
injected fault) can corrupt a descriptor in place after construction and
silently poison every downstream result.

:func:`validate_value` re-checks the invariant on an already-built value
and raises a stage-named :class:`~repro.errors.InvariantError` (never the
construction-time ``VectorError``), so a strict-mode run points at the
pipeline boundary where corruption was first observed.  Tuple values are
additionally checked for *conformability*: all leaves of a tuple-of-frames
must share identical descriptor levels (the paper's multiple value vectors
per tuple leaf share one descriptor chain).
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvariantError, VectorError
from repro.vector.nested import (
    NestedVector, VFun, VTuple, _check_links, _checked_sum,
)

__all__ = ["validate_value", "validate_nested"]


def validate_nested(stage: str, v: NestedVector) -> None:
    """Check one NestedVector against the representation invariant, with
    the constructor's own checks (nothing remembered is trusted)."""
    try:
        sums = tuple(_checked_sum(d) for d in v.descs)
        _check_links(v.descs, sums, v.values)
    except VectorError as e:
        raise InvariantError(stage, str(e)) from None


def _tuple_conformable(stage: str, t: VTuple) -> None:
    """All NestedVector leaves of a tuple must share one descriptor chain."""
    leaves = [x for x in _iter_leaves(t) if isinstance(x, NestedVector)]
    if len(leaves) < 2:
        return
    first = leaves[0]
    for other in leaves[1:]:
        if other.depth != first.depth:
            raise InvariantError(
                stage, f"tuple components disagree on depth "
                       f"({first.depth} vs {other.depth})")
        for k, (a, b) in enumerate(zip(first.descs, other.descs)):
            if not np.array_equal(a, b):
                raise InvariantError(
                    stage, f"tuple components disagree on descriptor V{k + 1}")


def _iter_leaves(v):
    if isinstance(v, VTuple):
        for x in v.items:
            yield from _iter_leaves(x)
    else:
        yield v


def validate_value(stage: str, v) -> None:
    """Check any vector value (scalar, NestedVector, VTuple, VFun).

    Scalars and function values are trivially valid; tuples are checked
    leafwise plus for shared-descriptor conformability.
    """
    if isinstance(v, NestedVector):
        validate_nested(stage, v)
        return
    if isinstance(v, VTuple):
        for x in v.items:
            validate_value(stage, x)
        _tuple_conformable(stage, v)
        return
    if isinstance(v, (bool, int, float, np.integer, np.floating, np.bool_,
                      VFun)):
        return
    raise InvariantError(stage, f"unexpected value in vector pipeline: {v!r}")
