"""Runtime values of the reference interpreter.

P values map directly onto Python values:

=============  =======================
P type         Python representation
=============  =======================
Int            int
Bool           bool
Seq(T)         list
(T1, ..., Tn)  tuple
function       :class:`FunVal`
=============  =======================

:func:`check_value` validates a Python value against a P type (used by the
public API to check entry-point arguments before running either back end);
:func:`infer_value_type` finds that type when the caller gives none.  Both
walk the value a nesting level at a time, not an element at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby
from operator import itemgetter
from typing import Any, Optional, Sequence, cast

from repro.errors import EvalError
from repro.lang import types as T


@dataclass(frozen=True)
class FunVal:
    """A first-class function value: a reference to a top-level definition,
    builtin, or lifted lambda.  P function values are fully parameterized, so
    no environment needs to be captured."""

    name: str

    def __repr__(self) -> str:
        return f"<fun {self.name}>"


def check_value(v: Any, t: T.Type, where: str = "value") -> None:
    """Raise :class:`EvalError` unless ``v`` inhabits P type ``t``."""
    if not _inhabits((v,), t):
        _first_mismatch(v, t, where)


def infer_value_type(v: Any) -> T.Type:
    """Best-effort P type of a Python value.  Element types of sibling
    sequences are merged, so ragged data with empty rows infers correctly;
    a sequence that is empty all the way down defaults to seq(int).  Used by
    the API when the caller supplies no explicit types."""
    try:
        return _layer_type((v,))
    except _Rejected:
        return _default_unknown(_infer_partial(v))


# ---------------------------------------------------------------------------
# The level-wise walk.  A *layer* holds every value that sits at one position
# of the type, across all enclosing sequences: one sequence level down is
# ``chain.from_iterable(layer)``, component i of its tuples is
# ``map(itemgetter(i), layer)``.  A layer is judged by its elements' exact
# types, found in one C-level pass, never element by element.
# ---------------------------------------------------------------------------

#: Python class -> what its instances are: a scalar P type, or the class
#: itself.  Subclasses take the first entry they derive from, which is the
#: order of the element scan's ``isinstance`` tests.
_KINDS: dict[type, Any] = {bool: T.BOOL, int: T.INT, float: T.FLOAT,
                           list: list, tuple: tuple, FunVal: FunVal}


def _kinds(layer: Sequence[Any]) -> set[Any]:
    """The kinds (values of ``_KINDS``, None for any other class) of the
    values in ``layer``.  ``groupby`` yields one key per run of equal exact
    types, so only the distinct few are classified in Python."""
    return {_KINDS.get(tp) or next(
        (k for base, k in _KINDS.items() if issubclass(tp, base)), None)
        for tp, _ in groupby(layer, type)}


def _below(layer: Sequence[Any]) -> Sequence[Any]:
    """The elements of every sequence in ``layer``, in order."""
    return layer[0] if len(layer) == 1 else list(chain.from_iterable(layer))


def _column(layer: Sequence[Any], i: int) -> list[Any]:
    """Component ``i`` of every tuple in ``layer``.  (One ``map`` per
    component, not ``zip(*layer)``: a hundred thousand argument iterators
    cost more in garbage-collector passes than the transposition itself.)"""
    return list(map(itemgetter(i), layer))


def _inhabits(layer: Sequence[Any], t: T.Type) -> bool:
    """Does every value of ``layer`` inhabit ``t``?  An empty layer is never
    looked at, exactly like the elements an empty sequence does not have."""
    if not layer:
        return True
    kinds = _kinds(layer)
    if isinstance(t, T.TSeq):
        return kinds == {list} and _inhabits(_below(layer), t.elem)
    if isinstance(t, T.TTuple):
        return (kinds == {tuple}
                and set(map(len, layer)) == {len(t.items)}
                and all(_inhabits(_column(layer, i), it)
                        for i, it in enumerate(t.items)))
    return kinds == {FunVal if isinstance(t, T.TFun) else t}


class _Rejected(Exception):
    """A layer's values do not share one P type."""


def _layer_type(layer: Sequence[Any]) -> T.Type:
    """The one P type of every value in ``layer``; nothing to look at (all
    enclosing sequences empty) defaults to int."""
    if not layer:
        return T.INT
    kinds = _kinds(layer)
    if len(kinds) != 1:
        raise _Rejected
    kind = kinds.pop()
    if kind is list:
        return T.TSeq(_layer_type(_below(layer)))
    if kind is tuple:
        widths = set(map(len, layer))
        if len(widths) != 1:
            raise _Rejected
        return T.TTuple(tuple(_layer_type(_column(layer, i))
                              for i in range(widths.pop())))
    if kind is None or kind is FunVal:
        raise _Rejected
    return kind


# ---------------------------------------------------------------------------
# The element scan.  It runs only after the level-wise walk has rejected a
# layer, to name the first offender in depth-first order; its verdict is
# final (it accepts only what fools ``type`` but not ``isinstance``).
# ---------------------------------------------------------------------------


def _first_mismatch(v: Any, t: T.Type, where: str) -> None:
    if isinstance(t, T.TInt):
        if isinstance(v, bool) or not isinstance(v, int):
            raise EvalError(f"{where}: expected int, got {v!r}")
        return
    if isinstance(t, T.TBool):
        if not isinstance(v, bool):
            raise EvalError(f"{where}: expected bool, got {v!r}")
        return
    if isinstance(t, T.TFloat):
        if not isinstance(v, float):
            raise EvalError(f"{where}: expected float, got {v!r}")
        return
    if isinstance(t, T.TSeq):
        if not isinstance(v, list):
            raise EvalError(f"{where}: expected a sequence (list), got {v!r}")
        for i, x in enumerate(v):
            _first_mismatch(x, t.elem, f"{where}[{i + 1}]")
        return
    if isinstance(t, T.TTuple):
        if not isinstance(v, tuple) or len(v) != len(t.items):
            raise EvalError(f"{where}: expected a {len(t.items)}-tuple, got {v!r}")
        for i, (x, it) in enumerate(zip(v, t.items)):
            _first_mismatch(x, it, f"{where}.{i + 1}")
        return
    if isinstance(t, T.TFun):
        if not isinstance(v, FunVal):
            raise EvalError(f"{where}: expected a function value, got {v!r}")
        return
    raise EvalError(f"{where}: cannot check against type {t!r}")


def _infer_partial(v: Any) -> Optional[T.Type]:
    """Type with ``None`` standing for 'unknown' (under empty sequences)."""
    if isinstance(v, bool):
        return T.BOOL
    if isinstance(v, int):
        return T.INT
    if isinstance(v, float):
        return T.FLOAT
    if isinstance(v, list):
        elem: Optional[T.Type] = None
        for x in v:
            elem = _merge_types(elem, _infer_partial(x), v)
        # a None elem marks 'unknown under an empty sequence', resolved
        # by _default_unknown
        return T.TSeq(elem if elem is not None else cast(T.Type, None))
    if isinstance(v, tuple):
        return T.TTuple(tuple(_infer_partial(x) for x in v))
    if isinstance(v, FunVal):
        raise EvalError("cannot infer the type of a bare function value; "
                        "pass explicit argument types")
    raise EvalError(f"not a P value: {v!r}")


def _merge_types(a: Optional[T.Type], b: Optional[T.Type],
                 where: Any) -> Optional[T.Type]:
    if a is None:
        return b
    if b is None:
        return a
    if a == b:
        return a
    if isinstance(a, T.TSeq) and isinstance(b, T.TSeq):
        return T.TSeq(cast(T.Type, _merge_types(a.elem, b.elem, where)))
    if isinstance(a, T.TTuple) and isinstance(b, T.TTuple) \
            and len(a.items) == len(b.items):
        return T.TTuple(tuple(cast(T.Type, _merge_types(x, y, where))
                              for x, y in zip(a.items, b.items)))
    raise EvalError(f"heterogeneous sequence: {where!r}")


def _default_unknown(t: Optional[T.Type]) -> T.Type:
    if t is None:
        return T.INT
    if isinstance(t, T.TSeq):
        return T.TSeq(_default_unknown(t.elem))
    if isinstance(t, T.TTuple):
        return T.TTuple(tuple(_default_unknown(x) for x in t.items))
    return t
