"""Conversion between Python values (the interpreter's representation) and
the flat vector representation, driven by the P type.

Tuples under sequences are pushed outward (``Seq(a x b)`` becomes a
``VTuple`` of two parallel NestedVectors), matching the paper's multiple
value vectors per tuple leaf.  Function values convert between
``FunVal``/``VFun`` by name via the global interning table.

Both directions work on *layers* — every value at one position of the
type, across all enclosing sequences, as one flat list — so the work per
element is done by ``map``, ``chain``, ``zip`` and NumPy, not by Python
bytecode: a sequence level is peeled with ``map(len, layer)`` (its
descriptor) and ``chain.from_iterable(layer)`` (the next layer) and put back
with slices over the descriptor's running sum; a tuple is peeled with one
``map(itemgetter(i), layer)`` per component (``zip(*layer)`` would make an
iterator per element, and the garbage collector charges for each) and put
back with ``zip(*columns)``.  The two are exact inverses.  A layer is judged
by its elements' exact types: against the type where one is given (after
``check_value`` has judged the value), and where none is, once — the
converter reads the type off its own pass (:func:`infer_from_python`).  Only
a rejected layer is scanned element by element, to name the first offender.

A batch of N requests crosses here too: the column of their values for one
argument is one value of type ``seq(t)``
(:meth:`repro.api.CompiledProgram.run_batched`).
"""

from __future__ import annotations

from itertools import chain, groupby
from operator import itemgetter
from typing import Any, Optional, Sequence

import numpy as np

from repro.errors import VectorError
from repro.interp.values import FunVal, _kinds
from repro.lang import types as T
from repro.vector.nested import (
    FUNTABLE, KIND_DTYPES, NestedVector, VFun, VTuple, first_leaf,
)
from repro.vector.segments import INT_DTYPE

# ---------------------------------------------------------------------------
# Python -> vector
# ---------------------------------------------------------------------------


#: what an int leaf holds: ``x in _INT64`` is two comparisons in C
_INT64 = range(-2 ** 63, 2 ** 63)


def from_python(v: Any, t: T.Type):
    """Convert a Python value of P type ``t`` to a vector value.  An
    integer outside int64 is rejected here, by value, like every other
    misfit: the vector side has no other integer."""
    if type(t) in _LEAVES:
        kind, accepted, refused = _LEAVES[type(t)]
        if isinstance(v, refused) or not isinstance(v, accepted):
            raise VectorError(f"expected {kind}, got {v!r}")
        v = accepted[0](v)
        if kind == "int" and v not in _INT64:
            raise VectorError(f"integer {v!r} does not fit int64")
        return v
    if isinstance(t, T.TFun):
        return VFun(_fun_name(v))
    if isinstance(t, T.TTuple):
        if not isinstance(v, tuple) or len(v) != len(t.items):
            raise VectorError(f"expected {len(t.items)}-tuple, got {v!r}")
        return VTuple([from_python(x, it) for x, it in zip(v, t.items)])
    if isinstance(t, T.TSeq):
        return _layer_from_python((v,), t, [])[1]
    raise VectorError(f"cannot convert to vector form at type {t!r}")


def infer_from_python(v: Any) -> Optional[tuple[T.Type, Any]]:
    """``(t, from_python(v, t))`` for ``t = infer_value_type(v)``, from the
    one walk that converts: each layer's type is read off the pass that
    would have checked it.  ``None`` where a layer has no one type to read or
    a value does not fit — the typed sequence then says which, and how."""
    try:
        if isinstance(v, list):
            return _layer_from_python((v,), None, [])
        t = _read((v,))
        if not isinstance(t, T.TTuple):
            return t, from_python(v, t)
        items = [infer_from_python(x) for x in v]   # kept apart at depth 0
        if all(items):
            return (T.TTuple(tuple(it for it, _ in items)),
                    VTuple([x for _, x in items]))
    except VectorError:
        pass
    return None


def _fun_name(v: Any) -> str:
    if isinstance(v, str):
        return v
    name = getattr(v, "name", None)
    if isinstance(name, str):
        return name
    raise VectorError(f"expected a function value, got {v!r}")


#: scalar leaf type -> (kind, accepted classes, refused classes); a scalar
#: comes out as the first accepted class
_LEAVES = {
    T.TInt: ("int", (int, np.integer), bool),
    T.TBool: ("bool", (bool, np.bool_), ()),
    T.TFloat: ("float", (float, np.floating), ()),
}


def _all(layer: Sequence, base, but=()) -> bool:
    """Every value in ``layer`` is an instance of ``base`` and of none of
    ``but``.  ``groupby`` yields one key per run of equal exact types, so the
    elements are passed over in C and only the distinct few types are
    tested in Python."""
    return all(issubclass(tp, base) and not issubclass(tp, but)
               for tp, _ in groupby(layer, type))


def _read(layer: Sequence) -> T.Type:
    """What one pass tells of the type of ``layer``'s values, judged as
    :func:`repro.interp.values.infer_value_type` judges: a scalar type (int
    where there is nothing to look at), or a sequence / tuple type with
    ``None`` where the next layer will say.  Values of no one type, function
    values and non-P values are a ``VectorError``."""
    kinds = _kinds(layer) or {T.INT}
    kind = kinds.pop()
    if kinds or kind is None or kind is FunVal:
        raise VectorError("a layer of no one P type")
    if kind is list:
        return T.TSeq(None)
    return T.TTuple((None,) * len(layer[0])) if kind is tuple else kind


def _layer_from_python(layer: Sequence, t: Optional[T.Type], descs: list):
    """Convert ``layer``, the values of type ``t`` that sit under the
    descriptors ``descs``, to ``(t, NestedVector)`` (a VTuple of them where
    ``t`` holds tuples).  A layer is checked against ``t``; where ``t`` is
    ``None`` its type is :func:`_read` off it instead, in the same one pass."""
    told, root, depth = t is not None, layer, 0
    while isinstance(t := t or _read(layer), T.TSeq):
        if told and not _all(layer, list):
            below = T.seq_depth(t)
            if isinstance(T.peel(t, below), T.TTuple):
                _tuple_misfit(root, depth + below, 0)
            for x in layer:
                if not isinstance(x, list):
                    raise VectorError(f"expected a sequence, got {x!r}")
        descs = [*descs, np.fromiter(map(len, layer), INT_DTYPE, len(layer))]
        layer = (layer[0] if len(layer) == 1
                 else list(chain.from_iterable(layer)))
        t, depth = t.elem, depth + 1
    if isinstance(t, T.TTuple):
        if told and not _all(layer, tuple):
            _tuple_misfit(root, depth, 0)
        width = len(t.items)
        if max(map(len, layer), default=0) > width:
            wide = next(x for x in layer if len(x) > width)
            raise VectorError(f"expected {width}-tuple, got {wide!r}")
        comps = []
        for i, it in enumerate(t.items):
            try:
                column = list(map(itemgetter(i), layer))
            except IndexError:
                _tuple_misfit(layer, 0, i)
                raise
            comps.append(_layer_from_python(column, it, descs))
        return (T.seq_of(T.TTuple(tuple(ct for ct, _ in comps)), depth),
                VTuple([c for _, c in comps]))
    if isinstance(t, T.TFun):
        ids = [FUNTABLE.intern(_fun_name(x)) for x in layer]
        return T.seq_of(t, depth), NestedVector(
            descs, np.asarray(ids, dtype=INT_DTYPE), "fun")
    if type(t) not in _LEAVES:
        raise VectorError(f"bad sequence leaf type {t!r}")
    kind, accepted, refused = _LEAVES[type(t)]
    if told and not _all(layer, accepted, refused):
        for x in layer:
            if isinstance(x, refused) or not isinstance(x, accepted):
                raise VectorError(f"expected {kind} element, got {x!r}")
    try:
        values = np.fromiter(layer, KIND_DTYPES[kind], len(layer))
    except OverflowError:
        bad = next(x for x in layer if int(x) not in _INT64)
        raise VectorError(f"integer {bad!r} does not fit int64") from None
    return T.seq_of(t, depth), NestedVector(descs, values, kind)


def _tuple_misfit(layer: Sequence, depth: int, i: int) -> None:
    """Error reporter for a rejected layer: raise for the first value, depth
    first, that keeps component ``i`` from being taken out of the tuples
    ``depth`` sequence levels below ``layer``."""
    for v in layer:
        if depth:
            if not isinstance(v, list):
                raise VectorError(f"expected a sequence, got {v!r}")
            _tuple_misfit(v, depth - 1, i)
        elif not isinstance(v, tuple) or i >= len(v):
            raise VectorError(
                f"expected a tuple with >= {i + 1} components, got {v!r}")


# ---------------------------------------------------------------------------
# vector -> Python
# ---------------------------------------------------------------------------


def to_python(v: Any, t: T.Type, fun_factory=None) -> Any:
    """Convert a vector value of P type ``t`` back to Python form.

    ``fun_factory(name)`` builds function values (defaults to
    :class:`repro.interp.values.FunVal`-compatible plain VFun)."""
    if isinstance(t, T.TInt):
        return int(v)
    if isinstance(t, T.TBool):
        return bool(v)
    if isinstance(t, T.TFloat):
        return float(v)
    if isinstance(t, T.TFun):
        name = _fun_name(v)
        return fun_factory(name) if fun_factory else VFun(name)
    if isinstance(t, T.TTuple):
        if not isinstance(v, VTuple):
            raise VectorError(f"expected VTuple, got {v!r}")
        return tuple(to_python(x, it, fun_factory)
                     for x, it in zip(v.items, t.items))
    if isinstance(t, T.TSeq):
        return _layer_to_python(v, t.elem, 1, fun_factory)
    raise VectorError(f"cannot convert from vector form at type {t!r}")


def _layer_to_python(v: Any, t: T.Type, skip: int, fun_factory) -> list:
    """The values of type ``t`` that sit ``skip`` sequence levels down in
    ``v``, as one flat list of Python values — the inverse of
    :func:`_layer_from_python`."""
    depth = T.seq_depth(t)
    leaf = T.peel(t, depth)
    if isinstance(leaf, T.TTuple):
        if not isinstance(v, VTuple):
            raise VectorError(f"expected VTuple of frames, got {v!r}")
        below = skip + depth
        comps = v.items[:len(leaf.items)]
        layer = list(zip(*[_layer_to_python(x, it, below, fun_factory)
                           for x, it in zip(comps, leaf.items)]))
        frames = [first_leaf(x).descs[:below] for x in comps]
        for other in frames[1:]:
            if not all(map(np.array_equal, frames[0], other)):
                raise VectorError(
                    "tuple components disagree on sequence lengths")
        levels = frames[0][skip:]
    else:
        if not isinstance(v, NestedVector):
            raise VectorError(f"expected NestedVector, got {v!r}")
        if isinstance(leaf, T.TFun):
            make = fun_factory or VFun
            layer = [make(FUNTABLE.name_of(i)) for i in v.values.tolist()]
        else:
            # the P type decides what comes back, whatever kind holds it
            kind = _LEAVES.get(type(leaf), _LEAVES[T.TInt])[0]
            layer = np.asarray(v.values, dtype=KIND_DTYPES[kind]).tolist()
        levels = v.descs[skip:]
    for desc in reversed(levels):
        bounds = np.cumsum(desc).tolist()
        layer = [layer[a:b] for a, b in zip([0, *bounds], bounds)]
    return layer
