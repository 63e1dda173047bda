"""The vector representation of nested sequences (paper section 4.1,
Figure 1).

A value of type ``Seq^d(scalar)`` is held as ``d`` *descriptor vectors*
``V_1 .. V_d`` (``V_1`` a singleton) plus one *value vector*, with the
invariant ``#V_{i+1} = sum(V_i)``.  Figure 1's example::

    [[[2,7],[3,9,8]], [[3],[4,3,2]]]
    V1 = [2]  V2 = [2,2]  V3 = [2,3,1,3]  values = [2,7,3,9,8,3,4,3,2]

Sequences of *tuples* ("if alpha is a tuple type then k > d+1" value
vectors) are represented by pushing the tuple outward through the sequence
(``Seq(a x b)`` is held as a :class:`VTuple` of two parallel
:class:`NestedVector` s with identical descriptors), so every NestedVector
has exactly one leaf vector.  Sequences of *function values* hold interned
function ids in the leaf (kind ``"fun"``), enabling the paper's translation
of higher-order data-parallel style.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Union

import numpy as np

from repro.errors import VectorError
from repro.vector.segments import INT_DTYPE

#: When True (default), constructors validate the descriptor invariant.
#: Benchmarks may disable it to measure raw kernel cost.
CHECK_INVARIANTS = True


class FunTable:
    """Global interning table mapping function names to integer ids, so
    frames of function values are ordinary flat integer vectors."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._names: list[str] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def name_of(self, fid: int) -> str:
        try:
            return self._names[fid]
        except IndexError:
            raise VectorError(f"unknown function id {fid}") from None


FUNTABLE = FunTable()

#: leaf kind -> dtype of the value vector
KIND_DTYPES = {"int": INT_DTYPE, "bool": np.bool_, "fun": INT_DTYPE,
               "float": np.float64}

_add_reduce = np.add.reduce
_min_reduce = np.minimum.reduce


def _checked_sum(d: np.ndarray) -> int:
    """``sum(d)`` of one descriptor level, after checking it is a 1-D
    vector of non-negative counts."""
    if d.ndim != 1:
        raise VectorError("descriptors must be 1-D")
    if d.size == 1:     # every top length: nothing to reduce
        total = low = int(d[0])
    elif d.size:
        total, low = int(_add_reduce(d)), _min_reduce(d)
    else:
        return 0
    if low < 0:
        raise VectorError("negative count in descriptor")
    return total


def _check_links(descs: tuple, sums: tuple, values: np.ndarray,
                 top: bool = True) -> None:
    """``descs[0]`` is a singleton and ``sums[i]`` is the size of the level
    below ``descs[i]`` — the representation invariant, given the sums.
    With ``top`` false, ``descs`` are the levels below a top (a level list,
    :meth:`NestedVector.levels`), which need not start with a singleton."""
    if top and not descs:
        raise VectorError("NestedVector needs at least one descriptor")
    if top and descs[0].size != 1:
        raise VectorError(
            f"top descriptor must be a singleton, got size {descs[0].size}")
    last = len(descs)
    for i, want in enumerate(sums, 1):
        got = descs[i].size if i < last else len(values)
        if want != got:
            raise VectorError(
                f"descriptor invariant violated at level {i}: "
                f"sum={want} but next level has {got} entries")
    if values.ndim != 1:
        raise VectorError("value vector must be 1-D")


class NestedVector:
    """A nested sequence in flat vector form: descriptors + one value vector.

    ``descs`` is a tuple of 1-D int64 arrays; ``descs[0]`` is always a
    singleton holding the top-level length.  ``values`` is the flat leaf
    vector; ``kind`` is ``"int"``, ``"bool"``, ``"float"`` or ``"fun"``
    (interned function ids).

    Validation remembers what it proved: ``_sums[i] == sum(descs[i])`` for
    every descriptor this vector was validated with (``None`` when it was
    built with :data:`CHECK_INVARIANTS` off).  :meth:`splice` — the builder
    every *derived* construction uses — inherits the sums of the descriptor
    arrays it takes over unchanged, so an array is checked and summed once,
    by the constructor that first saw it, and every later link is an
    integer comparison.
    """

    __slots__ = ("descs", "values", "kind", "_sums")

    def __init__(self, descs: Iterable[np.ndarray], values: np.ndarray, kind: str):
        self.descs: tuple[np.ndarray, ...] = tuple(
            np.asarray(d, dtype=INT_DTYPE) for d in descs)
        if kind not in KIND_DTYPES:
            raise VectorError(f"bad leaf kind {kind!r}")
        self.values = np.asarray(values, dtype=KIND_DTYPES[kind])
        self.kind = kind
        self._sums: Optional[tuple[int, ...]] = None
        if CHECK_INVARIANTS:
            self.validate()

    @classmethod
    def splice(cls, values: np.ndarray, kind: str,
               head: Optional["NestedVector"] = None, k: int = 0,
               new: Iterable[np.ndarray] = (),
               tail: Optional["NestedVector"] = None, j: int = 0
               ) -> "NestedVector":
        """The vector with descriptors ``head.descs[:k] + new +
        tail.descs[j:]`` over ``values``.

        Levels taken from ``head`` and ``tail`` were checked and summed
        when those vectors were validated, and are not reduced again; the
        ``new`` levels are checked in full (1-D, int64, non-negative,
        summed); every adjacent pair of the result, inherited or not, is
        linked by comparing the sum above with the size below.  Rejections
        carry the public constructor's class and message.  A source built
        with the belt off has proved nothing to inherit, and the result is
        then built by the public constructor.
        """
        descs, hs = (head.descs[:k], head._sums) if head is not None \
            else ((), ())
        below, ts = (tail.descs[j:], tail._sums) if tail is not None \
            else ((), ())
        if not CHECK_INVARIANTS or hs is None or ts is None:
            return cls([*descs, *new, *below], values, kind)
        if kind not in KIND_DTYPES:
            raise VectorError(f"bad leaf kind {kind!r}")
        sums = hs[:k]
        for d in new:
            d = np.asarray(d, dtype=INT_DTYPE)
            descs += (d,)
            sums += (_checked_sum(d),)
        descs += below
        sums += ts[j:]
        self = object.__new__(cls)
        self.descs = descs
        self.values = values = np.asarray(values, dtype=KIND_DTYPES[kind])
        self.kind = kind
        self._sums = sums
        _check_links(descs, sums, values)
        return self

    def with_values(self, values: np.ndarray, kind: str) -> "NestedVector":
        """This vector's descriptors over a new value vector (the result
        of every elementwise op and scan)."""
        return NestedVector.splice(values, kind, self, len(self.descs))

    # -- structure -----------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of nesting levels (number of descriptor vectors)."""
        return len(self.descs)

    @property
    def top_length(self) -> int:
        """Length of the outermost sequence."""
        return int(self.descs[0][0])

    def level_sum(self, i: int) -> int:
        """``sum(descs[i])``: remembered from validation, else computed."""
        sums = self._sums
        return sums[i] if sums is not None else int(self.descs[i].sum())

    def levels(self) -> list[np.ndarray]:
        """All level arrays below the top length: ``descs[1:]`` + values.

        In this list, entry k gives the child counts (or leaf values) of the
        nodes at level k; it is the format :func:`gather_subtrees` consumes
        when selecting the *top-level elements* of this sequence."""
        return [*self.descs[1:], self.values]

    @classmethod
    def from_levels(cls, top_len: int, levels: list[np.ndarray], kind: str) -> "NestedVector":
        """Inverse of :meth:`levels` given the top length."""
        top = np.array([top_len], dtype=INT_DTYPE)
        return cls.splice(levels[-1], kind, new=(top, *levels[:-1]))

    def validate(self) -> None:
        """Check the representation invariant  #V_{i+1} = sum(V_i)  from
        the arrays (nothing remembered is trusted) and remember the sums."""
        sums = tuple(_checked_sum(d) for d in self.descs)
        _check_links(self.descs, sums, self.values)
        self._sums = sums

    # -- comparisons / display -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NestedVector):
            return NotImplemented
        return (self.kind == other.kind
                and self.depth == other.depth
                and all(np.array_equal(a, b) for a, b in zip(self.descs, other.descs))
                and np.array_equal(self.values, other.values))

    def __hash__(self):  # pragma: no cover - mutable arrays are unhashable
        raise TypeError("NestedVector is unhashable")

    def __repr__(self) -> str:
        ds = ", ".join(np.array2string(d, threshold=8) for d in self.descs)
        vs = np.array2string(self.values, threshold=8)
        return f"NestedVector(kind={self.kind}, descs=[{ds}], values={vs})"

    # -- small helpers used by the evaluator -----------------------------------

    def prepend_unit(self) -> "NestedVector":
        """View this depth-0 *value* as a depth-1 frame of one element
        (add an outer ``[1]`` descriptor)."""
        unit = np.array([1], dtype=INT_DTYPE)
        return NestedVector.splice(self.values, self.kind, new=(unit,),
                                   tail=self)

    def drop_unit(self) -> "NestedVector":
        """Inverse of :meth:`prepend_unit`."""
        if self.top_length != 1 or self.depth < 2:
            raise VectorError("drop_unit: not a unit frame")
        return NestedVector.splice(self.values, self.kind, tail=self, j=1)


class VFun:
    """A depth-0 function value (named; P functions are fully parameterized)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        FUNTABLE.intern(name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VFun) and other.name == self.name

    def __repr__(self) -> str:
        return f"VFun({self.name})"


class VTuple:
    """A tuple value; components are themselves vector values.

    For a *sequence of tuples* the VTuple sits outside: each component is a
    NestedVector with identical descriptors (the paper's multiple value
    vectors sharing the descriptor levels).
    """

    __slots__ = ("items",)

    def __init__(self, items: Iterable[Any]):
        self.items = tuple(items)
        if len(self.items) < 2:
            raise VectorError("VTuple needs at least 2 components")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VTuple) and other.items == self.items

    def __repr__(self) -> str:
        return f"VTuple{self.items!r}"


#: A vector-executable value: scalar, nested vector, tuple, or function.
Value = Union[int, bool, NestedVector, VTuple, VFun]


def first_leaf(v: Value) -> Value:
    """The leftmost non-tuple component of ``v`` (used to read the shared
    frame descriptors of a tuple-of-frames)."""
    while isinstance(v, VTuple):
        v = v.items[0]
    return v


def map_leaves(f, v: Value) -> Value:
    """Apply ``f`` to every non-tuple leaf of a (possibly nested) VTuple."""
    if isinstance(v, VTuple):
        return VTuple([map_leaves(f, x) for x in v.items])
    return f(v)


def leaves_of(v: Value) -> list[Value]:
    """Flatten a VTuple tree into its leaf values (left to right)."""
    if isinstance(v, VTuple):
        out: list[Value] = []
        for x in v.items:
            out.extend(leaves_of(x))
        return out
    return [v]


def zip_leaves(f, a: Value, b: Value) -> Value:
    """Apply binary ``f`` leafwise over two structurally equal VTuple trees."""
    if isinstance(a, VTuple):
        if not isinstance(b, VTuple) or len(b.items) != len(a.items):
            raise VectorError("tuple structure mismatch")
        return VTuple([zip_leaves(f, x, y) for x, y in zip(a.items, b.items)])
    return f(a, b)
