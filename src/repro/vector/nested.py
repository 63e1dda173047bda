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

from typing import Any, Iterable, Union

import numpy as np

from repro.errors import VectorError
from repro.vector import segments as S
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


class NestedVector:
    """A nested sequence in flat vector form: descriptors + one value vector.

    ``descs`` is a tuple of 1-D int64 arrays; ``descs[0]`` is always a
    singleton holding the top-level length.  ``values`` is the flat leaf
    vector; ``kind`` is ``"int"``, ``"bool"``, ``"float"`` or ``"fun"``
    (interned function ids).
    """

    __slots__ = ("descs", "values", "kind")

    def __init__(self, descs: Iterable[np.ndarray], values: np.ndarray, kind: str):
        self.descs: tuple[np.ndarray, ...] = tuple(
            np.asarray(d, dtype=INT_DTYPE) for d in descs)
        if kind not in KIND_DTYPES:
            raise VectorError(f"bad leaf kind {kind!r}")
        self.values = np.asarray(values, dtype=KIND_DTYPES[kind])
        self.kind = kind
        if CHECK_INVARIANTS:
            self.validate()

    # -- structure -----------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of nesting levels (number of descriptor vectors)."""
        return len(self.descs)

    @property
    def top_length(self) -> int:
        """Length of the outermost sequence."""
        return int(self.descs[0][0])

    def levels(self) -> list[np.ndarray]:
        """All level arrays below the top length: ``descs[1:]`` + values.

        In this list, entry k gives the child counts (or leaf values) of the
        nodes at level k; it is the format :func:`gather_subtrees` consumes
        when selecting the *top-level elements* of this sequence."""
        return [*self.descs[1:], self.values]

    @classmethod
    def from_levels(cls, top_len: int, levels: list[np.ndarray], kind: str) -> "NestedVector":
        """Inverse of :meth:`levels` given the top length."""
        return cls([np.array([top_len], dtype=INT_DTYPE), *levels[:-1]],
                   levels[-1], kind)

    def validate(self) -> None:
        """Check the representation invariant  #V_{i+1} = sum(V_i)."""
        if not self.descs:
            raise VectorError("NestedVector needs at least one descriptor")
        if self.descs[0].size != 1:
            raise VectorError(
                f"top descriptor must be a singleton, got size {self.descs[0].size}")
        for d in self.descs:
            if d.ndim != 1:
                raise VectorError("descriptors must be 1-D")
            if d.size and d.min() < 0:
                raise VectorError("negative count in descriptor")
        S.check_counts_consistent([*self.descs, self.values])
        if self.values.ndim != 1:
            raise VectorError("value vector must be 1-D")

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
        return NestedVector(
            [np.array([1], dtype=INT_DTYPE), *self.descs], self.values, self.kind)

    def drop_unit(self) -> "NestedVector":
        """Inverse of :meth:`prepend_unit`."""
        if self.top_length != 1 or self.depth < 2:
            raise VectorError("drop_unit: not a unit frame")
        return NestedVector(self.descs[1:], self.values, self.kind)


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
