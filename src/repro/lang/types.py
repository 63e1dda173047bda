"""The type language of P (section 2):

    T ::= Int | Bool | Seq(T) | (T x ... x T) | (T, ..., T) -> T

plus unification variables used internally by the type checker.  Types are
immutable and hash-consed enough for structural equality to be cheap.

The module also provides the *depth* helpers the transformation relies on:
``seq_of(t, d)`` builds ``Seq^d(t)`` and ``peel(t, d)`` removes ``d`` levels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.errors import TypeCheckError

# ---------------------------------------------------------------------------
# Type constructors
# ---------------------------------------------------------------------------


class Type:
    """Base class of all P types."""

    def __repr__(self) -> str:
        return type_str(self)


@dataclass(frozen=True, repr=False)
class TInt(Type):
    """The scalar type ``int``."""


@dataclass(frozen=True, repr=False)
class TBool(Type):
    """The scalar type ``bool``."""


@dataclass(frozen=True, repr=False)
class TFloat(Type):
    """Extension beyond the paper's minimal scalar set (section 2: "the set
    of scalar types is limited [to simplify] the exposition ... Extension
    ... should be relatively simple")."""


@dataclass(frozen=True, repr=False)
class TSeq(Type):
    """``seq(elem)``: the sequence type, nested to any depth."""

    elem: Type


@dataclass(frozen=True, repr=False)
class TTuple(Type):
    """``(t1, ..., tn)``: the tuple type, n >= 2."""

    items: tuple[Type, ...]


@dataclass(frozen=True, repr=False)
class TFun(Type):
    """``(t1, ..., tn) -> result``: the type of a function value."""

    params: tuple[Type, ...]
    result: Type


_var_ids = itertools.count()


@dataclass(frozen=True, repr=False)
class TVar(Type):
    """A unification variable.  ``scalar_only`` constrains the solution to
    a scalar (Int/Bool/Float — used by ``==``/``!=``); ``numeric_only``
    constrains it to Int/Float (arithmetic and ordered comparisons)."""

    id: int
    scalar_only: bool = False
    numeric_only: bool = False


INT = TInt()
BOOL = TBool()
FLOAT = TFloat()


def fresh_tvar(scalar_only: bool = False, numeric_only: bool = False) -> TVar:
    """A fresh unification variable."""
    return TVar(next(_var_ids), scalar_only, numeric_only)


def seq_of(t: Type, depth: int = 1) -> Type:
    """``Seq^depth(t)``."""
    for _ in range(depth):
        t = TSeq(t)
    return t


def peel(t: Type, depth: int = 1) -> Type:
    """Remove ``depth`` Seq levels from ``t``; error if not nested enough."""
    for _ in range(depth):
        if not isinstance(t, TSeq):
            raise TypeCheckError(f"expected a sequence type, got {type_str(t)}")
        t = t.elem
    return t


def seq_depth(t: Type) -> int:
    """Number of leading Seq constructors in ``t``."""
    d = 0
    while isinstance(t, TSeq):
        d += 1
        t = t.elem
    return d


def is_scalar(t: Type) -> bool:
    """True for ``int``, ``bool`` and ``float``."""
    return isinstance(t, (TInt, TBool, TFloat))


def is_numeric(t: Type) -> bool:
    """True for ``int`` and ``float`` (arithmetic operand types)."""
    return isinstance(t, (TInt, TFloat))


def type_str(t: Type) -> str:
    """Concrete syntax for a type."""
    if isinstance(t, TInt):
        return "int"
    if isinstance(t, TBool):
        return "bool"
    if isinstance(t, TFloat):
        return "float"
    if isinstance(t, TSeq):
        return f"seq({type_str(t.elem)})"
    if isinstance(t, TTuple):
        return "(" + ", ".join(type_str(x) for x in t.items) + ")"
    if isinstance(t, TFun):
        ps = ", ".join(type_str(x) for x in t.params)
        return f"({ps}) -> {type_str(t.result)}"
    if isinstance(t, TVar):
        return f"?{t.id}" + ("s" if t.scalar_only else "") + \
            ("n" if t.numeric_only else "")
    raise TypeError(f"not a type: {t!r}")


def contains_var(t: Type) -> bool:
    """True if any unification variable occurs in ``t``."""
    if isinstance(t, TVar):
        return True
    if isinstance(t, TSeq):
        return contains_var(t.elem)
    if isinstance(t, TTuple):
        return any(contains_var(x) for x in t.items)
    if isinstance(t, TFun):
        return any(contains_var(x) for x in t.params) or contains_var(t.result)
    return False


def type_vars(t: Type) -> set[int]:
    """Ids of all unification variables occurring in ``t``."""
    if isinstance(t, TVar):
        return {t.id}
    out: set[int] = set()
    if isinstance(t, TSeq):
        out |= type_vars(t.elem)
    elif isinstance(t, TTuple):
        for x in t.items:
            out |= type_vars(x)
    elif isinstance(t, TFun):
        for x in t.params:
            out |= type_vars(x)
        out |= type_vars(t.result)
    return out


# ---------------------------------------------------------------------------
# Substitutions and unification
# ---------------------------------------------------------------------------


class Subst:
    """A mutable union-find-free substitution map for unification variables."""

    def __init__(self) -> None:
        self.map: dict[int, Type] = {}

    def resolve(self, t: Type) -> Type:
        """Follow variable bindings one level (path-compressing)."""
        while isinstance(t, TVar) and t.id in self.map:
            t = self.map[t.id]
        return t

    def apply(self, t: Type) -> Type:
        """Fully substitute ``t``."""
        t = self.resolve(t)
        if isinstance(t, TSeq):
            return TSeq(self.apply(t.elem))
        if isinstance(t, TTuple):
            return TTuple(tuple(self.apply(x) for x in t.items))
        if isinstance(t, TFun):
            return TFun(tuple(self.apply(x) for x in t.params), self.apply(t.result))
        return t

    def unify(self, a: Type, b: Type, where: str = "") -> None:
        """Unify ``a`` and ``b``, extending the substitution.

        Raises :class:`TypeCheckError` on mismatch or occurs-check failure.
        """
        a = self.resolve(a)
        b = self.resolve(b)
        if a is b or a == b:
            return
        if isinstance(a, TVar):
            self._bind(a, b, where)
            return
        if isinstance(b, TVar):
            self._bind(b, a, where)
            return
        if isinstance(a, TSeq) and isinstance(b, TSeq):
            self.unify(a.elem, b.elem, where)
            return
        if isinstance(a, TTuple) and isinstance(b, TTuple) and len(a.items) == len(b.items):
            for x, y in zip(a.items, b.items):
                self.unify(x, y, where)
            return
        if isinstance(a, TFun) and isinstance(b, TFun) and len(a.params) == len(b.params):
            for x, y in zip(a.params, b.params):
                self.unify(x, y, where)
            self.unify(a.result, b.result, where)
            return
        ctx = f" in {where}" if where else ""
        raise TypeCheckError(
            f"type mismatch: {type_str(self.apply(a))} vs {type_str(self.apply(b))}{ctx}"
        )

    def _bind(self, v: TVar, t: Type, where: str) -> None:
        if isinstance(t, TVar) and t.id == v.id:
            return
        if v.id in type_vars(self.apply(t)):
            raise TypeCheckError(f"infinite type: ?{v.id} occurs in {type_str(self.apply(t))}")
        if v.scalar_only or v.numeric_only:
            rt = self.resolve(t)
            if isinstance(rt, TVar):
                need_s = v.scalar_only or rt.scalar_only
                need_n = v.numeric_only or rt.numeric_only
                if (rt.scalar_only, rt.numeric_only) != (need_s, need_n):
                    # propagate the union of the constraints
                    nv = fresh_tvar(scalar_only=need_s, numeric_only=need_n)
                    self.map[rt.id] = nv
                    self.map[v.id] = nv
                    return
            else:
                ctx = f" in {where}" if where else ""
                if v.numeric_only and not is_numeric(rt):
                    raise TypeCheckError(
                        f"operator requires a numeric type, got "
                        f"{type_str(self.apply(t))}{ctx}")
                if v.scalar_only and not is_scalar(rt):
                    raise TypeCheckError(
                        f"operator requires a scalar type, got "
                        f"{type_str(self.apply(t))}{ctx}")
        self.map[v.id] = t

    def default_unresolved(self, t: Type) -> Type:
        """Replace any remaining variables in ``t`` by Int (defaulting).

        Programs like ``fun f() = []`` leave the element type unconstrained;
        monomorphization needs a concrete type, and Int is the conventional
        default.
        """
        t = self.resolve(t)
        if isinstance(t, TVar):
            return INT
        if isinstance(t, TSeq):
            return TSeq(self.default_unresolved(t.elem))
        if isinstance(t, TTuple):
            return TTuple(tuple(self.default_unresolved(x) for x in t.items))
        if isinstance(t, TFun):
            return TFun(
                tuple(self.default_unresolved(x) for x in t.params),
                self.default_unresolved(t.result),
            )
        return t


def instantiate(t: Type, mapping: Optional[dict[int, Type]] = None) -> Type:
    """Replace every type variable in ``t`` with a fresh one (consistently)."""
    if mapping is None:
        mapping = {}

    def go(x: Type) -> Type:
        if isinstance(x, TVar):
            if x.id not in mapping:
                mapping[x.id] = fresh_tvar(x.scalar_only, x.numeric_only)
            return mapping[x.id]
        if isinstance(x, TSeq):
            return TSeq(go(x.elem))
        if isinstance(x, TTuple):
            return TTuple(tuple(go(i) for i in x.items))
        if isinstance(x, TFun):
            return TFun(tuple(go(p) for p in x.params), go(x.result))
        return x

    return go(t)


def parse_type(text: str) -> Type:
    """Parse a type written in concrete syntax (used by tests and the API).

    Grammar: ``int | bool | seq(T) | (T, T, ...) | (T, ...) -> T``.
    A parenthesized single type is just that type.
    """
    toks = _type_tokens(text)
    t, pos = _parse_type(toks, 0)
    if pos != len(toks):
        raise TypeCheckError(f"trailing input in type: {text!r}")
    return t


def _type_tokens(text: str) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif text.startswith("->", i):
            out.append("->")
            i += 2
        elif c in "(),":
            out.append(c)
            i += 1
        elif c.isalpha():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise TypeCheckError(f"bad character in type: {c!r}")
    return out


def _parse_type(toks: list[str], pos: int) -> tuple[Type, int]:
    if pos >= len(toks):
        raise TypeCheckError("unexpected end of type")
    tok = toks[pos]
    if tok == "int":
        return INT, pos + 1
    if tok == "bool":
        return BOOL, pos + 1
    if tok == "float":
        return FLOAT, pos + 1
    if tok == "seq":
        if pos + 1 >= len(toks) or toks[pos + 1] != "(":
            raise TypeCheckError("seq must be followed by (T)")
        inner, p = _parse_type(toks, pos + 2)
        if p >= len(toks) or toks[p] != ")":
            raise TypeCheckError("missing ) in seq(T)")
        return TSeq(inner), p + 1
    if tok == "(":
        items: list[Type] = []
        p = pos + 1
        if p < len(toks) and toks[p] == ")":
            p += 1
        else:
            while True:
                t, p = _parse_type(toks, p)
                items.append(t)
                if p < len(toks) and toks[p] == ",":
                    p += 1
                    continue
                if p < len(toks) and toks[p] == ")":
                    p += 1
                    break
                raise TypeCheckError("expected , or ) in type")
        if p < len(toks) and toks[p] == "->":
            res, p = _parse_type(toks, p + 1)
            return TFun(tuple(items), res), p
        if len(items) == 1:
            return items[0], p
        return TTuple(tuple(items)), p
    raise TypeCheckError(f"unexpected token in type: {tok!r}")


def scalar_leaves(t: Type) -> list[Type]:
    """The scalar leaf types of ``t`` after flattening tuple structure.

    This mirrors the paper's observation that a sequence of tuples needs
    ``k > d+1`` value vectors: one per scalar leaf.
    """
    if isinstance(t, (TInt, TBool, TFloat)):
        return [t]
    if isinstance(t, TSeq):
        return scalar_leaves(t.elem)
    if isinstance(t, TTuple):
        out: list[Type] = []
        for x in t.items:
            out.extend(scalar_leaves(x))
        return out
    if isinstance(t, TFun):
        return [t]
    raise TypeCheckError(f"no scalar leaves for {type_str(t)}")
