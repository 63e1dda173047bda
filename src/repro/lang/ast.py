"""Abstract syntax for P programs.

The surface language desugars heavily in the parser: operators, ``#e``,
``v[i]``, ``[a..b]`` and the filtered iterator all become ordinary nodes
here, so the core AST has only twelve expression forms.  Two additional node
kinds (:class:`ExtCall`, :class:`IndirectCall`) appear only in *transformed*
(iterator-free) programs: they denote application of the depth-``d`` parallel
extension ``f^d`` introduced by the paper's rules R2c/T1.

All nodes carry an optional ``type`` attribute filled in by the type checker
and a source position for diagnostics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class for all P expressions."""

    # NOTE: subclasses list their own fields; these shared attributes are
    # assigned post-construction to keep constructor signatures clean.
    def __post_init__(self) -> None:
        self.type: Any = None
        self.line: int = 0
        self.col: int = 0
        # provenance tag set by transform rules (e.g. "R2d", "R2d-guard",
        # "R2d-restrict") so the IR verifier can check rule-specific
        # postconditions without pattern-guessing over user-written code
        self.origin: str = ""

    def at(self, line: int, col: int) -> "Expr":
        """Attach a source position, returning self (builder style)."""
        self.line = line
        self.col = col
        return self


@dataclass
class Var(Expr):
    """Reference to a variable, parameter, or top-level function."""

    name: str


@dataclass
class IntLit(Expr):
    """Integer constant."""

    value: int


@dataclass
class BoolLit(Expr):
    """Boolean constant ``true`` / ``false``."""

    value: bool


@dataclass
class FloatLit(Expr):
    """Floating-point constant (the Float scalar extension)."""

    value: float


@dataclass
class SeqLit(Expr):
    """Sequence construction ``[e1, ..., en]`` (Table 2 ``seq_cons``)."""

    items: list[Expr]


@dataclass
class TupleLit(Expr):
    """Tuple construction ``(e1, ..., en)`` with n >= 2."""

    items: list[Expr]


@dataclass
class TupleExtract(Expr):
    """Tuple projection ``e.i`` with a *static* 1-origin index."""

    tup: Expr
    index: int


@dataclass
class Call(Expr):
    """Application ``(ef)(e1, ..., en)``.

    ``fn`` is an arbitrary expression; in first-order code it is a
    :class:`Var` naming a builtin or top-level function.
    """

    fn: Expr
    args: list[Expr]


@dataclass
class Lambda(Expr):
    """Fully-parameterized function value ``fn(x1, ..., xn) => e``.

    The paper requires function values to be fully parameterized: the body
    may reference only the parameters and top-level definitions.  The type
    checker enforces this.
    """

    params: list[str]
    body: Expr


@dataclass
class Let(Expr):
    """``let x = e1 in e2`` (single binding; parser unfolds multiples)."""

    var: str
    bound: Expr
    body: Expr


@dataclass
class If(Expr):
    """``if b then e1 else e2``."""

    cond: Expr
    then: Expr
    els: Expr


@dataclass
class Iter(Expr):
    """The iterator ``[x <- d: e]`` — the sole source of data parallelism.

    ``filter`` holds the optional predicate of ``[x <- d | b: e]``; the
    desugaring of section 2 (restrict the domain first) is applied by the
    canonicalization pass, not the parser, so the original form survives for
    pretty-printing and the rule trace.
    """

    var: str
    domain: Expr
    body: Expr
    filter: Optional[Expr] = None


# --- transformed-program (iterator-free) nodes -----------------------------


@dataclass
class ExtCall(Expr):
    """Application of the depth-``depth`` parallel extension ``fn^depth``.

    ``fn`` names a primitive or a monomorphized top-level function.
    ``arg_depths[i]`` records the *frame depth* of argument ``i`` as known
    statically by the transformation: either ``depth`` (a full frame) or
    ``0`` (a depth-0 value that the extension broadcasts — section 3's "we
    rely on parallel extensions of functions to replicate such single
    values").
    """

    fn: str
    args: list[Expr]
    depth: int
    arg_depths: list[int] = field(default_factory=list)


@dataclass
class IndirectCall(Expr):
    """Application of a function *value* at iteration depth ``depth``.

    ``fun`` evaluates to a function value (``fun_depth == 0``) or to a
    depth-``depth`` frame of function values (``fun_depth == depth``), in
    which case execution dispatches group-by-group over the distinct
    functions present (the paper's "translation of function values").
    """

    fun: Expr
    args: list[Expr]
    depth: int
    fun_depth: int
    arg_depths: list[int] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Top-level forms
# ---------------------------------------------------------------------------


@dataclass
class FunDef:
    """Top-level definition ``fun name(x1, ..., xn) = body``.

    ``param_types``/``ret_type`` hold optional source annotations (parsed
    type expressions); after type checking they hold resolved types.
    """

    name: str
    params: list[str]
    body: Expr
    param_types: list[Any] | None = None
    ret_type: Any = None
    line: int = 0
    col: int = 0


@dataclass
class Program:
    """An ordered collection of top-level function definitions."""

    defs: dict[str, FunDef]

    def __iter__(self) -> Iterable[FunDef]:
        return iter(self.defs.values())

    def __getitem__(self, name: str) -> FunDef:
        return self.defs[name]

    def __contains__(self, name: str) -> bool:
        return name in self.defs


# ---------------------------------------------------------------------------
# Structural utilities
# ---------------------------------------------------------------------------

_counter = itertools.count()


def fresh_name(base: str = "t") -> str:
    """Return a program-unique identifier.  Generated names contain ``%`` so
    they can never collide with source identifiers."""
    return f"{base}%{next(_counter)}"


#: the ``origin`` of a :class:`Var` that names a builtin whatever the
#: program defines or binds under that name (what R1 generates)
BUILTIN = "builtin"


def builtin_ref(name: str) -> Var:
    """A reference to builtin ``name`` that no definition or local
    variable of the same name captures."""
    v = Var(name)
    v.origin = BUILTIN
    return v


def reset_fresh_names() -> None:
    """Reset the fresh-name counter (test isolation only)."""
    global _counter
    _counter = itertools.count()


def children(e: Expr) -> list[Expr]:
    """All direct sub-expressions of ``e`` in evaluation order."""
    row = NODE_ROWS.get(type(e))
    if row is None:
        raise TypeError(f"unknown expression node {type(e).__name__}")
    return row[0](e)


def walk(e: Expr) -> Iterable[Expr]:
    """Pre-order traversal of the expression tree."""
    stack = [e]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(children(n)))


def free_vars(e: Expr, bound: frozenset[str] = frozenset()) -> set[str]:
    """Free variable names of ``e`` (excluding names in ``bound``); a
    :func:`builtin_ref` refers to no variable."""
    cls = type(e)
    if cls is Var:
        return set() if e.name in bound or e.origin == BUILTIN \
            else {e.name}
    if cls is Lambda:
        return free_vars(e.body, bound | frozenset(e.params))
    if cls is Let:
        return free_vars(e.bound, bound) | free_vars(e.body, bound | {e.var})
    if cls is Iter:
        out = free_vars(e.domain, bound)
        inner = bound | {e.var}
        if e.filter is not None:
            out |= free_vars(e.filter, inner)
        out |= free_vars(e.body, inner)
        return out
    out: set[str] = set()
    for c in children(e):
        out |= free_vars(c, bound)
    return out


def _copy_node(e: Expr, **replacements: Any) -> Expr:
    """Shallow-copy ``e`` with some fields replaced.  The copy is a new
    instance of the same class holding ``e``'s attributes (``type``,
    ``line``, ``col`` and ``origin`` included); no constructor runs, and
    unreplaced fields are shared."""
    new = object.__new__(type(e))
    new.__dict__.update(e.__dict__, **replacements)
    return new


def map_children(e: Expr, f) -> Expr:
    """Rebuild ``e`` applying ``f`` to each direct sub-expression."""
    row = NODE_ROWS.get(type(e))
    if row is None:
        raise TypeError(f"unknown expression node {type(e).__name__}")
    return row[1](e, f)


_LEAF = (lambda e: [], lambda e, f: e)
_ITEMS = (lambda e: list(e.items),
          lambda e, f: _copy_node(e, items=[f(c) for c in e.items]))

#: The node protocol: one ``(children, map_children)`` row per concrete node
#: class, looked up by ``type(e)``.  ``children`` lists sub-expressions in
#: evaluation order (an Iter's domain, filter, body); ``map_children`` calls
#: ``f`` in the order that numbers fresh names (an Iter's domain, body,
#: filter).  A new node kind needs exactly one row.
NODE_ROWS = {
    Var: _LEAF, IntLit: _LEAF, BoolLit: _LEAF, FloatLit: _LEAF,
    SeqLit: _ITEMS, TupleLit: _ITEMS,
    TupleExtract: (lambda e: [e.tup],
                   lambda e, f: _copy_node(e, tup=f(e.tup))),
    Call: (lambda e: [e.fn, *e.args],
           lambda e, f: _copy_node(e, fn=f(e.fn), args=[f(a) for a in e.args])),
    Lambda: (lambda e: [e.body], lambda e, f: _copy_node(e, body=f(e.body))),
    Let: (lambda e: [e.bound, e.body],
          lambda e, f: _copy_node(e, bound=f(e.bound), body=f(e.body))),
    If: (lambda e: [e.cond, e.then, e.els],
         lambda e, f: _copy_node(e, cond=f(e.cond), then=f(e.then), els=f(e.els))),
    Iter: (lambda e: ([e.domain, e.body] if e.filter is None
                      else [e.domain, e.filter, e.body]),
           lambda e, f: _copy_node(
               e, domain=f(e.domain), body=f(e.body),
               filter=None if e.filter is None else f(e.filter))),
    ExtCall: (lambda e: list(e.args),
              lambda e, f: _copy_node(e, args=[f(a) for a in e.args])),
    IndirectCall: (lambda e: [e.fun, *e.args],
                   lambda e, f: _copy_node(e, fun=f(e.fun),
                                           args=[f(a) for a in e.args])),
}


def substitute(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """Capture-avoiding substitution of variables by expressions.

    Binders whose name would capture a free variable of a substituted
    expression are renamed with :func:`fresh_name`.  This implements the
    paper's ``e|x:=y`` notation used by rules R1 and R0.
    """
    if not mapping:
        return e
    if isinstance(e, Var):
        return e if e.origin == BUILTIN else mapping.get(e.name, e)
    if isinstance(e, (IntLit, BoolLit, FloatLit)):
        return e

    def clash(names: Iterable[str]) -> bool:
        needed = set()
        for v in mapping.values():
            needed |= free_vars(v)
        return any(n in needed for n in names)

    if isinstance(e, Lambda):
        # Fully-parameterized: body has no free non-global vars, but be safe.
        inner = {k: v for k, v in mapping.items() if k not in e.params}
        if not inner:
            return e
        if clash(e.params):
            renames = {p: fresh_name(p.split("%")[0]) for p in e.params}
            body = substitute(e.body, {p: Var(n) for p, n in renames.items()})
            new = _copy_node(e, params=[renames[p] for p in e.params],
                             body=substitute(body, inner))
            return new
        return _copy_node(e, body=substitute(e.body, inner))
    if isinstance(e, Let):
        bound = substitute(e.bound, mapping)
        inner = {k: v for k, v in mapping.items() if k != e.var}
        if inner and clash([e.var]):
            nv = fresh_name(e.var.split("%")[0])
            body = substitute(e.body, {e.var: Var(nv)})
            return _copy_node(e, var=nv, bound=bound, body=substitute(body, inner))
        return _copy_node(e, bound=bound, body=substitute(e.body, inner))
    if isinstance(e, Iter):
        domain = substitute(e.domain, mapping)
        inner = {k: v for k, v in mapping.items() if k != e.var}
        if inner and clash([e.var]):
            nv = fresh_name(e.var.split("%")[0])
            ren = {e.var: Var(nv)}
            body = substitute(e.body, ren)
            filt = None if e.filter is None else substitute(e.filter, ren)
            return _copy_node(
                e, var=nv, domain=domain,
                body=substitute(body, inner),
                filter=None if filt is None else substitute(filt, inner),
            )
        return _copy_node(
            e, domain=domain,
            body=substitute(e.body, inner),
            filter=None if e.filter is None else substitute(e.filter, inner),
        )
    return map_children(e, lambda c: substitute(c, mapping))


def clone(e: Expr) -> Expr:
    """Deep copy of an expression tree (fresh node objects, same names)."""
    if isinstance(e, (Var, IntLit, BoolLit, FloatLit)):
        return _copy_node(e)
    return map_children(e, clone)


def count_nodes(e: Expr) -> int:
    """Number of AST nodes in ``e`` (used by tests and the rule trace)."""
    return 1 + sum(count_nodes(c) for c in children(e))


def contains_iterator(e: Expr) -> bool:
    """True if any :class:`Iter` node occurs in ``e`` — the transformation's
    postcondition is that this is False for every function body."""
    return any(isinstance(n, Iter) for n in walk(e))
