"""Post-transformation cleanup of the generated let-chains, as rewrite
patterns.

The eliminator (R2) emits very regular code — every iterator introduces
``ib``, ``iw`` and alias bindings, every R2d conditional introduces masks
and witnesses — and many of these are aliases or end up unused (e.g. a
``dist`` rebinding for a variable the body's live branch never touches).
P is pure, so the following rewrites are unconditionally sound:

* **alias/literal inlining** (:class:`AliasInlinePattern`) —
  ``let x = y in e`` (``y`` a variable or literal) becomes ``e[x := y]``;
* **dead-binding elimination** (:class:`DeadBindingPattern`) —
  ``let x = b in e`` with ``x`` not free in ``e`` becomes ``e`` (``b``
  has no effects to preserve).

Both run under the greedy fixpoint driver
(:func:`~repro.passes.pattern.greedy_rewrite`) as :func:`simplify_expr`,
on any expression.  A third rewrite needs the bindings in scope and is
therefore one scoped sweep over iterator-free IR, not a pattern:

* **a value computed twice is computed once** (:func:`share_expr`) —
  let-bindings of *total* calls float out of let-bound expressions and
  call arguments to the enclosing ``If`` arm or function body, and a
  builtin call equal to a dominating binding is replaced by that
  binding's variable (let-floating + common-subexpression elimination).
  Rebuilding every let-chain, it substitutes aliases and drops dead
  bindings on the way, so the ``simplify`` pass is this sweep alone.

This is the first of the "improvements to the transformations that yield
more efficient code" the paper's section 6 says the authors were
investigating; benchmark E11x measures the step-count reduction.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Optional

from repro.lang import ast as A
from repro.lang import builtins as B
from repro.passes.pattern import RewritePattern, greedy_rewrite

__all__ = [
    "AliasInlinePattern", "DeadBindingPattern",
    "simplify_expr", "simplify_def", "share_expr", "count_lets",
]


_ATOMS = (A.Var, A.IntLit, A.BoolLit, A.FloatLit)


class AliasInlinePattern(RewritePattern):
    """``let x = y in e`` with ``y`` a variable or literal becomes
    ``e[x := y]`` — sound in pure P (§6 cleanup direction)."""

    def match_and_rewrite(self, e: A.Expr) -> Optional[A.Expr]:
        """Fire on a let binding a bare variable or literal."""
        if isinstance(e, A.Let) and isinstance(e.bound, _ATOMS):
            return A.substitute(e.body, {e.var: e.bound})
        return None


class DeadBindingPattern(RewritePattern):
    """``let x = b in e`` with ``x`` not free in ``e`` becomes ``e`` —
    ``b`` is pure, so dropping it is sound (§6 cleanup direction)."""

    def match_and_rewrite(self, e: A.Expr) -> Optional[A.Expr]:
        """Fire on a let whose bound variable is dead in the body."""
        if isinstance(e, A.Let) and e.var not in A.free_vars(e.body):
            return e.body
        return None


#: the simplifier's rule set, in match order (alias inlining first, as a
#: dead alias is cheaper to inline than to liveness-check)
PATTERNS = (AliasInlinePattern(), DeadBindingPattern())


def simplify_expr(e: A.Expr) -> A.Expr:
    """Simplify to a fixpoint (each sweep is one bottom-up application of
    the §6-cleanup pattern set)."""
    return greedy_rewrite(e, PATTERNS)


def simplify_def(d: A.FunDef,
                 is_user: Callable[[str], bool] = lambda name: False
                 ) -> A.FunDef:
    """Simplify one transformed (iterator-free, R2-output) definition in
    place (the §6 cleanup direction): :func:`share_expr` shares repeated
    values and, on the way, does what the two patterns above do — an
    alias is substituted, a dead binding dropped — so one sweep reaches
    their fixpoint.  ``is_user`` names the user functions, whose calls
    are never shared."""
    d.body = share_expr(d.body, d.params, is_user)
    return d


# -- a value computed twice is computed once ---------------------------------
#
# R2 emits the same scaffolding at every iterator entry, so a flattened body
# evaluates ``length(s)`` or ``dist(p, #s)`` once per iterator over ``s``.
# ``share_expr`` removes the repeats in one scoped sweep over a *region* — a
# function body or one ``If`` arm, the unit inside which every binding
# dominates everything after it:
#
# * binders are made unique on the way (the IR reuses source names: ``let p =
#   dist(p, ib)``, ``let s = restrict(s, M)``), so a call's key ``(fn, depth,
#   arg_depths, args)`` means one value for the whole function;
# * a nested ``let`` is floated to the region when its bound call is *total*
#   — it cannot fail, so evaluating it earlier changes no error and no
#   result; a partial binding stays where it is, and opens a sub-region;
# * nothing moves across an ``If``: the R2d emptiness guards are what makes
#   flattened recursion terminate, and a value only one arm needs is not
#   computed for the other;
# * a builtin call whose key equals a dominating binding's is replaced by
#   that variable — *reuse* is sound for partial calls too (the dominating
#   one already succeeded on the same operands); user calls are never keyed;
# * a total call in argument position gets a name only when it is used at
#   least twice, so ``fuse`` still sees the same elementwise trees.

#: calls that cannot fail on well-typed operands, besides the unchecked
#: elementwise primitives and the tuple cons/extract wrappers (``dist`` is
#: total only when its count is a ``length`` result — see ``_Sharer.total``)
_TOTAL = frozenset({"length", "range1", "__iter"})

#: builtins whose result depends on the node's *type*, not only on its
#: operands — never keyed
_TYPE_DIRECTED = frozenset({"__empty", "__seq_cons"})


def share_expr(body: A.Expr, params: Iterable[str] = (),
               is_user: Callable[[str], bool] = lambda name: False
               ) -> A.Expr:
    """Float total let-bindings to their region and replace repeated
    builtin calls by the dominating binding (§6 direction; see the
    comment above).  ``params`` are the names bound on entry."""
    sharer = _Sharer(set(params) | A.free_vars(body), is_user)
    out = sharer.region(body, None, {})
    return _inline_single_use(out, sharer.named)


class _Region:
    """The bindings of one straight-line region, in evaluation order,
    and the keyed calls available in it (its own and its dominators')."""

    def __init__(self, parent: Optional["_Region"]):
        self.bindings: list[tuple[str, A.Expr]] = []
        self.avail: dict[tuple, str] = dict(parent.avail) if parent else {}

    def wrap(self, result: A.Expr) -> A.Expr:
        """``let b1 = e1, ..., bn = en in result``, without the bindings
        nothing after them uses (P is pure: a dead binding is dropped)."""
        live = A.free_vars(result)
        for name, bound in reversed(self.bindings):
            if name not in live:
                continue
            live |= A.free_vars(bound)
            let = A.Let(name, bound, result)
            let.type = result.type
            result = let
        return result


class _Sharer:
    """One :func:`share_expr` run over one definition."""

    def __init__(self, taken: set[str], is_user: Callable[[str], bool]):
        self.is_user = is_user
        #: every name with a meaning in the definition so far — parameters,
        #: globals the body mentions, and the output's binders, which are
        #: kept unique so that a floated binding can capture nothing
        self.taken = taken
        #: variables bound to a ``length`` result (``dist`` totality)
        self.lengths: set[str] = set()
        #: names given to calls found in argument position
        self.named: set[str] = set()

    # -- regions and bindings --------------------------------------------------

    def region(self, e: A.Expr, parent: Optional[_Region],
               ren: dict[str, A.Expr]) -> A.Expr:
        """Rewrite a function body or ``If`` arm as its own region."""
        reg = _Region(parent)
        return reg.wrap(self.tail(e, reg, ren))

    def tail(self, e: A.Expr, reg: _Region, ren: dict[str, A.Expr]) -> A.Expr:
        """An expression on the region's spine: its let-chain (and the
        let-chains of its let-bound expressions) become bindings of the
        region in the order they are evaluated, so nothing moves."""
        while isinstance(e, A.Let):
            bound = self.tail(e.bound, reg, ren)
            ren = {**ren, e.var: self.bind(e.var, bound, reg)}
            e = e.body
        return self.operand(e, reg, ren, may_name=False)

    def bind(self, var: str, bound: A.Expr, reg: _Region) -> A.Expr:
        """Bind an already-rewritten expression in ``reg``; return the atom
        that stands for it — an alias's target, the variable of an equal
        dominating binding, or a new (unique) binder."""
        if isinstance(bound, _ATOMS):
            return bound
        key = self.key(bound)
        if key in reg.avail:
            return A.Var(reg.avail[key])
        name = var if var not in self.taken \
            else A.fresh_name(var.split("%")[0])
        self.taken.add(name)
        reg.bindings.append((name, bound))
        if key is not None:
            reg.avail[key] = name
            if bound.fn == "length":
                self.lengths.add(name)
        out = A.Var(name)
        out.type = bound.type
        return out

    # -- expressions in operand position ---------------------------------------

    def operand(self, e: A.Expr, reg: _Region, ren: dict[str, A.Expr],
                may_name: bool = True) -> A.Expr:
        """Rewrite an expression whose value the region needs here, and
        give it a name when it is a total call (``may_name`` is off on
        the spine, where the caller binds it under its own name)."""
        if isinstance(e, A.Var):
            return ren.get(e.name, e)
        if isinstance(e, A.Let):
            bound = self.operand(e.bound, reg, ren, may_name=False)
            key = self.key(bound)
            if (isinstance(bound, _ATOMS) or key in reg.avail
                    or key is not None and self.total(bound)):
                atom = self.bind(e.var, bound, reg)
                return self.operand(e.body, reg, {**ren, e.var: atom})
            # a partial binding is not hoisted: it opens a sub-region
            sub = _Region(reg)
            atom = self.bind(e.var, bound, sub)
            return sub.wrap(self.operand(e.body, sub, {**ren, e.var: atom}))
        if isinstance(e, A.If):
            # the condition is evaluated here; each arm is its own region
            # (a shared node can only be an atom, which both treat alike)
            return A.map_children(
                e, lambda c: self.operand(c, reg, ren) if c is e.cond
                else self.region(c, reg, ren))
        out = A.map_children(e, lambda c: self.operand(c, reg, ren))
        key = self.key(out)
        if key in reg.avail:
            return A.Var(reg.avail[key])
        if may_name and key is not None and self.total(out):
            # tentatively named; un-named again when used only once
            atom = self.bind(A.fresh_name("cse"), out, reg)
            self.named.add(atom.name)
            return atom
        return out

    # -- keys and totality ---------------------------------------------------------

    def key(self, e: A.Expr) -> Optional[tuple]:
        """``(fn, depth, arg_depths, args)`` of a builtin call on atoms;
        ``None`` for everything that is not shared."""
        if not (isinstance(e, A.ExtCall) and e.fn not in _TYPE_DIRECTED
                and (B.is_builtin(e.fn) or e.fn.startswith("__"))
                and not self.is_user(e.fn)):
            return None
        args = []
        for a in e.args:
            if isinstance(a, A.Var):
                args.append(a.name)
            elif isinstance(a, _ATOMS):
                # by spelling: -0.0 == 0.0, but they are different operands
                args.append((type(a), repr(a.value)))
            else:
                return None
        return (e.fn, e.depth, tuple(e.arg_depths), tuple(args))

    def total(self, e: A.ExtCall) -> bool:
        """True when the keyed call ``e`` cannot fail: only these are
        moved."""
        fn = e.fn
        if fn == "dist":
            return isinstance(e.args[1], A.Var) \
                and e.args[1].name in self.lengths
        return fn in _TOTAL or fn.startswith("__tuple_") \
            or B.is_unchecked_elementwise(fn)


def _inline_single_use(e: A.Expr, named: set[str]) -> A.Expr:
    """Put every call that :class:`_Sharer` named but that ended up used
    only once back where it was (binders are unique, so this is plain
    substitution) — an unshared elementwise tree stays one tree."""
    if not named:
        return e
    uses = Counter(n.name for n in A.walk(e)
                   if isinstance(n, A.Var) and n.name in named)
    once = {n for n in named if uses[n] <= 1}
    if not once:
        return e
    defs: dict[str, A.Expr] = {}

    def go(x: A.Expr) -> A.Expr:
        if isinstance(x, A.Var):
            return defs.get(x.name, x)
        if isinstance(x, A.Let) and x.var in once:
            defs[x.var] = go(x.bound)
            return go(x.body)
        return A.map_children(x, go)
    return go(e)


def count_lets(e: A.Expr) -> int:
    """Number of Let nodes (used by tests and the E11x/E12 ablation
    benchmarks measuring the §6 cleanup)."""
    return sum(1 for n in A.walk(e) if isinstance(n, A.Let))
