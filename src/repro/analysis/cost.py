"""Static work/span/memory cost analysis over the flattened IR.

The paper's central claim (sections 1 and 6) is that flattening preserves
work and step complexity within a constant factor.  The interpreter
*measures* work and span dynamically (:mod:`repro.interp.cost`); this
pass *predicts* them, assigning every transformed definition a symbolic
upper bound in named input-size variables:

* ``work(n, m, ...)`` — total elementary operations, charged per
  primitive application site from the shared :data:`~repro.interp.cost.
  COST_RULES` table (the same table the interpreter evaluates on
  concrete values, so static and dynamic accounting agree by
  construction);
* ``span(n, m, ...)`` — critical-path steps, charging one step per
  vector-op site (each flattened primitive is a constant number of full
  pool-width vector operations — the segmented-scan span model, a
  constant-step deviation from PRAM ``O(log n)`` depth documented in
  ``docs/ANALYSIS.md``);
* ``mem(n, m, ...)`` — cumulative allocation, an upper bound on peak
  live memory.

The abstraction is a *total-size* domain: a sequence value is a tuple of
polynomials giving the **total** element count at each nesting level
(the flattened representation's own invariant ``#V_{i+1} = sum(V_i)``
makes totals compose exactly under pooling), plus a magnitude bound on
its integer leaves (so ``range(1, n)``'s result size is expressible).
Polynomials have non-negative coefficients over non-negative size
variables, so the pointwise coefficient maximum is a sound join.

A per-definition fixpoint: summaries start at bottom (all-zero sizes and costs) and are iterated to
a post-fixpoint.  Definitions whose summaries keep growing past the
round cap — data-dependent recursion such as quicksort, whose cost
depends on pivot values, not sizes — are **widened** to a declared
``unbounded`` verdict rather than guessed at.  A stabilized summary is a
fixpoint of sound monotone transfer functions and therefore bounds every
finite evaluation derivation.

The exported :class:`CostCertificate` evaluates an entry's polynomials
at concrete argument sizes (``predict``), which powers predicted-budget
admission in ``repro.serve``, ``--threads auto`` on the parallel
backend, and predicted-work native tiering.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional, Sequence, Union

from repro.interp.cost import (ARG0_LEN, ARG1_SCALAR, ARGS01_LEN, FLAT_ARG0,
                               RESULT_LEN, UNIT, cost_rule)
from repro.lang import ast as A
from repro.lang import builtins as B
from repro.lang import types as T
from repro.transform.extensions import ext1_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.transform.pipeline import TransformedProgram

__all__ = [
    "COST_MODEL_VERSION", "Poly", "OptPoly", "ZERO", "ONE",
    "pconst", "pvar", "padd", "psum", "pmul", "pjoin", "psubst", "peval",
    "pstr", "AScalar", "ASeq", "ATup", "ATop", "AVal",
    "DefCost", "CostAnalysis", "CostCertificate",
    "analyze_cost", "cost_certificate_for",
]

#: Version tag for the ``cost`` section of analysis.json and for
#: certificate provenance.
COST_MODEL_VERSION = "work-span-v1"


# -- polynomial domain -------------------------------------------------------

#: One monomial: sorted ``(variable, exponent)`` pairs, exponents >= 1.
Mono = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Poly:
    """A polynomial with non-negative integer coefficients over
    non-negative size variables, stored as sorted ``(monomial, coeff)``
    terms with all coefficients positive."""

    terms: tuple[tuple[Mono, int], ...]

    def __str__(self) -> str:
        return pstr(self)


def _poly(d: Mapping[Mono, int]) -> Poly:
    return Poly(tuple(sorted((m, c) for m, c in d.items() if c > 0)))


ZERO = _poly({})


def pconst(c: int) -> Poly:
    """The constant polynomial ``c`` (clamped at zero)."""
    return _poly({(): c}) if c > 0 else ZERO


ONE = pconst(1)


def pvar(name: str) -> Poly:
    """The polynomial consisting of the single size variable ``name``."""
    return _poly({((name, 1),): 1})


#: ``None`` is the domain's top: *unbounded* (no finite polynomial bound).
OptPoly = Optional[Poly]


def padd(a: OptPoly, b: OptPoly) -> OptPoly:
    """Sum; unbounded absorbs."""
    if a is None or b is None:
        return None
    d = dict(a.terms)
    for m, c in b.terms:
        d[m] = d.get(m, 0) + c
    return _poly(d)


def psum(ps: Iterable[OptPoly]) -> OptPoly:
    """Sum of many polynomials."""
    out: OptPoly = ZERO
    for p in ps:
        out = padd(out, p)
    return out


def _mono_mul(a: Mono, b: Mono) -> Mono:
    d: dict[str, int] = {}
    for v, e in a:
        d[v] = d.get(v, 0) + e
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def pmul(a: OptPoly, b: OptPoly) -> OptPoly:
    """Product.  Zero absorbs even against unbounded (an empty frame
    runs nothing, whatever the per-element bound)."""
    if a is not None and not a.terms:
        return ZERO
    if b is not None and not b.terms:
        return ZERO
    if a is None or b is None:
        return None
    d: dict[Mono, int] = {}
    for ma, ca in a.terms:
        for mb, cb in b.terms:
            m = _mono_mul(ma, mb)
            d[m] = d.get(m, 0) + ca * cb
    return _poly(d)


def pjoin(a: OptPoly, b: OptPoly) -> OptPoly:
    """Least upper bound: coefficient-wise maximum.  Sound because size
    variables and coefficients are non-negative, so ``max(p, q) <=
    join(p, q)`` pointwise."""
    if a is None or b is None:
        return None
    d = dict(a.terms)
    for m, c in b.terms:
        d[m] = max(d.get(m, 0), c)
    return _poly(d)


def pjoinmany(ps: Iterable[OptPoly]) -> OptPoly:
    """Join of many polynomials (zero for an empty collection)."""
    out: OptPoly = ZERO
    for p in ps:
        out = pjoin(out, p)
    return out


def psubst(p: OptPoly, env: Mapping[str, OptPoly]) -> OptPoly:
    """Substitute polynomials for variables.  Monotone composition of
    monotone polynomials preserves the upper-bound property.  A variable
    missing from ``env`` is unknown, hence unbounded."""
    if p is None:
        return None
    out: OptPoly = ZERO
    for m, c in p.terms:
        term: OptPoly = pconst(c)
        for v, e in m:
            rep = env.get(v)
            for _ in range(e):
                term = pmul(term, rep)
        out = padd(out, term)
    return out


def peval(p: Poly, env: Mapping[str, int]) -> int:
    """Evaluate at concrete sizes.  Raises ``KeyError`` on a missing
    variable (callers treat that as unbounded)."""
    total = 0
    for m, c in p.terms:
        t = c
        for v, e in m:
            t *= env[v] ** e
        total += t
    return total


def pvars(p: OptPoly) -> frozenset[str]:
    """All size variables appearing in ``p``."""
    if p is None:
        return frozenset()
    return frozenset(v for m, _ in p.terms for v, _ in m)


def pstr(p: OptPoly) -> str:
    """Render ``3*#v*|v| + 2*#v + 1`` style, or ``unbounded``."""
    if p is None:
        return "unbounded"
    if not p.terms:
        return "0"

    def deg(m: Mono) -> int:
        return sum(e for _, e in m)

    parts: list[str] = []
    for m, c in sorted(p.terms, key=lambda t: (-deg(t[0]), t[0])):
        factors = [f"{v}^{e}" if e > 1 else v for v, e in m]
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append("*".join([str(c)] + factors))
    return " + ".join(parts)


# -- abstract values ---------------------------------------------------------

@dataclass(frozen=True)
class AScalar:
    """A scalar value; ``mag`` bounds its absolute value when integral."""

    mag: OptPoly


@dataclass(frozen=True)
class ASeq:
    """A (possibly pooled) sequence value.  ``levels[i]`` bounds the
    **total** element count at nesting level ``i + 1`` — totals, not
    per-element lengths, because the descriptor invariant makes totals
    compose exactly under pooling.  ``mag`` bounds the absolute value of
    every integer leaf.  ``beyond_zero`` marks a value whose untracked
    deeper levels are known empty (``__empty``), so joins against it do
    not lose precision."""

    levels: tuple[OptPoly, ...]
    mag: OptPoly
    beyond_zero: bool = False


@dataclass(frozen=True)
class ATup:
    """A tuple value (or pooled structure-of-arrays tuple)."""

    items: tuple["AVal", ...]


@dataclass(frozen=True)
class ATop:
    """No information."""


AVal = Union[AScalar, ASeq, ATup, ATop]

ATOP = ATop()


def _lvl(v: AVal, i: int) -> OptPoly:
    """Total element count of ``v`` at 0-based nesting level ``i``."""
    if isinstance(v, ASeq):
        if 0 <= i < len(v.levels):
            return v.levels[i]
        return ZERO if v.beyond_zero else None
    if isinstance(v, ATup):
        if not v.items:
            return ZERO
        return pjoinmany(_lvl(x, i) for x in v.items)
    return None


def _mag(v: AVal) -> OptPoly:
    if isinstance(v, (AScalar, ASeq)):
        return v.mag
    if isinstance(v, ATup):
        if not v.items:
            return ZERO
        return pjoinmany(_mag(x) for x in v.items)
    return None


def _depth_of(v: AVal) -> int:
    if isinstance(v, ASeq):
        return len(v.levels)
    if isinstance(v, ATup):
        return max((_depth_of(x) for x in v.items), default=0)
    return 0


def _join_val(a: AVal, b: AVal) -> AVal:
    if isinstance(a, AScalar) and isinstance(b, AScalar):
        return AScalar(pjoin(a.mag, b.mag))
    if isinstance(a, ASeq) and isinstance(b, ASeq):
        n = max(len(a.levels), len(b.levels))
        return ASeq(tuple(pjoin(_lvl(a, i), _lvl(b, i)) for i in range(n)),
                    pjoin(a.mag, b.mag),
                    a.beyond_zero and b.beyond_zero)
    if isinstance(a, ATup) and isinstance(b, ATup) \
            and len(a.items) == len(b.items):
        return ATup(tuple(_join_val(x, y)
                          for x, y in zip(a.items, b.items)))
    # a sequence of tuples has two faithful representations: the pooled
    # single-spine view (ASeq, e.g. a formal) and the pushed-outward
    # component view (ATup of pooled seqs, e.g. a __tuple_cons^d site).
    # Reconcile by pooling the ATup side instead of losing everything.
    if isinstance(a, ATup) and isinstance(b, ASeq):
        a, b = b, a
    if isinstance(a, ASeq) and isinstance(b, ATup):
        return _join_val(a, _pooled_view(b))
    return ATOP


def _pooled_view(v: ATup) -> ASeq:
    """The single-spine (pooled) ASeq view of a pushed-outward tuple of
    sequences.  Per-level totals are *summed* component-wise — an upper
    bound for every level-derived measure including allocation."""
    n = max((_depth_of(x) for x in v.items), default=0)
    return ASeq(tuple(psum(_lvl(x, i) for x in v.items)
                      for i in range(max(1, n))), _mag(v))


def _subst_val(v: AVal, env: Mapping[str, OptPoly]) -> AVal:
    if isinstance(v, AScalar):
        return AScalar(psubst(v.mag, env))
    if isinstance(v, ASeq):
        return ASeq(tuple(psubst(x, env) for x in v.levels),
                    psubst(v.mag, env), v.beyond_zero)
    if isinstance(v, ATup):
        return ATup(tuple(_subst_val(x, env) for x in v.items))
    return ATOP


def _alloc(v: AVal) -> OptPoly:
    """Memory charged for materializing ``v``: one cell per descriptor
    level plus one per element at every level."""
    if isinstance(v, ASeq):
        return padd(ONE, psum(v.levels))
    if isinstance(v, ATup):
        return padd(ONE, psum(_alloc(x) for x in v.items))
    if isinstance(v, AScalar):
        return ONE
    return None


# -- size variables for entry parameters -------------------------------------

def _spine(t: T.Type) -> tuple[int, T.Type]:
    d = 0
    while isinstance(t, T.TSeq):
        d += 1
        t = t.elem
    return d, t


def _has_int_leaf(t: T.Type) -> bool:
    if isinstance(t, T.TInt):
        return True
    if isinstance(t, T.TTuple):
        return any(_has_int_leaf(c) for c in t.items)
    if isinstance(t, T.TSeq):
        return _has_int_leaf(t.elem)
    return False


def _only_bool_leaves(t: T.Type) -> bool:
    if isinstance(t, T.TBool):
        return True
    if isinstance(t, T.TTuple):
        return all(_only_bool_leaves(c) for c in t.items)
    if isinstance(t, T.TSeq):
        return _only_bool_leaves(t.elem)
    return False


def _elem_mag(elem: T.Type, prefix: str) -> OptPoly:
    # Float-valued leaves stay unbounded; the only integer producers
    # from floats (trunc_/round_/floor_/ceil_) yield unbounded
    # magnitudes anyway, so a bound over just the int leaves is sound.
    if _has_int_leaf(elem):
        return pvar(f"|{prefix}|")
    if _only_bool_leaves(elem):
        return ONE
    return None


def _formal_aval(prefix: str, t: T.Type) -> AVal:
    """The abstract value of an entry parameter, with fresh size
    variables: ``p`` for an int's magnitude, ``#p``/``##p``/... for a
    sequence's per-level totals, ``|p|`` for its max-abs integer leaf,
    ``p.1``/``p.2`` for tuple components."""
    if isinstance(t, T.TInt):
        return AScalar(pvar(prefix))
    if isinstance(t, T.TBool):
        return AScalar(ONE)
    if isinstance(t, T.TFloat):
        return AScalar(None)
    if isinstance(t, T.TTuple):
        return ATup(tuple(_formal_aval(f"{prefix}.{i + 1}", c)
                          for i, c in enumerate(t.items)))
    if isinstance(t, T.TSeq):
        d, elem = _spine(t)
        levels = tuple(pvar("#" * (i + 1) + prefix) for i in range(d))
        return ASeq(levels, _elem_mag(elem, prefix))
    return ATOP


def _bind_from_aval(prefix: str, t: T.Type, av: AVal,
                    env: dict[str, OptPoly]) -> None:
    """Bind a callee formal's size variables from a caller's abstract
    argument, tail-aligning sequence levels (a pooled argument's trailing
    levels are exactly the formal's per-level totals)."""
    if isinstance(t, T.TInt):
        env[prefix] = _mag(av)
        return
    if isinstance(t, (T.TBool, T.TFloat)):
        return
    if isinstance(t, T.TTuple):
        for i, c in enumerate(t.items):
            sub: AVal = av.items[i] \
                if isinstance(av, ATup) and i < len(av.items) else ATOP
            _bind_from_aval(f"{prefix}.{i + 1}", c, sub, env)
        return
    if isinstance(t, T.TSeq):
        d, elem = _spine(t)
        off = _depth_of(av) - d
        for i in range(d):
            env["#" * (i + 1) + prefix] = \
                _lvl(av, off + i) if off + i >= 0 else None
        if _has_int_leaf(elem):
            env[f"|{prefix}|"] = _mag(av)
        return
    # function-typed formals carry no size variables


def _bind_concrete(prefix: str, t: T.Type, value: Any,
                   env: dict[str, int]) -> None:
    """Bind a parameter's size variables from a concrete argument."""
    if isinstance(t, T.TInt):
        env[prefix] = abs(int(value))
        return
    if isinstance(t, (T.TBool, T.TFloat)):
        return
    if isinstance(t, T.TTuple):
        for i, c in enumerate(t.items):
            _bind_concrete(f"{prefix}.{i + 1}", c, value[i], env)
        return
    if isinstance(t, T.TSeq):
        d, elem = _spine(t)
        cur: list[Any] = list(value)
        env["#" + prefix] = len(cur)
        for i in range(2, d + 1):
            cur = [x for s in cur for x in s]
            env["#" * i + prefix] = len(cur)
        if _has_int_leaf(elem):
            env[f"|{prefix}|"] = _max_int_leaf(cur, elem)
        return


def _max_int_leaf(vals: list[Any], t: T.Type) -> int:
    """The largest ``abs`` of an int leaf (0 if none), layer by layer."""
    if isinstance(t, T.TInt):
        return int(max(max(vals), -min(vals))) if vals else 0
    if isinstance(t, T.TTuple):
        return max((_max_int_leaf(list(map(itemgetter(i), vals)), c)
                    for i, c in enumerate(t.items)), default=0)
    if isinstance(t, T.TSeq):
        return _max_int_leaf(list(chain.from_iterable(vals)), t.elem)
    return 0


# -- results -----------------------------------------------------------------

@dataclass(frozen=True)
class DefCost:
    """Symbolic cost bounds for one transformed definition."""

    name: str
    params: tuple[str, ...]
    work: OptPoly
    span: OptPoly
    mem: OptPoly
    widened: bool

    @property
    def bounded(self) -> bool:
        return (self.work is not None and self.span is not None
                and self.mem is not None)

    @property
    def verdict(self) -> str:
        return "bounded" if self.bounded else "unbounded"

    @property
    def reason(self) -> str:
        if self.bounded:
            return ""
        if self.widened:
            return ("data-dependent recursion: the summary kept growing, "
                    "widened to unbounded")
        return ("unboundable construct (indirect call, float-derived "
                "size, or unclassified primitive)")

    @property
    def size_vars(self) -> tuple[str, ...]:
        return tuple(sorted(pvars(self.work) | pvars(self.span)
                            | pvars(self.mem)))

    def to_json(self) -> dict[str, Any]:
        return {
            "params": list(self.params),
            "size_vars": list(self.size_vars),
            "work": pstr(self.work),
            "span": pstr(self.span),
            "mem": pstr(self.mem),
            "verdict": self.verdict,
            "widened": self.widened,
            "reason": self.reason,
        }

    def render(self) -> str:
        head = f"{self.name}({', '.join(self.params)})"
        if not self.bounded:
            return f"{head}: unbounded -- {self.reason}"
        return (f"{head}: work = {pstr(self.work)}; "
                f"span = {pstr(self.span)}; mem = {pstr(self.mem)}")


@dataclass
class CostAnalysis:
    """Whole-program result: per-definition symbolic bounds."""

    defs: dict[str, DefCost]
    widened: frozenset[str]
    rounds: int
    model: str = COST_MODEL_VERSION

    def to_json(self) -> dict[str, Any]:
        return {
            "model": self.model,
            "rounds": self.rounds,
            "widened": sorted(self.widened),
            "defs": {name: d.to_json()
                     for name, d in sorted(self.defs.items())},
        }


@dataclass(frozen=True)
class CostCertificate:
    """An entry function's cost bounds, evaluable at concrete argument
    sizes.  ``predict`` powers predicted-budget admission in the serving
    layer, ``--threads auto``, and predicted-work native tiering."""

    entry: str
    params: tuple[str, ...]
    param_types: tuple[T.Type, ...]
    work: OptPoly
    span: OptPoly
    mem: OptPoly
    analysis: CostAnalysis

    @property
    def bounded(self) -> bool:
        return (self.work is not None and self.span is not None
                and self.mem is not None)

    def size_env(self, args: Sequence[Any]) -> dict[str, int]:
        """Concrete values for every size variable, from the arguments."""
        env: dict[str, int] = {}
        for p, t, a in zip(self.params, self.param_types, args):
            _bind_concrete(p, t, a, env)
        return env

    def predict(self, args: Sequence[Any]) -> dict[str, Any]:
        """Evaluate the bounds at the argument sizes.  Returns
        ``{"bounded": bool, "work": int|None, "span": int|None,
        "mem": int|None}``; any failure to evaluate degrades to
        unbounded (never raises)."""
        out: dict[str, Any] = {"bounded": False, "work": None,
                               "span": None, "mem": None}
        if (self.work is None or self.span is None or self.mem is None
                or len(args) != len(self.params)
                or len(self.param_types) != len(self.params)):
            return out
        try:
            env = self.size_env(args)
            out["work"] = peval(self.work, env)
            out["span"] = max(1, peval(self.span, env))
            out["mem"] = peval(self.mem, env)
        except Exception:
            return {"bounded": False, "work": None, "span": None,
                    "mem": None}
        out["bounded"] = True
        return out

    def concurrency(self, args: Sequence[Any]) -> Optional[float]:
        """Predicted available concurrency (work / span), or ``None``
        when unbounded."""
        p = self.predict(args)
        if not p["bounded"]:
            return None
        return float(p["work"]) / float(max(1, p["span"]))

    def render(self) -> str:
        d = DefCost(self.entry, self.params, self.work, self.span,
                    self.mem, self.entry in self.analysis.widened)
        return d.render()


# -- the analyzer ------------------------------------------------------------

@dataclass(frozen=True)
class _Summary:
    result: AVal
    work: OptPoly
    span: OptPoly
    mem: OptPoly


_TOP_SUMMARY = _Summary(ATOP, None, None, None)

#: Evaluation result: (abstract value, work, span, mem).
_Quad = tuple[AVal, OptPoly, OptPoly, OptPoly]

#: Primitives whose flattened implementation gathers by index data; the
#: result inherits the source's sub-element structure scaled per frame.
_GATHERS = frozenset({
    "seq_index", "__seq_index_shared", "__seq_index_segshared",
})


def _measure_poly(fn: str, d: int, C: OptPoly, avals: Sequence[AVal],
                  result_level: OptPoly) -> OptPoly:
    """The shared :data:`~repro.interp.cost.COST_RULES` work measure for
    one primitive, evaluated symbolically: the total over all ``C``
    applications of the per-application measure (the interpreter's
    ``sum(max(1, m_i)) <= C + sum(m_i)``)."""
    m = cost_rule(fn).measure
    a0: AVal = avals[0] if avals else ATOP
    a1: AVal = avals[1] if len(avals) > 1 else ATOP
    if m == UNIT:
        return ZERO
    if m == ARG0_LEN:
        return _lvl(a0, d)
    if m == ARGS01_LEN:
        return padd(_lvl(a0, d), _lvl(a1, d))
    if m == RESULT_LEN:
        return result_level
    if m == ARG1_SCALAR:
        return pmul(C, _mag(a1))
    if m == FLAT_ARG0:
        return _lvl(a0, d + 1)
    return None


def _bottom_of(t: Any) -> AVal:
    if isinstance(t, (T.TInt, T.TBool, T.TFloat)):
        return AScalar(ZERO)
    if isinstance(t, T.TSeq):
        d, elem = _spine(t)
        if isinstance(elem, T.TTuple):
            # pushed-outward form, matching the vector library's VTuple
            # representation of a sequence of tuples (and __tuple_cons^d
            # results), so fixpoint joins stay component-precise
            return ATup(tuple(_bottom_of(T.seq_of(c, d))
                              for c in elem.items))
        return ASeq((ZERO,) * d, ZERO, beyond_zero=True)
    if isinstance(t, T.TTuple):
        return ATup(tuple(_bottom_of(c) for c in t.items))
    return ATOP


class _CostAnalyzer:
    def __init__(self, tp: "TransformedProgram") -> None:
        self.tp = tp
        self.mono_defs = tp.typed.mono_defs
        self.summaries: dict[str, _Summary] = {
            name: _Summary(_bottom_of(d.ret_type), ZERO, ZERO, ZERO)
            for name, d in tp.defs.items()
        }
        self.widened: set[str] = set()

    # -- fixpoint with widening ----------------------------------------------

    def run(self) -> CostAnalysis:
        names = list(self.tp.defs)
        cap = len(names) + 8
        rounds = 0
        while True:
            changed: set[str] = set()
            for _ in range(cap):
                rounds += 1
                changed = set()
                for name in names:
                    old = self.summaries[name]
                    new = self._join_summary(
                        old, self.eval_def(self.tp.defs[name]))
                    if new != old:
                        self.summaries[name] = new
                        changed.add(name)
                if not changed:
                    break
            if not changed:
                break
            # still growing after the cap: data-dependent recursion —
            # widen every still-changing definition to unbounded (top is
            # a fixpoint of every transfer, so another pass terminates)
            for name in changed:
                self.summaries[name] = _TOP_SUMMARY
                self.widened.add(name)
        defs = {
            name: DefCost(name=name, params=tuple(d.params),
                          work=self.summaries[name].work,
                          span=self.summaries[name].span,
                          mem=self.summaries[name].mem,
                          widened=name in self.widened)
            for name, d in self.tp.defs.items()
        }
        return CostAnalysis(defs=defs, widened=frozenset(self.widened),
                            rounds=rounds)

    @staticmethod
    def _join_summary(a: _Summary, b: _Summary) -> _Summary:
        return _Summary(_join_val(a.result, b.result),
                        pjoin(a.work, b.work), pjoin(a.span, b.span),
                        pjoin(a.mem, b.mem))

    def eval_def(self, d: A.FunDef) -> _Summary:
        ptypes = d.param_types or []
        env: dict[str, AVal] = {}
        for i, p in enumerate(d.params):
            t = ptypes[i] if i < len(ptypes) else None
            env[p] = _formal_aval(p, t) if isinstance(t, T.Type) else ATOP
        val, w, s, m = self.eval(d.body, env)
        return _Summary(val, w, s, m)

    # -- transfer functions --------------------------------------------------

    def eval(self, e: A.Expr, env: Mapping[str, AVal]) -> _Quad:
        if isinstance(e, A.Var):
            return env.get(e.name, ATOP), ZERO, ZERO, ZERO
        if isinstance(e, A.IntLit):
            return AScalar(pconst(abs(e.value))), ZERO, ZERO, ZERO
        if isinstance(e, A.BoolLit):
            return AScalar(ONE), ZERO, ZERO, ZERO
        if isinstance(e, A.FloatLit):
            return AScalar(None), ZERO, ZERO, ZERO
        if isinstance(e, A.SeqLit):
            return self._eval_seqlit(e, env)
        if isinstance(e, A.TupleLit):
            parts = [self.eval(x, env) for x in e.items]
            val = ATup(tuple(p[0] for p in parts))
            return (val, padd(psum(p[1] for p in parts), ONE),
                    padd(psum(p[2] for p in parts), ONE),
                    padd(psum(p[3] for p in parts), _alloc(val)))
        if isinstance(e, A.TupleExtract):
            tv, w, s, m = self.eval(e.tup, env)
            return (self._proj(tv, e.index), padd(w, ONE), padd(s, ONE), m)
        if isinstance(e, A.Let):
            bv, bw, bs, bm = self.eval(e.bound, env)
            env2 = dict(env)
            env2[e.var] = bv
            v, w, s, m = self.eval(e.body, env2)
            return v, padd(bw, w), padd(bs, s), padd(bm, m)
        if isinstance(e, A.If):
            _, cw, cs, cm = self.eval(e.cond, env)
            tv, tw, ts, tm = self.eval(e.then, env)
            fv, fw, fs, fm = self.eval(e.els, env)
            # the interpreter evaluates only the taken branch; the join
            # bounds either choice
            return (_join_val(tv, fv), padd(cw, pjoin(tw, fw)),
                    padd(cs, pjoin(ts, fs)), padd(cm, pjoin(tm, fm)))
        if isinstance(e, A.ExtCall):
            return self.eval_ext(e, env)
        if isinstance(e, A.IndirectCall):
            self.eval(e.fun, env)
            for a in e.args:
                self.eval(a, env)
            # dynamic dispatch: the callee is not statically known
            return ATOP, None, None, None
        # Call/Lambda/Iter never reach the cost pass (phase-verified IR)
        return ATOP, None, None, None

    @staticmethod
    def _proj(v: AVal, index: int) -> AVal:
        if isinstance(v, ATup):
            if 1 <= index <= len(v.items):
                return v.items[index - 1]
            return ATOP
        if isinstance(v, ASeq):
            # pooled tuple kept whole: every component shares the frame
            # and the pooled magnitude bound
            return v
        return ATOP

    def _eval_seqlit(self, e: A.SeqLit, env: Mapping[str, AVal]) -> _Quad:
        parts = [self.eval(x, env) for x in e.items]
        vals = [p[0] for p in parts]
        k = len(vals)
        maxd = max((_depth_of(v) for v in vals), default=0)
        levels = (pconst(k),) + tuple(
            psum(_lvl(v, j) for v in vals) for j in range(maxd))
        bz = all(v.beyond_zero for v in vals if isinstance(v, ASeq))
        val = ASeq(levels, pjoinmany(_mag(v) for v in vals) if vals else ZERO,
                   beyond_zero=bz)
        return (val, padd(psum(p[1] for p in parts), pconst(max(1, k))),
                padd(psum(p[2] for p in parts), ONE),
                padd(psum(p[3] for p in parts), _alloc(val)))

    def eval_ext(self, e: A.ExtCall, env: Mapping[str, AVal]) -> _Quad:
        parts = [self.eval(a, env) for a in e.args]
        avals = [p[0] for p in parts]
        d = e.depth
        fn = e.fn

        # the application frame: level totals shared by all full-depth
        # arguments; C is the total application count
        frame: tuple[OptPoly, ...]
        if d == 0:
            frame = ()
            C: OptPoly = ONE
        else:
            full = [avals[i] for i in range(len(avals))
                    if i < len(e.arg_depths) and e.arg_depths[i] == d]
            if full:
                frame = tuple(pjoinmany(_lvl(a, j) for a in full)
                              for j in range(d))
            else:
                frame = tuple(None for _ in range(d))
            C = frame[d - 1]

        # Argument evaluation costs.  A sub-depth argument of a depth-d
        # site is a loop-invariant subexpression the transform hoisted
        # (broadcast directly or via __rep); the canonical program the
        # interpreter measures re-evaluates it once per application, so
        # its *work* is scaled by C.  Span is not: the per-application
        # copies evaluate in parallel in the abstract semantics.  Memory
        # is not either: the flattened execution really does evaluate
        # the hoisted expression once.
        w0: OptPoly = ZERO
        s0: OptPoly = ZERO
        m0: OptPoly = ZERO
        for i, p in enumerate(parts):
            wi = p[1]
            ad = e.arg_depths[i] if i < len(e.arg_depths) else d
            if d >= 1 and ad < d:
                wi = pmul(C, wi)
            w0 = padd(w0, wi)
            s0 = padd(s0, p[2])
            m0 = padd(m0, p[3])

        def out(val: AVal, cw: OptPoly, cs: OptPoly) -> _Quad:
            return (val, padd(w0, cw), padd(s0, cs),
                    padd(m0, _alloc(val)))

        def scalar_result(mag: OptPoly) -> AVal:
            return ASeq(frame, mag) if d > 0 else AScalar(mag)

        def seq_result(deeper: tuple[OptPoly, ...], mag: OptPoly,
                       bz: bool = False) -> AVal:
            return ASeq(frame + deeper, mag, beyond_zero=bz)

        step = pconst(d + 1)
        a0: AVal = avals[0] if avals else ATOP
        a1: AVal = avals[1] if len(avals) > 1 else ATOP
        val: AVal

        def site_w(result_level: OptPoly = ZERO) -> OptPoly:
            # one frame charge plus the shared table's measure total
            return padd(C, _measure_poly(fn, d, C, avals, result_level))

        # -- user-defined functions ----------------------------------------
        if fn in self.mono_defs:
            return self._eval_user_call(e, avals, frame, out)

        row = B.lookup(fn)
        fold = row.fold if row is not None else None

        # -- elementwise scalars -------------------------------------------
        if row is not None and row.elementwise:
            return out(scalar_result(self._ew_mag(fn, avals)), site_w(), step)

        if fn == "length":
            return out(scalar_result(_lvl(a0, d)), site_w(), step)

        # range/range1 feed iterators: their work is doubled so the site
        # bound also covers the canonical iterator's per-frame charge,
        # and they cost one extra step (size then values)
        if fn == "range":
            u = padd(padd(_mag(a0), _mag(a1)), ONE)
            n = pmul(C, u)
            w = site_w(n)
            return out(seq_result((n,), pjoin(_mag(a0), _mag(a1))),
                       padd(w, w), pconst(d + 2))
        if fn == "range1":
            n = pmul(C, _mag(a0))
            w = site_w(n)
            return out(seq_result((n,), _mag(a0)), padd(w, w),
                       pconst(d + 2))

        if fn in _GATHERS:
            dv = e.arg_depths[0] if e.arg_depths else 0

            def gathered(src: AVal) -> AVal:
                if isinstance(src, ASeq):
                    deeper = tuple(pmul(C, x) for x in src.levels[dv + 1:])
                    if d == 0 and not deeper:
                        return AScalar(src.mag)
                    return seq_result(deeper, src.mag, src.beyond_zero)
                if isinstance(src, ATup):
                    # pushed-outward sequence of tuples: gather each
                    # component sequence independently
                    return ATup(tuple(gathered(x) for x in src.items))
                return ATOP

            return out(gathered(a0), site_w(), step)

        if fn == "seq_update":
            x = avals[2] if len(avals) > 2 else ATOP
            nd = max(_depth_of(a0), _depth_of(x) + d + 1)
            deeper = tuple(padd(_lvl(a0, j), _lvl(x, j - d - 1))
                           for j in range(d + 1, nd))
            lv = tuple(_lvl(a0, j) for j in range(d + 1)) + deeper
            val = ASeq(lv, pjoin(_mag(a0), _mag(x)))
            return out(val, site_w(), step)

        if fn == "restrict":
            val = a0 if isinstance(a0, ASeq) else ATOP
            return out(val, site_w(), step)

        if fn == "combine":
            v1, v2 = a1, (avals[2] if len(avals) > 2 else ATOP)
            nd = max(_depth_of(v1), _depth_of(v2))
            lv = frame + tuple(padd(_lvl(v1, j), _lvl(v2, j))
                               for j in range(d, nd))
            val = ASeq(lv, pjoin(_mag(v1), _mag(v2)))
            return out(val, site_w(), step)

        if fn == "dist":
            r = _mag(a1)
            n = pmul(C, r)
            dvc = e.arg_depths[0] if e.arg_depths else 0
            if isinstance(a0, (AScalar, ASeq, ATup)):
                if dvc == 0:
                    # broadcast: each of the C*r copies carries the full
                    # replicated value
                    scale = n
                    src_levels = tuple(_lvl(a0, j)
                                       for j in range(_depth_of(a0)))
                else:
                    # pooled: levels beyond the frame are already totals
                    # across applications; r copies of each
                    scale = r
                    src_levels = tuple(_lvl(a0, j)
                                       for j in range(dvc, _depth_of(a0)))
                deeper = (n,) + tuple(pmul(scale, x) for x in src_levels)
                return out(seq_result(deeper, _mag(a0)), site_w(), step)
            return out(ATOP, site_w(), step)

        if fn == "concat":
            nd = max(_depth_of(a0), _depth_of(a1))
            lv = frame + tuple(padd(_lvl(a0, j), _lvl(a1, j))
                               for j in range(d, nd))
            return out(ASeq(lv, pjoin(_mag(a0), _mag(a1))),
                       site_w(), step)

        if fn == "flatten":
            if isinstance(a0, ASeq):
                nd = max(_depth_of(a0), d + 2)
                lv = tuple(_lvl(a0, j) for j in range(d)) + tuple(
                    _lvl(a0, j) for j in range(d + 1, nd))
                val = ASeq(lv, a0.mag, a0.beyond_zero)
            else:
                val = ATOP
            return out(val, site_w(), step)

        if fold == "reduce":
            if fn == "sum":
                mag = pmul(_lvl(a0, d), _mag(a0))
            elif B.get_builtin(fn).result_kind == "bool":
                mag = ONE
            else:
                mag = _mag(a0)
            return out(scalar_result(mag), site_w(), step)

        if fold == "scan":
            # plus_scan prefixes are bounded by n * |max element|;
            # max_scan is inclusive, so prefixes stay within the input's
            # magnitude
            mag = pmul(_lvl(a0, d), _mag(a0)) if fn == "plus_scan" \
                else _mag(a0)
            if isinstance(a0, ASeq):
                val = ASeq(a0.levels, mag, a0.beyond_zero)
            else:
                val = ATOP
            return out(val, site_w(), step)

        if fn == "rank":
            if isinstance(a0, ASeq):
                val = ASeq(a0.levels, _lvl(a0, d), a0.beyond_zero)
            else:
                val = ATOP
            return out(val, site_w(), step)

        if fn == "permute":
            val = a0 if isinstance(a0, ASeq) else ATOP
            return out(val, site_w(), step)

        # -- flattening-introduced primitives ------------------------------
        if fn == "__seq_cons":
            k = len(avals)
            n = pmul(C, pconst(k))
            maxd = max((_depth_of(v) - d for v in avals), default=0)
            deeper = (n,) + tuple(
                psum(_lvl(v, d + j) for v in avals) for j in range(maxd))
            bz = all(v.beyond_zero for v in avals if isinstance(v, ASeq))
            return out(seq_result(deeper, pjoinmany(_mag(v) for v in avals)
                                  if avals else ZERO, bz),
                       padd(C, n), step)

        if fn == "__empty":
            # empty_frame_like keeps the mask's top d-1 descriptor levels
            # and has *zero* elements at level d (and below): do not charge
            # the full frame to level d, or the R2d branch-guard join
            # (`if __any(m) then ... else __empty(m)`) pads the taken arm
            # with an unknown deeper level and poisons peak_mem.
            lv = (frame[:d - 1] + (ZERO,)) if d >= 1 else (ZERO,)
            return out(ASeq(lv, ZERO, beyond_zero=True), C, step)

        if fn == "__rep":
            return out(self._replicate(a1, frame, C), C, step)

        if fn == "__any":
            return out(AScalar(ONE), padd(C, _lvl(a0, d)), step)

        if fn == "__iter":
            # identity view: a sequence at frame depth d re-viewed as the
            # depth-(d+1) frame of its elements; no data is touched at
            # run time, but the canonical iterator the interpreter
            # measures still indexes every element once, so the site is
            # charged as the seq_index^(d+1) it replaced — exactly, the
            # element total being the argument's own level d
            return out(a0, _lvl(a0, d), pconst(d + 2))

        if fn == "__tuple_cons":
            return out(ATup(tuple(avals)), C, step)

        if fn.startswith("__tuple_extract_"):
            try:
                idx = int(fn.rsplit("_", 1)[1])
            except ValueError:
                return out(ATOP, C, step)
            return out(self._proj(a0, idx), C, step)

        # unclassified primitive (e.g. a fused megakernel): unbounded
        return ATOP, None, None, None

    @staticmethod
    def _ew_mag(fn: str, avals: Sequence[AVal]) -> OptPoly:
        ms = [_mag(a) for a in avals]
        m0: OptPoly = ms[0] if ms else None
        m1: OptPoly = ms[1] if len(ms) > 1 else None
        if fn in ("add", "sub"):
            return padd(m0, m1)
        if fn == "mul":
            return pmul(m0, m1)
        if fn in ("div", "neg", "abs_"):
            return m0
        if fn in ("mod", "max2", "min2"):
            return pjoin(m0, m1)
        if B.get_builtin(fn).result_kind == "bool":
            return ONE
        # float-valued or float-derived (fdiv, sqrt_, real, trunc_, ...)
        return None

    def _replicate(self, rep: AVal, frame: tuple[OptPoly, ...],
                   count: OptPoly) -> AVal:
        """``__rep``: the depth-0 value ``rep`` lifted into every slot of
        the frame — ``count`` copies in total."""
        if isinstance(rep, AScalar):
            return ASeq(frame, rep.mag) if frame else rep
        if isinstance(rep, ASeq):
            return ASeq(frame + tuple(pmul(count, x) for x in rep.levels),
                        rep.mag, rep.beyond_zero)
        if isinstance(rep, ATup):
            return ATup(tuple(self._replicate(x, frame, count)
                              for x in rep.items))
        return ATOP

    def _eval_user_call(
            self, e: A.ExtCall, avals: list[AVal],
            frame: tuple[OptPoly, ...],
            out: Any) -> _Quad:
        d = e.depth
        resolved = e.fn if d == 0 else ext1_name(e.fn)
        name = resolved if resolved in self.summaries else e.fn
        summ = self.summaries.get(name)
        fd = self.tp.defs.get(name)
        if summ is None or fd is None:
            return ATOP, None, None, None
        ptypes = fd.param_types or []
        if len(ptypes) != len(fd.params) or len(avals) != len(fd.params):
            return ATOP, None, None, None
        senv: dict[str, OptPoly] = {}
        for p, t, av in zip(fd.params, ptypes, avals):
            if isinstance(t, T.Type):
                _bind_from_aval(p, t, av, senv)
        cw = psubst(summ.work, senv)
        cs = psubst(summ.span, senv)
        cm = psubst(summ.mem, senv)
        val = _subst_val(summ.result, senv)
        if d >= 2:
            # the extension batches one group of applications at a time;
            # with G groups, sum_g f(sizes_g) <= G * f(totals) by
            # monotonicity, and the result regains the frame's nesting
            G = frame[d - 2]
            cw, cs, cm = pmul(G, cw), pmul(G, cs), pmul(G, cm)
            val = self._regroup(val, frame[:d - 1], G)
        ret: _Quad = out(val, cw, cs)
        # _alloc(val) inside out() already charges the result; the
        # callee's internal allocations come on top
        return ret[0], ret[1], ret[2], padd(ret[3], cm)

    def _regroup(self, val: AVal, outer: tuple[OptPoly, ...],
                 scale: OptPoly) -> AVal:
        if isinstance(val, ASeq):
            return ASeq(outer + tuple(pmul(scale, x) for x in val.levels),
                        val.mag, False)
        if isinstance(val, ATup):
            return ATup(tuple(self._regroup(x, outer, scale)
                              for x in val.items))
        if isinstance(val, AScalar):
            return ASeq(outer + (pmul(scale, ONE),), val.mag) \
                if outer else val
        return ATOP


def analyze_cost(tp: "TransformedProgram") -> CostAnalysis:
    """Analyze a transformed program (memoized on the program object)."""
    cached = getattr(tp, "_cost_analysis", None)
    if cached is not None:
        return cached  # type: ignore[no-any-return]
    from repro.obs import runtime as _obs
    with _obs.span("analyze:cost"):
        out = _CostAnalyzer(tp).run()
    tp._cost_analysis = out  # type: ignore[attr-defined]
    return out


def cost_certificate_for(tp: "TransformedProgram",
                         entry: str) -> CostCertificate:
    """Build the budget certificate for one entry of a transformed
    program."""
    analysis = analyze_cost(tp)
    d = tp.defs.get(entry)
    dc = analysis.defs.get(entry)
    if d is None or dc is None:
        raise KeyError(f"no transformed definition named {entry!r}")
    ptypes = tuple(t for t in (d.param_types or []) if isinstance(t, T.Type))
    if len(ptypes) != len(d.params):
        ptypes = ()
    return CostCertificate(entry=entry, params=tuple(d.params),
                           param_types=ptypes, work=dc.work, span=dc.span,
                           mem=dc.mem, analysis=analysis)
