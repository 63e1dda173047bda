"""Symbolic shape analysis: statically discharging runtime guard checks.

The strict guard (``check=True``) re-validates the descriptor invariant
``#V_{i+1} = sum(V_i)`` on *every* value crossing a kernel or backend
boundary — typically validating each value twice (once at the
producing kernel, again at a call boundary).  Most of that work is provably redundant: an
elementwise kernel *reuses its argument's descriptor chain unchanged*,
so if the argument was valid the result is valid by construction.

This pass makes that argument precise.  It abstractly interprets every
transformed definition over symbolic shapes — a value is an opaque
descriptor-chain symbol plus a *validity* bit saying whether the
invariant is already established for it without a fresh runtime check —
and classifies every primitive application site:

* **static** — the result's descriptors are inherited, projected, or
  constructed-to-size from validated inputs (elementwise ops, scans,
  reductions, ``length``, ``range``/``range1``, ``__rep``, tuple
  wrappers, fused chains).  The boundary re-check proves nothing new and
  can be skipped.

* **runtime** — the kernel *computes* new descriptors via pooled
  gather/scatter index arithmetic (``seq_index``, ``restrict``,
  ``combine``, ``dist``, ``flatten``, ``concat``, ``permute``, ...).
  These are exactly the sites where the 12 runtime fault-injection
  sites live; their boundary check is load-bearing and is always kept.

The result of a runtime-class site counts as validated downstream
(its retained check establishes the invariant), which is what lets long
elementwise chains after a gather stay static.  A per-definition
fixpoint over return-validity extends the argument across user-function
call boundaries, discharging the redundant call-boundary re-checks too.

The derived :attr:`ShapeAnalysis.discharged` tag set feeds
``GuardConfig(discharged=...)`` — the runtime behind
``run(..., check="static")`` — and benchmark E16 measures the effect:
static mode must keep at most one third of full strict mode's overhead
while catching every runtime-class fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

from repro.lang import ast as A
from repro.lang import builtins as B
from repro.transform.extensions import ext1_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.transform.pipeline import TransformedProgram

__all__ = ["Shape", "Site", "DefFacts", "ShapeAnalysis", "analyze_shapes"]


# -- kernel taxonomy: the kind of op a primitive is, is its catalog row
# (repro.lang.builtins); the table below is what this analysis adds

#: Runtime-class primitives: descriptors recomputed from data via pooled
#: index arithmetic — the boundary check is load-bearing.
_RUNTIME: dict[str, str] = {
    "seq_index": "pool gather by flat offsets computed from index data",
    "__seq_index_shared":
        "gather from the shared depth-0 source by per-element index data",
    "__seq_index_segshared":
        "segmented gather against the un-replicated source",
    "seq_update": "pool scatter by flat offsets computed from index data",
    "restrict": "pack by mask: descriptors recomputed from mask counts",
    "combine": "merge by mask: descriptors interleaved from both arms",
    "dist": "replication: descriptors multiplied out per frame element",
    "flatten": "descriptor level dropped and pooled",
    "concat": "pairwise pooling of subsequence descriptors",
    "rank": "permutation vector derived from a stable sort",
    "permute": "pool scatter through a data-dependent permutation",
    "__seq_cons": "transpose-gather of item frames into per-element "
                  "sequences",
}


# -- abstract domain ---------------------------------------------------------

@dataclass(frozen=True)
class Shape:
    """One abstract value: an opaque descriptor-chain symbol plus whether
    the descriptor invariant is already established for it."""

    sym: str
    valid: bool


@dataclass(frozen=True)
class Site:
    """Classification of one primitive application site."""

    fn: str
    depth: int
    cls: str      # "static" | "runtime"
    reason: str


@dataclass
class DefFacts:
    """Shape facts for one transformed definition."""

    name: str
    sites: list[Site] = field(default_factory=list)
    ret_valid: bool = True


@dataclass
class ShapeAnalysis:
    """Whole-program result: per-def facts plus the discharged tag set."""

    defs: dict[str, DefFacts]
    discharged: frozenset[str]

    def counts(self) -> tuple[int, int]:
        """(static sites, runtime sites) across all definitions."""
        st = sum(1 for d in self.defs.values()
                 for s in d.sites if s.cls == "static")
        rt = sum(1 for d in self.defs.values()
                 for s in d.sites if s.cls == "runtime")
        return st, rt


# -- the analyzer ------------------------------------------------------------

class _Analyzer:
    def __init__(self, tp: "TransformedProgram") -> None:
        self.tp = tp
        self.mono_defs = tp.typed.mono_defs
        self.ret_valid: dict[str, bool] = {name: True for name in tp.defs}
        self._sym = 0
        self.sites: dict[str, list[Site]] = {}

    def fresh(self, hint: str) -> str:
        self._sym += 1
        return f"{hint}#{self._sym}"

    def callee_valid(self, fn: str, depth: int) -> bool:
        """Return-validity of the definition a user call resolves to
        (``f`` at depth 0, its ``f^1`` extension at depth >= 1)."""
        resolved = fn if depth == 0 else ext1_name(fn)
        if resolved in self.ret_valid:
            return self.ret_valid[resolved]
        return self.ret_valid.get(fn, True)

    # -- fixpoint ------------------------------------------------------------

    def run(self) -> ShapeAnalysis:
        changed = True
        while changed:
            changed = False
            for name, d in self.tp.defs.items():
                out = self.eval_def(d, record=None)
                if out.valid != self.ret_valid[name]:
                    self.ret_valid[name] = out.valid
                    changed = True
        for name, d in self.tp.defs.items():
            sites: list[Site] = []
            self.eval_def(d, record=sites)
            self.sites[name] = sites
        return ShapeAnalysis(
            defs={name: DefFacts(name=name, sites=self.sites[name],
                                 ret_valid=self.ret_valid[name])
                  for name in self.tp.defs},
            discharged=self.discharged_tags())

    def eval_def(self, d: A.FunDef, record: Optional[list[Site]]) -> Shape:
        env = {p: Shape(self.fresh(f"{d.name}.{p}"), True) for p in d.params}
        return self.eval(d.body, env, record)

    # -- transfer functions ----------------------------------------------------

    def eval(self, e: A.Expr, env: Mapping[str, Shape],
             record: Optional[list[Site]]) -> Shape:
        if isinstance(e, A.Var):
            s = env.get(e.name)
            return s if s is not None else Shape("fun:" + e.name, True)
        if isinstance(e, (A.IntLit, A.BoolLit, A.FloatLit)):
            return Shape("scalar", True)
        if isinstance(e, (A.SeqLit, A.TupleLit)):
            ok = all(self.eval(x, env, record).valid for x in e.items)
            return Shape(self.fresh("lit"), ok)
        if isinstance(e, A.TupleExtract):
            t = self.eval(e.tup, env, record)
            return Shape(self.fresh("proj"), t.valid)
        if isinstance(e, A.Let):
            bound = self.eval(e.bound, env, record)
            env2 = dict(env)
            env2[e.var] = bound
            return self.eval(e.body, env2, record)
        if isinstance(e, A.If):
            self.eval(e.cond, env, record)
            t = self.eval(e.then, env, record)
            f = self.eval(e.els, env, record)
            sym = t.sym if t.sym == f.sym else self.fresh("join")
            return Shape(sym, t.valid and f.valid)
        if isinstance(e, A.ExtCall):
            return self.eval_ext(e, env, record)
        if isinstance(e, A.IndirectCall):
            self.eval(e.fun, env, record)
            for a in e.args:
                self.eval(a, env, record)
            # dynamic dispatch routes through the same kernel and call
            # boundaries as the static cases; runtime-class checks inside
            # the callee are retained, so the merged result is validated
            return Shape(self.fresh("dyn"), True)
        # Call/Lambda/Iter never reach the shape pass: the phase verifier
        # rejected them before any transformed program is executed
        return Shape(self.fresh("opaque"), True)

    def eval_ext(self, e: A.ExtCall, env: Mapping[str, Shape],
                 record: Optional[list[Site]]) -> Shape:
        args = [self.eval(a, env, record) for a in e.args]
        fn = e.fn

        def site(cls: str, reason: str) -> None:
            if record is not None:
                record.append(Site(fn=fn, depth=e.depth, cls=cls,
                                   reason=reason))

        def static_result(shape: Shape, reason: str) -> Shape:
            if shape.valid:
                site("static", reason)
                return shape
            site("runtime", "inputs not statically validated; boundary "
                            "check retained")
            return Shape(shape.sym, True)

        a0 = args[0] if args else Shape("scalar", True)

        if fn in self.mono_defs:
            return Shape(self.fresh("call"), self.callee_valid(fn, e.depth))
        if fn in _RUNTIME:
            site("runtime", _RUNTIME[fn])
            return Shape(self.fresh(fn), True)
        row = B.lookup(fn)
        fold = row.fold if row is not None else None
        if row is not None and row.elementwise:
            return static_result(
                Shape(a0.sym, a0.valid),
                "elementwise: result reuses the argument's descriptor "
                "chain unchanged")
        if fn.startswith("__fused"):
            ok = all(a.valid for a in args)
            fusion = self.tp.fusion
            streams = fusion.streams.get(fn) if fusion is not None else None
            if streams:
                # the scan / reduction rule below, on the first stream leaf
                lead = args[streams[0]].sym
                scan = B.get_builtin(fusion.trees[fn][1]).fold == "scan"
                return static_result(
                    Shape(lead if scan else f"outer({lead})", ok),
                    "fused chain under a segmented fold: result "
                    + ("reuses the first stream leaf's full descriptor "
                       "chain" if scan else
                       "projects the first stream leaf's outer descriptor "
                       "level"))
            return static_result(
                Shape(self.fresh("fused"), ok),
                "fused elementwise chain: result reuses the replicated "
                "first leaf's descriptors")
        if fold == "scan":
            return static_result(
                Shape(a0.sym, a0.valid),
                "segmented scan: result reuses the argument's full "
                "descriptor chain")
        if fold == "reduce":
            return static_result(
                Shape(f"outer({a0.sym})", a0.valid),
                "segmented reduction: result projects the argument's "
                "outer descriptor level")
        if fn == "length":
            return static_result(
                Shape(f"lens({a0.sym})", a0.valid),
                "copies one validated descriptor level into values")
        if fn in ("range", "range1"):
            site("static", "constructed: lengths clamped non-negative and "
                           "values sized to match")
            return Shape(self.fresh("iota"), True)
        if fn == "__iter":
            return static_result(
                Shape(a0.sym, a0.valid),
                "identity view: a sequence at frame depth j re-viewed as "
                "the depth-(j+1) frame of its elements, no data touched")
        if fn == "__rep":
            rep = args[1] if len(args) > 1 else a0
            return static_result(
                Shape(rep.sym, rep.valid),
                "identity kernel: the replicated value is returned "
                "unchanged")
        if fn == "__any":
            site("static", "scalar boolean result; no descriptors")
            return Shape("scalar", True)
        if fn == "__empty":
            return static_result(
                Shape(self.fresh("empty"), a0.valid),
                "empty frame constructed from the validated mask's outer "
                "level")
        if fn == "__tuple_cons":
            ok = all(a.valid for a in args)
            return static_result(
                Shape(self.fresh("tuple"), ok),
                "wrapper: tuple components are kept as-is")
        if fn.startswith("__tuple_extract_"):
            return static_result(
                Shape(self.fresh("proj"), a0.valid),
                "projection of a validated tuple component")
        site("runtime", "unclassified primitive: boundary check retained")
        return Shape(self.fresh(fn), True)

    # -- discharge tags --------------------------------------------------------

    def discharged_tags(self) -> frozenset[str]:
        static_names: set[str] = set()
        tainted: set[str] = set()
        for sites in self.sites.values():
            for s in sites:
                if s.cls == "static":
                    static_names.add(s.fn)
                else:
                    tainted.add(s.fn)
        static_names -= tainted

        tags = {f"kernel:{n}" for n in static_names}
        tags.update(f"call:{name}" for name, ok in self.ret_valid.items()
                    if ok)
        return frozenset(tags)


def analyze_shapes(tp: "TransformedProgram") -> ShapeAnalysis:
    """Analyze a transformed program (memoized on the program object)."""
    cached = getattr(tp, "_shape_analysis", None)
    if cached is not None:
        return cached  # type: ignore[no-any-return]
    from repro.obs import runtime as _obs
    with _obs.span("analyze:shapes"):
        out = _Analyzer(tp).run()
    tp._shape_analysis = out  # type: ignore[attr-defined]
    return out
