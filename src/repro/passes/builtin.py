"""The built-in pipeline passes: R1 canonicalization, R2 iterator
elimination (with R0 extension synthesis), the §4.5 optimizations,
let-chain cleanup, and elementwise fusion.

Each pass is a thin declarative wrapper — name, stage, invariant
contract — around the transformation modules of :mod:`repro.transform`;
the actual rewrite rules live there as
:class:`~repro.passes.pattern.RewritePattern` sets so each module keeps
its paper-rule documentation next to the code.  Registration happens at
import time via :func:`repro.passes.registry.register`.
"""

from __future__ import annotations

from repro.errors import TransformError
from repro.lang import ast as A
from repro.lang.prelude import built_image
from repro.passes import invariants as INV
from repro.passes.base import Pass, PassContext
from repro.passes.pattern import apply_patterns
from repro.passes.registry import register
from repro.transform.canonical import canonicalize_program
from repro.transform.eliminate import Eliminator
from repro.transform.extensions import ext1_name, synthesize_ext1
from repro.transform.trace import Trace

__all__ = [
    "CanonicalPass", "EliminatePass", "NativeReducePass", "OptimizePass",
    "SimplifyPass", "FusePass",
]


@register
class CanonicalPass(Pass):
    """Rule **R1** plus the §2 filter desugaring: rewrite every iterator
    to the canonical ``[i <- [1..e]: body]`` form, filter-free
    (:mod:`repro.transform.canonical`).  Runs on the untyped source
    program so type inference annotates the generated nodes like any
    other code."""

    name = "canonical"
    stage = "source"
    span = "canonicalize"
    verify_span = "verify:canonicalize"
    requires = frozenset({INV.PARSED})
    produces = frozenset({INV.CANONICAL})
    description = "R1 iterator canonical form + filter desugaring"

    def run(self, ctx: PassContext) -> None:
        """Canonicalize every definition (R1; source-to-source)."""
        ctx.program = canonicalize_program(ctx.program, ctx.trace)

    def postcondition(self, ctx: PassContext):
        """Every iterator domain is literally ``range(1, e)`` with no
        residual filter — the R1 normal form.  The image's definitions
        were checked when it was built."""
        from repro.analysis.verify import verify_canonical
        image = built_image()
        rest = A.Program({d.name: d for d in ctx.program
                          if not image.is_canonical(d)})
        return self.verify_span, verify_canonical(rest, self.verify_span)


class _Worklist:
    """Worklist-driven R2 elimination; implements the eliminator's
    ExtensionRegistry protocol.  "The number of parallel extensions of f
    that are introduced is a static property of the program" — the
    worklist discovers exactly that set, synthesizing each needed
    depth-1 extension f^1 (rule R0) and feeding it back through the
    eliminator."""

    def __init__(self, typed, trace: Trace):
        self.typed = typed
        self.trace = trace
        self.out_defs: dict[str, A.FunDef] = {}
        self._queue: list[tuple[str, str]] = []  # (mono_name, "def"|"ext1")
        self._seen: set[tuple[str, str]] = set()
        self.eliminator = Eliminator(self, trace)

    # -- ExtensionRegistry ----------------------------------------------------

    def is_user_function(self, name: str) -> bool:
        """True when ``name`` is a monomorphized user definition (an R2c
        candidate for extension synthesis, as opposed to a builtin)."""
        return name in self.typed.mono_defs

    def request_def(self, mono_name: str) -> None:
        """Queue the iterator-free transform of a definition (R2)."""
        self._enqueue(mono_name, "def")

    def request_ext1(self, mono_name: str) -> None:
        """Queue synthesis + transform of a depth-1 extension (R0)."""
        self._enqueue(mono_name, "ext1")

    def _enqueue(self, mono_name: str, kind: str) -> None:
        if mono_name not in self.typed.mono_defs:
            raise TransformError(f"unknown function {mono_name!r}")
        key = (mono_name, kind)
        if key not in self._seen:
            self._seen.add(key)
            self._queue.append(key)

    # -- processing --------------------------------------------------------------

    def drain(self) -> None:
        """Process requests until the static extension set is exhausted."""
        while self._queue:
            name, kind = self._queue.pop()
            if kind == "def":
                self._transform_def(name)
            else:
                self._transform_ext1(name)

    def _transform_def(self, name: str) -> None:
        src = self.typed.mono_defs[name]
        body = self.eliminator.transform_body(name, src.params,
                                              A.clone(src.body))
        if A.contains_iterator(body):
            raise TransformError(f"iterators remain in transformed {name}")
        self.out_defs[name] = A.FunDef(
            name=name, params=list(src.params), body=body,
            param_types=src.param_types, ret_type=src.ret_type,
            line=src.line, col=src.col)

    def _transform_ext1(self, name: str) -> None:
        src = self.typed.mono_defs[name]
        wrapper = synthesize_ext1(src)
        self.trace.record_text(
            "R0", f"fun {name}({', '.join(src.params)}) = ...",
            f"fun {wrapper.name}({', '.join(wrapper.params)}) = "
            f"[i <- [1..#{wrapper.params[0]}]: ...]")
        body = self.eliminator.transform_body(
            wrapper.name, wrapper.params, wrapper.body)
        if A.contains_iterator(body):
            raise TransformError(f"iterators remain in {wrapper.name}")
        self.out_defs[wrapper.name] = A.FunDef(
            name=wrapper.name, params=wrapper.params, body=body,
            param_types=wrapper.param_types, ret_type=wrapper.ret_type,
            line=src.line, col=src.col)


@register
class EliminatePass(Pass):
    """Rules **R2a-R2f** + **R0**: make every reachable definition
    iterator-free (:mod:`repro.transform.eliminate`), synthesizing the
    depth-1 parallel extensions f^1 the worklist discovers
    (:mod:`repro.transform.extensions`)."""

    name = "eliminate"
    requires = frozenset({INV.CANONICAL})
    produces = frozenset({INV.ITERATOR_FREE})
    description = "R2 iterator elimination + R0 extension synthesis"

    def run(self, ctx: PassContext) -> None:
        """Drain the transform worklist from the entry set (R2 over every
        reachable def, R0 for every required extension)."""
        wl = _Worklist(ctx.typed, ctx.trace)
        for name in ctx.entries:
            wl.request_def(name)
        for name in ctx.ext_entries:
            wl.request_ext1(name)
        wl.drain()
        ctx.defs = wl.out_defs


@register
class NativeReducePass(Pass):
    """**§4.5** pt. 2: ``reduce(add|max2|min2, v)`` becomes the native
    segmented ``sum`` / ``maxval`` / ``minval``
    (:class:`~repro.transform.optimize.NativeReducePattern`).  Not in the
    default pipeline; list it before ``optimize``, since the reduction
    rewrite can expose shared sources but never the converse."""

    name = "native-reduce"
    requires = frozenset({INV.ITERATOR_FREE})
    description = "§4.5 reduce(add/max2/min2) to native segmented folds"

    def run(self, ctx: PassContext) -> None:
        """Rewrite every reducible ``reduce`` call, one sweep per def."""
        from repro.transform.optimize import NativeReducePattern
        for d in ctx.defs.values():
            d.body = apply_patterns(d.body, [NativeReducePattern()])


@register
class OptimizePass(Pass):
    """The **§4.5** no-replication index rewrites, as single-sweep
    rewrite patterns over the iterator-free defs (:mod:`repro.transform.
    optimize`): the shared and segment-shared ``seq_index`` forms, then
    the identity-gather view they expose.  Leaving the pass out of the
    list is the ablation."""

    name = "optimize"
    requires = frozenset({INV.ITERATOR_FREE})
    description = "§4.5 rewrites: shared-index gathers, iteration as a view"

    def run(self, ctx: PassContext) -> None:
        """Apply each pattern as its own sweep, in the documented order
        (index sharing, then the identity gathers among the shared-index
        forms become views)."""
        from repro.transform import optimize as OPT
        for d in ctx.defs.values():
            d.body = apply_patterns(d.body, [OPT.SharedIndexPattern()])
            d.body = apply_patterns(d.body, [OPT.SegSharedIndexPattern()])
            d.body = OPT.rewrite_identity_gather(d.body)


@register
class SimplifyPass(Pass):
    """Cleanup of the let-chains R2 generates, in one scoped sweep per
    definition — repeated values shared (total bindings floated to their
    ``If`` arm, equal builtin calls replaced by the dominating binding),
    aliases and literals substituted, dead bindings dropped
    (:mod:`repro.transform.simplify`; the §6 "improvements ... that
    yield more efficient code" direction).  Sound in the pure language
    P: only calls that cannot fail are moved."""

    name = "simplify"
    requires = frozenset({INV.ITERATOR_FREE})
    description = ("let-floating + CSE, alias inlining + dead-binding "
                   "elimination")

    def run(self, ctx: PassContext) -> None:
        """Share and clean every def (§6 direction); user functions —
        transformed or not — are never shared."""
        from repro.transform.simplify import simplify_def
        mono_defs = getattr(ctx.typed, "mono_defs", {})

        def is_user(name: str) -> bool:
            return name in ctx.defs or name in mono_defs
        for d in ctx.defs.values():
            simplify_def(d, is_user)


@register
class FusePass(Pass):
    """Elementwise fusion (the §6 direction measured by benchmark E14):
    collapse maximal same-depth trees of elementwise primitives — with
    the segmented fold that is a tree's only reader — into single
    ``__fused<k>`` ops recorded in a
    :class:`~repro.transform.fuse.FusionRegistry`
    (:mod:`repro.transform.fuse`)."""

    name = "fuse"
    requires = frozenset({INV.ITERATOR_FREE})
    produces = frozenset({INV.FUSED})
    description = "collapse elementwise chains into single fused ops"

    def run(self, ctx: PassContext) -> None:
        """Fuse every def, recording op trees in ``ctx.fusion`` (the §6
        direction; the pass fuses and does nothing else)."""
        from repro.transform.fuse import FusionRegistry, fuse_expr
        ctx.fusion = FusionRegistry()
        for d in ctx.defs.values():
            d.body = fuse_expr(d.body, ctx.fusion)
