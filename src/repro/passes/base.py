"""The :class:`Pass` contract and the :class:`PassContext` state record.

A pass is one named, self-describing unit of the transformation pipeline
(the paper's phases — R1 canonicalization, R2 iterator elimination with
R0 extension synthesis, the §4.5 optimizations, cleanup, fusion — are
each one pass).  Every pass declares:

* ``requires`` — invariants (:mod:`repro.passes.invariants`) that must
  already be established; the :class:`~repro.passes.manager.PassManager`
  rejects a pipeline whose ordering cannot satisfy them *before running
  anything*;
* ``produces`` — invariants established by a successful run;
* ``run`` — the transformation itself, usually built from
  :class:`~repro.passes.pattern.RewritePattern` sets;
* ``postcondition`` — the per-pass verifier (the phase-boundary IR
  checks of :mod:`repro.analysis.verify`, folded in as pass-local
  contracts rather than pipeline-level hooks).

Passes come in two stages: ``"source"`` passes rewrite the untyped
:class:`~repro.lang.ast.Program` before type inference (R1 runs here),
``"defs"`` passes rewrite the monomorphized definition map after it
(R2 and everything downstream).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.lang import ast as A
from repro.transform.trace import NullTrace, Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.lang.typecheck import TypedProgram

__all__ = ["Pass", "PassContext"]


@dataclass
class PassContext:
    """Everything a pass may read or rewrite, threaded through the
    pipeline (one context per :func:`~repro.transform.pipeline.
    transform_program` run; the IR lives in ``program`` until type
    inference and in ``defs`` after it — the rules R1 vs R2 operate on
    exactly these two forms).
    """

    #: the :class:`~repro.transform.pipeline.TransformOptions` being run
    #: (the manager reads its verify and dump settings; passes do not)
    options: Any
    #: rule-application trace (R1/R2/R0/T1 firings; benchmark E6)
    trace: Trace = field(default_factory=NullTrace)
    #: the untyped program — source-stage passes rewrite this in place
    program: Optional[A.Program] = None
    #: the typed program — name resolution for defs-stage passes
    typed: Optional["TypedProgram"] = None
    #: monomorphized entry names the defs-stage transformation starts from
    entries: tuple[str, ...] = ()
    #: entries that additionally need their depth-1 extension f^1 (R0)
    ext_entries: tuple[str, ...] = ()
    #: the transformed definitions being grown/rewritten (R2 output)
    defs: dict[str, A.FunDef] = field(default_factory=dict)
    #: fused-op trees, populated by the fuse pass (§6 direction)
    fusion: Any = None
    #: (verify stage name, defs checked) per postcondition run, in order
    verified: list[tuple[str, int]] = field(default_factory=list)


class Pass:
    """One registered pipeline pass; subclass and register with
    :func:`repro.passes.registry.register`.

    Class attributes form the declarative contract (name, stage,
    required/produced invariants); :meth:`run` does the work.  Which
    paper rule a concrete pass implements is documented on the subclass
    (see :mod:`repro.passes.builtin` for R1, R2, §4.5).
    """

    #: registry key; also the ``--passes`` spelling and the IR-dump label
    name: str = ""
    #: ``"source"`` (pre-typecheck, rewrites ctx.program) or ``"defs"``
    stage: str = "defs"
    #: observability span name (defaults to ``name``)
    span: str = ""
    #: postcondition stage/span name (defaults to ``verify:<name>``)
    verify_span: str = ""
    #: invariants that must hold before this pass may run
    requires: frozenset[str] = frozenset()
    #: invariants established by this pass
    produces: frozenset[str] = frozenset()
    #: one-line description for ``repro passes`` style listings and docs
    description: str = ""

    def __init_subclass__(cls, **kw) -> None:
        super().__init_subclass__(**kw)
        if not cls.span:
            cls.span = cls.name
        if not cls.verify_span and cls.name:
            cls.verify_span = f"verify:{cls.name}"

    def run(self, ctx: PassContext) -> None:
        """Apply the pass, mutating ``ctx`` (``ctx.program`` for source
        passes, ``ctx.defs`` for defs passes)."""
        raise NotImplementedError

    def postcondition(self, ctx: PassContext) -> Optional[tuple[str, int]]:
        """Verify the pass's output contract; return ``(stage, n_defs)``
        for the verification record, or ``None`` when the pass has no
        checkable postcondition.  Raise
        :class:`~repro.errors.AnalysisError` on violation.

        The default for defs-stage passes re-checks the full transformed-
        IR postconditions (scoping, arity, frame-depth consistency, R2d
        guard provenance — :mod:`repro.analysis.verify`)."""
        if self.stage != "defs":
            return None
        # lazy import keeps the pass layer loadable without the analysis
        # package
        from repro.analysis.verify import verify_transformed
        n = verify_transformed(ctx.defs, self.verify_span, ctx.typed)
        return self.verify_span, n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Pass {self.name} ({self.stage})>"
