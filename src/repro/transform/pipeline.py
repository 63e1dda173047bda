"""Whole-program transformation driver, on the pass manager.

Given a :class:`TypedProgram` and entry points (monomorphized names),
:func:`transform_program` produces a :class:`TransformedProgram`: every
reachable function body made iterator-free (R2) plus the synthesized
``f^1`` depth-1 parallel extensions (R0) — "the number of parallel
extensions of f that are introduced is a static property of the
program".

Since the pass-manager refactor the driver itself is thin: a
:class:`TransformOptions` *compiles down to a pass list*
(:meth:`TransformOptions.pipeline`), a validated
:class:`~repro.passes.manager.PassManager` runs the defs-stage passes
(R2 elimination, the §4.5 optimizations, cleanup, fusion) with
per-pass timing, per-pass postcondition verification, and optional
labeled IR dumps.  The source-stage portion of the same pipeline (R1
canonicalization) runs earlier, in :func:`repro.api.compile_program`.
See docs/PASSES.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.lang import ast as A
from repro.lang.typecheck import TypedProgram
from repro.passes.base import PassContext
from repro.passes.manager import manager_for
from repro.transform.extensions import ext1_name
from repro.transform.trace import NullTrace, Trace

#: the default pass pipeline (R1 through fusion), the one program every
#: back end runs.  ``optimize`` is always listed — its §4.5 patterns are
#: individually gated, so ablations change which patterns fire, not the
#: pipeline shape (and its postcondition re-verifies either way).
DEFAULT_PASSES = ("canonical", "eliminate", "optimize", "simplify", "fuse")


@dataclass
class TransformOptions:
    """Switches for the section-4.5 optimizations, pipeline shape, and
    tracing; compiles down to a pass list via :meth:`pipeline`.

    Option interactions are by *pipeline position*, not flag order —
    see the supported-combination table in docs/PASSES.md.  The defaults
    run ``canonical, eliminate, optimize, simplify, fuse``, and every back
    end executes that one program:

    * ``reduce_to_native`` (default off) and ``shared_seq_index``
      (default on) both gate patterns *inside* the ``optimize`` pass;
      when both are on, native reductions rewrite first, then index
      sharing (the reduction rewrite can expose shared sources but never
      the converse).
    * ``fuse`` (default on) appends the ``fuse`` pass after
      ``simplify``, so fusion sees cleaned let-chains; with ``simplify``
      off, fusion still runs, on the raw R2 output.  ``fuse=False`` is
      the unfused program, for ablations and for tests whose subject it
      is.
    * ``reduce_to_native`` + ``fuse`` compose: a rewritten ``sum`` is a
      segmented fold, and a fold whose argument is an elementwise tree
      *roots* the fused region — one op, the tree computed where the
      fold consumes it.

    Every combination of the four switches is supported and covered by
    ``tests/passes/test_options.py``.
    """

    #: rewrite seq_index with a depth-0 source to the shared fast path
    #: (§4.5 pt. 1; an ``optimize``-pass pattern)
    shared_seq_index: bool = True
    #: rewrite reduce(add/max2/min2, v) to native segmented reductions
    #: (§4.5 pt. 2; an ``optimize``-pass pattern)
    reduce_to_native: bool = False
    #: clean the generated let-chains (alias inlining, dead bindings);
    #: includes the ``simplify`` pass
    simplify: bool = True
    #: fuse chains of same-depth elementwise primitives into single ops;
    #: appends the ``fuse`` pass (after ``simplify`` when both are on)
    fuse: bool = True
    #: record a rule-application trace (benchmark E6)
    trace: bool = False
    #: re-check per-pass postconditions after every pass (repro.analysis)
    verify: bool = True
    #: explicit pass list (names from :mod:`repro.passes.registry`);
    #: overrides the flag-derived pipeline when set.  Ordering is
    #: validated against declared invariants before anything runs.
    passes: Optional[tuple[str, ...]] = None
    #: dump pretty-printed IR after every executed pass
    print_ir_all: bool = False
    #: dump IR after exactly these passes
    print_ir_after: tuple[str, ...] = ()
    #: where IR dumps go (callable taking the dump text); None = stderr
    ir_sink: Optional[Callable[[str], None]] = None

    def pipeline(self) -> tuple[str, ...]:
        """The pass list these options compile down to: the explicit
        ``passes`` when given, else the flag-derived default
        (``canonical, eliminate, optimize[, simplify][, fuse]``)."""
        if self.passes is not None:
            return tuple(self.passes)
        names = ["canonical", "eliminate", "optimize"]
        if self.simplify:
            names.append("simplify")
        if self.fuse:
            names.append("fuse")
        return tuple(names)


@dataclass
class TransformedProgram:
    """Iterator-free functions ready for vector execution (R2 output plus
    the R0-synthesized extensions)."""

    typed: TypedProgram
    defs: dict[str, A.FunDef]
    options: TransformOptions
    trace: Trace
    fusion: object = None  # FusionRegistry when the fuse pass ran
    #: (pass verify-stage name, defs checked) per verifier run, in order
    verified_phases: tuple = ()
    #: made on first execution and kept with the program: the evaluator's
    #: lowered functions, keyed by the engine their applications were bound
    #: against (:mod:`repro.vexec.evaluator`)
    plans: dict = field(default_factory=dict, repr=False, compare=False)
    #: likewise the VCODE program of ``backend="vcode"`` (:mod:`repro.api`)
    vcode: object = field(default=None, repr=False, compare=False)

    def __getitem__(self, name: str) -> A.FunDef:
        return self.defs[name]

    def __contains__(self, name: str) -> bool:
        return name in self.defs

    def has_ext1(self, mono_name: str) -> bool:
        """True when the R0 depth-1 extension of ``mono_name`` exists."""
        return ext1_name(mono_name) in self.defs

    def ext1(self, mono_name: str) -> A.FunDef:
        """The R0 depth-1 extension ``f^1`` of ``mono_name``."""
        return self.defs[ext1_name(mono_name)]


def transform_program(typed: TypedProgram, entries: list[str],
                      options: Optional[TransformOptions] = None,
                      ext_entries: tuple[str, ...] = ()) -> TransformedProgram:
    """Transform ``entries`` (monomorphized names) and everything they
    reach, by running the defs-stage passes of the options' pipeline
    (R2 elimination onward).

    ``ext_entries`` additionally get their depth-1 extensions synthesized
    (R0) — used for function values injected from outside the program
    (e.g. a user function passed as an entry argument), which static
    analysis cannot see.
    """
    opts = options or TransformOptions()
    trace = Trace() if opts.trace else NullTrace()
    pm = manager_for(opts)
    ctx = PassContext(options=opts, trace=trace, typed=typed,
                      entries=tuple(entries),
                      ext_entries=tuple(ext_entries))
    pm.run_defs(ctx)
    return TransformedProgram(typed=typed, defs=ctx.defs, options=opts,
                              trace=trace, fusion=ctx.fusion,
                              verified_phases=tuple(ctx.verified))
