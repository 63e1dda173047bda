"""Whole-program transformation driver, on the pass manager.

Given a :class:`TypedProgram` and entry points (monomorphized names),
:func:`transform_program` produces a :class:`TransformedProgram`: every
reachable function body made iterator-free (R2) plus the synthesized
``f^1`` depth-1 parallel extensions (R0) — "the number of parallel
extensions of f that are introduced is a static property of the
program".

Since the pass-manager refactor the driver itself is thin: a
:class:`TransformOptions` *is a pass list*
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
from repro.passes.registry import parse_pass_list
from repro.transform.extensions import ext1_name
from repro.transform.trace import NullTrace, Trace

#: the default pass pipeline (R1 through fusion), the one program every
#: back end runs.  A pass's presence in a list is its only switch:
#: ``native-reduce`` is registered but not listed here.
DEFAULT_PASSES = ("canonical", "eliminate", "optimize", "simplify", "fuse")


@dataclass
class TransformOptions:
    """The pass list, its verification and IR dumps, and tracing;
    :meth:`pipeline` is the list that runs.

    Which rewrites run is which passes are listed (docs/PASSES.md has
    the table of supported lists).  The default is ``DEFAULT_PASSES`` —
    ``canonical, eliminate, optimize, simplify, fuse`` — and every back
    end executes that one program.  Ablations are lists: without
    ``optimize`` no seq_index is shared; ``native-reduce`` before
    ``optimize`` rewrites reductions first (the reduction rewrite can
    expose shared sources but never the converse); without ``simplify``
    fusion runs on the raw R2 output.  Every list of the four optional
    passes in that order is covered by ``tests/passes/test_options.py``.
    """

    #: ``False`` drops ``fuse`` from the default list (the unfused
    #: program, for ablations); ignored when ``passes`` is given
    fuse: bool = True
    #: record a rule-application trace (benchmark E6)
    trace: bool = False
    #: re-check per-pass postconditions after every pass (repro.analysis)
    verify: bool = True
    #: explicit pass list (names from :mod:`repro.passes.registry`, as a
    #: sequence or one comma-separated string); replaces the default
    #: pipeline when set.  Ordering is validated against declared
    #: invariants before anything runs.
    passes: Optional[tuple[str, ...]] = None
    #: dump pretty-printed IR after every executed pass
    print_ir_all: bool = False
    #: dump IR after exactly these passes (each must be in the pipeline)
    print_ir_after: tuple[str, ...] = ()
    #: where IR dumps go (callable taking the dump text); None = stderr
    ir_sink: Optional[Callable[[str], None]] = None

    def __post_init__(self) -> None:
        # a list, a tuple or "a,b,c" spells a pass list; tuples keep the
        # options hashable
        if self.passes is not None:
            self.passes = parse_pass_list(self.passes)
        self.print_ir_after = tuple(self.print_ir_after)

    def pipeline(self) -> tuple[str, ...]:
        """The pass list that runs: ``passes`` when given, else
        ``DEFAULT_PASSES`` (without its last entry, ``fuse``, when
        ``fuse=False``)."""
        if self.passes is not None:
            return self.passes
        return DEFAULT_PASSES if self.fuse else DEFAULT_PASSES[:-1]


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
    #: likewise each function's VCODE, compiled once whichever lane asks
    #: first (:func:`repro.vcode.compile.compile_function`; a copy made
    #: with ``dataclasses.replace`` starts empty, as its ``defs`` may differ)
    vcode_functions: dict = field(default_factory=dict, init=False,
                                  repr=False, compare=False)
    #: and the whole VCODE program with its lint's findings, as
    #: ``(VProgram, LintResult)`` (:func:`repro.vcode.compile.compile_transformed`)
    vcode: object = field(default=None, init=False, repr=False,
                          compare=False)

    def __getitem__(self, name: str) -> A.FunDef:
        return self.defs[name]

    def __contains__(self, name: str) -> bool:
        return name in self.defs

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
