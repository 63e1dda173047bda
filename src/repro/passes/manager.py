"""The pass manager: validated ordering, per-pass timing, per-pass
verification, and labeled IR dumps.

A :class:`PassManager` is built from a list of pass names (usually the
options' list — see
:meth:`repro.transform.pipeline.TransformOptions.pipeline`).  At
construction it *statically* validates the ordering against the declared
invariants (:mod:`repro.passes.invariants`): walking the list from the
entry set, every pass's ``requires`` must already be established —
``--passes "optimize,eliminate"`` is rejected before any work happens,
because the §4.5 rewrites require R2's iterator freedom.

At run time each pass gets:

* an observability span named after it (``canonicalize``, ``eliminate``,
  ``optimize`` ... — docs/OBSERVABILITY.md), so per-pass timing falls
  out of ``repro profile``;
* its postcondition verifier (``verify:<pass>`` spans;
  docs/ANALYSIS.md), gated by ``options.verify`` and recorded in
  ``ctx.verified``;
* an optional labeled IR dump (``--print-ir-after-all`` /
  ``--print-ir-after <pass>``) written through ``options.ir_sink``
  (default: stderr), after the pass and its verifier ran; a
  ``--print-ir-after`` name the list does not hold is rejected with the
  ordering errors.
"""

from __future__ import annotations

import sys
from typing import Any, Optional, Sequence, Union

from repro.errors import TransformError
from repro.lang.pretty import pretty_def, pretty_program
from repro.obs import runtime as _obs
from repro.passes import invariants as INV
from repro.passes.base import Pass, PassContext
from repro.passes.registry import get_pass

__all__ = ["PassManager", "dump_header"]


def dump_header(name: str) -> str:
    """The label line over each IR dump (one per executed pass)."""
    return f"// -----// IR Dump After {name} //----- //"


def _render_ir(p: Pass, ctx: PassContext) -> str:
    """Pretty-print the IR form the pass stage operates on: the source
    program before typing (R1's view), the transformed defs after."""
    if p.stage == "source":
        return pretty_program(ctx.program)
    return "\n\n".join(pretty_def(d) for d in ctx.defs.values())


class PassManager:
    """Run a validated pass pipeline over a :class:`PassContext`.

    ``passes`` is a sequence of registered names (or ready
    :class:`~repro.passes.base.Pass` instances).  Source-stage passes
    (R1) and defs-stage passes (R2 onward) may be freely mixed in the
    list — the two stages execute at different pipeline points
    (:func:`~repro.api.compile_program` and
    :func:`~repro.transform.pipeline.transform_program`), but ordering
    and invariant flow are validated over the *whole* list, and a
    defs-stage pass listed before a source-stage pass is rejected.
    """

    def __init__(self, passes: Sequence[Union[str, Pass]],
                 options: Any) -> None:
        self.options = options
        self.passes: list[Pass] = [
            p if isinstance(p, Pass) else get_pass(p) for p in passes]
        self._validate()

    # -- static validation ----------------------------------------------------

    def _validate(self) -> None:
        """Reject duplicate passes, stage inversions, any ordering whose
        declared ``requires`` invariants are not established by the entry
        set plus earlier passes' ``produces``, and a ``print_ir_after``
        name that is not in the list."""
        seen: set[str] = set()
        established = set(INV.ENTRY)
        defs_started = False
        for p in self.passes:
            if p.name in seen:
                raise TransformError(
                    f"pass {p.name!r} listed twice in the pipeline")
            seen.add(p.name)
            if p.stage == "defs":
                defs_started = True
            elif defs_started:
                raise TransformError(
                    f"source-stage pass {p.name!r} listed after a "
                    "defs-stage pass; source passes (R1) must run before "
                    "type inference")
            missing = p.requires - established
            if missing:
                raise TransformError(
                    f"illegal pass order: {p.name!r} requires "
                    f"{sorted(missing)} but only {sorted(established)} "
                    "established at that point")
            established |= p.produces
        unknown = [n for n in getattr(self.options, "print_ir_after", ())
                   if n not in seen]
        if unknown:
            listed = ",".join(p.name for p in self.passes)
            raise TransformError(
                f"cannot print IR after {', '.join(map(repr, unknown))}: "
                f"not in the pipeline ({listed})")

    # -- stage selection ------------------------------------------------------

    def source_passes(self) -> list[Pass]:
        """The R1-side (pre-typecheck) portion of the pipeline."""
        return [p for p in self.passes if p.stage == "source"]

    def defs_passes(self) -> list[Pass]:
        """The R2-side (post-monomorphization) portion of the pipeline."""
        return [p for p in self.passes if p.stage == "defs"]

    # -- execution ------------------------------------------------------------

    def run_source(self, ctx: PassContext) -> None:
        """Run the source-stage passes over ``ctx.program``."""
        for p in self.source_passes():
            self._run_one(p, ctx)

    def run_defs(self, ctx: PassContext) -> None:
        """Run the defs-stage passes over ``ctx.defs``."""
        for p in self.defs_passes():
            self._run_one(p, ctx)

    def _run_one(self, p: Pass, ctx: PassContext) -> None:
        opts = self.options
        with _obs.span(p.span):
            p.run(ctx)
        if getattr(opts, "verify", True):
            with _obs.span(p.verify_span):
                rec = p.postcondition(ctx)
            if rec is not None and p.stage == "defs":
                ctx.verified.append(rec)
        if self._wants_dump(p.name):
            self._dump(p, ctx)

    # -- IR dumps -------------------------------------------------------------

    def _wants_dump(self, name: str) -> bool:
        opts = self.options
        return bool(getattr(opts, "print_ir_all", False)
                    or name in getattr(opts, "print_ir_after", ()))

    def _dump(self, p: Pass, ctx: PassContext) -> None:
        sink = getattr(self.options, "ir_sink", None)
        text = f"{dump_header(p.name)}\n{_render_ir(p, ctx)}\n"
        if sink is None:
            print(text, file=sys.stderr)
        else:
            sink(text)


def manager_for(options: Any,
                passes: Optional[Sequence[Union[str, Pass]]] = None
                ) -> PassManager:
    """A :class:`PassManager` for ``options`` — the explicit ``passes``
    list when given, else the options' own list
    (``options.pipeline()``)."""
    names = passes if passes is not None else options.pipeline()
    return PassManager(names, options)
