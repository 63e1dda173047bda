"""The ``repro analyze`` entry point: run all three analysis passes over
one program + entry and render the results (human text + analysis.json).

The JSON schema is versioned (``version`` key); CI archives the file as
an artifact, so downstream tooling can rely on the layout within a
version.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.analysis.shapes import ShapeAnalysis, analyze_shapes
from repro.analysis.verify import verify_canonical
from repro.analysis.vlint import LintResult

__all__ = ["ANALYSIS_SCHEMA_VERSION", "AnalysisReport", "analyze_source",
           "classify_fault_sites"]

# 2: optional "cost" section (repro analyze --cost)
ANALYSIS_SCHEMA_VERSION = 2


def classify_fault_sites() -> dict[str, dict[str, str]]:
    """Classify every registered fault-injection site: transform-level
    corruption is caught *statically* by the phase-boundary verifier;
    descriptor corruption beneath the constructor is only observable at
    a guarded runtime boundary (``runtime-only``)."""
    from repro.guard.faults import FAULT_SITES
    out: dict[str, dict[str, str]] = {}
    for site, desc in sorted(FAULT_SITES.items()):
        static = site.startswith("transform.")
        out[site] = {
            "description": desc,
            "classification": "static" if static else "runtime-only",
            "caught_by": ("verify:eliminate (phase-boundary IR verifier)"
                          if static else
                          "stage-named InvariantError at a guarded "
                          "runtime boundary (check=full or the retained "
                          "runtime-class checks of check=static)"),
        }
    return out


@dataclass
class AnalysisReport:
    """Everything ``repro analyze`` learned about one program + entry."""

    file: str
    entry: str
    phases: list[dict[str, Any]]
    shapes: ShapeAnalysis
    vlint: LintResult
    vlint_functions: int
    vlint_instructions: int
    #: optional cost section (``repro analyze --cost``): the
    #: whole-program :class:`~repro.analysis.cost.CostAnalysis` JSON plus
    #: the entry's certificate line
    cost: Optional[dict[str, Any]] = None

    def to_json(self) -> dict[str, Any]:
        static, runtime = self.shapes.counts()
        return {
            "version": ANALYSIS_SCHEMA_VERSION,
            "file": self.file,
            "entry": self.entry,
            "verifier": {"phases": self.phases},
            "shapes": {
                "static_sites": static,
                "runtime_sites": runtime,
                "discharged": sorted(self.shapes.discharged),
                "defs": {
                    # every call boundary is static (analysis.shapes)
                    name: {
                        "ret_valid": True,
                        "sites": [{"fn": s.fn, "depth": s.depth,
                                   "class": s.cls, "reason": s.reason}
                                  for s in d.sites],
                    }
                    for name, d in sorted(self.shapes.defs.items())
                },
            },
            "vlint": {
                "functions": self.vlint_functions,
                "instructions": self.vlint_instructions,
                "errors": [{"function": x.function, "code": x.code,
                            "detail": x.detail} for x in self.vlint.errors],
                "warnings": [{"function": x.function, "code": x.code,
                              "detail": x.detail}
                             for x in self.vlint.warnings],
            },
            "fault_sites": classify_fault_sites(),
            **({"cost": self.cost} if self.cost is not None else {}),
        }

    def render(self) -> str:
        static, runtime = self.shapes.counts()
        lines = [f"analysis: {self.file}  entry {self.entry}"]
        lines.append(f"verifier: {len(self.phases)} phases passed")
        for p in self.phases:
            lines.append(f"  {p['phase']:<22} {p['defs']} defs")
        lines.append(
            f"shapes: {static + runtime} primitive sites — "
            f"{static} static / {runtime} runtime; "
            f"{len(self.shapes.discharged)} check tags discharged")
        kept = sorted({s.fn for d in self.shapes.defs.values()
                       for s in d.sites if s.cls == "runtime"})
        if kept:
            lines.append("  runtime-class (boundary checks retained): "
                         + ", ".join(kept))
        lines.append(
            f"vlint: {self.vlint_functions} functions, "
            f"{self.vlint_instructions} instructions, "
            f"{len(self.vlint.errors)} errors, "
            f"{len(self.vlint.warnings)} warnings")
        for x in self.vlint.errors + self.vlint.warnings:
            lines.append(f"  {x}")
        sites = classify_fault_sites()
        n_static = sum(1 for v in sites.values()
                       if v["classification"] == "static")
        lines.append(
            f"fault sites: {len(sites) - n_static} runtime-only, "
            f"{n_static} caught statically (see docs/ANALYSIS.md)")
        if self.cost is not None:
            defs = self.cost.get("defs", {})
            n_bnd = sum(1 for d in defs.values()
                        if d.get("verdict") == "bounded")
            lines.append(
                f"cost: model {self.cost.get('model')}; "
                f"{n_bnd}/{len(defs)} definitions bounded")
            lines.append(f"  entry {self.cost.get('entry')}")
            for name, d in sorted(defs.items()):
                if d.get("verdict") == "bounded":
                    lines.append(
                        f"  {name}: work = {d['work']}; "
                        f"span = {d['span']}; mem = {d['mem']}")
                else:
                    lines.append(f"  {name}: unbounded -- {d['reason']}")
        return "\n".join(lines)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=False)
            fh.write("\n")


def analyze_source(source: str, entry: str, args: Sequence[Any],
                   types: Optional[Sequence[Any]] = None,
                   file: str = "<string>",
                   cost: bool = False) -> AnalysisReport:
    """Run the verifier, the shape analysis, and the VCODE lint over one
    program and entry (plus the symbolic cost analysis when ``cost``);
    raises :class:`~repro.errors.AnalysisError` if the verifier or the
    lint finds a hard error."""
    from repro.api import compile_program
    from repro.vcode.compile import compile_transformed

    prog = compile_program(source)
    phases: list[dict[str, Any]] = [
        {"phase": "verify:canonicalize",
         "defs": verify_canonical(prog.canonical), "status": "passed"},
    ]
    arg_types, fun_entries = prog.resolve_entry(entry, list(args), types)
    _mono, tp = prog.prepare(entry, arg_types, fun_entries)
    for phase, ndefs in getattr(tp, "verified_phases", ()):
        phases.append({"phase": phase, "defs": ndefs, "status": "passed"})
    shapes = analyze_shapes(tp)
    vp = compile_transformed(tp)  # raises AnalysisError on lint errors
    findings = tp.vcode[1]
    cost_section: Optional[dict[str, Any]] = None
    if cost:
        cert = prog.cost_certificate(entry, arg_types, fun_entries)
        cost_section = {**cert.analysis.to_json(), "entry": cert.render()}
    return AnalysisReport(
        file=file, entry=entry, phases=phases, shapes=shapes,
        vlint=findings, vlint_functions=len(vp.functions),
        vlint_instructions=vp.instruction_count, cost=cost_section)
