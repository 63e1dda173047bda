"""Static analysis over the transformation pipeline's intermediate forms.

Three cooperating passes (see docs/ANALYSIS.md):

* :mod:`repro.analysis.verify` — the phase-boundary IR verifier.  After
  every transformation phase (canonicalize, eliminate, optimize,
  simplify, fuse) the whole program is re-checked against that phase's
  postconditions; a violation raises a stage-named
  :class:`~repro.errors.AnalysisError` carrying a pretty-printed minimal
  offending subterm.

* :mod:`repro.analysis.shapes` — shape classes.  Lists every primitive
  application with its class from the catalog: *static* (result shape
  valid by construction from valid arguments) or *runtime* (descriptor
  arithmetic only checkable on concrete data), and the guard check sites
  ``check="static"`` skips.

* :mod:`repro.analysis.vlint` — a lint over compiled VCODE: register
  discipline (use before definition), control flow (jump targets,
  return on every path), call arity, and dead vector results.

* :mod:`repro.analysis.cost` — symbolic work/span/memory cost analysis.
  An abstract interpretation over total-size polynomials assigns every
  transformed definition sound upper bounds ``work(n, …)``,
  ``span(n, …)``, ``peak_mem(n, …)`` in named input-size variables
  (widening to a declared ``unbounded`` verdict for data-dependent
  recursion), and :class:`~repro.analysis.cost.CostCertificate` turns
  an entry's bounds into concrete budget predictions.

:func:`analyze_source` (in :mod:`repro.analysis.report`) runs them all
and builds the ``analysis.json`` report behind ``repro analyze``.
"""

from repro.analysis.cost import (
    CostAnalysis,
    CostCertificate,
    analyze_cost,
    cost_certificate_for,
)
from repro.analysis.report import AnalysisReport, analyze_source
from repro.analysis.shapes import ShapeAnalysis, analyze_shapes
from repro.analysis.verify import verify_canonical, verify_def, verify_transformed
from repro.analysis.vlint import LintResult, lint_program

__all__ = [
    "AnalysisReport",
    "CostAnalysis",
    "CostCertificate",
    "LintResult",
    "ShapeAnalysis",
    "analyze_cost",
    "analyze_shapes",
    "analyze_source",
    "cost_certificate_for",
    "lint_program",
    "verify_canonical",
    "verify_def",
    "verify_transformed",
]
