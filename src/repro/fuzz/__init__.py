"""Differential fuzzing of the back ends.

``repro.fuzz.gen`` grows random well-typed, total P programs from a seed;
``repro.fuzz.differ`` runs each program on the reference interpreter and
the vector evaluator (and, asked for, on ``native`` and ``native@t``),
compares the results, and greedily shrinks any disagreement to a minimal
failing program.  The CLI front end
is ``repro fuzz`` (see docs/RELIABILITY.md).
"""

from repro.fuzz.differ import (
    CostFuzzReport, CostViolation, Disagreement, FuzzReport, Outcome,
    compare_outcomes, fuzz, fuzz_cost, run_case, shrink_case,
    shrink_cost_case,
)
from repro.fuzz.gen import FuzzCase, gen_case

__all__ = [
    "FuzzCase", "gen_case",
    "Outcome", "Disagreement", "FuzzReport",
    "CostViolation", "CostFuzzReport",
    "run_case", "compare_outcomes", "fuzz", "shrink_case",
    "fuzz_cost", "shrink_cost_case",
]
