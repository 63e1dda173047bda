"""Seeded fuzzing: one loop, a verdict per lane.

``repro.fuzz.gen`` grows random well-typed, total P programs from a seed;
``repro.fuzz.differ`` judges each under one verdict — :class:`Differential`
runs it on the reference interpreter and the vector evaluator (and, asked
for, on ``native`` and ``native@t``) and compares the results,
:class:`CostSoundness` checks the measured interpreter cost against the
static bound — and greedily shrinks every finding to a minimal program.
The CLI front end is ``repro fuzz`` (see docs/RELIABILITY.md).
"""

from repro.fuzz.differ import (
    CostSoundness, CostViolation, Differential, Disagreement, FuzzReport,
    Outcome, Verdict, compare_outcomes, fuzz, run_case, shrink_case,
)
from repro.fuzz.gen import FuzzCase, gen_case

__all__ = [
    "FuzzCase", "gen_case",
    "Verdict", "Differential", "CostSoundness",
    "Outcome", "Disagreement", "CostViolation", "FuzzReport",
    "run_case", "compare_outcomes", "fuzz", "shrink_case",
]
