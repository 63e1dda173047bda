"""Machine-independent cost accounting for the reference interpreter.

The paper's introduction: a P program "can be simulated sequentially, to
observe its behavior and make measurements of machine-independent
characteristics such as total work and available concurrency."

We use the standard work/span model:

* **work** — total number of elementary operations, with aggregate
  primitives charged their output/input size (``range(1,n)`` costs n,
  ``restrict`` costs the mask length, ...);
* **span** (step complexity) — the length of the critical path, where the
  body evaluations of an iterator count in *parallel* (max, not sum), since
  the iterator is P's sole source of parallelism;
* **available concurrency** = work / span.

The per-primitive work rules live in one shared table,
:data:`COST_RULES`: the interpreter charges ``prim_work`` (the table
evaluated on concrete values) and the static cost analysis
(:mod:`repro.analysis.cost`) evaluates the *same* table symbolically, so
dynamic and static accounting agree by construction
(``tests/analysis/test_cost_table.py`` pins that they never diverge on
the primitive list).  The table holds only how much work a primitive
does; what kind of op it is (elementwise, a reduction or scan, a gather)
is its row of the primitive catalog, :mod:`repro.lang.builtins`, which
the static analysis reads beside this table — the machine model's op
classes (:mod:`repro.machine.opclasses`) come from the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["CostReport", "CostRule", "COST_RULES", "UNIT", "ARG0_LEN",
           "ARGS01_LEN", "RESULT_LEN", "ARG1_SCALAR", "FLAT_ARG0",
           "cost_rule", "prim_work"]


@dataclass
class CostReport:
    """Work/span totals for one evaluation."""

    work: int = 0
    span: int = 0

    @property
    def concurrency(self) -> float:
        """Average available concurrency (work per step)."""
        return self.work / self.span if self.span else 0.0

    def __str__(self) -> str:
        return (f"work={self.work} span={self.span} "
                f"concurrency={self.concurrency:.1f}")


# -- the shared per-primitive work table -------------------------------------

#: How a primitive's work is measured, shared between the interpreter
#: (evaluated on concrete values by :func:`prim_work`) and the static
#: cost analysis (evaluated on symbolic size polynomials).  One
#: application of the primitive costs ``max(1, <measure>)``.
UNIT = "unit"                 #: constant: one elementary operation
ARG0_LEN = "arg0-len"         #: length of the first argument
ARGS01_LEN = "args01-len"     #: length of arg 0 plus length of arg 1
RESULT_LEN = "result-len"     #: length of the constructed result
ARG1_SCALAR = "arg1-scalar"   #: the scalar value of argument 1 (a count)
FLAT_ARG0 = "flat-arg0"       #: total elements one level down in arg 0


@dataclass(frozen=True)
class CostRule:
    """Work measure for one primitive, plus the rationale."""

    measure: str
    why: str


#: Work rule for every primitive the interpreter implements.  Primitives
#: not listed are scalar (unit work).  ``n`` denotes the measured size.
COST_RULES: dict[str, CostRule] = {
    "length": CostRule(UNIT, "reads one descriptor"),
    "range": CostRule(RESULT_LEN, "constructs n values"),
    "range1": CostRule(RESULT_LEN, "constructs n values"),
    "seq_index": CostRule(UNIT, "one offset computation + load"),
    "seq_update": CostRule(ARG0_LEN, "applicative update copies"),
    "restrict": CostRule(ARG0_LEN, "pack touches the whole mask length"),
    "combine": CostRule(ARG0_LEN, "merge touches the whole mask length"),
    "dist": CostRule(ARG1_SCALAR, "replicates the value n times"),
    "concat": CostRule(ARGS01_LEN, "copies both inputs"),
    "flatten": CostRule(FLAT_ARG0, "pools all inner elements"),
    "sum": CostRule(ARG0_LEN, "reduction over n elements"),
    "maxval": CostRule(ARG0_LEN, "reduction over n elements"),
    "minval": CostRule(ARG0_LEN, "reduction over n elements"),
    "anytrue": CostRule(ARG0_LEN, "reduction over n elements"),
    "alltrue": CostRule(ARG0_LEN, "reduction over n elements"),
    "plus_scan": CostRule(ARG0_LEN, "scan over n elements"),
    "max_scan": CostRule(ARG0_LEN, "scan over n elements"),
    "rank": CostRule(ARG0_LEN, "sorting permutation over n elements"),
    "permute": CostRule(ARG0_LEN, "scatter of n elements"),
}

_DEFAULT_RULE = CostRule(UNIT, "scalar primitive")


def cost_rule(name: str) -> CostRule:
    """The work rule for primitive ``name`` (unit work if unlisted)."""
    return COST_RULES.get(name, _DEFAULT_RULE)


def prim_work(name: str, args: list[Any], result: Any) -> int:
    """Work charged for one application of primitive ``name`` — the
    shared :data:`COST_RULES` table evaluated on concrete values."""
    m = cost_rule(name).measure
    if m == UNIT:
        return 1
    if m == RESULT_LEN:
        return max(1, len(result))
    if m == ARG0_LEN:
        return max(1, len(args[0]))
    if m == ARGS01_LEN:
        return max(1, len(args[0]) + len(args[1]))
    if m == ARG1_SCALAR:
        return max(1, args[1])
    if m == FLAT_ARG0:
        return max(1, sum(len(x) for x in args[0]))
    raise AssertionError(f"unknown cost measure {m!r}")
