"""Operation classes and a communication-aware machine model.

The basic :class:`~repro.machine.simulator.VectorMachine` charges every
vector op ``latency + ceil(n/P)``.  Real machines distinguish op classes by
their communication pattern — the concern that originally drove flat
data-parallel languages to regular layouts (paper section 1: "an effort to
predict and minimize communication requirements").  This module classifies
every op the back ends emit and provides :class:`CommMachine`, which scales
each op's element cost by a per-class factor:

==============  ===========================================  =============
class           ops                                          pattern
==============  ===========================================  =============
elementwise     add, mul, comparisons, not, ...              none (local)
scan_reduce     sum, maxval, plus_scan, any, ...             tree/scan
gather_scatter  seq_index, permute, restrict, combine, ...   irregular
replicate       dist, broadcast of invariant arguments       one-to-many
structure       length, flatten, extract-side descriptor op  descriptors
==============  ===========================================  =============

A primitive's class is its catalog row's (``Builtin.op_class`` in
:mod:`repro.lang.builtins`); this module names only the trace entries
that are not primitives.  A fused region ``__fused<k>`` has the class of
its tree's root in the program's
:class:`~repro.transform.fuse.FusionRegistry`: elementwise, or
scan_reduce under a segmented fold.

The class mix of a trace (:func:`classify_trace`) shows *where* a flattened
program spends its machine time — the analysis the paper's CVL targets did
by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.lang import builtins as B

#: the class of each trace entry that is not a primitive
#: (``__tuple_extract_`` stands for every ``__tuple_extract_<k>``)
_TRACE_NAMES = {"replicate": "replicate", "any": "scan_reduce",
                **dict.fromkeys(("seq_cons", "__seq_cons", "__tuple_cons",
                                 "__tuple_extract_", "apply_frame"),
                                "gather_scatter")}


def classify(op: str, fusion=None) -> str:
    """Op class of one trace entry: a primitive's catalog row, a fused
    region's root when ``fusion`` (the program's registry) holds it, a
    non-primitive trace name's; anything else counts as gather_scatter,
    the conservative choice."""
    if fusion is not None and op in fusion:
        op = fusion.trees[op][1]    # the root: a primitive or a fold
    row = B.lookup(op)
    if row is not None:
        return row.op_class
    return _TRACE_NAMES.get(op.rstrip("0123456789"), "gather_scatter")


@dataclass
class ClassMix:
    """Aggregate (steps, work) per op class for one trace."""

    steps: dict[str, int] = field(default_factory=dict)
    work: dict[str, int] = field(default_factory=dict)

    @property
    def total_work(self) -> int:
        return sum(self.work.values())

    def work_fraction(self, cls: str) -> float:
        t = self.total_work
        return self.work.get(cls, 0) / t if t else 0.0

    def __str__(self) -> str:
        rows = []
        for cls in sorted(self.work, key=self.work.get, reverse=True):
            rows.append(f"{cls:>15}: steps={self.steps[cls]:>6} "
                        f"work={self.work[cls]:>10} "
                        f"({self.work_fraction(cls):6.1%})")
        return "\n".join(rows)


def classify_trace(trace: Iterable[tuple[str, int]],
                   fusion=None) -> ClassMix:
    """Group a VCODE trace by op class (``fusion``: the registry of the
    program that made it, so its fused regions are classified)."""
    mix = ClassMix()
    for op, n in trace:
        cls = classify(op, fusion)
        mix.steps[cls] = mix.steps.get(cls, 0) + 1
        mix.work[cls] = mix.work.get(cls, 0) + max(0, int(n))
    return mix


#: Default per-class element-cost factors for a distributed-memory machine:
#: local arithmetic is cheap, tree reductions pay log-ish overhead folded
#: into a constant factor, irregular communication dominates.
DEFAULT_FACTORS = {
    "elementwise": 1.0,
    "structure": 1.0,
    "scan_reduce": 2.0,
    "replicate": 3.0,
    "gather_scatter": 4.0,
}


@dataclass
class CommMachine:
    """P processors with per-op-class communication factors.

    A length-n op of class c costs ``latency + factor[c] * ceil(n/P)``
    cycles.  With all factors 1 this degenerates to
    :class:`~repro.machine.simulator.VectorMachine`.
    """

    processors: int = 16
    latency: int = 2
    factors: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_FACTORS))

    def run_trace(self, trace: Iterable[tuple[str, int]], fusion=None):
        """Cycles of a trace; ``fusion`` is the registry of the program
        that made it, as for :func:`classify_trace`."""
        from repro.machine.simulator import MachineReport
        if self.processors < 1:
            raise ValueError("need at least one processor")
        cycles = 0.0
        work = 0
        steps = 0
        for op, n in trace:
            n = max(0, int(n))
            f = self.factors.get(classify(op, fusion), 1.0)
            cycles += self.latency + f * (-(-n // self.processors))
            work += n
            steps += 1
        return MachineReport(processors=self.processors, latency=self.latency,
                             cycles=int(round(cycles)), steps=steps, work=work)


def top_ops(trace: Iterable[tuple[str, int]], k: int = 10) -> list[tuple[str, int, int]]:
    """The k ops with the most total work: (op, steps, work), sorted."""
    steps: dict[str, int] = {}
    work: dict[str, int] = {}
    for op, n in trace:
        steps[op] = steps.get(op, 0) + 1
        work[op] = work.get(op, 0) + max(0, int(n))
    ranked = sorted(work, key=work.get, reverse=True)[:k]
    return [(op, steps[op], work[op]) for op in ranked]
