"""Cycle model of a P-processor machine executing a vector-op trace.

Input: the op-width trace recorded by the VCODE VM (or the evaluator's
observer) — one ``(opname, element_count)`` entry per executed vector
operation.  Each op costs ``latency + ceil(n / processors)`` cycles: all
processors cooperate on each flat vector operation, which is exactly how
CVL-style libraries execute and why the flattened program load-balances
regardless of how irregular the nesting was.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class MachineReport:
    """Results of simulating one trace on one machine configuration."""

    processors: int
    latency: int
    cycles: int          # simulated time T_P
    steps: int           # number of vector ops (vector-model step count)
    work: int            # total elements processed = T_1 with latency 0

    @property
    def speedup_vs_serial(self) -> float:
        """T_1 / T_P against a 1-processor machine with the same latency."""
        t1 = self.steps * self.latency + self.work
        return t1 / self.cycles if self.cycles else 0.0

    @property
    def utilization(self) -> float:
        """Fraction of processor-cycles doing useful element work."""
        return self.work / (self.processors * self.cycles) if self.cycles else 0.0

    def __str__(self) -> str:
        return (f"P={self.processors} cycles={self.cycles} steps={self.steps} "
                f"work={self.work} speedup={self.speedup_vs_serial:.2f} "
                f"util={self.utilization:.2%}")


@dataclass
class VectorMachine:
    """A P-processor machine in the vector model."""

    processors: int = 16
    #: per-vector-op fixed overhead in cycles (instruction issue, sync)
    latency: int = 2

    def run_trace(self, trace: list[tuple[str, int]]) -> MachineReport:
        """Charge every op of the trace; return the aggregate report."""
        if self.processors < 1:
            raise ValueError("need at least one processor")
        cycles = 0
        work = 0
        for _op, n in trace:
            n = max(0, int(n))
            cycles += self.latency + -(-n // self.processors)  # ceil div
            work += n
        return MachineReport(processors=self.processors, latency=self.latency,
                             cycles=cycles, steps=len(trace), work=work)


def sweep_processors(trace: list[tuple[str, int]],
                     processor_counts: list[int],
                     latency: int = 2) -> list[MachineReport]:
    """Simulate one trace across machine sizes (speedup curves)."""
    return [VectorMachine(p, latency).run_trace(trace)
            for p in processor_counts]
