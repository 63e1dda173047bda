"""The profiler: per-kernel counters and phase spans.

A :class:`Profiler` accumulates two kinds of observations while active
(see :mod:`repro.obs.runtime` for activation):

* **counters** — one :class:`Counter` cell per ``(layer, op)`` pair,
  accumulated by :meth:`Profiler.count`.  Layers tag which part of the
  system made the observation (see docs/OBSERVABILITY.md for the exact
  semantics of every field):

  - ``"kernel"``  — depth-1 vector-model kernels (:mod:`repro.vector.ops`);
  - ``"segment"`` — flat segmented CVL-substitute kernels
    (:mod:`repro.vector.segments`), the layer *underneath* the kernels;
  - ``"vm"``      — the op widths the VCODE VM charges to the machine
    model (:mod:`repro.vcode.vm`);
  - ``"native"``  — C kernel executions of the native backend
    (:mod:`repro.native.engine`), serial or threaded at any thread count
    (docs/PARALLEL.md).

  Layers overlap by design: one ``seq_index`` kernel call typically
  performs several ``segment`` observations on its behalf.  Sum within a
  layer, never across layers.

* **spans** — wall-clock phase intervals (parse, typecheck, eliminate,
  fuse, execute, ...) recorded by ``with profiler.span(name): ...``,
  nested by a depth counter.

The profiler itself never imports the pipeline; instrumentation sites
compute their own element/byte figures and push plain integers here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["Counter", "SpanRecord", "Profiler"]


@dataclass
class Counter:
    """Accumulated statistics for one operation within one layer.

    ``calls`` invocations moved ``elements`` leaf elements (inputs read
    plus outputs written) and ``bytes_moved`` bytes (value *and* descriptor
    storage); ``max_frame_len`` is the largest top frame length seen.
    """

    layer: str
    op: str
    calls: int = 0
    elements: int = 0
    bytes_moved: int = 0
    max_frame_len: int = 0

    def to_dict(self) -> dict:
        return {"layer": self.layer, "op": self.op, "calls": self.calls,
                "elements": self.elements, "bytes_moved": self.bytes_moved,
                "max_frame_len": self.max_frame_len}


@dataclass
class SpanRecord:
    """One completed phase span; times are seconds since the profiler was
    created (``perf_counter`` based), ``depth`` the nesting level."""

    name: str
    start: float
    end: float
    depth: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "depth": self.depth,
                "start_us": round(self.start * 1e6, 1),
                "duration_us": round(self.duration * 1e6, 1)}


class _SpanCtx:
    """Context manager recording one span on a profiler."""

    __slots__ = ("_p", "_name", "_start", "_depth")

    def __init__(self, profiler: "Profiler", name: str):
        self._p = profiler
        self._name = name

    def __enter__(self) -> "_SpanCtx":
        self._depth = self._p._span_depth
        self._p._span_depth += 1
        self._start = time.perf_counter() - self._p._t0
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter() - self._p._t0
        self._p._span_depth -= 1
        self._p.spans.append(
            SpanRecord(self._name, self._start, end, self._depth))
        return False


class Profiler:
    """Collects counters and spans; build one, activate it with
    :func:`repro.obs.profiling`, then ask for a
    :class:`~repro.obs.report.ProfileReport`."""

    def __init__(self) -> None:
        self.counters: dict[tuple[str, str], Counter] = {}
        self.spans: list[SpanRecord] = []
        self._span_depth = 0
        self._t0 = time.perf_counter()

    # -- observation --------------------------------------------------------

    def count(self, layer: str, op: str, frame_len: int = 0,
              elements: int = 0, nbytes: int = 0) -> None:
        """Record one invocation of ``op`` within ``layer``."""
        cell = self.counters.get((layer, op))
        if cell is None:
            cell = self.counters[(layer, op)] = Counter(layer, op)
        cell.calls += 1
        cell.elements += elements
        cell.bytes_moved += nbytes
        if frame_len > cell.max_frame_len:
            cell.max_frame_len = frame_len

    def span(self, name: str) -> _SpanCtx:
        """Context manager timing one phase span."""
        return _SpanCtx(self, name)

    # -- aggregation --------------------------------------------------------

    def layer_counters(self, layer: str) -> list[Counter]:
        """This layer's counters, heaviest (by elements, then calls) first."""
        cells = [c for (lay, _op), c in self.counters.items() if lay == layer]
        return sorted(cells, key=lambda c: (-c.elements, -c.calls, c.op))

    def total(self, layer: str, field_name: str) -> int:
        return sum(getattr(c, field_name) for c in self.layer_counters(layer))

    def report(self, **meta) -> "ProfileReport":
        """Freeze the collected data into a :class:`ProfileReport`;
        keyword arguments become the report's ``meta`` mapping."""
        from repro.obs.report import ProfileReport
        return ProfileReport.from_profiler(self, meta)
