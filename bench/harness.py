"""Measurement machinery shared by the workloads and the layer probes:
the host-speed reading, the span recorder, the closed-loop phase runner
and the memory reading.  Nothing here imports ``repro``.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Length of one measuring block.  The host speed is read between blocks,
#: so every op has a reading at most this far away.
BLOCK_S = 0.5

#: What one host-speed pass costs on the host the baseline was taken on, in
#: its uncontended state.  It defines the unit of the bounded time metrics:
#: a host-normalised millisecond is a millisecond on a host that runs the
#: pass in HOST_REF_S.  Changing it rescales every baseline.
HOST_REF_S = 0.0070

_HOST_BIG = np.random.default_rng(0).uniform(size=500_000)
_HOST_SMALL = [np.arange(50) for _ in range(60)]


def _host_pass() -> None:
    """Fixed work that calls nothing under ``src/``: interpreter dispatch,
    one streaming NumPy expression and many small NumPy calls."""
    s = 0
    for i in range(100_000):
        s += i * i
    ((_HOST_BIG * 0.5 + 1.0) * _HOST_BIG - 0.25).sum()
    for x in _HOST_SMALL:
        for _ in range(10):
            (x * 3 + 1).cumsum()


def host_factor(passes: int = 3) -> float:
    """Host speed right now: ``HOST_REF_S`` over the fastest of a few
    passes; 1.0 on the reference host, below 1 on a slower one.  A wall
    time multiplied by it is host-normalised (see README, "Host noise")."""
    best = float("inf")
    for _ in range(passes):
        t0 = time.perf_counter()
        _host_pass()
        best = min(best, time.perf_counter() - t0)
    return HOST_REF_S / best


def expect(ok, what: str) -> None:
    """An oracle check that survives ``python -O``."""
    if not ok:
        raise AssertionError(what)


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[min(len(sorted_values) - 1,
                             int(q * len(sorted_values)))]


def median_time(fn, reps: int = 5) -> float:
    """Median wall seconds of ``reps`` calls of ``fn``."""
    return statistics.median(rounds({"fn": fn}, reps)["fn"])


def rounds(fns: dict, reps: int = 5) -> dict[str, list[float]]:
    """Wall seconds of each of ``fns`` in each of ``reps`` rounds.  The
    functions take turns within a round, so a change of host speed hits
    all of them alike and ratios between them stay meaningful."""
    out: dict[str, list[float]] = {k: [] for k in fns}
    for _ in range(reps):
        for k, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            out[k].append(time.perf_counter() - t0)
    return out


# -- spans ------------------------------------------------------------------

class Tracer:
    """In-memory span recorder.  A span is ``[name, start, end, parent,
    op]``; its id is its index.  The layer of a span is the part of its
    name before the first dot."""

    def __init__(self) -> None:
        self.spans: list[list] = []

    def begin(self, name: str, parent=None, op=None) -> int:
        if op is None and parent is not None:
            op = self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), None, parent, op])
        return len(self.spans) - 1

    def end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str, parent=None, op=None):
        sid = self.begin(name, parent, op)
        try:
            yield sid
        finally:
            self.end(sid)

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans
                if s[0] == name and s[2] is not None]

    def layer_shares(self) -> dict[str, float]:
        """Self time of each layer (span minus its children) as a share of
        the root spans' total time."""
        covered = [0.0] * len(self.spans)
        total = 0.0
        for name, start, end, parent, _op in self.spans:
            if end is None:
                continue
            if parent is None:
                total += end - start
            else:
                covered[parent] += end - start
        shares: dict[str, float] = {}
        for (name, start, end, _p, _op), kids in zip(self.spans, covered):
            if end is not None:
                layer = name.split(".", 1)[0]
                shares[layer] = shares.get(layer, 0.0) + (end - start - kids)
        return {k: v / total for k, v in shares.items()} if total else {}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                f.write(json.dumps({"id": sid, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "op": op}) + "\n")


# -- the closed loop ----------------------------------------------------------

@dataclass
class Phase:
    """What one measuring phase saw: ``(op seconds, block seconds, host
    factor)`` per block, wall times as measured, and the op counts.  Every
    statistic is over every op and every second of the phase."""

    blocks: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def lat(self, wall: bool = False) -> list:
        """Ascending op times, host-normalised unless ``wall``."""
        return sorted(t * (1.0 if wall else f)
                      for ops, _s, f in self.blocks for t in ops)

    def seconds(self, wall: bool = False) -> float:
        return sum(s * (1.0 if wall else f) for _ops, s, f in self.blocks)

    def ops_per_s(self, wall: bool = False) -> float:
        """Correct ops per second of the phase."""
        return (self.attempted - self.failed) / self.seconds(wall)

    def host_factor(self) -> float:
        return self.seconds() / self.seconds(wall=True)


def run_phase(w, seconds: float, tracer: Tracer | None = None) -> Phase:
    """Drive workload ``w`` in a closed loop for at least ``seconds``: keep
    ``w.outstanding`` ops in flight from this one thread, issuing the next
    as the oldest returns.  An op's time runs from its issue to its
    verified result.  The loop runs in blocks of BLOCK_S, stretched to a
    whole number of ``w.cycle`` ops (so every block of a workload that
    cycles through unlike ops holds the same mix), with a host-speed
    reading before and after each; a block's factor is the mean of the two.
    The readings are outside the blocks and outside the phase's seconds."""
    ph = Phase()
    cycle = getattr(w, "cycle", 1)
    op = 0
    deadline = time.perf_counter() + seconds
    f0 = host_factor()
    while True:
        window: deque = deque()
        raw: list[float] = []
        b0 = time.perf_counter()
        while True:
            while (len(window) < w.outstanding
                   and (time.perf_counter() < b0 + BLOCK_S or op % cycle)):
                root = tracer.begin("bench.op", None, op) if tracer else None
                t0 = time.perf_counter()
                try:
                    ticket = w.issue(op, tracer, root)
                except Exception:
                    ticket = None
                window.append((t0, root, ticket))
                op += 1
            if not window:
                break
            t0, root, ticket = window.popleft()
            try:
                ok = ticket is not None and w.finish(ticket, tracer, root)
            except Exception:
                ok = False
            raw.append(time.perf_counter() - t0)
            if tracer:
                tracer.end(root)
            ph.attempted += 1
            ph.failed += not ok
        block_s = time.perf_counter() - b0
        f1 = host_factor()
        ph.blocks.append((raw, block_s, (f0 + f1) / 2))
        f0 = f1
        if time.perf_counter() >= deadline:
            return ph


# -- memory --------------------------------------------------------------------

def _descendants(pid: int) -> list[int]:
    kids: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
            kids.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        for k in kids.get(todo.pop(), []):
            out.append(k)
            todo.append(k)
    return out


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of every live
    descendant (pool workers), in MB."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in _descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except (OSError, ValueError):
            pass
    return total_kb / 1024.0
