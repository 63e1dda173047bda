"""The native engine at a fixed thread count, and the ``--threads auto``
pick.  ``t = 1`` is the serial kernels, as is every count where the
threaded kernels do not build; without a C toolchain there is no engine
and NumPy runs.  No segment straddles two pieces, so the bits are the
serial native bits at every count (docs/PARALLEL.md).
"""

from __future__ import annotations

from typing import Optional

from ..native.engine import THREAD_FLOOR as _THREAD_WORK_FLOOR
from ..native.engine import (
    NativeEngine, default_threads, get_engine, reset_engine,
)

__all__ = ["get_parallel_engine", "pick_threads", "reset_engines"]


def pick_threads(work: int, span: int, cpus: Optional[int] = None) -> int:
    """Thread count for ``--threads auto``, from predicted concurrency.

    The available concurrency ``work / span`` bounds how many threads
    can ever be busy, and each thread must have the native engine's
    per-call floor ``_THREAD_WORK_FLOOR`` of it to itself, so the pick
    is the largest power of two no greater than both the CPU count
    (:func:`default_threads` unless given) and ``concurrency /
    _THREAD_WORK_FLOOR``, floored at one.  By construction the result
    never exceeds the predicted concurrency (a pinned regression
    property)."""
    cpus = cpus if cpus is not None else default_threads()
    conc = work // max(1, span)
    cap = min(max(1, cpus), max(1, conc // _THREAD_WORK_FLOOR))
    t = 1
    while t * 2 <= cap:
        t *= 2
    return min(t, max(1, conc))


def get_parallel_engine(threads: Optional[int] = None
                        ) -> Optional[NativeEngine]:
    """The process-wide native engine with every call on a team of
    ``threads`` threads (default: :func:`default_threads`) — None (plain
    NumPy) without a C toolchain."""
    engine = get_engine()
    if engine is None:
        return None
    return engine.at_threads(threads if threads is not None
                             else default_threads())


def reset_engines() -> None:
    """Drop the process-wide engine the fixed-count engines are views of
    (tests only — pair with :func:`repro.native.toolchain.reset` when
    simulating machines)."""
    reset_engine()
