"""The engine behind ``--backend parallel``: OpenMP lowerings of the
native kernels.

Parallelism is a lowering of the same loop, not a second runtime.  For
``t >= 2`` threads on a toolchain that can build OpenMP shared objects,
:func:`get_parallel_engine` returns :class:`_OmpNative`, a
:class:`~repro.native.engine.NativeEngine` whose kernels carry one
``#pragma omp parallel`` region in which each thread runs the serial nest
on its slice of the elements (elementwise trees) or on whole groups of
four segments (trees rooted at a fold — the plain reductions/scans are
the identity tree).  Otherwise — one thread, or no OpenMP — it returns
the serial native engine (:func:`repro.native.engine.get_engine`), which
is None, i.e. the NumPy applier, on a host without a C toolchain.

A segment never straddles two threads, so every segment folds in its
serial order and no float operation is reassociated: the results are the
serial native bits at every thread count (docs/PARALLEL.md; pinned by
``tests/parallel/test_determinism.py``).
"""

from __future__ import annotations

import os
import threading
from typing import Optional

from ..native import toolchain
from ..native.engine import NativeEngine, get_engine

__all__ = ["get_parallel_engine", "pick_threads", "reset_engines",
           "set_default_threads", "default_threads"]

#: Elements of predicted concurrency each thread needs before
#: :func:`pick_threads` adds it.  A fixed guess at the cost of a thread
#: hand-off; ROADMAP item 6(c) re-derives it from the cost model.
_THREAD_WORK_FLOOR = 1024


class _OmpNative(NativeEngine):
    """A :class:`NativeEngine` whose emitted kernels are OpenMP-parallel.

    The two class seams do all the work: ``_omp_threads`` makes codegen
    emit the ``#pragma omp parallel`` variants (thread count baked into
    the source, hence into the cache key), and ``_extra_cflags`` adds
    ``-fopenmp`` to both the compile command and the key.  Everything
    else — planning, hoisting, guard/obs accounting, strict-reduce
    errors — is inherited unchanged, which is why the OpenMP path is
    bit-identical to serial native by construction.

    Idle OpenMP threads sleep rather than spin: libgomp reads
    ``OMP_WAIT_POLICY`` once, when the first ``-fopenmp`` kernel is
    loaded, so the constructor defaults it to ``passive`` (an explicit
    setting wins).  A kernel call is a short parallel region between
    stretches of Python on the calling thread; under the active default
    a team the scheduler has put on the caller's CPU spins there and
    costs a tick per region (16 ms against 1.6 ms a call at 2 threads on
    2 CPUs, docs/PARALLEL.md).
    """

    _extra_cflags = ("-fopenmp",)

    def __init__(self, threads: int, cache=None):
        super().__init__(cache=cache)
        self._omp_threads = int(threads)
        os.environ.setdefault("OMP_WAIT_POLICY", "passive")


# ---------------------------------------------------------------------------
# Process-wide engines (one per thread count, like the native singleton)
# ---------------------------------------------------------------------------

_ENGINES: dict[int, _OmpNative] = {}
_ENGINES_LOCK = threading.Lock()
_DEFAULT_THREADS: Optional[int] = None


def set_default_threads(n: Optional[int]) -> None:
    """Set the process default for ``--backend parallel`` runs that do not
    name a thread count (the CLI's ``--threads`` lands here so serve and
    fuzz flows pick it up); None restores auto-detection."""
    global _DEFAULT_THREADS
    _DEFAULT_THREADS = None if n is None else max(1, int(n))


def default_threads() -> int:
    """The thread count used when a run does not specify one: the
    :func:`set_default_threads` override, else ``$REPRO_THREADS``, else
    the machine's CPU count."""
    if _DEFAULT_THREADS is not None:
        return _DEFAULT_THREADS
    env = os.environ.get("REPRO_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def pick_threads(work: int, span: int, cpus: Optional[int] = None) -> int:
    """Thread count for ``--threads auto``, from predicted concurrency.

    The available concurrency ``work / span`` bounds how many threads
    can ever be busy, and each thread must have ``_THREAD_WORK_FLOOR``
    of it to itself, so the pick is the largest power of two no greater
    than both the CPU count and ``concurrency / _THREAD_WORK_FLOOR``,
    floored at one.  By construction the result never exceeds the
    predicted concurrency (a pinned regression property)."""
    cpus = cpus if cpus is not None else (os.cpu_count() or 1)
    conc = work // max(1, span)
    cap = min(max(1, cpus), max(1, conc // _THREAD_WORK_FLOOR))
    t = 1
    while t * 2 <= cap:
        t *= 2
    return min(t, max(1, conc))


def get_parallel_engine(threads: Optional[int] = None
                        ) -> Optional[NativeEngine]:
    """The applier hook for ``threads`` (default: :func:`default_threads`):
    the process-wide :class:`_OmpNative` of that count when ``threads >=
    2`` and :func:`repro.native.toolchain.openmp_available`, else the
    serial native engine — None (plain NumPy) without a C toolchain."""
    t = max(1, int(threads if threads is not None else default_threads()))
    if t < 2 or not toolchain.openmp_available():
        return get_engine()
    with _ENGINES_LOCK:
        eng = _ENGINES.get(t)
        if eng is None:
            eng = _ENGINES[t] = _OmpNative(t)
        return eng


def reset_engines() -> None:
    """Drop every cached OpenMP engine (tests only — pair with
    :func:`repro.native.toolchain.reset` and
    :func:`repro.native.engine.reset_engine` when simulating machines)."""
    with _ENGINES_LOCK:
        _ENGINES.clear()
