"""The multicore engine behind ``--backend parallel``.

:class:`ParallelEngine` speaks the same applier hook protocol as
:class:`repro.native.engine.NativeEngine` — ``apply_fused`` /
``apply_segmented`` / ``apply_shared_index`` each return a result
bit-identical to the NumPy applier's or ``None`` to fall back — so it
plugs into :class:`repro.vexec.apply.Applier` unchanged and the
differential fuzzer can run it as a fifth backend.

Per engine (one per thread count) the fast path is chosen once:

* one thread is the serial native engine
  (:func:`repro.native.engine.get_engine`) — there is nothing to fan out;
* with an OpenMP-capable toolchain, hooks delegate to
  :class:`_OmpNative`, a :class:`NativeEngine` whose kernels carry one
  ``#pragma omp parallel`` region in which each thread runs the serial
  nest on its slice of the elements (elementwise trees) or on whole
  groups of four segments (trees rooted at a fold — the plain
  reductions/scans are the identity tree);
* otherwise the pure-Python chunked path plans a segment-aligned
  partition (:func:`repro.vector.partition.plan_partition`) and fans the
  chunks out to a thread pool of GIL-releasing NumPy kernel calls.

Both paths preserve the serial fold order *within* every segment, which
is the whole determinism argument: a segment never straddles a chunk or
a thread's piece, so no float addition is ever reassociated
(docs/PARALLEL.md; pinned by ``tests/parallel/test_determinism.py``).

The chunked path is instrumented with the ``parallel.*`` fault sites of
:data:`repro.guard.faults.PARALLEL_FAULT_SITES` — partition, stitch, and
barrier corruption are each caught by an always-on validation raising a
stage-named :class:`~repro.errors.InvariantError` — and reports
``parallel`` obs counters (per-op accounting plus ``chunks``,
``imbalance_x1000``, ``barrier_wait``).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Optional

import numpy as np

from ..errors import EvalError, InvariantError, VectorError
from ..guard import faults as _flt
from ..guard import runtime as _guard
from ..obs import runtime as _obs
from ..native import toolchain
from ..native.codegen import SEGMENTED_OPS, plain_fold, split_fold
from ..native.engine import (
    NativeEngine, _DTYPES, _STRICT_REDUCE, _frame_result, _scalar_kind,
    get_engine,
)
from ..vector import segments as S
from ..vector.nested import NestedVector
from ..vector.partition import ChunkPlan, imbalance, plan_partition
from ..vector.segments import INT_DTYPE

__all__ = ["MIN_PARALLEL", "ParallelEngine", "get_parallel_engine",
           "pick_threads", "reset_engines", "set_default_threads",
           "default_threads"]

#: Below this many flat elements the chunked path declines (returns None)
#: and the serial NumPy kernel serves the call — thread dispatch overhead
#: would swamp any speedup.  Module-level so tests can lower it to force
#: chunking on small inputs.
MIN_PARALLEL = 2048


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


class ParallelEngine:
    """Multicore applier hook for one fixed thread count.

    ``native`` is the delegate engine — :class:`_OmpNative`, or the
    serial :class:`NativeEngine` at one thread (None on machines without
    the toolchain — or in tests that pin the chunked path).  Every hook
    returns None for inputs the parallel paths do not
    cover (threads < 2, tiny vectors, exotic kinds); the caller's NumPy
    path then serves the call, exactly like the native engine's
    fallback contract.
    """

    def __init__(self, threads: int, native: Optional[NativeEngine] = None):
        self.threads = max(1, int(threads))
        self._native = native
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()

    # -- dispatch plumbing -------------------------------------------------

    def _executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.threads,
                    thread_name_prefix="repro-parallel")
            return self._pool

    def _run_chunks(self, tasks: list) -> list:
        """Run one thunk per chunk on the pool; a barrier joins them all
        before any result is read.  Deterministic error reporting: after
        the barrier, the *earliest chunk's* exception is re-raised, so a
        failing program fails identically at every thread count."""
        flags = np.zeros(len(tasks), dtype=INT_DTYPE)
        results: list = [None] * len(tasks)
        errors: list = [None] * len(tasks)

        def run_one(i: int, fn) -> None:
            try:
                results[i] = fn()
            except BaseException as exc:  # re-raised in chunk order below
                errors[i] = exc
            flags[i] = 1

        ex = self._executor()
        futures = [ex.submit(run_one, i, fn) for i, fn in enumerate(tasks)]
        waited = sum(1 for f in futures if not f.done())
        wait(futures)
        p = _obs.PROFILER
        if p is not None:
            p.count("parallel", "barrier_wait", frame_len=len(tasks),
                    elements=waited)
        if _flt.INJECTOR is not None:
            _flt.visit("parallel.dispatch.lost-barrier", [flags])
        if bool(np.any(flags != 1)):
            missing = np.flatnonzero(flags != 1)
            raise InvariantError(
                "parallel.barrier",
                f"join barrier lost {missing.size} of {len(tasks)} "
                f"workers (chunks {missing.tolist()})")
        for exc in errors:
            if exc is not None:
                raise exc
        return results

    def _check_stitch(self, what: str, got: np.ndarray,
                      want: np.ndarray) -> None:
        """Verify every chunk contributed exactly its planned share (the
        ``parallel.stitch.torn-chunk`` site corrupts ``got`` to prove
        containment)."""
        if _flt.INJECTOR is not None:
            _flt.visit("parallel.stitch.torn-chunk", [got])
        if got.size != want.size or bool(np.any(got != want)):
            raise InvariantError(
                "parallel.stitch",
                f"{what}: chunk result lengths {got.tolist()} != planned "
                f"{want.tolist()}")

    def _account(self, op: str, n: int, plan: ChunkPlan, args: tuple,
                 result: NestedVector) -> None:
        """Profile one chunked invocation into the ``parallel`` layer
        (same element/byte accounting as the native layer) plus the
        partition-shape counters, then fire the guard's kernel-boundary
        hook once — exactly as the serial kernel would."""
        p = _obs.PROFILER
        if p is not None:
            from ..vector.ops import value_nbytes, value_size
            elems = value_size(result)
            nb = value_nbytes(result)
            for a in args:
                if isinstance(a, NestedVector):
                    elems += value_size(a)
                    nb += value_nbytes(a)
            p.count("parallel", op, n, elems, nb)
            p.count("parallel", "chunks", frame_len=plan.parts,
                    elements=int(np.count_nonzero(plan.sizes())))
            p.count("parallel", "imbalance_x1000",
                    frame_len=int(round(imbalance(plan) * 1000)))
        g = _guard.GUARD
        if g is not None:
            g.after_kernel(op, n, result)

    # -- fused trees: elementwise, or rooted at a segmented fold -----------

    def apply_fused(self, name: str, tree, flat: list, raw: list,
                    n: int) -> Optional[NestedVector]:
        """Evaluate fused op ``name`` across chunks (or OpenMP threads),
        or return None to fall back.

        An elementwise tree needs no segment alignment: each worker
        evaluates the whole tree over its slice of every vector leaf
        (depth-0 leaves stay scalar, NumPy broadcasts them) directly into
        its slice of the preallocated output.  Under a fold root each
        chunk owns whole segments, so a worker's call of the *same*
        serial NumPy kernel over the tree of its slice produces exactly
        the serial per-segment results; stitching is pure concatenation
        in segment order."""
        if self._native is not None:
            result = self._native.apply_fused(name, tree, flat, raw, n)
            if result is not None:
                return result
        if self.threads < 2:
            return None
        from ..transform.fuse import eval_tree, result_kind
        fold, body = split_fold(tree)
        leaves: list = []
        kinds: list = []
        first_vec: Optional[NestedVector] = None
        for v, r in zip(flat, raw):
            if v is None:
                kind = _scalar_kind(r)
                if kind is None:
                    return None
                leaves.append(r)
                kinds.append(kind)
            else:
                if not isinstance(v, NestedVector) or v.kind not in _DTYPES \
                        or v.depth != (2 if fold else 1):
                    return None
                if first_vec is None:
                    first_vec = v
                if v.values.size != first_vec.values.size:
                    return None
                leaves.append(v.values)
                kinds.append(v.kind)
        total = n if first_vec is None else int(first_vec.values.size)
        out_kind = result_kind(body, kinds)
        if total < MIN_PARALLEL \
                or (total != n if fold is None else first_vec is None) \
                or out_kind not in (SEGMENTED_OPS[fold] if fold else _DTYPES):
            return None
        vecs = tuple(v for v in flat if v is not None)

        def sliced(lo: int, hi: int) -> np.ndarray:
            # (a tree that reads no vector leaf evaluates to a scalar)
            return np.broadcast_to(
                eval_tree(body, [x[lo:hi] if isinstance(x, np.ndarray)
                                 else x for x in leaves]), (hi - lo,))

        if fold is None:
            plan = plan_partition(n, self.threads)
            out = np.empty(n, dtype=_DTYPES[out_kind])
            b = plan.bounds

            def task(lo: int, hi: int):
                def run():
                    out[lo:hi] = sliced(lo, hi)
                    return hi - lo
                return run

            written = self._run_chunks(
                [task(int(b[i]), int(b[i + 1])) for i in range(plan.parts)])
            self._check_stitch(
                f"fused {name}", np.array(written, dtype=INT_DTYPE),
                plan.sizes())
            result = _frame_result(first_vec, n, out, out_kind)
            self._account(name, n, plan, vecs, result)
            return result
        counts = np.ascontiguousarray(first_vec.descs[1], dtype=INT_DTYPE)
        if fold in _STRICT_REDUCE and counts.size \
                and int(counts.min()) == 0:
            # same message as the serial kernels, raised before dispatch
            raise VectorError(f"{fold} of an empty sequence")
        plan = plan_partition(total, self.threads, counts=counts)
        sb = plan.seg_bounds
        assert sb is not None
        fn, reduction, _kinds = S.FOLDS[fold]
        b = plan.bounds

        def seg_task(i: int):
            e0, e1 = int(b[i]), int(b[i + 1])
            s0, s1 = int(sb[i]), int(sb[i + 1])

            def run():
                return fn(sliced(e0, e1), counts[s0:s1])
            return run

        chunks = self._run_chunks([seg_task(i) for i in range(plan.parts)])
        want = np.diff(sb) if reduction else plan.sizes()
        got = np.array([c.shape[0] for c in chunks], dtype=INT_DTYPE)
        self._check_stitch(f"segmented {name}", got, want)
        values = np.concatenate(chunks) if chunks else \
            np.empty(0, dtype=_DTYPES[out_kind])
        result = NestedVector.splice(values, out_kind, first_vec,
                                     1 if reduction else 2)
        self._account(name, n, plan, vecs, result)
        return result

    # -- segmented reductions and scans ------------------------------------

    def apply_segmented(self, name: str, v) -> Optional[NestedVector]:
        """Run segmented primitive ``name`` across segment-aligned chunks
        (or OpenMP threads), or return None to fall back: the fold of the
        identity tree."""
        if not isinstance(v, NestedVector) or name not in SEGMENTED_OPS:
            return None
        return self.apply_fused(name, plain_fold(name), [v], [v],
                                v.top_length)

    # -- shared-index gather -----------------------------------------------

    def apply_shared_index(self, src, idx) -> Optional[NestedVector]:
        """Chunked section-4.5 shared gather, or None to fall back.

        Bounds checking is chunk-local but error reporting is not: after
        the barrier the earliest out-of-range position across all chunks
        raises the applier's exact ``seq_index`` message, so the first
        offender is identical at every thread count."""
        if self._native is not None:
            result = self._native.apply_shared_index(src, idx)
            if result is not None:
                return result
        if self.threads < 2:
            return None
        if not isinstance(src, NestedVector) or src.depth != 1 \
                or src.kind not in _DTYPES:
            return None
        if not isinstance(idx, NestedVector) or idx.depth != 1 \
                or idx.kind != "int":
            return None
        iv = idx.values
        n = int(iv.size)
        if n < MIN_PARALLEL:
            return None
        sv = src.values
        m = int(src.descs[0][0])
        plan = plan_partition(n, self.threads)
        out = np.empty(n, dtype=_DTYPES[src.kind])
        b = plan.bounds

        def task(lo: int, hi: int):
            def run():
                chunk = iv[lo:hi]
                bad = (chunk < 1) | (chunk > m)
                if bool(bad.any()):
                    pos = int(bad.argmax())
                    return (hi - lo, lo + pos, int(chunk[pos]))
                out[lo:hi] = sv[chunk - 1]
                return (hi - lo, -1, 0)
            return run

        tasks = [task(int(b[i]), int(b[i + 1])) for i in range(plan.parts)]
        reports = self._run_chunks(tasks)
        offenders = [(pos, val) for _, pos, val in reports if pos >= 0]
        if offenders:
            _, bad = min(offenders)
            raise EvalError(f"seq_index: index {bad} out of range")
        self._check_stitch(
            "shared gather",
            np.array([w for w, _, _ in reports], dtype=INT_DTYPE),
            plan.sizes())
        result = idx.with_values(out, src.kind)
        self._account("seq_index_shared", n, plan, (src, idx), result)
        return result

    # -- introspection -----------------------------------------------------

    def status(self) -> dict:
        native = self._native.status() if self._native is not None else None
        return {"threads": self.threads,
                "openmp": isinstance(self._native, _OmpNative),
                "min_parallel": MIN_PARALLEL,
                "native": native}


# ---------------------------------------------------------------------------
# Process-wide engines (one per thread count, like the native singleton)
# ---------------------------------------------------------------------------

_ENGINES: dict[int, ParallelEngine] = {}
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
    can ever be busy; each thread additionally needs on the order of
    ``MIN_PARALLEL`` elements of slack before the chunked path engages
    at all, so the pick is the largest power of two no greater than both
    the CPU count and ``concurrency / (MIN_PARALLEL / 2)``, floored at
    one.  By construction the result never exceeds the predicted
    concurrency (a pinned regression property)."""
    cpus = cpus if cpus is not None else (os.cpu_count() or 1)
    conc = work // max(1, span)
    cap = min(max(1, cpus), max(1, conc // max(1, MIN_PARALLEL // 2)))
    t = 1
    while t * 2 <= cap:
        t *= 2
    return min(t, max(1, conc))


def get_parallel_engine(threads: Optional[int] = None) -> ParallelEngine:
    """The process-wide engine for ``threads`` (default:
    :func:`default_threads`).  Unlike the native singleton this never
    returns None — without any C toolchain the chunked pure-Python path
    still works.  One thread is handed to the serial native engine; the
    OpenMP delegate is attached only when
    :func:`repro.native.toolchain.openmp_available` says the probe
    compiled."""
    t = max(1, int(threads if threads is not None else default_threads()))
    with _ENGINES_LOCK:
        eng = _ENGINES.get(t)
        if eng is None:
            native = None
            if toolchain.available():
                if t == 1:
                    native = get_engine()
                elif toolchain.openmp_available():
                    native = _OmpNative(t)
            eng = ParallelEngine(t, native=native)
            _ENGINES[t] = eng
        return eng


def reset_engines() -> None:
    """Drop every cached engine (tests only — pair with
    :func:`repro.native.toolchain.reset` when simulating machines)."""
    with _ENGINES_LOCK:
        for eng in _ENGINES.values():
            if eng._pool is not None:
                eng._pool.shutdown(wait=False)
        _ENGINES.clear()
