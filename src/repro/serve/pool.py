"""Fault-tolerant multi-process serving: the supervised worker pool.

:class:`WorkerPool` speaks the same API as
:class:`~repro.serve.batcher.BatchExecutor` (``submit`` → ``ServeFuture``,
``run_many``, ``close``, a context manager) but executes requests in **N
worker processes**, so a crash — a segfaulting native kernel, an OOM
kill, a wedged C call — takes down one worker, not the server.  The
moving parts:

* **Sharding.**  Requests are placed on workers by consistent hash of
  their batch key (:class:`~repro.serve.policy.HashRing`), so one program
  key always lands on the same worker and its :class:`CompileCache` and
  native-kernel handles stay hot.  Budgeted requests (no batch key)
  spread by request id.
* **Dispatch.**  One dispatcher thread per worker coalesces same-key
  pending requests into segment-batched jobs (the batcher's rules) and
  keeps at most one job in flight per worker.  Jobs are pre-pickled in
  the parent so a non-picklable argument fails *that* request with a
  typed error instead of wedging a queue feeder thread.
* **Supervision.**  Every worker heartbeats from a side thread; the
  :class:`~repro.serve.supervisor.Supervisor` kills-and-respawns workers
  that die, stop heartbeating, or overrun a request deadline — with
  exponential, jittered respawn backoff.  In-flight requests on a dead
  worker are **requeued** (bounded, jittered
  :class:`~repro.serve.policy.RetryPolicy`; idempotent-only — budgeted
  requests never retry, a second run would charge the budget twice) or
  **failed** with :class:`~repro.errors.WorkerCrashError` carrying their
  request ids.
* **Integrity.**  Every response payload travels with an adler32
  checksum; a corrupt payload (the ``pool.worker.poisoned-response``
  chaos site) is detected in the parent, the worker is killed, and the
  request is retried or failed typed — a poisoned worker can never
  complete a future with garbage.
* **Degradation.**  The native tier (the thread executor's
  :class:`~repro.serve.policy.TierPolicy`) is guarded per batch key by a
  half-open :class:`~repro.serve.policy.CircuitBreaker` (K consecutive
  native failures demote the key to the vector back end until a cooldown
  probe succeeds), and ``submit`` sheds load with
  :class:`~repro.errors.ResourceLimitError` when the queue is saturated
  or fewer than ``min_healthy`` workers are up.
* **Chaos.**  A :class:`~repro.guard.faults.ChaosSpec` pickled into every
  worker fires the process-level fault registry
  (:data:`~repro.guard.faults.PROCESS_FAULT_SITES`) deterministically per
  request — the substrate of ``repro serve --chaos`` and
  ``tools/chaos_smoke.py``.

Observability counters (zero-overhead-when-off): ``serve.worker_restart``,
``serve.retry``, ``serve.breaker_open``, ``serve.shed``.  See
docs/RELIABILITY.md for the supervision tree and the containment
contract.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing as mp
import os
import pickle
import queue as _queue
import random
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.errors import (
    NativeCompileError, ReproError, ResourceLimitError, WorkerCrashError,
)
from repro.guard.faults import ChaosSpec
from repro.guard.runtime import Budget
from repro.obs import runtime as _obs
from repro.serve.batcher import (
    ServeFuture, _coalesce, _name_request, _Request,
)
from repro.serve.cache import CompileCache
from repro.serve.policy import HashRing, RetryPolicy, TierPolicy
from repro.serve.supervisor import Supervisor, WorkerHandle
from repro.transform.pipeline import TransformOptions

__all__ = ["PoolConfig", "PoolStats", "WorkerPool"]


@dataclass(frozen=True)
class PoolConfig:
    """Tunables for one :class:`WorkerPool`."""

    workers: int = 2             #: worker processes
    max_batch: int = 64          #: largest coalesced group per vector pass
    max_queue: int = 1024        #: bounded pending depth (backpressure)
    backend: str = "vector"      #: default back end for requests
    check: bool = False          #: default strict-checking flag
    cache_capacity: int = 128    #: LRU slots in each worker's compile cache
    #: tiered compilation, as in :class:`~repro.serve.batcher.ServeConfig`
    #: — but the pool's native tier is breaker-guarded by default.
    native_after: int = 3
    #: consecutive native failures that open a key's circuit breaker.
    breaker_failures: int = 3
    #: open-breaker cooldown before one half-open probe re-tries the
    #: native tier (None = permanent demotion).
    breaker_cooldown_s: Optional[float] = 5.0
    #: retry policy for requests orphaned by a worker crash; ``None``
    #: disables retrying (every victim fails with
    #: :class:`~repro.errors.WorkerCrashError`).  Budgeted requests are
    #: never retried regardless.
    retry: Optional[RetryPolicy] = RetryPolicy()
    #: ``submit`` sheds (``ResourceLimitError("healthy-workers", ...)``)
    #: while fewer than this many workers are up.
    min_healthy: int = 1
    heartbeat_s: float = 0.2             #: worker heartbeat period
    heartbeat_timeout_s: float = 2.0     #: silence that counts as wedged
    supervise_s: float = 0.05            #: supervisor health-check period
    #: slack past a request deadline before the supervisor kills the
    #: worker running it (lets near-deadline finishes land).
    deadline_grace_s: float = 0.25
    respawn_backoff_s: float = 0.05      #: first respawn delay
    respawn_backoff_max_s: float = 2.0   #: respawn delay ceiling
    respawn_jitter: float = 0.25         #: ± fraction on respawn delays
    backoff_reset_s: float = 5.0         #: stable uptime that clears backoff
    start_timeout_s: float = 60.0        #: pool-startup deadline
    #: multiprocessing start method; ``None`` picks ``forkserver`` when
    #: available (``fork`` is unsafe from a threaded parent) else
    #: ``spawn``.
    start_method: Optional[str] = None
    #: deterministic process-fault injection, pickled into every worker.
    chaos: Optional[ChaosSpec] = None


@dataclass
class PoolStats:
    """Always-on pool statistics (cheap integer updates under a lock)."""

    requests: int = 0            #: accepted submissions
    responses: int = 0           #: futures completed with a value
    errors: int = 0              #: futures completed with an error
    rejected: int = 0            #: submissions refused (queue full)
    shed: int = 0                #: submissions refused (below quorum)
    expired: int = 0             #: deadline failures (queued or killed)
    retries: int = 0             #: crash victims requeued for another run
    restarts: int = 0            #: worker kill-and-respawn cycles
    batches: int = 0             #: coalesced jobs dispatched
    batched_requests: int = 0    #: requests inside those jobs
    singles: int = 0             #: requests dispatched alone
    fallbacks: int = 0           #: batches decomposed in-worker after a failure
    max_batch: int = 0           #: largest job dispatched
    max_queue_depth: int = 0     #: high-water mark of pending depth
    promotions: int = 0          #: batch keys promoted to the native tier
    demotions: int = 0           #: breaker trips demoting a promoted key
    crashes: dict = field(default_factory=dict)  #: crash reason -> count

    def snapshot(self) -> dict:
        d = {k: getattr(self, k) for k in (
            "requests", "responses", "errors", "rejected", "shed",
            "expired", "retries", "restarts", "batches", "batched_requests",
            "singles", "fallbacks", "max_batch", "max_queue_depth",
            "promotions", "demotions")}
        d["crashes"] = dict(self.crashes)
        return d


class _PoolRequest(_Request):
    """One unit of work tracked by the parent."""

    __slots__ = ("shard", "attempts", "tiered", "lead")

    def __init__(self, *args):
        super().__init__(*args)
        self.shard = 0
        self.attempts = 0        #: completed or in-flight executions
        self.tiered = False      #: dispatched on a promoted (native) tier
        self.lead = False        #: first request of its dispatched job


# ---------------------------------------------------------------------------
# Worker side (runs in the child process)
# ---------------------------------------------------------------------------

_ABORT_EXIT = 70   # chaos worker-abort exit status (recognizable in tests)


def _encode_error(e: BaseException) -> tuple:
    """``(class name, message, attrs)`` — enough to rebuild the error in
    the parent with its class identity and attributes intact (custom
    ``__init__`` signatures make repro errors non-picklable as-is)."""
    try:
        attrs = dict(e.__dict__)
        pickle.dumps(attrs)
    except Exception:
        attrs = {}
    return (type(e).__name__, str(e), attrs)


def _decode_error(tup: tuple) -> BaseException:
    """Rebuild a worker-side error in the parent (see
    :func:`_encode_error`); unknown classes degrade to
    :class:`~repro.errors.ReproError`."""
    import builtins

    import repro.errors as _errors
    clsname, msg, attrs = tup
    cls = getattr(_errors, clsname, None)
    if cls is None:
        cls = getattr(builtins, clsname, None)
    if not (isinstance(cls, type) and issubclass(cls, BaseException)):
        return ReproError(msg)
    inst = cls.__new__(cls)
    Exception.__init__(inst, msg)
    try:
        inst.__dict__.update(attrs)
    except Exception:
        pass
    return inst


def _worker_main(wid: int, gen: int, req_q, resp_q, wcfg: dict) -> None:
    """Entry point of one worker process.

    Owns a private :class:`CompileCache`; executes pre-pickled jobs from
    ``req_q``; answers on the shared ``resp_q`` with checksummed
    payloads.  A side thread heartbeats every ``heartbeat_s`` (so a
    GIL-holding compute keeps beating, while a stuck C call — or the
    chaos stall site — goes silent and earns a supervisor kill).
    """
    chaos: Optional[ChaosSpec] = wcfg.get("chaos")
    state = {"stall_until": 0.0}
    stop_hb = threading.Event()

    def beat() -> None:
        while not stop_hb.wait(wcfg.get("heartbeat_s", 0.2)):
            if time.monotonic() >= state["stall_until"]:
                try:
                    resp_q.put(("hb", wid, gen))
                except Exception:
                    return

    threading.Thread(target=beat, name="repro-pool-hb", daemon=True).start()
    cache = CompileCache(wcfg.get("cache_capacity", 128))
    resp_q.put(("ready", wid, gen, os.getpid()))
    try:
        while True:
            msg = req_q.get()
            if msg is None or msg[0] == "stop":
                break
            job = pickle.loads(msg[1])
            _run_job(cache, job, wid, gen, resp_q, chaos, state)
    finally:
        stop_hb.set()
        try:
            resp_q.put(("bye", wid, gen))
        except Exception:
            pass


def _run_job(cache: CompileCache, job: dict, wid: int, gen: int, resp_q,
             chaos: Optional[ChaosSpec], state: dict) -> None:
    items: list = job["items"]            # [(rid, args), ...]
    rid0 = items[0][0]
    flags: dict = {}

    def send(rid: str, ok: bool, value: Any) -> None:
        body = value if ok else _encode_error(value)
        try:
            payload = pickle.dumps(body, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as e:             # unpicklable result: typed error
            ok = False
            payload = pickle.dumps(_encode_error(
                ReproError(f"unpicklable worker result: {e}")))
        crc = zlib.adler32(payload)
        if chaos is not None and ok and \
                chaos.fires("pool.worker.poisoned-response", rid):
            payload = payload[:-1] + bytes([payload[-1] ^ 0xA5])
        resp_q.put(("done", wid, gen, rid, ok,
                    payload, crc, flags if rid == rid0 else {}))

    if chaos is not None:
        if chaos.fires("pool.worker.heartbeat-stall", rid0):
            # wedged, not dead: the request hangs while heartbeats go
            # silent — only the supervisor's heartbeat timeout can tell
            state["stall_until"] = time.monotonic() + chaos.stall_s
            time.sleep(chaos.stall_s)
        if chaos.fires("pool.worker.slow-compile", rid0):
            time.sleep(chaos.slow_s)
        if chaos.fires("pool.worker.abort", rid0):
            os._exit(_ABORT_EXIT)

    try:
        prog = cache.get(job["source"], job["options"], job["use_prelude"])
    except BaseException as e:
        for rid, _ in items:
            send(rid, False, e)
        return

    fname, types, check = job["fname"], job["types"], job["check"]
    budget: Optional[Budget] = job.get("budget")

    def exec_all(b: str) -> list:
        if len(items) > 1:
            return prog.run_batched(fname, [args for _, args in items],
                                    backend=b, types=types, check=check)
        return [prog.run(fname, items[0][1], backend=b, types=types,
                         check=check, budget=budget)]

    backend = job["backend"]
    fallback = job.get("fallback")
    try:
        try:
            results = exec_all(backend)
        except NativeCompileError:
            if fallback is None:
                raise
            # tiering must never surface an error the requested back end
            # would not have raised: demote in-worker, tell the parent
            flags["native_failed"] = True
            results = exec_all(fallback)
    except ReproError as e:
        if len(items) > 1:
            # decompose: errors land on exactly the requests that caused
            # them, never on innocent batchmates
            flags["fallback"] = True
            b = fallback or backend
            for rid, args in items:
                try:
                    v = prog.run(fname, args, backend=b, types=types,
                                 check=check)
                except ResourceLimitError as re:
                    send(rid, False, _name_request(re, rid))
                except BaseException as be:
                    send(rid, False, be)
                else:
                    send(rid, True, v)
            return
        if isinstance(e, ResourceLimitError):
            e = _name_request(e, rid0)
        send(rid0, False, e)
        return
    except BaseException as e:
        for rid, _ in items:
            send(rid, False, e)
        return
    for (rid, _), value in zip(items, results):
        send(rid, True, value)


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

class WorkerPool:
    """Supervised multi-process executor behind the ``BatchExecutor`` API.

    Use as a context manager, or call :meth:`close` when done::

        with WorkerPool(PoolConfig(workers=4)) as pool:
            futs = [pool.submit(SRC, "main", [k]) for k in range(100)]
            results = [f.result() for f in futs]
    """

    def __init__(self, config: Optional[PoolConfig] = None):
        self.config = config or PoolConfig()
        cfg = self.config
        if cfg.workers < 1 or cfg.max_batch < 1 or cfg.max_queue < 1:
            raise ValueError("workers, max_batch and max_queue must be >= 1")
        if not 1 <= cfg.min_healthy <= cfg.workers:
            raise ValueError("min_healthy must be within [1, workers]")
        method = cfg.start_method
        if method is None:
            methods = mp.get_all_start_methods()
            method = "forkserver" if "forkserver" in methods else "spawn"
        self._ctx = mp.get_context(method)
        if method == "forkserver":
            try:      # preload the heavy imports once, so respawns fork fast
                self._ctx.set_forkserver_preload(["repro.serve.pool"])
            except Exception:
                pass
        self.stats = PoolStats()
        self.lock = threading.Lock()
        self._work = threading.Condition(self.lock)
        # One response queue per worker *generation*, pumped into this
        # in-process inbox by a parent-side thread each.  A shared
        # response queue would be wedged for every worker the moment one
        # of them is SIGKILLed while holding the queue's write lock — a
        # dead process never releases it (see _pump).
        self._inbox: _queue.Queue = _queue.Queue()
        self._rid = itertools.count(1)
        self._rng = random.Random(0x5EED)
        self.tier = TierPolicy(cfg.native_after, cfg.breaker_failures,
                               cfg.breaker_cooldown_s, self.stats)
        self._retries: list = []            # heap of (due, seq, request)
        self._retry_seq = itertools.count()
        self.handles = [WorkerHandle(i) for i in range(cfg.workers)]
        self._ring = HashRing(cfg.workers)
        self.closed = False
        self._shutdown = False
        self._collector_stop = False
        for handle in self.handles:
            self._spawn_worker(handle)
        self._collector = threading.Thread(
            target=self._collect, name="repro-pool-collector", daemon=True)
        self._collector.start()
        self._dispatchers = [
            threading.Thread(target=self._dispatch_loop, args=(h,),
                             name=f"repro-pool-dispatch-{h.wid}", daemon=True)
            for h in self.handles]
        for t in self._dispatchers:
            t.start()
        self._supervisor = Supervisor(self)
        self._supervisor.start()
        try:
            self._wait_ready()
        except BaseException:
            self.close(timeout=2.0)
            raise

    # -- public API ------------------------------------------------------

    def submit(self, source: str, fname: str, args: Sequence[Any], *,
               types: Optional[Sequence] = None,
               backend: Optional[str] = None,
               check: Optional[bool] = None,
               budget: Optional[Budget] = None,
               options: Optional[TransformOptions] = None,
               use_prelude: bool = True,
               deadline_s: Optional[float] = None,
               request_id: Optional[str] = None) -> ServeFuture:
        """Enqueue one request; returns its :class:`ServeFuture`.

        Sheds load with ``ResourceLimitError("queue-depth", ...)`` when
        the pending queue is full and ``ResourceLimitError
        ("healthy-workers", ...)`` when the pool is degraded below
        ``min_healthy`` live workers — a degraded pool fails fast instead
        of accumulating work it cannot run.  An unknown back end is a
        ``ValueError``, as in :meth:`BatchExecutor.submit`.
        """
        cfg = self.config
        req = _PoolRequest(
            request_id if request_id is not None else f"p{next(self._rid)}",
            cfg, source, fname, args, types, backend, check, budget,
            options, use_prelude, deadline_s)
        key = req.key()
        req.shard = self._ring.lookup(key if key is not None else req.rid)
        shed = None
        with self._work:
            if self.closed:
                raise RuntimeError("WorkerPool is closed")
            healthy = sum(1 for h in self.handles if h.state == "up")
            depth = sum(len(h.pending) for h in self.handles) \
                + len(self._retries)
            if healthy < cfg.min_healthy:
                self.stats.shed += 1
                shed = ResourceLimitError(
                    "healthy-workers", healthy, cfg.min_healthy,
                    stage="pool:submit", request=req.rid)
            elif depth >= cfg.max_queue:
                self.stats.rejected += 1
                shed = ResourceLimitError(
                    "queue-depth", depth + 1, cfg.max_queue,
                    stage="pool:submit", request=req.rid)
            else:
                self.handles[req.shard].pending.append(req)
                depth += 1
                self.stats.requests += 1
                if depth > self.stats.max_queue_depth:
                    self.stats.max_queue_depth = depth
                self._work.notify_all()
        p = _obs.PROFILER
        if p is not None:
            if shed is not None:
                p.count("serve", "shed", 1, 0, 0)
            else:
                p.count("serve", "queue_depth", depth, 0, 0)
        if shed is not None:
            raise shed
        return req.future

    def run_many(self, source: str, fname: str,
                 argsets: Sequence[Sequence[Any]], **kw) -> list:
        """Submit every argument set, wait for all, return results in
        order (re-raising the first error encountered)."""
        futures = [self.submit(source, fname, args, **kw) for args in argsets]
        return [f.result() for f in futures]

    def queue_depth(self) -> int:
        with self.lock:
            return sum(len(h.pending) for h in self.handles) \
                + len(self._retries)

    def healthy_workers(self) -> int:
        with self.lock:
            return sum(1 for h in self.handles if h.state == "up")

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting work, drain, stop workers, fail leftovers."""
        with self._work:
            if self.closed and self._shutdown:
                return
            self.closed = True
            self._work.notify_all()
        deadline = time.monotonic() + timeout
        with self._work:
            while time.monotonic() < deadline:
                if not self._retries and not any(
                        h.pending or h.inflight for h in self.handles):
                    break
                self._work.wait(0.1)
            self._shutdown = True
            self._work.notify_all()
            handles = list(self.handles)
        self._supervisor.shutdown()
        for h in handles:
            try:
                h.req_q.put(("stop",))
            except Exception:
                pass
        for h in handles:
            proc = h.proc
            if proc is None:
                continue
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
        self._collector_stop = True
        self._supervisor.join(timeout=2.0)
        self._collector.join(timeout=2.0)
        for t in self._dispatchers:
            t.join(timeout=2.0)
        leftovers: list[_PoolRequest] = []
        with self.lock:
            leftovers.extend(r for _, _, r in self._retries)
            self._retries.clear()
            for h in self.handles:
                leftovers.extend(h.pending)
                h.pending.clear()
                leftovers.extend(h.inflight.values())
                h.inflight.clear()
                h.state = "stopped"
        for r in leftovers:
            self._finish(r, error=WorkerCrashError(
                "shutdown", request_ids=[r.rid],
                detail="pool closed with the request unfinished"))
        for h in handles:
            for q in (h.req_q, getattr(h, "resp_q", None)):
                try:
                    q.close()
                    q.cancel_join_thread()
                except Exception:
                    pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- lifecycle internals ---------------------------------------------

    def _spawn_worker(self, handle: WorkerHandle) -> None:
        """(Re)start one worker slot with a fresh generation and a fresh
        request queue (a respawned worker must never replay a stale
        job)."""
        with self.lock:
            if self._shutdown:
                return
            handle.generation += 1
            gen = handle.generation
            handle.state = "starting"
            now = time.monotonic()
            handle.last_hb = now
            handle.started_at = now
            old_req = handle.req_q
            old_resp = getattr(handle, "resp_q", None)
            handle.req_q = self._ctx.Queue()
            handle.resp_q = resp_q = self._ctx.Queue()
        for old in (old_req, old_resp):
            if old is not None:
                try:
                    old.close()
                    old.cancel_join_thread()
                except Exception:
                    pass
        wcfg = {
            "cache_capacity": self.config.cache_capacity,
            "heartbeat_s": self.config.heartbeat_s,
            "chaos": self.config.chaos,
        }
        proc = self._ctx.Process(
            target=_worker_main,
            args=(handle.wid, gen, handle.req_q, resp_q, wcfg),
            name=f"repro-pool-{handle.name}", daemon=True)
        proc.start()
        threading.Thread(
            target=self._pump, args=(handle, gen, resp_q),
            name=f"repro-pool-pump-{handle.wid}.{gen}", daemon=True).start()
        with self.lock:
            handle.proc = proc

    def _pump(self, handle: WorkerHandle, gen: int, resp_q) -> None:
        """Drain one worker generation's response queue into the shared
        in-process inbox.  One pump per generation: if the worker is
        SIGKILLed mid-write its queue may be torn (or its write lock held
        forever by the corpse) — that wedges only this thread, which is
        abandoned when the slot respawns with a fresh queue."""
        while True:
            if self._shutdown or handle.generation != gen:
                return
            try:
                msg = resp_q.get(timeout=0.2)
            except _queue.Empty:
                continue
            except Exception:
                return      # torn queue: the supervisor buries the worker
            self._inbox.put(msg)

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + self.config.start_timeout_s
        with self._work:
            while True:
                up = sum(1 for h in self.handles if h.state == "up")
                if up == len(self.handles):
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RuntimeError(
                        f"worker pool failed to start: {up}/"
                        f"{len(self.handles)} workers up within "
                        f"{self.config.start_timeout_s:.0f}s")
                self._work.wait(min(remaining, 0.1))

    # -- dispatch ---------------------------------------------------------

    def _dispatch_loop(self, handle: WorkerHandle) -> None:
        while True:
            group = None
            with self._work:
                while True:
                    if self._shutdown:
                        return
                    if handle.pending and handle.state == "up" \
                            and not handle.inflight:
                        group = _coalesce(handle.pending,
                                          self.config.max_batch)
                        break
                    self._work.wait(0.25)
            if group:
                try:
                    self._dispatch(handle, group)
                except BaseException as e:   # never kill the dispatcher
                    for r in group:
                        if not r.future.done():
                            self._finish(r, error=e)

    def _dispatch(self, handle: WorkerHandle,
                  group: list[_PoolRequest]) -> None:
        group = [r for r in group if not self._expired(r, "pool:queue")]
        if not group:
            return
        lead = group[0]
        backend = self.tier.choose(lead.batch_key, lead.backend, len(group))
        job = {
            "source": lead.source, "fname": lead.fname,
            "types": lead.types, "check": lead.check,
            "use_prelude": lead.use_prelude, "options": lead.options,
            "backend": backend,
            "fallback": lead.backend if backend != lead.backend else None,
            "items": [(r.rid, r.args) for r in group],
            "budget": lead.budget,
        }
        try:
            blob = pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as e:
            for r in group:
                self._finish(r, error=e)
            return
        with self._work:
            if handle.state != "up":        # died between pop and dispatch
                handle.pending.extendleft(reversed(group))
                return
            tiered = backend != lead.backend
            for r in group:
                r.attempts += 1
                r.tiered = tiered
                r.lead = r is lead
                handle.inflight[r.rid] = r
            handle.dispatched_at = time.monotonic()
            if len(group) > 1:
                self.stats.batches += 1
                self.stats.batched_requests += len(group)
                if len(group) > self.stats.max_batch:
                    self.stats.max_batch = len(group)
            else:
                self.stats.singles += 1
            q = handle.req_q
        try:
            q.put(("job", blob))
        except Exception:
            # request queue torn down mid-respawn: treat this group as
            # crash victims (retry or fail typed)
            with self._work:
                victims = [handle.inflight.pop(r.rid)
                           for r in group if r.rid in handle.inflight]
                self._work.notify_all()
            self._absorb_victims(victims, "exit", handle,
                                 detail="request queue closed")

    # -- response collection ----------------------------------------------

    def _collect(self) -> None:
        while True:
            if self._collector_stop:
                return
            try:
                msg = self._inbox.get(timeout=0.1)
            except _queue.Empty:
                continue
            try:
                self._handle_message(msg)
            except Exception:
                continue                     # never kill the collector

    def _handle_message(self, msg: tuple) -> None:
        kind, wid, gen = msg[0], msg[1], msg[2]
        handle = self.handles[wid]
        if gen != handle.generation:
            return                           # a late message from the dead
        if kind == "ready":
            with self._work:
                if handle.state == "starting":
                    handle.state = "up"
                    now = time.monotonic()
                    handle.last_hb = now
                    handle.started_at = now
                self._work.notify_all()
        elif kind == "hb":
            handle.last_hb = time.monotonic()
        elif kind == "done":
            self._on_done(handle, msg)
        elif kind == "bye":
            with self._work:
                if handle.state in ("starting", "up"):
                    handle.state = "stopped"
                self._work.notify_all()

    def _on_done(self, handle: WorkerHandle, msg: tuple) -> None:
        _, _, _, rid, ok, payload, crc, flags = msg
        with self._work:
            req = handle.inflight.pop(rid, None)
            if req is not None and not handle.inflight:
                self._work.notify_all()
        if req is None:
            return                           # stale response: already failed
        if zlib.adler32(payload) != crc:
            self._absorb_victims([req], "poisoned-response", handle,
                                 detail="response checksum mismatch")
            self._worker_failure(handle, "poisoned-response",
                                 detail="response checksum mismatch")
            return
        body = pickle.loads(payload)
        if req.lead and req.batch_key is not None:
            if flags.get("native_failed"):
                self.tier.failed(req.batch_key)
            elif ok and req.tiered:
                self.tier.succeeded(req.batch_key)
            if flags.get("fallback"):
                with self.lock:
                    self.stats.fallbacks += 1
        if ok:
            self._finish(req, value=body)
        else:
            self._finish(req, error=_decode_error(body))

    # -- failure funnel ----------------------------------------------------

    def _worker_failure(self, handle: WorkerHandle, reason: str,
                        detail: str = "",
                        deadline_victims: Sequence[str] = ()) -> None:
        """The single funnel for a worker death or kill: drain its
        in-flight requests, schedule its respawn with backoff, and
        retry-or-fail the victims.  Idempotent per incident (a handle
        already in backoff is left alone)."""
        with self._work:
            if handle.state not in ("starting", "up"):
                return
            handle.state = "backoff"
            proc = handle.proc
            victims = list(handle.inflight.values())
            handle.inflight.clear()
            delay = self._supervisor.next_backoff(handle)
            handle.respawn_at = time.monotonic() + delay
            handle.restarts += 1
            self.stats.restarts += 1
            self.stats.crashes[reason] = self.stats.crashes.get(reason, 0) + 1
            self._work.notify_all()
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)
        p = _obs.PROFILER
        if p is not None:
            p.count("serve", "worker_restart", 1, 0, 0)
        overrun = set(deadline_victims)
        late = [r for r in victims if r.rid in overrun]
        rest = [r for r in victims if r.rid not in overrun]
        for r in late:
            with self.lock:
                self.stats.expired += 1
            self._finish(r, error=ResourceLimitError(
                "timeout", "deadline overrun in worker",
                f"{r.deadline:.2f}" if r.deadline is not None else "?",
                stage="pool:deadline", request=r.rid))
        self._absorb_victims(rest, reason, handle, detail)

    def _absorb_victims(self, victims: Sequence[_PoolRequest], reason: str,
                        handle: WorkerHandle, detail: str = "") -> None:
        """Retry (bounded, jittered, idempotent-only) or fail each
        request orphaned by a worker incident."""
        retry = self.config.retry
        now = time.monotonic()
        p = _obs.PROFILER
        for r in victims:
            retryable = (retry is not None and r.batch_key is not None
                         and retry.allows(r.attempts))
            if retryable and not self.closed:
                with self._work:
                    self.stats.retries += 1
                    delay = retry.backoff_s(r.attempts, self._rng)
                    heapq.heappush(self._retries,
                                   (now + delay, next(self._retry_seq), r))
                    self._work.notify_all()
                if p is not None:
                    p.count("serve", "retry", 1, 0, 0)
            else:
                self._finish(r, error=WorkerCrashError(
                    reason, worker=handle.name, request_ids=[r.rid],
                    detail=detail))

    def _release_due_retries(self, now: float) -> None:
        """Move due retries back onto their shard's pending queue
        (supervisor tick)."""
        released = []
        with self._work:
            while self._retries and self._retries[0][0] <= now:
                _, _, req = heapq.heappop(self._retries)
                released.append(req)
            for req in released:
                self.handles[req.shard].pending.append(req)
            if released:
                self._work.notify_all()

    def _sweep_deadlines(self, now: float) -> None:
        """Fail pending requests whose deadline passed while queued (a
        worker in backoff must not silently hold its shard's deadlines
        hostage).  Called from the supervisor tick."""
        expired: list[_PoolRequest] = []
        with self.lock:
            for h in self.handles:
                if not h.pending:
                    continue
                keep: list[_PoolRequest] = []
                for r in h.pending:
                    if r.deadline is not None and now > r.deadline:
                        expired.append(r)
                    else:
                        keep.append(r)
                if expired:
                    h.pending.clear()
                    h.pending.extend(keep)
        for r in expired:
            self._expired(r, "pool:queue", now=now)

    def _expired(self, req: _PoolRequest, stage: str,
                 now: Optional[float] = None) -> bool:
        if req.deadline is None:
            return False
        if (now if now is not None else time.monotonic()) <= req.deadline:
            return False
        with self.lock:
            self.stats.expired += 1
        self._finish(req, error=ResourceLimitError(
            "timeout", "deadline passed in queue", f"{req.deadline:.2f}",
            stage=stage, request=req.rid))
        return True

    # -- completion --------------------------------------------------------

    def _finish(self, req: _PoolRequest, value: Any = None,
                error: Optional[BaseException] = None) -> None:
        if req.future.done():
            return
        with self.lock:
            if error is not None:
                self.stats.errors += 1
            else:
                self.stats.responses += 1
        if error is not None:
            req.future._set_error(error)
        else:
            req.future._set_value(value)
