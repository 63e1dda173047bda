"""Fault-tolerant multi-process serving: the supervised worker pool.

:class:`WorkerPool` *is* the :class:`~repro.serve.batcher.BatchExecutor`
(``submit`` with predicted admission and queue-depth backpressure,
``run_many``, deadline expiry, statistics, the context manager — all
inherited, see :mod:`repro.serve.batcher` for the core) with two things
overridden: **where a request waits** — the pending queue of the worker
its batch key hashes to — and **where a group runs** — a supervised
worker *process* that calls the same
:func:`~repro.serve.batcher.run_group`, so a crash — a segfaulting native
kernel, an OOM kill, a wedged C call — takes down one worker, not the
server.  What the pool adds:

* **Sharding.**  Requests are placed on workers by consistent hash of
  their batch key (:class:`~repro.serve.policy.HashRing`), so one program
  key always lands on the same worker and its :class:`CompileCache`,
  tier tally and native-kernel handles stay hot — budgeted requests
  included: a budget does not change the key.
* **Dispatch.**  One dispatcher thread per worker sleeps on that worker's
  own condition, so work for one shard wakes nobody else, and when the
  worker has nothing in flight takes *everything* its shard has waiting:
  a **frame** — the queue split, in order, into its coalescible groups,
  pickled once in the dispatcher (a non-picklable argument fails *its*
  group with a typed error) and written as one message on the worker's
  one pipe.  The worker runs the groups in order and answers each with
  its own ``done``, every member's answer in it, before it starts the
  next.  One reader thread per worker generation blocks on the pipe and
  completes the futures itself.
* **Supervision.**  A worker's death is end-of-file on its pipe, seen
  by its reader at once; every worker also heartbeats from a side thread,
  and the :class:`~repro.serve.supervisor.Supervisor` kills-and-respawns
  workers that die, stop heartbeating, or overrun a request deadline —
  with exponential, jittered respawn backoff.  Of a dead worker's
  in-flight requests only the first unanswered group can have started:
  it is **requeued** (bounded, jittered
  :class:`~repro.serve.policy.RetryPolicy`; idempotent-only — budgeted
  requests never retry, a second run would charge the budget twice, so a
  budgeted member shares its group's crash exposure and fails typed) or
  **failed** with :class:`~repro.errors.WorkerCrashError` carrying the
  request ids; the groups behind it go back to the queue's front as
  they were, uncharged.
* **Integrity.**  Inside a ``done`` every request's payload is pickled
  and adler32-checksummed on its own; a corrupt payload (the
  ``pool.worker.poisoned-response`` chaos site) is detected in the
  parent before it is unpickled, the worker is killed — with the group
  it has moved on to — and that request is retried or failed typed while
  its batchmates whose checksums hold are delivered: a poisoned worker
  can never complete a future with garbage.  No lock is shared across
  processes, so a worker killed mid-write
  (``pool.worker.torn-response``) leaves a short frame and then
  end-of-file, never a wedged channel.
* **Shedding.**  ``submit`` also refuses work
  (``ResourceLimitError("healthy-workers", ...)``) while fewer than
  ``min_healthy`` workers are up.
* **Chaos.**  A :class:`~repro.guard.faults.ChaosSpec` pickled into every
  worker fires the process-level fault registry
  (:data:`~repro.guard.faults.PROCESS_FAULT_SITES`) deterministically per
  request — the substrate of ``repro serve --chaos`` and
  ``tools/chaos_smoke.py``.

Observability counters (zero-overhead-when-off): ``serve.worker_restart``,
``serve.retry``, ``serve.shed``.  See docs/RELIABILITY.md for the
supervision tree and the containment contract.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import multiprocessing as mp
import os
import pickle
import random
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import ReproError, ResourceLimitError, WorkerCrashError
from repro.guard.faults import ChaosSpec
from repro.obs import runtime as _obs
from repro.serve.batcher import (
    BatchExecutor, ServeConfig, ServeStats, _job, _partition, _Request,
    run_group,
)
from repro.serve.cache import CompileCache
from repro.serve.policy import HashRing, RetryPolicy, TierPolicy
from repro.serve.supervisor import Supervisor, WorkerHandle

__all__ = ["PoolConfig", "PoolStats", "WorkerPool"]

#: ``fork`` is unsafe from a threaded parent
_START_METHOD = "forkserver" \
    if "forkserver" in mp.get_all_start_methods() else "spawn"
_START_TIMEOUT_S = 60.0      # pool-startup deadline


@dataclass(frozen=True)
class PoolConfig(ServeConfig):
    """What one :class:`WorkerPool` can be told on top of
    :class:`~repro.serve.batcher.ServeConfig`."""

    #: worker processes; one dispatcher each, which sends a worker with
    #: nothing in flight everything its shard has waiting, as one frame
    workers: int = 2
    #: retry policy for requests orphaned by a worker crash; ``None``
    #: disables retrying (every victim fails with
    #: :class:`~repro.errors.WorkerCrashError`).  Budgeted requests are
    #: never retried regardless; their unbudgeted batchmates are.
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
    #: deterministic process-fault injection, pickled into every worker.
    chaos: Optional[ChaosSpec] = None


@dataclass
class PoolStats(ServeStats):
    """:class:`~repro.serve.batcher.ServeStats` plus the supervision
    counters."""

    shed: int = 0                #: submissions refused (below quorum)
    retries: int = 0             #: crash victims requeued for another run
    restarts: int = 0            #: worker kill-and-respawn cycles
    frames: int = 0              #: job frames written (groups ride in them)
    crashes: dict = field(default_factory=dict)  #: crash reason -> count


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


def _worker_main(wid: int, gen: int, conn, config: PoolConfig) -> None:
    """Entry point of one worker process.

    Owns a private :class:`CompileCache` and :class:`TierPolicy`; runs
    the groups of each pre-pickled job frame read from ``conn`` (the
    empty frame is stop), in order, through
    :func:`~repro.serve.batcher.run_group`; answers each group on the
    same connection, before it starts the next, with one ``done``
    holding a checksummed payload per request.  A side thread heartbeats
    every ``heartbeat_s``.  Python code lets it run between bytecodes, and
    ``ctypes.CDLL`` releases the GIL for the call, so a worker inside a
    native kernel keeps beating too: only a request deadline reclaims
    it.  What goes silent is a process whose side thread cannot run — the
    chaos stall site stands in for one — and that earns a supervisor kill
    after ``heartbeat_timeout_s``.  The thread shares ``wlock``, a lock of
    this process only, with the main thread, so frames never interleave.
    """
    chaos = config.chaos
    stall_until = 0.0
    stop_hb = threading.Event()
    wlock = threading.Lock()

    def send(*msg) -> None:
        blob = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        with wlock:
            conn.send_bytes(blob)

    def beat() -> None:
        while not stop_hb.wait(config.heartbeat_s):
            if time.monotonic() >= stall_until:
                try:
                    send("hb", wid, gen)
                except Exception:
                    return

    def answer(rid: str, ok: bool, body) -> tuple:
        try:
            payload = pickle.dumps(body if ok else _encode_error(body),
                                   protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as e:             # unpicklable result: typed error
            ok = False
            payload = pickle.dumps(_encode_error(
                ReproError(f"unpicklable worker result: {e}")))
        crc = zlib.adler32(payload)
        if chaos is not None and ok and \
                chaos.fires("pool.worker.poisoned-response", rid):
            payload = payload[:-1] + bytes([payload[-1] ^ 0xA5])
        return (rid, ok, payload, crc)

    threading.Thread(target=beat, name="repro-pool-hb", daemon=True).start()
    cache = CompileCache(config.cache_capacity)
    tier = TierPolicy(config.native_after, config.breaker_failures,
                      config.breaker_cooldown_s)
    send("ready", wid, gen, os.getpid())
    try:
        while blob := conn.recv_bytes():
            for job in pickle.loads(blob):   # a frame: groups, in order
                items = job["items"]
                rid0 = items[0][0]
                if chaos is not None:
                    if chaos.fires("pool.worker.heartbeat-stall", rid0):
                        # wedged, not dead: the request hangs while
                        # heartbeats go silent — only their timeout can tell
                        stall_until = time.monotonic() + chaos.stall_s
                        time.sleep(chaos.stall_s)
                    if chaos.fires("pool.worker.slow-compile", rid0):
                        time.sleep(chaos.slow_s)
                    if chaos.fires("pool.worker.abort", rid0):
                        os._exit(_ABORT_EXIT)
                outcomes, flags = run_group(cache, tier, job)
                done = pickle.dumps(
                    ("done", wid, gen,
                     [answer(rid, ok, body)
                      for (rid, _), (ok, body) in zip(items, outcomes)],
                     (len(items), flags)), protocol=pickle.HIGHEST_PROTOCOL)
                with wlock:     # answered before the next group starts
                    if chaos is not None and \
                            chaos.fires("pool.worker.torn-response", rid0):
                        # die mid-frame: the length header, half the body
                        os.write(conn.fileno(), struct.pack("!i", len(done))
                                 + done[:len(done) // 2])
                        os._exit(_ABORT_EXIT)
                    conn.send_bytes(done)
    except EOFError:
        pass                                 # the parent is gone
    finally:
        stop_hb.set()
        try:
            send("bye", wid, gen)
        except Exception:
            pass


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

class WorkerPool(BatchExecutor):
    """The :class:`~repro.serve.batcher.BatchExecutor` with its groups
    run in supervised worker processes.

    Use as a context manager, or call :meth:`close` when done::

        with WorkerPool(PoolConfig(workers=4)) as pool:
            futs = [pool.submit(SRC, "main", [k]) for k in range(100)]
            results = [f.result() for f in futs]

    ``self.cache`` here serves predicted admission only; every worker
    compiles into its own.
    """

    _Config = PoolConfig
    _Stats = PoolStats

    def _start(self) -> None:
        cfg = self.config
        if not 1 <= cfg.min_healthy <= cfg.workers:
            raise ValueError("min_healthy must be within [1, workers]")
        self._ctx = mp.get_context(_START_METHOD)
        if _START_METHOD == "forkserver":
            try:      # preload the heavy imports once, so respawns fork fast
                self._ctx.set_forkserver_preload(
                    ["repro.serve.pool", "repro.analysis.cost"])
            except Exception:
                pass
        self._rng = random.Random(0x5EED)
        self._retries: list = []            # heap of (due, seq, request)
        self._retry_seq = itertools.count()
        self.handles = [WorkerHandle(i, self._lock)
                        for i in range(cfg.workers)]
        self._ring = HashRing(cfg.workers)
        #: batch key -> shard, decided once: no more keys than can wait
        self._shard = functools.lru_cache(cfg.max_queue)(self._ring.lookup)
        self._shutdown = False
        self._supervisor = Supervisor(self)     # a reader may need it at once
        for handle in self.handles:
            self._spawn_worker(handle)
        self._threads = self._spawn_dispatchers(self.handles,
                                                "repro-pool-dispatch")
        self._supervisor.start()
        try:
            self._wait_ready()
        except BaseException:
            self.close(timeout=2.0)
            raise

    # -- public API ------------------------------------------------------

    def healthy_workers(self) -> int:
        with self._lock:
            return sum(1 for h in self.handles if h.state == "up")

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting work, drain, stop workers, fail leftovers."""
        with self._work:
            if self._closed and self._shutdown:
                return
            self._closed = True
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                if not self._retries and not any(
                        h.pending or h.inflight for h in self.handles):
                    break
                self._work.wait(0.1)
            self._shutdown = True
            self._wake_all()
            handles = list(self.handles)
        self._supervisor.shutdown()
        for t in self._threads:     # joined first: one writer per connection
            t.join(timeout=2.0)
        for h in handles:
            try:
                h.conn.send_bytes(b"")
            except Exception:
                pass                         # already dead: nobody to stop
        for h in handles:
            proc = h.proc
            if proc is None:
                continue
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
        self._supervisor.join(timeout=2.0)
        for h in handles:
            h.reader.join(timeout=2.0)       # ends at its worker's EOF
        leftovers: list[_Request] = []
        with self._lock:
            leftovers.extend(r for _, _, r in self._retries)
            self._retries.clear()
            for h in self.handles:
                leftovers.extend(h.pending)
                h.pending.clear()
                leftovers.extend(h.inflight.values())
                h.inflight.clear()
                h.groups.clear()
                h.state = "stopped"
        for r in leftovers:
            self._finish(r, error=WorkerCrashError(
                "shutdown", request_ids=[r.rid],
                detail="pool closed with the request unfinished"))

    # -- where a request waits --------------------------------------------

    def _depth(self) -> int:
        return sum(len(h.pending) for h in self.handles) + len(self._retries)

    def _enqueue(self, req: _Request) -> None:
        """Shed while the pool is degraded below ``min_healthy`` live
        workers — it fails fast instead of accumulating work it cannot
        run — else park the request on its shard."""
        healthy = sum(1 for h in self.handles if h.state == "up")
        if healthy < self.config.min_healthy:
            self.stats.shed += 1
            p = _obs.PROFILER
            if p is not None:
                p.count("serve", "shed", 1, 0, 0)
            raise ResourceLimitError(
                "healthy-workers", healthy, self.config.min_healthy,
                stage="serve:submit", request=req.rid)
        self._park(req)

    def _park(self, req: _Request) -> None:
        handle = self.handles[self._shard(req.batch_key)]
        handle.pending.append(req)
        if not handle.inflight:              # else its last `done` wakes it
            handle.wake.notify()

    def _take_frame(self, handle: WorkerHandle
                    ) -> Optional[list[list[_Request]]]:
        """Everything ``handle``'s shard has waiting, split into its
        coalescible groups in queue order, once the worker has nothing in
        flight.  Asleep on ``handle``'s own condition: only its shard's
        work and :meth:`_wake_all` return it from the wait."""
        with handle.wake:
            while not (handle.pending and handle.state == "up"
                       and not handle.inflight):
                if self._shutdown:
                    return None
                handle.wake.wait()
            frame = _partition(handle.pending, self.config.max_batch)
            handle.pending.clear()
            return frame

    def _wake_all(self) -> None:
        """A rare transition (a worker came up or went, shutdown): wake
        every dispatcher, ``close`` and ``_wait_ready`` (lock held)."""
        self._work.notify_all()
        for h in self.handles:
            h.wake.notify()

    # -- where a group runs -------------------------------------------------

    def _run(self, handle: WorkerHandle, frame: list[list[_Request]]) -> None:
        """Write the frame — its groups pickled once, one message — to
        ``handle``'s process; each group's answers come back through
        :meth:`_on_done`, the worker's death through
        :meth:`_worker_failure`."""
        try:
            blob = pickle.dumps([_job(g) for g in frame],
                                protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as e:
            if len(frame) > 1:      # find the group that cannot cross
                for group in frame:
                    self._run(handle, [group])
            else:
                for r in frame[0]:
                    self._finish(r, error=e)
            return
        with self._work:
            if handle.state != "up":        # died between pop and dispatch
                handle.pending.extendleft(
                    r for g in reversed(frame) for r in reversed(g))
                return
            if not handle.groups:
                handle.head_since = time.monotonic()
            handle.groups.extend(frame)
            for group in frame:
                for r in group:
                    handle.inflight[r.rid] = r
            self.stats.frames += 1
            conn = handle.conn
        p = _obs.PROFILER
        if p is not None:
            p.count("serve", "frame", len(frame), len(frame), 0)
        try:
            conn.send_bytes(blob)
        except Exception:                   # the worker went while we wrote
            self._worker_failure(handle, "exit",
                                 detail="worker connection closed")

    # -- lifecycle internals ---------------------------------------------

    def _spawn_worker(self, handle: WorkerHandle) -> None:
        """(Re)start one worker slot with a fresh generation and a fresh
        pipe (a respawned worker must never replay a stale job)."""
        with self._lock:
            if self._shutdown:
                return
            handle.generation += 1
            gen = handle.generation
            handle.state = "starting"
            handle.last_hb = handle.started_at = time.monotonic()
        conn, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(handle.wid, gen, child, self.config),
            name=f"repro-pool-{handle.name}", daemon=True)
        proc.start()
        child.close()   # the worker holds the only copy: its death is our EOF
        reader = threading.Thread(
            target=self._read, args=(handle, gen, conn),
            name=f"repro-pool-read-{handle.wid}.{gen}", daemon=True)
        with self._lock:
            handle.proc, handle.conn, handle.reader = proc, conn, reader
        reader.start()

    def _read(self, handle: WorkerHandle, gen: int, conn) -> None:
        """The reader of one worker generation: block on its connection,
        act on each message.  End-of-file, a short frame (the worker died
        mid-write) or bytes that do not unpickle end it and — from the
        current generation, outside shutdown — are the death notice."""
        with conn:
            while True:
                try:
                    msg = pickle.loads(conn.recv_bytes())
                except Exception as e:
                    lost = e
                    break
                try:
                    self._handle_message(msg)
                except Exception:
                    continue                 # never kill the reader
        if gen != handle.generation or self._shutdown:
            return
        proc = handle.proc
        proc.join(timeout=0.2)               # its exit code, if it has one
        self._worker_failure(
            handle, "exit",
            detail=f"exit code {proc.exitcode}" if proc.exitcode is not None
            else f"{type(lost).__name__} on the worker's pipe")

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + _START_TIMEOUT_S
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
                        f"{_START_TIMEOUT_S:.0f}s")
                self._work.wait(min(remaining, 0.1))

    # -- what a worker says ---------------------------------------------------

    def _handle_message(self, msg: tuple) -> None:
        kind, wid, gen = msg[0], msg[1], msg[2]
        handle = self.handles[wid]
        if gen != handle.generation:
            return                           # a late message from the dead
        if kind == "ready":
            with self._work:
                if handle.state == "starting":
                    handle.state = "up"
                    handle.last_hb = handle.started_at = time.monotonic()
                self._wake_all()
        elif kind == "hb":
            handle.last_hb = time.monotonic()
        elif kind == "done":
            self._on_done(handle, msg[3], msg[4])
        elif kind == "bye":
            with self._work:
                orphans = bool(handle.inflight) and not self._shutdown
                if not orphans and handle.state in ("starting", "up"):
                    handle.state = "stopped"
                self._wake_all()
            if orphans:     # unwound mid-group (SystemExit, KeyboardInterrupt)
                self._worker_failure(
                    handle, "exit", detail="worker left with requests "
                    "in flight")

    def _on_done(self, handle: WorkerHandle, answers: list,
                 ran: tuple) -> None:
        """One executed group: ``(rid, ok, payload, crc)`` per member,
        ``ran = (n, flags)`` for the accounts.  A member no longer in
        flight was already failed; one whose checksum fails is never
        unpickled — it is a crash victim, and the worker is killed once
        its batchmates' good answers are delivered."""
        with self._work:
            reqs = [handle.inflight.pop(a[0], None) for a in answers]
            sent = handle.groups
            if sent and sent[0][0].rid == answers[0][0]:
                sent.popleft()               # answered in the order sent
                handle.head_since = time.monotonic()
            if not handle.inflight:
                # the next frame's dispatcher, or a draining close()
                (handle.wake if handle.pending else self._work).notify()
        self._record(*ran)
        poisoned, done = [], []
        for req, (_, ok, payload, crc) in zip(reqs, answers):
            if req is None:
                continue
            if zlib.adler32(payload) != crc:
                poisoned.append(req)
            else:
                body = pickle.loads(payload)
                done.append((req, ok, body if ok else _decode_error(body)))
        self._complete(done)
        if poisoned:
            self._absorb_victims(poisoned, "poisoned-response", handle,
                                 detail="response checksum mismatch")
            self._worker_failure(handle, "poisoned-response",
                                 detail="response checksum mismatch")

    # -- failure funnel ----------------------------------------------------

    def _worker_failure(self, handle: WorkerHandle, reason: str,
                        detail: str = "",
                        deadline_victims: Sequence[str] = ()) -> None:
        """The single funnel for a worker death or kill, idempotent per
        incident (a handle already in backoff is left alone): schedule
        the respawn with backoff, kill, let the generation's reader drain
        the pipe — a ``done`` the worker did write is honoured — and
        only then classify, by order: the first unanswered group (and
        whatever is in flight with no group record) can have started, so
        it is retried or failed; the groups behind it never ran, and go
        back to the front of ``pending`` as they were."""
        with self._work:
            if handle.state not in ("starting", "up"):
                return
            handle.state = "backoff"
            proc, reader = handle.proc, handle.reader
            delay = self._supervisor.next_backoff(handle)
            handle.respawn_at = time.monotonic() + delay
            handle.restarts += 1
            self.stats.restarts += 1
            self.stats.crashes[reason] = self.stats.crashes.get(reason, 0) + 1
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)
        if reader is not None and reader is not threading.current_thread():
            reader.join(timeout=5.0)         # to end-of-file
        with self._work:
            victims, behind = handle.split()
            handle.inflight.clear()
            handle.groups.clear()
            handle.pending.extendleft(reversed(behind))
            self._wake_all()
        p = _obs.PROFILER
        if p is not None:
            p.count("serve", "worker_restart", 1, 0, 0)
        overrun = set(deadline_victims)
        late = [r for r in victims if r.rid in overrun]
        rest = [r for r in victims if r.rid not in overrun]
        for r in late:
            with self._lock:
                self.stats.expired += 1
            self._finish(r, error=ResourceLimitError(
                "timeout", "deadline overrun in worker",
                f"{r.deadline:.2f}" if r.deadline is not None else "?",
                stage="pool:deadline", request=r.rid))
        self._absorb_victims(rest, reason, handle, detail)

    def _absorb_victims(self, victims: Sequence[_Request], reason: str,
                        handle: WorkerHandle, detail: str = "") -> None:
        """Retry (bounded, jittered, idempotent-only) or fail each
        request orphaned by a worker incident."""
        retry = self.config.retry
        now = time.monotonic()
        p = _obs.PROFILER
        for r in victims:
            r.attempts += 1
            retryable = (retry is not None and r.budget is None
                         and retry.allows(r.attempts))
            if retryable and not self._closed:
                with self._work:
                    self.stats.retries += 1
                    delay = retry.backoff_s(r.attempts, self._rng)
                    heapq.heappush(self._retries,
                                   (now + delay, next(self._retry_seq), r))
                if p is not None:
                    p.count("serve", "retry", 1, 0, 0)
            else:
                self._finish(r, error=WorkerCrashError(
                    reason, worker=handle.name, request_ids=[r.rid],
                    detail=detail))

    def _release_due_retries(self, now: float) -> None:
        """Move due retries back onto their shard's pending queue
        (supervisor tick)."""
        with self._work:
            while self._retries and self._retries[0][0] <= now:
                self._park(heapq.heappop(self._retries)[2])

    def _sweep_deadlines(self, now: float) -> None:
        """Fail the requests whose deadline passed while they waited — in
        ``pending`` (a worker in backoff must not silently hold its
        shard's deadlines hostage) or in a frame behind the group that
        can be running; nobody is killed for the latter, its late answer
        is dropped.  One pass per queue.  Called from the supervisor
        tick."""
        def late(r: _Request) -> bool:
            return r.deadline is not None and now > r.deadline

        expired: list[_Request] = []
        with self._lock:
            for h in self.handles:
                framed = [r for r in h.split()[1] if late(r)]
                for r in framed:
                    del h.inflight[r.rid]
                if framed and not h.inflight:
                    h.wake.notify()          # as its last `done` would
                queued = [r for r in h.pending if late(r)]
                if queued:
                    keep = [r for r in h.pending if not late(r)]
                    h.pending.clear()
                    h.pending.extend(keep)
                expired += framed + queued
        for r in expired:
            self._expired(r)
