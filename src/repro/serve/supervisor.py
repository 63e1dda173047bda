"""The supervision side of the multi-process serving pool.

:class:`WorkerHandle` is the parent's book-keeping for one worker slot:
the live process (if any), the one connection to it and the thread that
reads it, the condition its dispatcher sleeps on, the requests waiting
for and in flight on it (and the groups they left in, in the order they
were sent), heartbeat freshness, and the respawn backoff
state.  :class:`Supervisor` is the health-check thread of a
:class:`~repro.serve.pool.WorkerPool`; each tick it

* detects **dead workers** (process no longer alive — a nonzero exit,
  a segfault, an ``os._exit`` from a native kernel) and routes them
  through the pool's single failure funnel — the backstop of the
  worker's reader, which sees end-of-file on the pipe first;
* detects **lost heartbeats** (a wedged worker whose process is alive
  but silent past ``heartbeat_timeout_s``) and kills it;
* enforces **deadline kills**: a request whose deadline passed more than
  ``deadline_grace_s`` ago in the group its worker can be running gets
  that worker killed, the overrunning request fails with a
  request-naming :class:`~repro.errors.ResourceLimitError`, and innocent
  batchmates are requeued (see docs/RELIABILITY.md — the containment
  contract); one still waiting in the frame behind that group expires
  like a queued one, and nobody is killed for it;
* **respawns** dead workers with exponential, jittered backoff
  (reset after a few seconds of stable uptime), so a crash-looping
  kernel cannot pin a CPU respawning;
* releases **due retries** back onto their shard's pending queue.

The supervisor only *decides*; every state change goes through pool
methods (``_worker_failure``, ``_spawn_worker``, ``_release_due_retries``,
``_sweep_deadlines``) so there is exactly one writer protocol for the
shared structures.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from collections import OrderedDict, deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.serve.batcher import _Request
    from repro.serve.pool import WorkerPool

__all__ = ["WorkerHandle", "Supervisor"]

_BACKOFF_MAX_S = 2.0         # respawn delay ceiling
_BACKOFF_JITTER = 0.25       # ± fraction on respawn delays
_BACKOFF_RESET_S = 5.0       # stable uptime that clears the backoff


class WorkerHandle:
    """Parent-side state for one worker slot (``w0``, ``w1``, ...).

    ``generation`` increments on every (re)spawn; a message from an older
    generation of the slot (a killed process whose last frames arrive
    late) changes nothing.  ``wake`` shares the pool's one lock.
    ``groups`` holds, in the order they were written, the groups the
    worker has not answered: it answers one before it starts the next,
    so only the first can have started.
    """

    def __init__(self, wid: int, lock: threading.Lock):
        self.wid = wid
        self.name = f"w{wid}"
        self.proc = None                    # multiprocessing.Process | None
        self.conn = None                    # this generation's pipe, our end
        self.reader = None                  # the thread blocked reading it
        self.wake = threading.Condition(lock)   # its dispatcher sleeps here
        self.generation = 0
        self.state = "init"                 # init|starting|up|backoff|stopped
        self.last_hb = 0.0                  # parent monotonic at last beat
        self.started_at = 0.0
        self.pending: deque = deque()       # sharded, not yet dispatched
        self.inflight: "OrderedDict[str, _Request]" = OrderedDict()
        self.groups: deque = deque()        # sent, unanswered, in order
        self.head_since = 0.0               # when groups[0] came to be first
        self.restarts = 0
        self.backoff_s = 0.0                # next respawn delay
        self.respawn_at = 0.0

    def split(self) -> tuple[list, list]:
        """``(started, behind)`` of the requests in flight (pool lock
        held): those that can have started — the first unanswered
        group's, and any with no group record — and, in order, those
        still waiting in a frame behind them."""
        behind = [r for g in itertools.islice(self.groups, 1, None)
                  for r in g if self.inflight.get(r.rid) is r]
        waiting = {r.rid for r in behind}
        return [r for r in self.inflight.values()
                if r.rid not in waiting], behind


class Supervisor(threading.Thread):
    """The pool's health-check loop (daemon thread)."""

    def __init__(self, pool: "WorkerPool"):
        super().__init__(name="repro-pool-supervisor", daemon=True)
        self.pool = pool
        self.rng = random.Random(0xC0FFEE)
        self._halt = threading.Event()

    def shutdown(self) -> None:
        self._halt.set()

    def run(self) -> None:
        cfg = self.pool.config
        while not self._halt.wait(cfg.supervise_s):
            try:
                self.tick()
            except Exception:               # never die silently mid-flight
                if self.pool._closed:
                    return

    # -- one health-check pass -------------------------------------------

    def tick(self) -> None:
        pool = self.pool
        cfg = pool.config
        now = time.monotonic()
        for handle in pool.handles:
            state = handle.state
            if state in ("starting", "up"):
                proc = handle.proc
                if proc is not None and not proc.is_alive():
                    pool._worker_failure(
                        handle, "exit",
                        detail=f"exit code {proc.exitcode}")
                    continue
                if state == "up" and \
                        now - handle.last_hb > cfg.heartbeat_timeout_s:
                    pool._worker_failure(
                        handle, "lost-heartbeat",
                        detail=f"no heartbeat for "
                               f"{now - handle.last_hb:.2f}s")
                    continue
                overrun = self._deadline_victims(handle, now)
                if overrun:
                    pool._worker_failure(handle, "deadline",
                                         deadline_victims=overrun)
                    continue
                if state == "up" and handle.backoff_s and \
                        now - handle.started_at > _BACKOFF_RESET_S:
                    handle.backoff_s = 0.0      # stable again: forget crashes
            elif state == "backoff" and now >= handle.respawn_at:
                pool._spawn_worker(handle)
        pool._release_due_retries(now)
        pool._sweep_deadlines(now)

    def _deadline_victims(self, handle: WorkerHandle,
                          now: float) -> list[str]:
        """Request ids ``handle``'s worker can be running whose deadline
        passed more than ``deadline_grace_s`` ago — grounds for a
        deadline kill.  One that expired behind the running group was
        failed there, but still runs when its group's turn comes: it is
        watched too, with the grace counted from then."""
        grace = self.pool.config.deadline_grace_s
        with self.pool._lock:
            head = handle.groups[0] if handle.groups else ()
            return [r.rid for r in (*handle.split()[0], *head)
                    if r.deadline is not None
                    and now > max(r.deadline, handle.head_since) + grace]

    # -- respawn backoff ---------------------------------------------------

    def next_backoff(self, handle: WorkerHandle) -> float:
        """Advance and return the slot's respawn delay: exponential from
        ``respawn_backoff_s`` to two seconds, jittered by ±25%."""
        base = handle.backoff_s
        base = self.pool.config.respawn_backoff_s if base <= 0 else \
            min(base * 2.0, _BACKOFF_MAX_S)
        handle.backoff_s = base
        return base * (1.0 + _BACKOFF_JITTER * (2.0 * self.rng.random() - 1.0))
