"""Idle dispatchers must be event-driven, not polling: they sleep on a
condition with no timeout, and ``submit`` / ``close`` notify it.  This
pins the fix for the idle busy-wait (the old dispatcher woke every 50 ms
forever) — and, for the pool, for the response pumps and the collector
that woke five and ten times a second per worker: of an idle pool's
threads only the supervisor wakes on a period, by design."""

import multiprocessing as mp
import threading
import time

from repro.serve import BatchExecutor, PoolConfig, WorkerPool

SRC = "fun main(x) = x + 1;"


def test_idle_executor_does_not_spin(monkeypatch):
    # every wait a dispatcher makes is recorded: an idle executor makes
    # exactly one, with no timeout, and stays in it until notified
    waits = []
    real_wait = threading.Condition.wait

    def wait(self, timeout=None):
        waits.append((self, timeout))
        return real_wait(self, timeout)

    def idle_waits(ex):
        return [t for cond, t in waits if cond is ex._work]

    monkeypatch.setattr(threading.Condition, "wait", wait)
    with BatchExecutor() as ex:
        time.sleep(0.3)                      # idle window
        assert idle_waits(ex) == [None]
        t0 = time.monotonic()
        assert ex.submit(SRC, "main", [1]).result(timeout=5.0) == 2
        assert time.monotonic() - t0 < 5.0   # woken by submit
    # close() must also wake the sleeping dispatchers (the context
    # manager above would hang on join otherwise)
    assert set(idle_waits(ex)) == {None}


def test_close_wakes_idle_dispatchers_quickly():
    ex = BatchExecutor()
    time.sleep(0.1)
    t0 = time.monotonic()
    ex.close(timeout=10.0)
    assert time.monotonic() - t0 < 5.0
    assert not any(t.is_alive() for t in ex._threads)


def test_idle_pool_does_not_poll(monkeypatch):
    # (thread name, condition, timeout) of every Condition.wait — which
    # is also what Event.wait and a timed queue.Queue.get come down to
    waits = []
    real_wait = threading.Condition.wait

    def wait(self, timeout=None):
        waits.append((threading.current_thread().name, self, timeout))
        return real_wait(self, timeout)

    monkeypatch.setattr(threading.Condition, "wait", wait)
    pool = WorkerPool(PoolConfig(workers=2, native_after=0))
    try:
        assert pool.submit(SRC, "main", [1]).result(timeout=60) == 2
        time.sleep(0.1)                      # everyone back to sleep
        n = len(waits)
        time.sleep(0.5)                      # idle window
        assert {name for name, _, _ in waits[n:]
                if name.startswith("repro-pool-")} == \
            {"repro-pool-supervisor"}        # its Event.wait(supervise_s)
        for i, h in enumerate(pool.handles):
            mine = [(cond, timeout) for name, cond, timeout in waits
                    if name == f"repro-pool-dispatch-{i}"]
            # never a timeout, and the last one — made before the window,
            # on its own worker's condition — is the one it is still in
            assert {timeout for _, timeout in mine} == {None}
            assert mine[-1][0] is h.wake
            with pool._lock:
                assert len(h.wake._waiters) == 1
    finally:
        t0 = time.monotonic()
        pool.close(timeout=10.0)
        assert time.monotonic() - t0 < 5.0
    assert not [t.name for t in threading.enumerate()
                if t.name.startswith("repro-pool-")]
    assert not [c for c in mp.active_children()
                if c.name.startswith("repro-pool-")]
