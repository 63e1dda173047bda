"""The BatchExecutor's idle dispatchers must be event-driven, not
polling: they sleep on a condition with no timeout, and ``submit`` /
``close`` notify it.  This pins the fix for the idle busy-wait (the old
dispatcher woke every 50 ms forever)."""

import threading
import time

from repro.serve import BatchExecutor

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
