"""``ServeFuture`` is a one-shot latch: any number of waiters pass on one
completion, a timeout leaves it pending, and it completes once — a second
completion, from any thread, neither raises nor changes the outcome."""

import sys
import threading

import pytest

from repro.serve import BatchExecutor, ServeConfig
from repro.serve.batcher import _Request

SRC = "fun main(x) = x + 1"


@pytest.fixture
def ex():
    with BatchExecutor(ServeConfig()) as executor:
        yield executor


def request(ex) -> _Request:
    """A request the executor never queued: the tests complete it."""
    return _Request("r", ex.config, SRC, "main", [1], None, None, None,
                    None, None, True, None)


def test_every_waiter_wakes_on_one_completion(ex):
    req = request(ex)
    fut, got = req.future, []
    waiters = [threading.Thread(target=lambda: got.append(fut.result(30)))
               for _ in range(8)]
    for t in waiters:
        t.start()
    assert not fut.done() and got == []
    ex._finish(req, value=42)
    for t in waiters:
        t.join(30)
    assert not any(t.is_alive() for t in waiters)
    assert got == [42] * 8 and fut.done()
    assert fut.result(0) == 42 and fut.exception(0) is None


def test_a_timeout_leaves_the_future_pending(ex):
    req = request(ex)
    fut = req.future
    for wait in (fut.result, fut.exception):
        with pytest.raises(TimeoutError, match="request still pending"):
            wait(0.01)
        with pytest.raises(TimeoutError):
            wait(0)
        with pytest.raises(TimeoutError):
            wait(-1)              # like Event.wait: already elapsed
    assert not fut.done()
    boom = ValueError("boom")
    ex._finish(req, error=boom)
    assert fut.done() and fut.exception() is boom
    with pytest.raises(ValueError, match="boom"):
        fut.result(0.01)


@pytest.mark.parametrize("first", ["value", "error"])
def test_the_first_completion_stands(ex, first):
    boom = RuntimeError("late")
    req = request(ex)
    before = ex.stats.snapshot()
    if first == "value":
        ex._finish(req, value=1)
        ex._finish(req, error=boom)
        ex._finish(req, value=2)
        assert req.future.result(0) == 1 and req.future.exception(0) is None
    else:
        ex._finish(req, error=boom)
        ex._finish(req, value=1)
        assert req.future.exception(0) is boom
    after = ex.stats.snapshot()
    # it is accounted once, as what it was
    assert after["responses"] - before["responses"] == (first == "value")
    assert after["errors"] - before["errors"] == (first == "error")


def test_racing_completions_release_once(ex):
    """The pool's races (a crash or a deadline against a late ``done``):
    two threads complete one request, 1,000 rounds.  A latch released
    twice raises ``RuntimeError`` in the second thread."""
    boom = RuntimeError("crash")
    failures, outcomes = [], []
    start = threading.Barrier(2)
    before = ex.stats.snapshot()

    def racer(reqs, **how):
        try:
            for req in reqs:
                start.wait(30)
                ex._finish(req, **how)
        except BaseException as e:      # reported by the assertion below
            failures.append(e)
            start.abort()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reqs = [request(ex) for _ in range(1000)]
        threads = [threading.Thread(target=racer, args=(reqs,),
                                    kwargs={"value": 7}),
                   threading.Thread(target=racer, args=(reqs,),
                                    kwargs={"error": boom})]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and failures == []
    for req in reqs:
        assert req.future.done()
        outcomes.append(req.future.exception(0))
    assert all(e is None or e is boom for e in outcomes)
    after = ex.stats.snapshot()
    errors = sum(e is boom for e in outcomes)
    assert after["errors"] - before["errors"] == errors
    assert after["responses"] - before["responses"] == 1000 - errors
    # and each still reads what it first read
    assert [r.future.exception(0) for r in reqs] == outcomes
