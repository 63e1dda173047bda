"""Deadlines, budgets, and backpressure at the serving layer.

The isolation properties: a budget breach fails its own request only (a
group breaching its tightest budget re-runs each member under its own), a
failing batch member never poisons its batchmates (the group decomposes
and re-runs individually), expired requests fail without running, and a
full queue sheds load with ``ResourceLimitError("queue-depth")`` instead
of wedging.

These are properties of the serve core, so every class that does not
need to reach inside the executor's compile cache runs a second time with
the process pool as the executor.
"""

import threading
import time

import pytest

from repro.api import compile_program
from repro.errors import ReproError, ResourceLimitError
from repro.guard import Budget
from repro.serve import (
    BatchExecutor, CompileCache, PoolConfig, ServeConfig, WorkerPool,
)

SRC = "fun main(n) = sum([i <- [1..n]: i * i])"


def expect(n):
    return sum(i * i for i in range(1, n + 1))


class _InProcess:
    Executor, Config = BatchExecutor, ServeConfig


class _Pooled:
    Executor, Config = WorkerPool, PoolConfig


class TestBudgets(_InProcess):
    def test_budget_breach_fails_only_its_own_request(self):
        """A slow request under a tight step budget raises for that
        request alone; its (would-be) batchmates all succeed.  Admission
        is disabled, so this pins the *runtime* enforcement backstop
        (tests/serve/test_admission.py covers the predicted path)."""
        with self.Executor(self.Config(max_batch=16,
                                       predict_admission=False)) as ex:
            healthy = [ex.submit(SRC, "main", [k]) for k in range(1, 9)]
            doomed = ex.submit(SRC, "main", [500],
                               budget=Budget(max_steps=1))
            more = [ex.submit(SRC, "main", [k]) for k in range(9, 13)]
            with pytest.raises(ResourceLimitError) as ei:
                doomed.result(30)
            assert ei.value.limit == "steps"
            for k, fut in enumerate(healthy, start=1):
                assert fut.result(30) == expect(k)
            for k, fut in enumerate(more, start=9):
                assert fut.result(30) == expect(k)
            assert ex.stats.errors == 1

    def test_budgeted_requests_coalesce_and_a_breach_stays_their_own(self):
        """Budgeted requests ride in one batch under the tightest budget
        of the group; when that breaches, the group decomposes and only
        the request whose own budget is too small fails, named."""
        def submit_all(ex, tight):
            # a slow request of another key runs while the six queue up
            slow = ex.submit(f"{SRC} + 1", "main", [300_000])
            while ex.queue_depth():
                time.sleep(0.001)
            futs = [ex.submit(SRC, "main", [3], request_id=f"b{i}",
                              budget=Budget(max_steps=1 if i == tight
                                            else 100_000))
                    for i in range(6)]
            assert slow.result(60) == expect(300_000) + 1
            return futs

        with self.Executor(self.Config(max_batch=16, workers=1,
                                       predict_admission=False)) as ex:
            futs = submit_all(ex, tight=None)
            assert [f.result(30) for f in futs] == [expect(3)] * 6
            stats = ex.stats.snapshot()
            assert stats["batches"] == 1 and stats["batch_sizes"] == {6: 1}
            assert stats["budgeted_batched"] == 6
            assert stats["singles"] == 1 and stats["fallbacks"] == 0

        with self.Executor(self.Config(max_batch=16, workers=1,
                                       predict_admission=False)) as ex:
            futs = submit_all(ex, tight=2)
            e = futs[2].exception(30)
            assert isinstance(e, ResourceLimitError)
            assert e.limit == "steps" and e.request == "b2"
            assert [f.result(30) for i, f in enumerate(futs) if i != 2] == \
                [expect(3)] * 5
            stats = ex.stats.snapshot()
            assert stats["fallbacks"] == 1 and stats["errors"] == 1
            assert stats["batches"] == 0 and stats["budgeted_batched"] == 0

    def test_queue_keeps_serving_after_a_breach(self):
        with self.Executor(self.Config(max_batch=8)) as ex:
            # over-budget: rejected at submit by predicted admission
            with pytest.raises(ResourceLimitError):
                ex.submit(SRC, "main", [500], budget=Budget(max_steps=2))
            assert ex.submit(SRC, "main", [4]).result(30) == expect(4)


class TestBatchPoisoning(_InProcess):
    def test_failing_member_does_not_poison_batchmates(self):
        """One request whose arguments crash the program: the batch
        decomposes, the bad request gets the error, the rest succeed."""
        src = "fun main(n) = 100 div n"
        with self.Executor(self.Config(max_batch=16)) as ex:
            futs = [ex.submit(src, "main", [n]) for n in (1, 2, 0, 5, 10)]
            ex.close()
        assert futs[0].result(0) == 100
        assert futs[1].result(0) == 50
        assert isinstance(futs[2].exception(0), ReproError)
        assert futs[3].result(0) == 20
        assert futs[4].result(0) == 10
        assert ex.stats.fallbacks >= 1     # the decomposition happened


class TestDeadlines(_InProcess):
    def test_expired_request_fails_without_running(self):
        with self.Executor(self.Config(max_batch=4)) as ex:
            fut = ex.submit(SRC, "main", [5], deadline_s=-0.001)
            with pytest.raises(ResourceLimitError) as ei:
                fut.result(30)
            assert ei.value.limit == "timeout"
            assert ei.value.stage == "serve:queue"
            assert ex.stats.expired == 1

    def test_expiry_does_not_wedge_the_queue(self):
        with self.Executor(self.Config(max_batch=4)) as ex:
            dead = [ex.submit(SRC, "main", [5], deadline_s=-0.001)
                    for _ in range(3)]
            live = ex.submit(SRC, "main", [6], deadline_s=60.0)
            for fut in dead:
                assert isinstance(fut.exception(30), ResourceLimitError)
            assert live.result(30) == expect(6)


class TestBackpressure:
    @staticmethod
    def _gated_executor(max_queue):
        """An executor whose single worker is wedged inside a compile
        until ``release`` is set — deterministic queue pressure."""
        entered = threading.Event()
        release = threading.Event()

        def compile_fn(source, use_prelude, options):
            entered.set()
            release.wait(30)
            return compile_program(source, use_prelude=use_prelude,
                                   options=options)

        ex = BatchExecutor(ServeConfig(max_queue=max_queue, workers=1),
                           cache=CompileCache(8, compile_fn=compile_fn))
        return ex, entered, release

    def test_full_queue_rejects_with_resource_error(self):
        ex, entered, release = self._gated_executor(max_queue=3)
        try:
            first = ex.submit(SRC, "main", [1])
            assert entered.wait(10)          # worker is now wedged
            held = [ex.submit(SRC, "main", [k]) for k in (2, 3, 4)]
            with pytest.raises(ResourceLimitError) as ei:
                ex.submit(SRC, "main", [5])
            assert ei.value.limit == "queue-depth"
            assert ei.value.stage == "serve:submit"
            assert ex.stats.rejected == 1
            # shed load, not wedged: releasing the gate drains everything
            release.set()
            assert first.result(30) == expect(1)
            assert [f.result(30) for f in held] == [expect(k)
                                                   for k in (2, 3, 4)]
        finally:
            release.set()
            ex.close()

    def test_queue_accepts_again_after_draining(self):
        ex, entered, release = self._gated_executor(max_queue=2)
        try:
            held = [ex.submit(SRC, "main", [1])]
            assert entered.wait(10)          # [1] is out of the queue now
            held += [ex.submit(SRC, "main", [k]) for k in (2, 3)]
            with pytest.raises(ResourceLimitError):
                ex.submit(SRC, "main", [4])
            release.set()
            for k, fut in enumerate(held, start=1):   # drain the queue
                assert fut.result(30) == expect(k)
            late = ex.submit(SRC, "main", [7])
            assert late.result(30) == expect(7)
        finally:
            release.set()
            ex.close()


class TestUnknownBackend(_InProcess):
    def test_submit_rejects_before_any_work(self):
        """Regression: an unknown back end used to be queued, compiled
        (one cache miss) and only then failed from inside the worker."""
        with self.Executor(self.Config(workers=1)) as ex:
            with pytest.raises(ValueError, match="unknown backend 'bogus'"):
                ex.submit(SRC, "main", [1], backend="bogus")
            c = ex.cache.stats()
            assert (c["hits"], c["misses"]) == (0, 0)
            assert ex.queue_depth() == 0 and ex.stats.requests == 0
            assert ex.submit(SRC, "main", [2]).result(30) == expect(2)

    def test_a_bad_default_backend_is_rejected_too(self):
        with self.Executor(self.Config(backend="bogus")) as ex:
            with pytest.raises(ValueError, match="known: .*vector"):
                ex.submit(SRC, "main", [1])
            assert ex.submit(SRC, "main", [1],
                             backend="interp").result(30) == expect(1)


class TestBudgetsOnThePool(_Pooled, TestBudgets):
    pass


class TestBatchPoisoningOnThePool(_Pooled, TestBatchPoisoning):
    pass


class TestDeadlinesOnThePool(_Pooled, TestDeadlines):
    pass


class TestUnknownBackendOnThePool(_Pooled, TestUnknownBackend):
    pass


def test_deadline_behind_a_slow_group_of_the_same_frame_kills_nobody():
    """A request whose deadline passes while it waits *inside a frame*,
    behind the group the worker is running, expires like a queued one:
    typed, ``serve:queue``, the worker untouched — the deadline kill is
    for the group that can be running, and that one answers."""
    import time

    from repro.guard import ChaosSpec
    site = "pool.worker.slow-compile"
    chaos = ChaosSpec(sites=(site,), rate=0.5, seed=3, slow_s=0.3)
    lead, slow = [r for i in range(1000)
                  if chaos.fires(site, r := f"v{i}")][:2]
    late = next(r for i in range(1000) if not chaos.fires(site, r := f"s{i}"))
    with WorkerPool(PoolConfig(workers=1, native_after=0, chaos=chaos,
                               deadline_grace_s=0.05)) as pool:
        h = pool.handles[0]
        first = pool.submit(SRC, "main", [2], request_id=lead)
        deadline = time.monotonic() + 10
        while lead not in h.inflight and time.monotonic() < deadline:
            time.sleep(0.005)
        # both wait behind the lead's 0.3 s and leave as one frame: the
        # slow group sleeps 0.3 s more, the other's 0.4 s run out behind it
        running = pool.submit(SRC, "main", [3], request_id=slow)
        waiting = pool.submit("fun main(n) = n + 1", "main", [1],
                              request_id=late, deadline_s=0.4)
        while late not in h.inflight and time.monotonic() < deadline:
            time.sleep(0.005)
        assert list(h.inflight) == [slow, late]     # written, not started
        e = waiting.exception(30)
        assert isinstance(e, ResourceLimitError) and e.limit == "timeout"
        assert e.stage == "serve:queue" and e.request == late
        assert late not in h.inflight
        assert first.result(30) == expect(2)
        assert running.result(30) == expect(3)
        s = pool.stats.snapshot()
        assert s["restarts"] == 0 and s["expired"] == 1 and s["frames"] == 2
        assert s["responses"] == 2 and s["errors"] == 1
        # the worker ran the expired request all the same; its answer
        # found nobody waiting, and the pool serves on
        assert pool.submit(SRC, "main", [4]).result(30) == expect(4)
        assert pool.stats.responses == 3 and pool.stats.restarts == 0


def test_a_request_that_expired_in_its_frame_cannot_wedge_the_worker():
    """Expired behind the running group, it was failed there — but the
    worker still runs its group when the turn comes.  If that never ends,
    the deadline kill still finds it: the grace counts from its turn."""
    import time

    from repro.guard import ChaosSpec
    fib = ("fun fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2)\n"
           "fun main(n) = fib(n)")
    site = "pool.worker.slow-compile"
    chaos = ChaosSpec(sites=(site,), rate=0.5, seed=3, slow_s=30.0)
    wedge = next(r for i in range(1000) if chaos.fires(site, r := f"v{i}"))
    calm = [r for i in range(1000) if not chaos.fires(site, r := f"s{i}")]
    with WorkerPool(PoolConfig(workers=1, native_after=0, chaos=chaos,
                               retry=None, deadline_grace_s=0.1,
                               respawn_backoff_s=0.05)) as pool:
        h = pool.handles[0]
        first = pool.submit(fib, "main", [17], request_id=calm[0])
        deadline = time.monotonic() + 10
        while calm[0] not in h.inflight and time.monotonic() < deadline:
            time.sleep(0.005)
        # the first runs ~0.2 s more, the second ~0.9 s: the third's time
        # runs out in between, one frame with the second and behind it
        busy = pool.submit(fib, "main", [19], request_id=calm[1])
        dead = pool.submit(SRC, "main", [3], request_id=wedge,
                           deadline_s=0.5)
        e = dead.exception(30)
        assert isinstance(e, ResourceLimitError) and e.limit == "timeout"
        assert e.stage == "serve:queue" and not busy.done()
        assert (first.result(30), busy.result(30)) == (1597, 4181)
        t0 = time.monotonic()               # its turn: 30 s of sleep begin
        assert pool.submit(SRC, "main", [4],
                           request_id=calm[2]).result(30) == expect(4)
        assert time.monotonic() - t0 < 10.0
        s = pool.stats.snapshot()
        assert s["crashes"] == {"deadline": 1} and s["expired"] == 1
        assert s["responses"] == 3 and s["errors"] == 1
