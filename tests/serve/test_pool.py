"""Functional battery for the supervised worker pool (repro.serve.pool)
without chaos: results identical to direct runs, cross-process error
marshalling, coalescing, budget isolation, deadline expiry, load
shedding, and the half-open breaker behind tier demotion.
Crash/fault behavior lives in test_pool_chaos.py and
tests/guard/test_process_faults.py."""

import pickle
import time
import zlib

import pytest

from repro import compile_program
from repro.errors import (
    EvalError, NativeCompileError, ParseError, ResourceLimitError,
    WorkerCrashError,
)
from repro.guard import Budget
from repro.serve import BatchExecutor, PoolConfig, ServeConfig, WorkerPool
from repro.serve.cache import cache_key
from repro.serve.policy import HashRing

SRC = "fun main(x) = x * x + 1;"
NESTED = "fun main(n) = [i <- [1..n]: [j <- [1..i]: i * j]];"


def quick(**kw) -> PoolConfig:
    kw.setdefault("workers", 2)
    kw.setdefault("native_after", 0)
    return PoolConfig(**kw)


def test_results_match_direct_run():
    direct = compile_program(SRC)
    want = [direct.run("main", [k]) for k in range(12)]
    with WorkerPool(quick()) as pool:
        got = pool.run_many(SRC, "main", [[k] for k in range(12)])
    assert got == want


def test_nested_results_cross_process():
    want = compile_program(NESTED).run("main", [5])
    with WorkerPool(quick()) as pool:
        assert pool.submit(NESTED, "main", [5]).result(timeout=60) == want


def test_requests_coalesce_into_batches():
    with WorkerPool(quick()) as pool:
        futs = [pool.submit(SRC, "main", [k]) for k in range(16)]
        assert [f.result(timeout=60) for f in futs] == \
            [k * k + 1 for k in range(16)]
        s = pool.stats.snapshot()
    assert s["batched_requests"] + s["singles"] == 16
    assert s["batches"] >= 1 and s["max_batch"] >= 2
    assert s["responses"] == 16 and s["errors"] == 0


def test_error_classes_survive_the_process_boundary():
    with WorkerPool(quick()) as pool:
        # runtime error in the program
        e = pool.submit("fun main(v) = v[100];", "main",
                        [[1, 2, 3]]).exception(timeout=60)
        assert isinstance(e, EvalError)
        # compile-time error
        e = pool.submit("fun main(x) =", "main", [1]).exception(timeout=60)
        assert isinstance(e, ParseError)


def test_failing_request_never_poisons_batchmates():
    src = "fun main(v) = v[2] * 10;"
    with WorkerPool(quick(workers=1)) as pool:
        good = [pool.submit(src, "main", [[1, 2, 3]],
                            request_id=f"g{i}") for i in range(3)]
        bad = pool.submit(src, "main", [[1]], request_id="bad")
        assert [f.result(timeout=60) for f in good] == [20, 20, 20]
        assert isinstance(bad.exception(timeout=60), EvalError)


def test_budget_breach_is_per_request_and_named():
    # admission off: this pins the run-time guard inside the worker
    # (tests/serve/test_admission.py covers the predicted path)
    src = "fun main(n) = sum([i <- [1..n]: i]);"
    with WorkerPool(quick(predict_admission=False)) as pool:
        tight = pool.submit(src, "main", [100000],
                            budget=Budget(max_elements=10),
                            request_id="tight")
        free = pool.submit(src, "main", [10], request_id="free")
        assert free.result(timeout=60) == 55
        e = tight.exception(timeout=60)
        assert isinstance(e, ResourceLimitError)
        assert e.limit == "elements" and e.request == "tight"


def test_already_expired_deadline_fails_in_queue():
    with WorkerPool(quick()) as pool:
        f = pool.submit(SRC, "main", [1], deadline_s=0.0, request_id="late")
        e = f.exception(timeout=60)
        assert isinstance(e, ResourceLimitError)
        assert e.limit == "timeout" and e.request == "late"
        assert pool.stats.expired >= 1


def test_quorum_shedding_and_recovery():
    with WorkerPool(quick(min_healthy=2,
                          respawn_backoff_s=0.5)) as pool:
        assert pool.healthy_workers() == 2
        pool.handles[0].proc.kill()
        deadline = time.monotonic() + 10
        while pool.healthy_workers() == 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert pool.healthy_workers() < 2
        with pytest.raises(ResourceLimitError) as ei:
            pool.submit(SRC, "main", [1], request_id="shed-me")
        assert ei.value.limit == "healthy-workers"
        assert "shed-me" in str(ei.value)
        assert pool.stats.shed >= 1
        # the supervisor respawns the worker; service resumes
        deadline = time.monotonic() + 20
        while pool.healthy_workers() < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pool.healthy_workers() == 2
        assert pool.submit(SRC, "main", [3]).result(timeout=60) == 10
        assert pool.stats.restarts >= 1


def test_bye_with_requests_in_flight_is_a_worker_failure():
    """A worker that unwinds mid-group (``SystemExit``,
    ``KeyboardInterrupt``) says ``bye`` while it still owes answers:
    those requests are crash victims, not left waiting for ``close()``."""
    from repro.serve.batcher import _Request
    with WorkerPool(quick(workers=1, retry=None)) as pool:
        h = pool.handles[0]
        req = _Request("orphan", pool.config, SRC, "main", [3], None, None,
                       None, None, None, True, None)
        with pool._work:
            h.inflight[req.rid] = req
        pool._handle_message(("bye", h.wid, h.generation))
        err = req.future.exception(timeout=10)
        assert isinstance(err, WorkerCrashError) and err.reason == "exit"
        assert err.request_ids == ("orphan",)
        assert pool.stats.restarts == 1
        deadline = time.monotonic() + 20
        while pool.healthy_workers() < 1 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pool.submit(SRC, "main", [3]).result(timeout=60) == 10


def test_a_group_is_accounted_whatever_its_members_fate():
    """Regression: the group's ``(n, flags)`` rode on its first response
    only, so a group whose first member had been failed meanwhile (a
    deadline sweep) or arrived poisoned was never counted."""
    from repro.serve.batcher import _Request
    with WorkerPool(quick(workers=1, retry=None)) as pool:
        h = pool.handles[0]
        live = _Request("live", pool.config, SRC, "main", [3], None, None,
                        None, None, None, True, None)
        with pool._work:
            h.inflight[live.rid] = live
        payload = pickle.dumps(10)
        crc = zlib.adler32(payload)
        pool._handle_message(
            ("done", h.wid, h.generation,
             [("swept", True, payload, crc), ("live", True, payload, crc)],
             (2, {"promoted": True})))
        assert live.future.result(timeout=10) == 10
        s = pool.stats.snapshot()
        assert s["batches"] == 1 and s["batched_requests"] == 2
        assert s["promotions"] == 1 and s["responses"] == 1
        assert not h.inflight and s["restarts"] == 0


def test_shard_affinity_is_stable():
    # the same batch key must always land on the same worker slot
    ring = HashRing(2)
    key = (cache_key(SRC, None, True), "main", None, "vector", False)
    assert ring.lookup(key) == ring.lookup(key)
    with WorkerPool(quick()) as pool:
        futs = [pool.submit(SRC, "main", [k]) for k in range(6)]
        [f.result(timeout=60) for f in futs]
        served = [h for h in pool.handles
                  if h.wid == ring.lookup(key)]
        assert len(served) == 1


def test_closed_pool_rejects_submissions():
    pool = WorkerPool(quick())
    pool.close()
    with pytest.raises(RuntimeError):
        pool.submit(SRC, "main", [1])
    pool.close()     # idempotent


def test_unknown_backend_is_rejected_at_submit():
    """Regression: it used to be pickled to a worker, compiled there and
    only then failed."""
    with WorkerPool(quick()) as pool:
        with pytest.raises(ValueError, match="unknown backend 'bogus'"):
            pool.submit(SRC, "main", [1], backend="bogus")
        assert pool.queue_depth() == 0 and pool.stats.requests == 0
        assert pool.submit(SRC, "main", [3]).result(60) == 10


def test_config_validation():
    with pytest.raises(ValueError):
        WorkerPool(PoolConfig(workers=0))
    with pytest.raises(ValueError):
        WorkerPool(PoolConfig(workers=2, min_healthy=3))


# -- the native tier's circuit breaker -----------------------------------

def test_batcher_breaker_half_open_reprobe(monkeypatch):
    """Tier demotion is a circuit breaker: K consecutive native failures
    open it, a cooldown admits one probe, and a successful probe
    restores the native tier."""
    from repro.api import CompiledProgram
    monkeypatch.setattr("repro.native.toolchain.available", lambda: True)
    orig = CompiledProgram.run
    calls = {"native": 0}

    def fake(self, fname, args, **kw):
        if kw.get("backend") == "native":
            calls["native"] += 1
            if calls["native"] <= 3:
                raise NativeCompileError("compile", "injected")
            kw = dict(kw, backend="vector")
        return orig(self, fname, args, **kw)

    monkeypatch.setattr(CompiledProgram, "run", fake)
    cfg = ServeConfig(native_after=1, breaker_failures=2,
                      breaker_cooldown_s=0.3)
    with BatchExecutor(cfg) as ex:
        for _ in range(5):
            assert ex.submit(SRC, "main", [2]).result(30) == 5
        # two native failures tripped the breaker; while open, no
        # further native attempts happen
        assert calls["native"] == 2
        assert ex.stats.demotions == 1
        time.sleep(0.35)
        # cooldown elapsed: one half-open probe (fails, re-opens)
        assert ex.submit(SRC, "main", [2]).result(30) == 5
        assert calls["native"] == 3
        assert ex.stats.demotions == 2
        time.sleep(0.65)                     # escalated cooldown
        # next probe succeeds and closes the breaker: native tier back
        assert ex.submit(SRC, "main", [2]).result(30) == 5
        n = calls["native"]
        assert n == 4
        assert ex.submit(SRC, "main", [2]).result(30) == 5
        assert calls["native"] == n + 1      # closed: native again
    assert ex.stats.errors == 0              # demotion never reached callers
