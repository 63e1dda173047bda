"""Chaos battery for the worker pool: seeded process faults injected at
the registered ``pool.worker.*`` sites must be *contained* — each victim
request resolves with a typed error naming it (or a transparent retry),
batchmates on other workers are untouched, and the pool recovers to its
full worker count.  The per-site containment contracts themselves are
exercised one-by-one in tests/guard/test_process_faults.py; this file
covers the mixed/recovery scenarios plus the deadline-kill of a stuck
worker with live batchmates elsewhere."""

import time

import pytest

from repro.errors import ResourceLimitError, WorkerCrashError
from repro.guard import PROCESS_FAULT_SITES, ChaosSpec
from repro.serve import PoolConfig, RetryPolicy, WorkerPool
from repro.serve.cache import cache_key
from repro.serve.policy import HashRing

SRC = "fun main(x) = x * x + 1;"


def chaos_cfg(chaos, **kw) -> PoolConfig:
    kw.setdefault("workers", 2)
    kw.setdefault("native_after", 0)
    kw.setdefault("respawn_backoff_s", 0.05)
    kw.setdefault("supervise_s", 0.05)
    return PoolConfig(chaos=chaos, **kw)


def wait_recovered(pool, n=2, timeout=20.0):
    deadline = time.monotonic() + timeout
    while pool.healthy_workers() < n and time.monotonic() < deadline:
        time.sleep(0.05)
    return pool.healthy_workers()


def shard_for(src: str, workers: int = 2) -> int:
    key = (cache_key(src, None, True), "main", None, "vector", False)
    return HashRing(workers).lookup(key)


def test_abort_storm_contained_and_recovered():
    """Workers randomly os._exit(70) mid-request at 30%: every request
    still resolves (value or a typed crash error naming it), the
    supervisor respawns the dead workers, and the pool ends healthy."""
    chaos = ChaosSpec(sites=("pool.worker.abort",), rate=0.3, seed=11)
    n = 30
    # max_batch=1: every request is its own dispatch group, so each rid
    # rolls the chaos dice itself (coalesced batches consult only the
    # group leader)
    with WorkerPool(chaos_cfg(chaos, max_batch=1,
                              retry=RetryPolicy(max_retries=1))) as pool:
        futs = {f"a{i}": pool.submit(SRC, "main", [i], request_id=f"a{i}")
                for i in range(n)}
        ok = crashed = 0
        for rid, f in futs.items():
            e = f.exception(timeout=120)
            if e is None:
                i = int(rid[1:])
                assert f.result() == i * i + 1
                ok += 1
            else:
                # deterministic chaos re-fires on retry, so victims whose
                # retries are exhausted fail typed — never silently
                assert isinstance(e, WorkerCrashError)
                assert rid in e.request_ids
                crashed += 1
        assert ok + crashed == n and ok > 0
        assert pool.stats.restarts > 0
        assert pool.stats.retries > 0
        assert wait_recovered(pool) == 2
        # and the recovered pool still serves (a request the dice spare)
        probe = next(r for i in range(1000)
                     if not chaos.fires("pool.worker.abort", r := f"ok{i}"))
        assert pool.submit(SRC, "main", [7],
                           request_id=probe).result(timeout=60) == 50


def test_abort_without_retry_fails_typed():
    chaos = ChaosSpec(sites=("pool.worker.abort",), rate=1.0, seed=1)
    with WorkerPool(chaos_cfg(chaos, retry=None)) as pool:
        e = pool.submit(SRC, "main", [2],
                        request_id="boom").exception(timeout=120)
        assert isinstance(e, WorkerCrashError)
        assert e.reason == "exit" and "boom" in e.request_ids
        assert pool.stats.retries == 0


def test_crash_blast_radius_is_one_shard():
    """A crashing batch key must not disturb a concurrent batch pinned to
    the other worker."""
    victim_src = SRC
    target = 1 - shard_for(victim_src)
    survivor_src = next(
        f"fun main(x) = x + {k};" for k in range(2, 50)
        if shard_for(f"fun main(x) = x + {k};") == target)
    # fire only for the doomed request's id, not the survivors' leader
    chaos = ChaosSpec(sites=("pool.worker.abort",), rate=0.5, seed=5)
    doomed_rid = next(f"d{i}" for i in range(1000)
                      if chaos.fires("pool.worker.abort", f"d{i}"))
    safe_rids = [r for i in range(1000)
                 if not chaos.fires("pool.worker.abort",
                                    r := f"s{i}")][:4]
    with WorkerPool(chaos_cfg(chaos, retry=None)) as pool:
        safe = [pool.submit(survivor_src, "main", [i], request_id=r)
                for i, r in enumerate(safe_rids)]
        doomed = pool.submit(victim_src, "main", [3],
                             request_id=doomed_rid)
        assert isinstance(doomed.exception(timeout=120), WorkerCrashError)
        for i, f in enumerate(safe):
            assert f.exception(timeout=120) is None, f.exception()
        assert pool.stats.crashes.get("exit", 0) >= 1


def test_deadline_kills_stuck_worker_batchmates_survive():
    """Satellite: a worker wedged past a request's deadline is killed and
    only that request fails — ResourceLimitError('timeout') naming it —
    while concurrent requests on the other worker complete."""
    victim_src = SRC
    target = 1 - shard_for(victim_src)
    survivor_src = next(
        f"fun main(x) = x + {k};" for k in range(2, 50)
        if shard_for(f"fun main(x) = x + {k};") == target)
    # fire the wedge only for the victim's request id
    chaos = ChaosSpec(sites=("pool.worker.slow-compile",), rate=0.5,
                      seed=3, slow_s=30.0)
    vic_rid = next(f"v{i}" for i in range(1000)
                   if chaos.fires("pool.worker.slow-compile", f"v{i}"))
    safe_rids = [r for i in range(1000)
                 if not chaos.fires("pool.worker.slow-compile",
                                    r := f"s{i}")][:4]
    with WorkerPool(chaos_cfg(chaos, retry=None,
                              deadline_grace_s=0.1)) as pool:
        victim = pool.submit(victim_src, "main", [2], deadline_s=0.8,
                             request_id=vic_rid)
        safe = [pool.submit(survivor_src, "main", [i], request_id=r)
                for i, r in enumerate(safe_rids)]
        t0 = time.monotonic()
        e = victim.exception(timeout=120)
        took = time.monotonic() - t0
        assert isinstance(e, ResourceLimitError)
        assert e.limit == "timeout" and e.request == vic_rid
        assert took < 25.0, "deadline enforcement waited out the wedge"
        for f in safe:
            assert f.exception(timeout=120) is None, f.exception()
        assert pool.stats.crashes.get("deadline", 0) >= 1
        assert pool.stats.expired >= 1
        assert wait_recovered(pool) == 2


def test_poisoned_response_detected_not_delivered():
    chaos = ChaosSpec(sites=("pool.worker.poisoned-response",), rate=1.0,
                      seed=2)
    with WorkerPool(chaos_cfg(chaos, retry=None)) as pool:
        e = pool.submit(SRC, "main", [4],
                        request_id="px").exception(timeout=120)
        assert isinstance(e, WorkerCrashError)
        assert e.reason == "poisoned-response" and "px" in e.request_ids
        assert wait_recovered(pool) == 2


def test_torn_response_delivers_nothing_and_retries_clean():
    """The worker dies halfway through writing a ``done``: nothing of the
    torn frame is delivered; its request is a crash victim, retried, and
    — its id re-firing the site on every attempt — fails typed once the
    retries run out, while the requests queued behind it on the same
    worker come through."""
    site = "pool.worker.torn-response"
    chaos = ChaosSpec(sites=(site,), rate=0.5, seed=6)
    doomed = next(r for i in range(1000) if chaos.fires(site, r := f"t{i}"))
    spared = [r for i in range(1000)
              if not chaos.fires(site, r := f"s{i}")][:3]
    with WorkerPool(chaos_cfg(chaos, workers=1, max_batch=1,
                              retry=RetryPolicy(max_retries=1,
                                                base_backoff_s=0.02))) \
            as pool:
        bad = pool.submit(SRC, "main", [9], request_id=doomed)
        good = [pool.submit(SRC, "main", [k], request_id=r)
                for k, r in enumerate(spared)]
        e = bad.exception(timeout=120)
        assert isinstance(e, WorkerCrashError) and e.reason == "exit"
        assert e.request_ids == (doomed,)
        assert [f.result(timeout=120) for f in good] == [1, 2, 5]
        assert pool.stats.crashes == {"exit": 2}        # run and retry
        assert pool.stats.retries == 1
        assert pool.stats.responses == 3 and pool.stats.errors == 1
        assert wait_recovered(pool, 1) == 1


def test_heartbeat_stall_detected_by_timeout():
    chaos = ChaosSpec(sites=("pool.worker.heartbeat-stall",), rate=1.0,
                      seed=4, stall_s=60.0)
    with WorkerPool(chaos_cfg(chaos, retry=None, heartbeat_s=0.1,
                              heartbeat_timeout_s=0.6)) as pool:
        t0 = time.monotonic()
        e = pool.submit(SRC, "main", [5],
                        request_id="hx").exception(timeout=120)
        took = time.monotonic() - t0
        assert isinstance(e, WorkerCrashError)
        assert e.reason == "lost-heartbeat" and "hx" in e.request_ids
        assert took < 30.0, "stall was waited out, not detected"
        assert wait_recovered(pool) == 2


def test_retry_masks_transient_crash():
    """A fault that fires for the original rid but not after a worker
    restart... is impossible with deterministic per-rid chaos, so instead
    prove the retry path end-to-end: rate low enough that some victims'
    retries land on a non-firing (site, rid) — here the same rid always
    re-fires, so assert the budgeted bound instead: attempts never exceed
    1 + max_retries."""
    chaos = ChaosSpec(sites=("pool.worker.abort",), rate=0.4, seed=9)
    with WorkerPool(chaos_cfg(chaos,
                              retry=RetryPolicy(max_retries=2,
                                                base_backoff_s=0.02))) \
            as pool:
        futs = {f"r{i}": pool.submit(SRC, "main", [i], request_id=f"r{i}")
                for i in range(12)}
        for rid, f in futs.items():
            e = f.exception(timeout=120)
            fired = chaos.fires("pool.worker.abort", rid)
            if not fired:
                assert e is None and f.result() is not None
        assert pool.stats.retries <= 2 * 12


def test_budgeted_requests_never_retry():
    """Retrying a budgeted request would charge its budget twice; crash
    victims carrying a budget must fail typed instead."""
    from repro.guard import Budget
    chaos = ChaosSpec(sites=("pool.worker.abort",), rate=1.0, seed=1)
    with WorkerPool(chaos_cfg(chaos,
                              retry=RetryPolicy(max_retries=3))) as pool:
        e = pool.submit(SRC, "main", [2],
                        budget=Budget(max_elements=10 ** 9),
                        request_id="bdg").exception(timeout=120)
        assert isinstance(e, WorkerCrashError)
        assert "bdg" in e.request_ids
        assert pool.stats.retries == 0


def test_chaos_spec_validation_and_parse():
    with pytest.raises(ValueError):
        ChaosSpec(sites=("pool.worker.nope",))
    with pytest.raises(ValueError):
        ChaosSpec(sites=("pool.worker.abort",), rate=1.5)
    spec = ChaosSpec.parse("abort,poison:rate=0.25:seed=7")
    assert spec.sites == ("pool.worker.abort",
                          "pool.worker.poisoned-response")
    assert spec.rate == 0.25 and spec.seed == 7
    assert ChaosSpec.parse("all").sites == tuple(PROCESS_FAULT_SITES)
    with pytest.raises(ValueError):
        ChaosSpec.parse("abort:rate=0.1:bogus=2")
    # determinism: the same (seed, site, rid) always answers the same
    a = ChaosSpec(sites=("pool.worker.abort",), rate=0.5, seed=42)
    b = ChaosSpec(sites=("pool.worker.abort",), rate=0.5, seed=42)
    picks = [a.fires("pool.worker.abort", f"q{i}") for i in range(64)]
    assert picks == [b.fires("pool.worker.abort", f"q{i}")
                     for i in range(64)]
    assert any(picks) and not all(picks)


# -- containment by order: what a crash costs the rest of its frame ------

KEYS = [f"fun main(x) = x * x + {k};" for k in (1, 2, 3, 4)]
SLOW = "pool.worker.slow-compile"


def _ids(chaos, site):
    """``(lead, doomed, safe)``: an id only the slow site fires for, one
    only ``site`` fires for, and ids nothing fires for."""
    def fired(rid):
        return tuple(s for s in chaos.sites if chaos.fires(s, rid))
    lead = next(r for i in range(1000) if fired(r := f"l{i}") == (SLOW,))
    doomed = next(r for i in range(1000) if fired(r := f"x{i}") == (site,))
    return lead, doomed, [r for i in range(1000) if not fired(r := f"s{i}")]


def _one_frame(site, victim, retry):
    """One worker, its lead slowed: three requests on each of four keys
    and one request under a wall-clock budget (a group of one, though
    its key is A's) wait behind it and leave as ONE frame of five
    groups — A, B, C, D, the budgeted one — in which ``site`` fires for
    the ``victim``-th request.  Returns what a client and the counters
    can see."""
    from repro.guard import Budget
    chaos = ChaosSpec(sites=(SLOW, site), rate=0.5, seed=8, slow_s=0.3)
    lead, doomed, safe = _ids(chaos, site)
    rids, bud = safe[:12], safe[12]
    rids[victim] = doomed
    with WorkerPool(chaos_cfg(chaos, workers=1, retry=retry)) as pool:
        h = pool.handles[0]
        dones, handle_message = [], pool._handle_message

        def spy(msg):
            if msg[0] == "done":
                dones.append([a[0] for a in msg[3]])
            handle_message(msg)

        pool._handle_message = spy
        futs = {lead: pool.submit("fun main(x) = x;", "main", [7],
                                  request_id=lead)}
        deadline = time.monotonic() + 10
        while lead not in h.inflight and time.monotonic() < deadline:
            time.sleep(0.005)
        for i, rid in enumerate(rids):          # a0 b0 c0 d0 a1 b1 ...
            futs[rid] = pool.submit(KEYS[i % 4], "main", [i], request_id=rid)
            if i == 5:
                futs[bud] = pool.submit(
                    KEYS[0], "main", [9], request_id=bud,
                    budget=Budget(timeout_s=60.0))
        with pool._lock:
            reqs = {r.rid: r for r in h.pending}
        assert len(reqs) == 13 and pool.stats.frames == 1
        errors = {rid: f.exception(timeout=120) for rid, f in futs.items()}
        for i, rid in enumerate(rids):
            if errors[rid] is None:
                assert futs[rid].result() == i * i + i % 4 + 1
        assert futs[lead].result() == 7 and futs[bud].result() == 82
        assert wait_recovered(pool, 1) == 1
        groups = [rids[k::4] for k in range(4)] + [[bud]]
        return groups, errors, reqs, dones, pool.stats.snapshot()


def _answered_in_order(groups, dones):
    """Per key, answers came in submission order (a worker killed while
    alive may have answered a group the parent then sends again)."""
    flat = list(dict.fromkeys(rid for d in dones for rid in d))
    for g in groups:
        seen = [rid for rid in flat if rid in g]
        assert seen == [rid for rid in g if rid in seen]


def test_abort_in_the_second_group_charges_that_group_only():
    groups, errors, reqs, dones, s = _one_frame(
        "pool.worker.abort", 1, retry=None)           # b0 leads group B
    a, b, *later = groups
    assert dones[1] == a and sum(d == a for d in dones) == 1
    for rid in b:                       # it was running: each fails typed
        e = errors[rid]
        assert isinstance(e, WorkerCrashError) and e.reason == "exit"
        assert e.request_ids == (rid,) and reqs[rid].attempts == 1
    for rid in a + [r for g in later for r in g]:     # never started: free
        assert errors[rid] is None and reqs[rid].attempts == 0
    assert s["crashes"] == {"exit": 1} and s["restarts"] == 1
    assert s["retries"] == 0 and s["errors"] == 3 and s["responses"] == 11
    # the lead, the frame of five, and C, D and the budgeted one again
    assert s["frames"] == 3
    _answered_in_order(groups, dones)


def test_abort_in_the_second_group_retries_that_group_only():
    groups, errors, reqs, dones, s = _one_frame(
        "pool.worker.abort", 1,
        retry=RetryPolicy(max_retries=1, base_backoff_s=0.02))
    b = groups[1]
    for rid, e in errors.items():       # whoever rode with b0 again failed
        assert e is None or (rid in b and isinstance(e, WorkerCrashError)
                             and e.request_ids == (rid,))
    assert s["retries"] == 3            # one each, nobody else charged
    assert all(r.attempts == 0 for rid, r in reqs.items() if rid not in b)
    assert sum(d == groups[0] for d in dones) == 1


def test_torn_first_group_is_the_victim_and_the_rest_ride_free():
    groups, errors, reqs, dones, s = _one_frame(
        "pool.worker.torn-response", 0, retry=None)   # a0 leads group A
    a, *later = groups
    for rid in a:                       # ran, but nothing of it arrived
        assert isinstance(errors[rid], WorkerCrashError)
        assert errors[rid].request_ids == (rid,)
    for rid in [r for g in later for r in g]:
        assert errors[rid] is None and reqs[rid].attempts == 0
    assert s["crashes"] == {"exit": 1} and s["retries"] == 0
    assert s["errors"] == 3 and s["frames"] == 3
    _answered_in_order(groups, dones)


def test_poisoned_member_dooms_the_group_behind_it_and_no_further():
    """The worker is alive, and maybe a group further on, when the parent
    meets the bad checksum: the first group not yet answered counts as
    running, the ones behind that are re-dispatched uncharged."""
    groups, errors, reqs, dones, s = _one_frame(
        "pool.worker.poisoned-response", 4, retry=None)   # a1, in group A
    a, b, *later = groups
    for rid in [a[1], *b]:
        e = errors[rid]
        assert isinstance(e, WorkerCrashError) and e.request_ids == (rid,)
        assert e.reason == "poisoned-response" and reqs[rid].attempts == 1
    for rid in [a[0], a[2]] + [r for g in later for r in g]:
        assert errors[rid] is None and reqs[rid].attempts == 0
    assert dones[1] == a and sum(d == a for d in dones) == 1
    assert s["crashes"] == {"poisoned-response": 1} and s["retries"] == 0
    assert s["errors"] == 4 and s["responses"] == 10
    _answered_in_order(groups, dones)


def test_frames_under_contention_lose_and_double_nothing():
    """Six client threads against two workers, the interpreter switching
    threads every 10 µs and one worker SIGKILLed under them: every
    request answers once and correctly (a victim's one retry is enough),
    and the parent's books — pending, in flight, groups sent — end
    empty."""
    import os
    import signal
    import sys
    import threading
    keys = [f"fun main(x) = x * {k + 2} + 1;" for k in range(6)]
    results, lock = {}, threading.Lock()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with WorkerPool(chaos_cfg(None, retry=RetryPolicy(
                max_retries=2, base_backoff_s=0.01))) as pool:
            def client(t):
                futs = [pool.submit(keys[(t + i) % 6], "main", [i],
                                    request_id=f"t{t}.{i}")
                        for i in range(150)]
                got = [f.exception(timeout=60) or f.result() for f in futs]
                with lock:
                    results[t] = got

            threads = [threading.Thread(target=client, args=(t,))
                       for t in range(6)]
            for t in threads:
                t.start()
            # under them: once worker 0 has a frame in flight (the whole
            # stream can be answered in 20 ms, and a kill after its end
            # may be noticed only after the books are read)
            deadline = time.monotonic() + 10
            while not pool.handles[0].inflight and time.monotonic() < deadline:
                time.sleep(0.001)
            os.kill(pool.handles[0].proc.pid, signal.SIGKILL)
            for t in threads:
                t.join(timeout=90)
                assert not t.is_alive()
            assert wait_recovered(pool) == 2
            s = pool.stats.snapshot()
            with pool._lock:
                assert not any(h.pending or h.inflight or h.groups
                               for h in pool.handles)
    finally:
        sys.setswitchinterval(interval)
    for t in range(6):
        assert results[t] == [i * ((t + i) % 6 + 2) + 1 for i in range(150)]
    assert s["requests"] == s["responses"] == 900 and s["errors"] == 0
    assert s["restarts"] == 1 and s["crashes"] == {"exit": 1}


def test_a_crash_fails_the_budgeted_member_typed_and_retries_the_rest():
    """A budgeted request rides in its key's group, so it shares the
    group's crash exposure: the worker dies running the group, and the
    budgeted member fails typed — a second run would charge its budget
    twice — while its unbudgeted batchmates are retried and answer."""
    from repro.guard import Budget
    site = "pool.worker.abort"
    chaos = ChaosSpec(sites=(SLOW, site), rate=0.5, seed=8, slow_s=0.3)
    lead, doomed, safe = _ids(chaos, site)
    mates = safe[:3]
    with WorkerPool(chaos_cfg(chaos, workers=1, retry=RetryPolicy(
            max_retries=1, base_backoff_s=0.02))) as pool:
        h = pool.handles[0]
        first = pool.submit("fun main(x) = x;", "main", [7], request_id=lead)
        deadline = time.monotonic() + 10
        while lead not in h.inflight and time.monotonic() < deadline:
            time.sleep(0.005)
        # the budgeted request leads its group: the abort fires for it
        bud = pool.submit(SRC, "main", [2], request_id=doomed,
                          budget=Budget(max_elements=10 ** 9))
        futs = [pool.submit(SRC, "main", [i], request_id=rid)
                for i, rid in enumerate(mates)]
        with pool._lock:
            reqs = {r.rid: r for r in h.pending}
        assert list(reqs) == [doomed, *mates]
        e = bud.exception(timeout=120)
        assert isinstance(e, WorkerCrashError) and e.reason == "exit"
        assert e.request_ids == (doomed,) and reqs[doomed].attempts == 1
        assert [f.result(timeout=120) for f in futs] == [1, 2, 5]
        assert first.result() == 7
        assert all(reqs[rid].attempts == 1 for rid in mates)
        s = pool.stats.snapshot()
        assert s["crashes"] == {"exit": 1} and s["retries"] == 3
        assert s["errors"] == 1 and s["responses"] == 4
        assert wait_recovered(pool, 1) == 1
