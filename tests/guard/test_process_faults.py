"""Registry-driven containment proofs for the process-level fault sites.

Mirrors tests/guard/test_faults.py's discipline one level up the stack:
``PROCESS_FAULT_SITES`` registers every way a pool worker can betray its
supervisor, and this file keeps a *driver per site* that injects exactly
that fault (via a seeded :class:`ChaosSpec`) and asserts the registered
containment contract — the typed error, the request attribution, and the
pool's recovery to full strength.  ``test_every_site_has_a_driver``
closes the loop: adding a site without a driver fails the suite.
"""

import time

import pytest

from repro.errors import ResourceLimitError, WorkerCrashError
from repro.guard import PROCESS_FAULT_SITES, ChaosSpec
from repro.serve import PoolConfig, WorkerPool

SRC = "fun main(x) = x * x + 1;"


def run_one_under(site: str, tag: str, **cfg_kw):
    """Submit a single request with ``site`` firing for it (and a clean
    follow-up probe it does *not* fire for) and return
    (exception, victim rid, pool stats, recovered worker count)."""
    chaos = ChaosSpec(sites=(site,), rate=0.5, seed=1,
                      stall_s=60.0, slow_s=30.0)
    rid = next(r for i in range(1000)
               if chaos.fires(site, r := f"{tag}{i}"))
    probe = next(r for i in range(1000)
                 if not chaos.fires(site, r := f"ok{i}"))
    cfg_kw.setdefault("workers", 2)
    cfg_kw.setdefault("native_after", 0)
    cfg_kw.setdefault("retry", None)
    cfg_kw.setdefault("respawn_backoff_s", 0.05)
    with WorkerPool(PoolConfig(chaos=chaos, **cfg_kw)) as pool:
        e = pool.submit(SRC, "main", [3], request_id=rid,
                        **({"deadline_s": 0.8} if "deadline_grace_s"
                           in cfg_kw else {})).exception(timeout=120)
        deadline = time.monotonic() + 20
        while pool.healthy_workers() < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        healthy = pool.healthy_workers()
        # contained means the pool still serves afterwards
        after = pool.submit(SRC, "main", [4],
                            request_id=probe).result(timeout=60)
        assert after == 17
        return e, rid, pool.stats, healthy


def drive_abort():
    e, rid, stats, healthy = run_one_under("pool.worker.abort", "ab")
    assert isinstance(e, WorkerCrashError) and e.reason == "exit"
    assert rid in e.request_ids
    assert stats.crashes.get("exit", 0) >= 1
    assert healthy == 2


def drive_heartbeat_stall():
    e, rid, stats, healthy = run_one_under(
        "pool.worker.heartbeat-stall", "st",
        heartbeat_s=0.1, heartbeat_timeout_s=0.6)
    assert isinstance(e, WorkerCrashError)
    assert e.reason == "lost-heartbeat" and rid in e.request_ids
    assert stats.crashes.get("lost-heartbeat", 0) >= 1
    assert healthy == 2


def drive_slow_compile():
    e, rid, stats, healthy = run_one_under(
        "pool.worker.slow-compile", "sl", deadline_grace_s=0.1)
    assert isinstance(e, ResourceLimitError)
    assert e.limit == "timeout" and e.request == rid
    assert stats.crashes.get("deadline", 0) >= 1
    assert stats.expired >= 1
    assert healthy == 2


def drive_poisoned_response():
    e, rid, stats, healthy = run_one_under(
        "pool.worker.poisoned-response", "po")
    assert isinstance(e, WorkerCrashError)
    assert e.reason == "poisoned-response" and rid in e.request_ids
    assert stats.crashes.get("poisoned-response", 0) >= 1
    assert healthy == 2


def drive_torn_response():
    e, rid, stats, healthy = run_one_under("pool.worker.torn-response", "to")
    assert isinstance(e, WorkerCrashError) and e.reason == "exit"
    assert rid in e.request_ids
    assert stats.crashes == {"exit": 1}
    # nothing of the half-written `done` was acted on: the only response
    # and the only accounted group are the clean follow-up probe's
    assert stats.responses == 1 and stats.singles == 1
    assert healthy == 2


DRIVERS = {
    "pool.worker.abort": drive_abort,
    "pool.worker.heartbeat-stall": drive_heartbeat_stall,
    "pool.worker.slow-compile": drive_slow_compile,
    "pool.worker.poisoned-response": drive_poisoned_response,
    "pool.worker.torn-response": drive_torn_response,
}


def test_every_site_has_a_driver():
    assert set(DRIVERS) == set(PROCESS_FAULT_SITES), (
        "every registered process fault site needs a containment driver "
        "here (and every driver a registered site)")


@pytest.mark.parametrize("site", sorted(PROCESS_FAULT_SITES))
def test_site_contained(site):
    DRIVERS[site]()
