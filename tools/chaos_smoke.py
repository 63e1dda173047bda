#!/usr/bin/env python
"""Chaos smoke for the supervised worker pool: a mixed workload under
seeded process-fault injection at every registered ``pool.worker.*``
site, with the four containment claims asserted end to end —

* **no contamination**: every successful response carries exactly the
  value a fault-free run would have produced;
* **typed failure**: every unsuccessful request resolves with a typed
  error naming it (``WorkerCrashError`` / ``ResourceLimitError``), never
  a hang or an untyped exception;
* **no bystanders**: a request under a wall-clock budget runs alone and
  is never retried, so it shows what a crash costs the rest of its
  frame: every such request whose own id fires no site answers
  correctly, wherever in a dying worker's frame it was waiting — but for
  the one group a worker was on when the parent killed it over a
  checksum in the group before (alive until then, it had moved on),
  which fails as ``poisoned-response``.  A budget without ``timeout_s``
  rides in its key's group and shares that group's crash exposure;
* **recovery**: the pool is back to its full worker count at the end,
  and still serves.

Run by the CI ``chaos-smoke`` job; usable locally:

    python tools/chaos_smoke.py [N_REQUESTS] [REPORT_PATH]

Writes a JSON report (default ``chaos_report.json``) with the outcome
mix, crash counts by reason and by site, the job frames written and the
groups that rode in each, and the pool statistics.
"""

from __future__ import annotations

import json
import sys
import time

sys.path.insert(0, "src")

from repro.errors import ReproError, ResourceLimitError, WorkerCrashError
from repro.guard import PROCESS_FAULT_SITES, Budget, ChaosSpec
from repro.serve import PoolConfig, RetryPolicy, WorkerPool

SQUARES = "fun main(n) = sum([i <- [1..n]: i * i])"
SCALE = "fun main(s) = [x <- s: x * {k} + 1];"

WORKERS = 3


def expect_squares(n: int) -> int:
    return sum(i * i for i in range(1, n + 1))


#: a budget that rides in its key's group, and one that runs alone
RIDES = Budget(max_elements=10 ** 9)
ALONE = Budget(timeout_s=60.0)


def build_workload(count: int) -> list[tuple[str, str, list, object, object]]:
    """(rid, source, args, expected, budget) tuples; sources cycle over
    several batch keys so the run exercises coalesced batches, not just
    singletons, and one request in ten carries a budget: one in twenty
    rides in its key's group, one in twenty runs alone between them."""
    work = []
    for k in range(count):
        if k % 2 == 0:
            work.append((f"c{k}", SQUARES, [k % 25],
                         expect_squares(k % 25),
                         RIDES if k % 10 == 4 else None))
        else:
            s = list(range(k % 7 + 1))
            m = k % 5 + 2
            work.append((f"c{k}", SCALE.format(k=m), [s],
                         [x * m + 1 for x in s],
                         ALONE if k % 10 == 9 else None))
    return work


def forced_victims(spec: ChaosSpec) -> list[tuple[str, str]]:
    """One request id per registered site that is guaranteed to fire,
    each with a unique source (its own batch key, so it leads its own
    group and rolls its own dice) — the smoke covers *every* site on
    every run, whatever the random workload happens to draw.  They run
    after the workload, one at a time on a recovered pool: queued behind
    the workload's wedges, a slow-compile victim could expire before it
    started, or be the group a checksum kill takes down."""
    victims = []
    for j, site in enumerate(sorted(PROCESS_FAULT_SITES)):
        rid = next(r for i in range(100000)
                   if spec.fires(site, r := f"f{j}x{i}")
                   and not any(spec.fires(s, r) for s in spec.sites
                               if s != site))
        victims.append((rid, f"fun main(x) = x * x + {1000 + j};"))
    return victims


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 200
    report_path = argv[1] if len(argv) > 1 else "chaos_report.json"
    spec = ChaosSpec(sites=tuple(PROCESS_FAULT_SITES), seed=7, rate=0.05,
                     stall_s=60.0, slow_s=60.0)
    cfg = PoolConfig(workers=WORKERS, max_batch=8, native_after=0,
                     retry=RetryPolicy(max_retries=1, base_backoff_s=0.05),
                     heartbeat_s=0.1, heartbeat_timeout_s=1.0,
                     deadline_grace_s=0.2, respawn_backoff_s=0.05,
                     chaos=spec)
    work = build_workload(count)
    t0 = time.monotonic()
    outcome = {"ok": 0, "crash": 0, "timeout": 0}
    #: failed requests by the site(s) their own id fires; the forced
    #: victims make every registered site count at least one
    by_site = dict.fromkeys(PROCESS_FAULT_SITES, 0)
    failures: list[str] = []
    bystanders: set[str] = set()    # alone, and no site fires for them

    with WorkerPool(cfg) as pool:
        futs = {}
        def deadline_s(rid: str) -> float:
            """A deadline on every request keeps slow-compile wedges
            bounded — the supervisor kills past deadline + grace — and a
            short one on the request that wedges lets whatever waits
            behind it live to be served."""
            return 2.0 if spec.fires("pool.worker.slow-compile", rid) \
                else 20.0

        def recovered() -> int:
            deadline = time.monotonic() + 30
            while (pool.healthy_workers() < WORKERS
                   and time.monotonic() < deadline):
                time.sleep(0.1)
            return pool.healthy_workers()

        def settle(rid: str, fut, want) -> None:
            checksum_kill = False   # it was what a poisoned worker was on
            try:
                got = fut.result(timeout=300.0)
            except WorkerCrashError as e:
                outcome["crash"] += 1
                if rid not in e.request_ids:
                    failures.append(
                        f"{rid}: crash error does not name it: {e}")
                checksum_kill = e.reason == "poisoned-response"
            except ResourceLimitError as e:
                outcome["timeout"] += 1
                if e.request != rid:
                    failures.append(
                        f"{rid}: timeout error does not name it: {e}")
            except ReproError as e:
                failures.append(f"{rid}: unexpected typed error: {e}")
            except Exception as e:  # noqa: BLE001 - the claim under test
                failures.append(f"{rid}: UNTYPED leak {type(e).__name__}: {e}")
            else:
                outcome["ok"] += 1
                if got != want:
                    failures.append(
                        f"{rid}: CONTAMINATED result {got!r} != {want!r}")
                return
            if rid in bystanders and not checksum_kill:
                failures.append(f"{rid}: BYSTANDER failed, though alone "
                                "in its group and no site fires for it")
            for site in spec.sites:
                by_site[site] += spec.fires(site, rid)

        for rid, src, args, want, budget in work:
            if budget is ALONE and \
                    not any(spec.fires(s, rid) for s in spec.sites):
                bystanders.add(rid)
            futs[rid] = (pool.submit(
                src, "main", args, request_id=rid,
                deadline_s=deadline_s(rid), budget=budget), want)
        for rid, (fut, want) in futs.items():
            settle(rid, fut, want)
        for j, (rid, src) in enumerate(forced_victims(spec)):
            recovered()
            futs[rid] = (pool.submit(src, "main", [3], request_id=rid,
                                     deadline_s=deadline_s(rid)),
                         9 + 1000 + j)
            settle(rid, *futs[rid])

        # recovery: full strength again, and still serving
        healthy = recovered()
        if healthy < WORKERS:
            failures.append(f"no recovery: {healthy}/{WORKERS} healthy")
        probe_rid = next(r for i in range(100000)
                         if not any(spec.fires(s, r := f"probe{i}")
                                    for s in spec.sites))
        probe = pool.submit("fun main(x) = x + 1;", "main", [41],
                            request_id=probe_rid).result(timeout=60.0)
        if probe != 42:
            failures.append(f"post-chaos probe returned {probe!r}")
        stats = pool.stats.snapshot()

    reasons = sorted(stats["crashes"])
    if len(reasons) < 4:
        failures.append(f"only {reasons} crash reasons observed; "
                        "expected exit, lost-heartbeat, deadline and "
                        "poisoned-response")
    quiet = sorted(site for site, n in by_site.items() if not n)
    if quiet:
        failures.append(f"sites that never fired: {quiet}")

    report = {
        "requests": len(futs),
        "workers": WORKERS,
        "chaos": {"sites": list(spec.sites), "seed": spec.seed,
                  "rate": spec.rate},
        "outcomes": outcome,
        "crashes_by_reason": stats["crashes"],
        "faults_by_site": by_site,
        "bystanders": len(bystanders),
        "frames": stats["frames"],
        # every group executed is a batch or a single (nothing here fails
        # inside a batch, so none is decomposed into singles)
        "groups_per_frame": round((stats["batches"] + stats["singles"])
                                  / max(stats["frames"], 1), 2),
        "stats": stats,
        "healthy_at_end": healthy,
        "duration_s": round(time.monotonic() - t0, 2),
        "failures": failures,
    }
    with open(report_path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)

    for line in failures:
        print(f"FAIL: {line}")
    print(f"chaos smoke {'FAILED' if failures else 'OK'}: "
          f"{report['requests']} requests -> {outcome['ok']} ok, "
          f"{outcome['crash']} crash, {outcome['timeout']} timeout; "
          f"crashes by reason {stats['crashes']}; "
          f"{stats['restarts']} restarts, {stats['retries']} retries; "
          f"{len(bystanders)} lone bystanders; {stats['frames']} frames "
          f"of {report['groups_per_frame']} groups; "
          f"{healthy}/{WORKERS} healthy after "
          f"{report['duration_s']}s (report: {report_path})")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
