#!/usr/bin/env python
"""Smoke-test ``repro serve`` end to end: start the real CLI process,
fire a mixed workload of requests at it over the JSONL protocol, and
assert every response is correct, in order, and that the compile cache
actually deduplicated compilation (hit-rate > 0.9).  With ``--pool N``
the same workload goes through ``repro serve --pool N`` — the caches
live in the workers, so the summary must instead show every worker
healthy and none restarted.

Some requests are traps.  One ``seq(int)`` argument holds ``2**70``: it
must fail alone — typed, in its place in the order — and everything
coalesced with it must answer.  One untyped group is led by an empty
sequence and followed by floats: it must be served as a batch.  Two
budgets ride among the SQUARES requests, more than ``--max-batch`` of
them apart, so never in one group: ``"max_steps": 1`` must fail alone,
typed and in its place, while its batchmates answer, and ``"max_steps":
1000000`` must be served inside a batch — the summary counts it as
budgeted and batched.  So the summary may count at most one fallback per
failing trap.

Run by the CI ``serve-smoke`` job in process, with ``--workers 2`` and
with ``--pool 2``; usable locally:

    python tools/serve_smoke.py [N_REQUESTS] [--pool N | --workers N]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

#: Two programs alternating across the workload — the cache must serve
#: every request after the first two compiles.  SQUARES recurses on its
#: argument, so its cost is unbounded and a budget is left to the guard
#: (predicted admission would refuse ``"max_steps": 1`` at submit).
SQUARES = "fun main(n) = if n <= 0 then 0 else n * n + main(n - 1)"
EVENS = "fun main(s) = [x <- s | x mod 2 == 0: x * x]"


def expect_squares(n: int) -> int:
    return sum(i * i for i in range(1, n + 1))


def expect_evens(s: list[int]) -> list[int]:
    return [x * x for x in s if x % 2 == 0]


DOUBLE = "fun main(s) = [x <- s: x + x]"

#: request number -> (what replaces it, what it must answer).  The
#: out-of-range integer sits among EVENS requests (it coalesces with
#: them) and must answer TRAP_ERROR; the three untyped DOUBLE requests
#: are a program of their own, the empty one first.
TOO_BIG = 2 ** 70
TRAP_ERROR = {"ok": False, "kind": "error",
              "error": f"integer {TOO_BIG} does not fit int64"}
#: what the ``"max_steps": 1`` request must answer: a steps breach named
#: after it (the kernel it breaches at depends on the tier)
STEPS_ERROR = {"ok": False, "kind": "resource",
               "error": ("steps budget exceeded: ", " [request 96]")}
TRAPS = {10: ({"source": SQUARES, "args": [10], "max_steps": 1_000_000},
              expect_squares(10)),
         41: ({"source": EVENS, "args": [[2, TOO_BIG]],
               "types": ["seq(int)"]}, TRAP_ERROR),
         60: ({"source": DOUBLE, "args": [[]]}, []),
         61: ({"source": DOUBLE, "args": [[1.5]]}, [3.0]),
         62: ({"source": DOUBLE, "args": [[2.5, 3.5]]}, [5.0, 7.0]),
         96: ({"source": SQUARES, "args": [6], "max_steps": 1}, STEPS_ERROR)}
FAILING = (TRAP_ERROR, STEPS_ERROR)


def build_workload(count: int) -> tuple[list[dict], list]:
    """The requests, and per request the result — or, for the one that
    must fail, the whole response but its id."""
    requests, expected = [], []
    for k in range(count):
        if k in TRAPS:
            requests.append({"id": k, **TRAPS[k][0]})
            expected.append(TRAPS[k][1])
        elif k % 2 == 0:
            requests.append({"id": k, "source": SQUARES, "args": [k % 30]})
            expected.append(expect_squares(k % 30))
        else:
            s = list(range(-(k % 7), k % 11))
            requests.append({"id": k, "source": EVENS, "args": [s],
                             "types": ["seq(int)"]})
            expected.append(expect_evens(s))
    return requests, expected


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("count", nargs="?", type=int, default=100)
    ap.add_argument("--pool", type=int, default=0, metavar="N")
    ap.add_argument("--workers", type=int, default=1, metavar="N")
    ns = ap.parse_args(argv)
    count, pool = ns.count, ns.pool
    requests, expected = build_workload(count)
    payload = "".join(json.dumps(r) + "\n" for r in requests)

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--stats", "--max-batch",
         "32"] + (["--pool", str(pool)] if pool else
                  ["--workers", str(ns.workers)]),
        input=payload, capture_output=True, text=True, timeout=300)
    print(proc.stderr, end="", file=sys.stderr)
    # exit status 1 says a request failed: exactly the ones that have to
    must_fail = sum(1 for want in expected if want in FAILING)
    if proc.returncode != (1 if must_fail else 0):
        print(f"serve exited {proc.returncode}")
        return 1

    lines = proc.stdout.splitlines()
    if len(lines) != count:
        print(f"expected {count} responses, got {len(lines)}")
        return 1
    failures = 0
    for k, (line, want) in enumerate(zip(lines, expected)):
        resp = json.loads(line)
        if resp.get("id") != k:
            print(f"response {k} out of order: {resp}")
            failures += 1
        elif want is STEPS_ERROR:
            head, tail = want["error"]
            err = str(resp.get("error"))
            if resp.get("kind") != "resource" or not (
                    err.startswith(head) and err.endswith(tail)):
                print(f"request {k}: got {resp}, want a steps breach")
                failures += 1
        elif want is TRAP_ERROR:
            if resp != {"id": k, **want}:
                print(f"request {k}: got {resp}, want {want}")
                failures += 1
        elif not resp.get("ok") or resp.get("result") != want:
            print(f"request {k}: got {resp}, want result {want!r}")
            failures += 1
    if failures:
        print(f"{failures} bad response(s) out of {count}")
        return 1

    stats = proc.stderr
    # --stats reports "... 12 singles, 1 budgeted batched, 2 fallbacks,
    # 2 errors, ..."
    fallbacks = int(stats.split(" fallbacks,", 1)[0].rsplit(None, 1)[-1])
    if fallbacks > must_fail or f" {must_fail} errors" not in stats:
        print(f"{fallbacks} fallbacks: only a failing trap's group may "
              f"decompose ({must_fail} expected, and as many errors)")
        return 1
    riding = sum(1 for r in requests if r.get("max_steps") == 1_000_000)
    budgeted = int(stats.split(" budgeted batched,", 1)[0].rsplit(None, 1)[-1])
    if budgeted != riding:
        print(f"{budgeted} budgeted requests served in batches, "
              f"{riding} expected")
        return 1
    if pool:
        # --stats reports "0 worker restarts, ..., 31 frames [2/2 healthy]"
        # on stderr
        want = f" frames [{pool}/{pool} healthy]"
        if ", 0 worker restarts," not in stats or want not in stats:
            print(f"pool summary lacks '0 worker restarts' / '{want}'")
            return 1
        frames = int(stats.split(want, 1)[0].rsplit(None, 1)[-1])
        if not 0 < frames <= count:
            print(f"{frames} job frames for {count} requests")
            return 1
        print(f"serve smoke OK: {count} requests through --pool {pool} in "
              f"{frames} frames, all correct and in order")
        return 0
    # --stats reports "cache hit-rate 0.98 (98/100, 2 entries)" on stderr
    marker = "cache hit-rate "
    if marker not in stats:
        print("no cache stats line on stderr")
        return 1
    hit_rate = float(stats.split(marker, 1)[1].split()[0])
    if hit_rate <= 0.9:
        print(f"cache hit-rate {hit_rate} <= 0.9 "
              "(compilation was not deduplicated)")
        return 1
    print(f"serve smoke OK: {count} requests, all correct and in order, "
          f"cache hit-rate {hit_rate}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
