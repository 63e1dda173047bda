#!/usr/bin/env python3
"""Compare two sets of ``run.py --out`` result files, base against new.

    python bench/compare.py A.json B.json
    python bench/compare.py --base A1.json A2.json A3.json --new B1.json B2.json B3.json

One row per workload x end-to-end metric (and one for ``failed_share``):
each side's median and quartiles, the ratio new/base, and a verdict:

``regressed``   the new median is worse than the base median by more than the
                bound; for ``failed_share``, any increase
``unresolved``  a side's quartile spread is wider than the bound, and not every
                new run reads better than every base run
``missing``     one side has the workload or the metric and the other has not
``ok``          otherwise

Exit status is 1 when any row regressed, 2 when any row is missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The bounds a claim is held to (the issue that defined the benchmark).
#: BENCHMARK.json carries the line at which the driver rejects a change
#: outright from single runs, which this host's noise forces wider; a row
#: here is judged by the narrower of the two.
CLAIM_BOUNDS = {"op_ms_p50": 0.10, "op_ms_p90": 0.15, "ops_per_s": 0.10,
                "peak_rss_mb": 0.10, "setup_s": 0.30}


def load(paths: list[Path]) -> tuple[dict, dict]:
    """``{(workload, metric): [value per file]}`` and
    ``{workload: [failed, attempted]}`` summed over the files."""
    values: dict = {}
    ops: dict = {}
    for path in paths:
        for workload, r in json.loads(path.read_text())["results"].items():
            for metric, m in r["metrics"].items():
                values.setdefault((workload, metric), []).append(m["value"])
            counts = ops.setdefault(workload, [0, 0])
            counts[0] += r["failed"]
            counts[1] += r["attempted"]
    return values, ops


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


def verdict(base: list, new: list, better: str, bound: float) -> tuple[float, str]:
    """``(new median / base median, verdict)`` for one row."""
    (b1, b2, b3), (n1, n2, n3) = quartiles(base), quartiles(new)
    ratio = n2 / b2
    worse = ratio - 1 if better == "lower" else 1 - ratio
    if worse > bound:
        return ratio, "regressed"
    spread = max((b3 - b1) / b2, (n3 - n1) / n2)
    all_better = (max(new) < min(base) if better == "lower"
                  else min(new) > max(base))
    if spread > bound and not all_better:
        return ratio, "unresolved"
    return ratio, "ok"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("pair", nargs="*", type=Path, help="BASE.json NEW.json")
    ap.add_argument("--base", nargs="+", type=Path, default=[])
    ap.add_argument("--new", nargs="+", type=Path, default=[])
    ns = ap.parse_args(argv)
    if len(ns.pair) == 2 and not ns.base and not ns.new:
        ns.base, ns.new = ns.pair[:1], ns.pair[1:]
    elif ns.pair or not ns.base or not ns.new:
        ap.error("give BASE.json NEW.json, or --base FILES --new FILES")

    registry = json.loads((ROOT / "BENCHMARK.json").read_text())
    (base, base_ops), (new, new_ops) = load(ns.base), load(ns.new)
    verdicts = set()
    print(f"{'workload':14s} {'metric':12s} {'base q1/median/q3':>30s} "
          f"{'new q1/median/q3':>30s} {'new/base':>9s}  verdict")
    for w in (w["name"] for w in registry["workloads"]):
        if w not in base_ops and w not in new_ops:
            continue                    # run on neither side
        for m in registry["end_to_end"]:
            key = (w, m["name"])
            if key not in base or key not in new:
                verdicts.add("missing")
                print(f"{w:14s} {m['name']:12s} "
                      f"{'has it' if key in base else 'missing':>30s} "
                      f"{'has it' if key in new else 'missing':>30s} "
                      f"{'':>9s}  missing")
                continue
            bound = min(m["bound"], CLAIM_BOUNDS.get(m["name"], m["bound"]))
            ratio, v = verdict(base[key], new[key], m["better"], bound)
            verdicts.add(v)
            cells = ["/".join(f"{x:.4g}" for x in quartiles(side[key]))
                     for side in (base, new)]
            print(f"{w:14s} {m['name']:12s} {cells[0]:>30s} {cells[1]:>30s} "
                  f"{ratio:>8.3f}x  {v} (bound {bound:.0%}, "
                  f"base {quartiles(base[key])[1]:.4g} {m['unit']})")
        if w in base_ops and w in new_ops:
            shares = [f / a for f, a in (base_ops[w], new_ops[w])]
            v = "regressed" if shares[1] > shares[0] else "ok"
            verdicts.add(v)
            cells = [f"{f} of {a}" for f, a in (base_ops[w], new_ops[w])]
            print(f"{w:14s} {'failed_share':12s} {cells[0]:>30s} "
                  f"{cells[1]:>30s} {'':>9s}  {v} (any increase, "
                  f"base {shares[0]:.4g}, new {shares[1]:.4g})")
    return 2 if "missing" in verdicts else 1 if "regressed" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
