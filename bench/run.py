#!/usr/bin/env python3
"""The benchmark: six workloads, end-to-end metrics with tracing off, and
a traced pass plus per-layer probes.  See bench/README.md.

    python bench/run.py [--seed 1993] [--seconds 15] [--workload NAME ...]
                        [--trace 0|1] [--probes 0|1] [--out FILE]

Per workload: set-up (three times into fresh native caches, median is
``setup_s``) -> warm-up -> timed phase, tracing off -> traced pass.
``--trace 0`` stops after the timed phase, ``--trace 1`` skips it and
adds the layer probes; without ``--trace`` both happen.  Given several
workloads, each runs in a child process of its own and the probes run
once.  Every metric is printed by name with its unit, then each workload's
result as one JSON line, so with one ``--workload`` the last line of
standard output is that workload's result.  Exit status is 0 only when
every op of every phase matched its oracle.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
WARMUP_S = 2.0


def isolate(scratch: Path) -> None:
    """Run hygiene, before ``repro`` is imported: everything the program
    writes (native kernel cache, compiler temp files) goes under
    ``scratch``, thread-count overrides are cleared, and child processes
    find the checkout's ``src``."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"bench: no program to measure: {ROOT / 'src' / 'repro'} "
                 "is missing")
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    # registered before multiprocessing registers its own exit hook, so
    # both run after that hook has released what it holds under TMPDIR
    atexit.register(shutil.rmtree, scratch, ignore_errors=True)
    atexit.register(stop_resource_tracker)
    os.environ["TMPDIR"] = str(scratch / "tmp")
    os.environ.pop("REPRO_THREADS", None)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    sys.path[:0] = [src, str(BENCH)]


def stop_fork_server() -> None:
    """Stop and reap the fork server the pool's ``multiprocessing``
    context started; left alone it only ends after this process has."""
    from multiprocessing import forkserver
    forkserver._forkserver._stop()


def stop_resource_tracker() -> None:
    """The same for the resource tracker, which must outlive
    ``multiprocessing``'s own exit hook."""
    from multiprocessing import resource_tracker
    resource_tracker._resource_tracker._stop()


def fresh_native_cache(scratch: Path, tag: str) -> None:
    """Point the native engines at an empty cache directory, so the next
    use of a kernel pays for its cc compile."""
    from repro.native.engine import reset_engine
    from repro.parallel.engine import reset_engines
    os.environ["REPRO_NATIVE_CACHE"] = str(scratch / f"native-{tag}")
    reset_engine()
    reset_engines()


def measure_workload(name: str, seed: int, seconds: float, trace,
                     scratch: Path, share_names: list) -> dict:
    """Everything one workload reports except the layer probes;
    ``share_names`` are the ``share.<layer>`` metrics the registry declares.
    The bounded times are host-normalised; ``wall`` holds the same figures
    as measured."""
    import workloads
    from harness import Tracer, host_factor, peak_rss_mb, percentile, run_phase

    def times(ph, wall):
        lat = ph.lat(wall)
        return {"op_ms_p50": statistics.median(lat) * 1e3,
                "op_ms_p90": percentile(lat, 0.90) * 1e3,
                "ops_per_s": ph.ops_per_s(wall)}

    setups = []         # (wall seconds, host factor)
    w = None
    try:
        for rep in range(1 if trace == 1 else SETUP_REPEATS):
            if w is not None:
                w.close()
            fresh_native_cache(scratch, f"{name}-{rep}")
            gc.collect()
            f0 = host_factor()
            t0 = time.perf_counter()
            w = workloads.make(name)
            w.setup(seed)
            dt = time.perf_counter() - t0
            setups.append((dt, (f0 + host_factor()) / 2))
        run_phase(w, min(WARMUP_S, seconds))
        gc.collect()
        r: dict = {"attempted": 0, "failed": 0, "metrics": {}}
        if trace != 1:
            ph = run_phase(w, seconds)
            r["attempted"], r["failed"] = ph.attempted, ph.failed
            r["metrics"] = {
                **times(ph, wall=False),
                "peak_rss_mb": peak_rss_mb(),
                "setup_s": statistics.median(dt * f for dt, f in setups)}
            r["wall"] = {
                **times(ph, wall=True),
                "setup_s": statistics.median(dt for dt, _f in setups),
                "host_factor": ph.host_factor()}
            print(f"{name}: {ph.attempted} ops in {ph.seconds(wall=True):.2f} s "
                  f"timed, {ph.failed} failed (failed_share "
                  f"{ph.failed / ph.attempted:.4f}); as measured on the wall: "
                  + ", ".join(f"{k} {v:.4g}" for k, v in r["wall"].items()))
        if trace != 0:
            gc.collect()
            plain = run_phase(w, seconds * 0.2)
            gc.collect()
            tracer = Tracer()
            traced = run_phase(w, seconds * 0.4, tracer)
            tracer.write(BENCH / "out" / f"trace-{name}.jsonl")
            r["attempted"] += plain.attempted + traced.attempted
            r["failed"] += plain.failed + traced.failed
            shares = tracer.layer_shares()
            r["metrics"].update({n: shares.get(n.split(".", 1)[1], 0.0)
                                 for n in share_names})
            r["metrics"]["bench.trace_overhead_ratio"] = \
                traced.ops_per_s() / plain.ops_per_s()
            r["metrics"]["bench.host_factor"] = traced.host_factor()
        r["failed_share"] = r["failed"] / r["attempted"]
        r["correct"] = r["failed"] == 0
        return r
    finally:
        if w is not None:
            w.close()


def measure_in_children(ns) -> tuple[dict, int]:
    """Several workloads: one child ``run.py`` per workload without the
    layer probes, so each is measured in a process of its own, as the
    driver measures it (no workload sees another's heap or peak memory).
    Returns their results and the worst exit status."""
    results, status = {}, 0
    for name in ns.workload:
        part = BENCH / "out" / f"part-{os.getpid()}-{name}.json"
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(ns.seed), "--seconds", str(ns.seconds),
               "--probes", "0", "--out", str(part)]
        if ns.trace is not None:
            cmd += ["--trace", str(ns.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if not part.exists():
            sys.exit(f"bench: {name} ended with status {child.returncode} "
                     "and no result")
        print(child.stdout.rsplit("\n", 2)[0])   # all but its result line
        results[name] = json.loads(part.read_text())["results"][name]
        part.unlink()
        status = max(status, child.returncode)
    return results, status


def main(argv=None) -> int:
    registry = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in registry["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="+", choices=names, default=names)
    ap.add_argument("--seed", type=int, default=1993)
    ap.add_argument("--seconds", "--duration", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None)
    ap.add_argument("--probes", type=int, choices=(0, 1), default=1,
                    help="0 leaves the layer probes out of a traced run")
    ap.add_argument("--out", type=Path)
    ns = ap.parse_args(argv)

    def own(metric: str) -> bool:       # a workload's, not a probe's
        return metric.startswith(("share.", "bench."))

    units = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer")
             for m in registry[kind]}
    per_layer = [m["name"] for m in registry["per_layer"]]
    declared = set()
    if ns.trace != 1:
        declared |= {m["name"] for m in registry["end_to_end"]}
    if ns.trace != 0:
        declared |= {n for n in per_layer if ns.probes or own(n)}

    def with_units(metrics: dict) -> dict:
        return {k: {"value": v, "unit": units.get(k, "?")}
                for k, v in sorted(metrics.items())}

    def show(label: str, metrics: dict) -> None:
        for k, m in metrics.items():
            print(f"{label:14s} {k:32s} {m['value']:>16.6g} {m['unit']}")

    scratch = BENCH / "out" / f"run-{os.getpid()}"
    isolate(scratch)
    probes: dict = {}
    try:
        if len(ns.workload) > 1:
            results, status = measure_in_children(ns)
        else:
            name, status = ns.workload[0], 0
            r = measure_workload(
                name, ns.seed, ns.seconds, ns.trace, scratch,
                [n for n in per_layer if n.startswith("share.")])
            r["metrics"] = with_units(r["metrics"])
            show(name, r["metrics"])
            results = {name: r}
        if ns.trace != 0 and ns.probes:
            from layers import run_probes
            fresh_native_cache(scratch, "probes")
            probes = with_units(run_probes(ns.seed, scratch))
            show("(layer probes)", probes)      # the same for every workload
        meta = describe(ns)
    finally:
        stop_fork_server()

    for name, r in results.items():
        if set(r["metrics"]) | set(probes) != declared:
            print(f"{name}: metric set differs from BENCHMARK.json: "
                  f"{sorted((set(r['metrics']) | set(probes)) ^ declared)}",
                  file=sys.stderr)
            status = 2
        if not r["correct"]:
            print(f"{name}: {r['failed']} of {r['attempted']} ops failed "
                  "their oracle", file=sys.stderr)
            status = status or 1
    if ns.out:
        ns.out.write_text(json.dumps(
            {"meta": meta, "results": results, "layers": probes},
            indent=1) + "\n")
    for r in results.values():          # the driver's shape, one line each
        print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                          "failed": r["failed"],
                          "metrics": {**r["metrics"], **probes}}))
    return status


def describe(ns) -> dict:
    """What a reader needs to place the numbers: host, versions, toolchain."""
    import numpy

    from repro.native import toolchain
    try:        # None outside a git checkout
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"commit": commit,
            "seed": ns.seed, "seconds": ns.seconds, "trace": ns.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "toolchain": toolchain.toolchain_id(),
            "openmp": toolchain.available() and toolchain.openmp_available()}


if __name__ == "__main__":     # the pool's spawned workers import this file
    sys.exit(main())
