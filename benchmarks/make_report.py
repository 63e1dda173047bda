#!/usr/bin/env python
"""Regenerate every table and figure of the reproduction in one run.

Prints the per-experiment tables recorded in EXPERIMENTS.md.  Each section
is labelled with its experiment id (E1..E19) from DESIGN.md.  E17, E18 and
E19 also write machine-readable ``benchmarks/BENCH_E1?.json`` records
(consumed by the CI ``native-smoke``, ``serve-smoke`` and
``parallel-smoke`` jobs).

Run:  python benchmarks/make_report.py
"""

import random
import sys
import time

sys.path.insert(0, "benchmarks")

from repro import FunVal, TransformOptions, compile_program
from repro.lang.types import INT, seq_of
from repro.machine import VectorMachine, greedy_makespan, utilization
from repro.vector.convert import from_python


def hdr(title):
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def timeit(fn, *args, reps=3):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def e1_e2():
    hdr("E1/E2 — Tables 1 & 2: language constructs and primitives")
    prog = compile_program("""
        fun main(n) =
          let v = [i <- [1..n] | odd(i): i * i],
              t = (sum(v), #v)
          in if t.2 > 0 then t.1 else 0
    """)
    for n in (5, 10, 100):
        a = prog.run("main", [n], backend="interp")
        b = prog.run("main", [n])
        c = prog.run("main", [n], backend="vcode")
        print(f"  main({n:4d}) = {a:8d}   interp==vector=={a == b == c}")


def e3():
    hdr("E3 — Figure 1: representation of [[[2,7],[3,9,8]],[[3],[4,3,2]]]")
    nv = from_python([[[2, 7], [3, 9, 8]], [[3], [4, 3, 2]]], seq_of(INT, 3))
    for i, d in enumerate(nv.descs, 1):
        print(f"  descriptor V{i}: {d.tolist()}")
    print(f"  values:        {nv.values.tolist()}")
    print("  paper:         V1=[2] V2=[2,2] V3=[2,3,1,3] "
          "values=[2,7,3,9,8,3,4,3,2]")


def e4():
    hdr("E4 — Figure 2: extract / insert")
    from repro.vector.extract_insert import extract, insert
    nv = from_python([[[2, 7], [3, 9, 8]], [[3], [4, 3, 2]]], seq_of(INT, 3))
    ex = extract(nv, 2)
    print(f"  extract(V,2): top={ex.descs[0].tolist()} "
          f"next={ex.descs[1].tolist()} (values shared: {ex.values is nv.values})")
    print(f"  insert(extract(V,d),V,d) == V for d=1..3: "
          f"{all(insert(extract(nv, d), nv, d) == nv for d in (1, 2, 3))}")


def e5():
    hdr("E5 — Figure 3 / T1: f^d through f^1 (overhead of extract+insert)")
    from repro.vector import ops as O
    from repro.vector.extract_insert import extract
    from repro.vexec.apply import Applier
    ap = Applier(lambda n, a: None, lambda n: False)
    rng = random.Random(9)
    a = [[[rng.randrange(50) for _ in range(6)] for _ in range(5)]
         for _ in range(2000)]
    va = from_python(a, seq_of(INT, 3))
    flat = extract(va, 3)
    t1 = timeit(O.apply_kernel, "mul", [flat, flat], reps=20)
    t3 = timeit(ap.apply_named, "mul", [va, va], [3, 3], 3, None, reps=20)
    print(f"  raw mul^1 on {flat.values.size} elements: {t1 * 1e6:8.1f} us")
    print(f"  mul^3 via T1 (extract+insert):            {t3 * 1e6:8.1f} us")
    print(f"  T1 overhead factor: {t3 / t1:.2f}x  (paper: 'minimal overhead')")


def e6():
    hdr("E6 — Section 5 worked example")
    prog = compile_program("""
        fun sqs(n) = [j <- [1..n]: j * j]
        fun main(k) = [i <- [1..k]: sqs(i)]
    """, options=TransformOptions(trace=True))
    print(f"  main(5) = {prog.run('main', [5])}")
    print("\n  transformed sqs^1 (compare paper section 5):")
    src = prog.transformed_source("main", [5])
    for line in src.splitlines():
        print("   |", line)
    mono, tp = prog.prepare("main", (INT,))
    rules = tp.trace.rules_fired()
    print(f"\n  rules fired: {sorted(set(rules))}  ({len(rules)} applications)")


def e7():
    hdr("E7 — Iterator overhead: per-element interpretation vs vector ops")
    prog = compile_program("fun step(v) = [x <- v: (x * 3 + 1) mod 1000]")
    prog.run("step", [[1]])
    prog.run("step", [[1]], backend="interp")
    print(f"  {'n':>8} {'interp(ms)':>12} {'vector(ms)':>12} {'ratio':>8}")
    for n in (100, 1000, 10_000, 100_000):
        v = list(range(n))
        ti = timeit(lambda: prog.run("step", [v], backend="interp"))
        tv = timeit(lambda: prog.run("step", [v]))
        print(f"  {n:>8} {ti * 1e3:>12.2f} {tv * 1e3:>12.2f} {ti / tv:>8.1f}x")
    _r, rep = prog.profile("step", [list(range(10_000))])
    print(f"  measured (n=10000): {rep.total_calls()} vector ops moving "
          f"{rep.total_elements()} elements — the interpreter instead takes "
          f"~4 bytecode steps per element")
    from repro.guard import GuardConfig, guarded
    big = list(range(100_000))
    idle = GuardConfig(check=False)

    def guarded_run():
        with guarded(idle):
            prog.run("step", [big])

    t_plain, t_idle = float("inf"), float("inf")
    for _ in range(5):
        t_plain = min(t_plain, timeit(prog.run, "step", [big], reps=1))
        t_idle = min(t_idle, timeit(guarded_run, reps=1))
    print(f"  guard hooks, checker off (n=100000): "
          f"{(t_idle / t_plain - 1) * 100:+.2f}% (acceptance bar < 3%)")


def e8():
    hdr("E8 — Load balance under skew (P=16): flattened vs task-per-element")
    from conftest import skewed_sizes
    prog = compile_program("""
        fun work(n) = sum([i <- [1..n]: i * i])
        fun all(v) = [n <- v: work(n)]
    """)
    P = 16
    rows = []
    print(f"  {'skew':>6} {'flattened util':>15} {'task-model util':>16}")
    for skew in (0.0, 0.25, 0.5, 0.75, 0.9):
        sizes = skewed_sizes(64, skew, 20, random.Random(11))
        _r, trace = prog.vector_trace("all", [sizes])
        flat = VectorMachine(processors=P, latency=2).run_trace(trace)
        per = [prog.measure("work", [n])[1].work for n in sizes]
        tm = utilization(per, P, greedy_makespan(per, P))
        print(f"  {skew:>6.2f} {flat.utilization:>15.2%} {tm:>16.2%}")
        rows.append((skew, flat.utilization, tm))
    from repro.machine.chart import hbar_chart
    print("\n  figure: utilization at skew=0.9 (flattened vs task model)")
    last = rows[-1]
    print("  " + hbar_chart(["flattened", "task-model"],
                            [last[1] * 100, last[2] * 100],
                            width=40, unit="%").replace("\n", "\n  "))


def e9():
    hdr("E9 — Divide and conquer: flattened quicksort")
    prog = compile_program("""
        fun qsort(s) =
          if #s <= 1 then s
          else let p = s[(#s + 1) div 2],
                   less = [x <- s | x < p: x],
                   same = [x <- s | x == p: x],
                   more = [x <- s | x > p: x],
                   sorted = [part <- [less, more]: qsort(part)]
               in concat(concat(sorted[1], same), sorted[2])
    """)
    rng = random.Random(2)
    xs, ys = [], []
    print(f"  {'n':>6} {'vector ops':>11} {'work':>10} {'P=64 speedup':>13}")
    for n in (64, 256, 1024, 4096):
        data = [rng.randrange(n * 10) for _ in range(n)]
        res, trace = prog.vector_trace("qsort", [data])
        assert res == sorted(data)
        r1 = VectorMachine(1, 1).run_trace(trace)
        r64 = VectorMachine(64, 1).run_trace(trace)
        print(f"  {n:>6} {len(trace):>11} {r1.work:>10} "
              f"{r1.cycles / r64.cycles:>12.1f}x")
        xs.append(n)
        ys.append(len(trace))
    from repro.machine.chart import line_chart
    print("\n  figure: vector ops (steps) vs n — polylogarithmic growth")
    print("  " + line_chart(xs, ys, height=7, width=44,
                            xlabel="n").replace("\n", "\n  "))


def e10():
    hdr("E10 — Higher-order parallel application")
    prog = compile_program("""
        fun row_reduce(f, vv) = [v <- vv: reduce(f, v)]
        fun mixed(v) = [x <- v: (if odd(x) then neg else abs_)(x)]
    """)
    vv = [[3, 1, 4], [1, 5], [9, 2, 6, 5]]
    for f, want in ((FunVal("add"), [8, 6, 22]), (FunVal("max2"), [4, 5, 9])):
        got = prog.run("row_reduce", [f, vv],
                       types=["(int, int) -> int", "seq(seq(int))"])
        print(f"  reduce({f.name}) per row  -> {got}  (expect {want})")
    print(f"  mixed function frame -> {prog.run('mixed', [[1, -2, 3]])}")


def e11():
    hdr("E11 — Section 4.5 ablations")
    rng = random.Random(12)
    v = [rng.randrange(100) for _ in range(2000)]
    ix = [rng.randrange(1, 2001) for _ in range(2000)]
    g = "fun gather(v, ix) = [i <- ix: v[i]]"

    def work_of(prog, fname, args):
        _r, t = prog.vector_trace(fname, args)
        return sum(w for _o, w in t), len(t)

    on = compile_program(g)
    off = compile_program(g, options=TransformOptions(
        passes="canonical,eliminate,simplify,fuse"))
    w_on, s_on = work_of(on, "gather", [v, ix])
    w_off, s_off = work_of(off, "gather", [v, ix])
    print(f"  shared seq_index : work {w_on:>9} vs replicated {w_off:>9} "
          f"({w_off / w_on:.0f}x saved)")

    def kernel_counts(prog, fname, args, *ops):
        _r, rep = prog.profile(fname, args)
        return {op: (c.calls if (c := rep.counter(op)) else 0) for op in ops}

    c_on = kernel_counts(on, "gather", [v, ix],
                         "seq_index_shared", "replicate")
    c_off = kernel_counts(off, "gather", [v, ix],
                          "seq_index", "replicate")
    print(f"    measured: on  -> seq_index_shared x{c_on['seq_index_shared']}, "
          f"replicate x{c_on['replicate']}")
    print(f"    measured: off -> seq_index x{c_off['seq_index']}, "
          f"replicate x{c_off['replicate']} (source copied per index)")

    f = compile_program("fun nat(vv) = flatten(vv) fun pl(vv) = flatten_p(vv)")
    vv = [[1] * (i % 9) for i in range(600)]
    w_nat, s_nat = work_of(f, "nat", [vv])
    w_pl, s_pl = work_of(f, "pl", [vv])
    print(f"  native flatten   : work {w_nat:>9} steps {s_nat:>5} vs P-level "
          f"work {w_pl:>9} steps {s_pl:>5}")

    r_on = compile_program("fun total(v) = reduce(add, v)",
                           options=TransformOptions(
                               passes="canonical,eliminate,native-reduce,"
                                      "optimize,simplify,fuse"))
    r_off = compile_program("fun total(v) = reduce(add, v)")
    big = list(range(4096))
    w_n, s_n = work_of(r_on, "total", [big])
    w_p, s_p = work_of(r_off, "total", [big])
    print(f"  native reduce    : work {w_n:>9} steps {s_n:>5} vs P-level "
          f"work {w_p:>9} steps {s_p:>5}")


def e12():
    hdr("E12 — Post-transform simplifier (section 6 'improvements')")
    from repro.transform.simplify import count_lets
    from repro.lang.types import TSeq
    src = """
        fun qs(s) =
          if #s <= 1 then s
          else let p = s[(#s + 1) div 2],
                   less = [x <- s | x < p: x],
                   same = [x <- s | x == p: x],
                   more = [x <- s | x > p: x],
                   sorted = [part <- [less, more]: qs(part)]
               in concat(concat(sorted[1], same), sorted[2])
    """
    on = compile_program(src)
    off = compile_program(src, options=TransformOptions(
        passes="canonical,eliminate,optimize,fuse"))
    _m, tp_on = on.prepare("qs", (TSeq(INT),))
    _m, tp_off = off.prepare("qs", (TSeq(INT),))
    lets_on = sum(count_lets(d.body) for d in tp_on.defs.values())
    lets_off = sum(count_lets(d.body) for d in tp_off.defs.values())
    data = [random.Random(1).randrange(1000) for _ in range(256)]
    _r, t_on = on.vector_trace("qs", [data])
    _r, t_off = off.vector_trace("qs", [data])
    print(f"  let bindings : {lets_on} (simplified) vs {lets_off} (raw)")
    print(f"  executed ops : {len(t_on)} vs {len(t_off)}")


def e13():
    hdr("E13 — Op-class mix and communication-aware machine (extension)")
    from repro.machine import CommMachine, VectorMachine, classify_trace
    progs = {
        "elementwise chain": (
            "fun f(v) = [x <- v: (x * x + x) * (x - x * x)]",
            [list(range(2000))]),
        "gather":            ("fun f(v) = [i <- v: v[i]]",
                              [[1] * 2000]),
        "row reductions":    ("fun f(vv) = [v <- vv: sum(v)]",
                              [[[1] * 8] * 250]),
    }
    print(f"  {'program':>18} {'elemwise':>9} {'gather':>8} {'scan':>7} "
          f"{'uniform P=16':>13} {'comm P=16':>10}")
    for name, (src, args) in progs.items():
        prog = compile_program(src)
        _r, trace = prog.vector_trace("f", args)
        # the registry of the program that ran: a fused region's class is
        # its tree's root's
        fusion = prog.prepare("f", *prog.resolve_entry("f", args))[1].fusion
        mix = classify_trace(trace, fusion)
        basic = VectorMachine(processors=16, latency=2).run_trace(trace)
        comm = CommMachine(processors=16, latency=2).run_trace(trace, fusion)
        print(f"  {name:>18} {mix.work_fraction('elementwise'):>9.0%} "
              f"{mix.work_fraction('gather_scatter'):>8.0%} "
              f"{mix.work_fraction('scan_reduce'):>7.0%} "
              f"{basic.cycles:>13} {comm.cycles:>10}")


def e14():
    hdr("E14 — Elementwise fusion (extension)")
    src = "fun f(v) = [x <- v: ((x * 3 + 7) * x - 5) * (x + x * x)]"
    on = compile_program(src)
    off = compile_program(src, options=TransformOptions(fuse=False))
    v = list(range(64))
    _r, t_on = on.vector_trace("f", [v])
    _r, t_off = off.vector_trace("f", [v])
    m = VectorMachine(processors=64, latency=10)
    print(f"  vector ops : {len(t_on)} (fused) vs {len(t_off)} (unfused)")
    print(f"  cycles P=64 latency=10 : {m.run_trace(t_on).cycles} vs "
          f"{m.run_trace(t_off).cycles}")
    _r, rep_on = on.profile("f", [v])
    _r, rep_off = off.profile("f", [v])
    print(f"  measured kernels : {rep_on.total_calls()} calls / "
          f"{rep_on.total_bytes()} bytes (fused) vs {rep_off.total_calls()} "
          f"calls / {rep_off.total_bytes()} bytes (unfused)")


def e15():
    hdr("E15 — Segment-batched serving throughput (extension)")
    from repro.serve import BatchExecutor, ServeConfig
    src = "fun main(s) = sum([x <- s: x * x + 1])"
    prog = compile_program(src)
    sets = [[list(range(i % 20 + 1))] for i in range(64)]
    types = ("seq(int)",)
    prog.run_batched("main", sets, types=types)      # warm transform caches

    def batched(bs):
        for i in range(0, len(sets), bs):
            prog.run_batched("main", sets[i:i + bs], types=types)

    def unbatched():
        for a in sets:
            prog.run("main", a, types=types)

    t_loop = timeit(unbatched, reps=5)
    print(f"  {'mode':>14} {'time(ms)':>10} {'req/s':>10} {'speedup':>9}")
    print(f"  {'run() loop':>14} {t_loop * 1e3:>10.2f} "
          f"{64 / t_loop:>10.0f} {'1.0x':>9}")
    for bs in (1, 8, 64):
        t = timeit(lambda: batched(bs), reps=5)
        print(f"  {'batch ' + str(bs):>14} {t * 1e3:>10.2f} "
              f"{64 / t:>10.0f} {t_loop / t:>8.1f}x")
    with BatchExecutor(ServeConfig(max_batch=64)) as ex:
        ex.run_many(src, "main", sets, types=types)
        s = ex.stats.snapshot()
        c = ex.cache.stats()
    print(f"  executor: {s['requests']} requests in {s['batches']} batches "
          f"(max {s['max_batch']}), cache {c['hits']}/{c['hits'] + c['misses']} "
          f"hits")


def e16():
    hdr("E16 — Statically discharged guard checks (extension)")
    src = """
        fun step(v) = [x <- v: (x * 3 + 1) mod 1000]
        fun work(v, k) = if k == 0 then v else work(step(v), k - 1)
    """
    prog = compile_program(src)
    v = list(range(256))
    base = prog.run("work", [v, 600])
    assert prog.run("work", [v, 600], check=True) == base
    assert prog.run("work", [v, 600], check="static") == base
    print("  results identical across check=off / static / full")

    from repro.analysis.shapes import analyze_shapes
    at = prog.entry_types("work", [v, 600])
    _mono, tp = prog.prepare("work", at)
    static, runtime = analyze_shapes(tp).counts()
    print(f"  shape analysis: {static} static sites, {runtime} runtime, "
          f"{len(analyze_shapes(tp).discharged)} check tags discharged")

    t_off = timeit(lambda: prog.run("work", [v, 600]), reps=5)
    t_static = timeit(lambda: prog.run("work", [v, 600], check="static"),
                      reps=5)
    t_full = timeit(lambda: prog.run("work", [v, 600], check=True), reps=5)
    print(f"  {'mode':>14} {'time(ms)':>10} {'overhead':>10}")
    for name, t in (("check off", t_off), ("static", t_static),
                    ("full", t_full)):
        print(f"  {name:>14} {t * 1e3:>10.2f} "
              f"{(t - t_off) * 1e3:>8.2f}ms")


def e17():
    hdr("E17 — Native fused C kernels vs NumPy back end (extension)")
    import json
    from pathlib import Path

    from repro.native import toolchain
    from repro.native.engine import get_engine
    from repro.vexec.evaluator import VectorEvaluator

    src = "fun f(v) = [x <- v: ((x * 3 + 7) * x - 5) * (x + x * x)]"
    n = 200_000
    v = list(range(n))
    prog = compile_program(src)
    available = toolchain.available()
    record = {"experiment": "E17", "workload": "E14 elementwise chain",
              "n": n, "toolchain": toolchain.toolchain_id(),
              "native_available": available, "target_speedup": 5.0}
    if not available:
        print("  no C toolchain: native backend falls back to NumPy "
              "(nothing to measure)")
        record.update({"numpy_ms": None, "native_ms": None,
                       "speedup": None, "bit_identical": None,
                       "met": False})
    else:
        # bit-identity through the public API (includes conversion)
        identical = (prog.run("f", [v], backend="native")
                     == prog.run("f", [v], backend="vector"))
        # timing on pre-converted vectors: measure the kernels, not the
        # Python-list conversion of 200k elements per call
        at = prog.entry_types("f", [v])
        mono_np, tp_np = prog.prepare("f", tuple(at))
        mono_nat, tp_nat = prog.prepare("f", tuple(at))
        vec = from_python(v, at[0])
        ev_np = VectorEvaluator(tp_np)
        ev_nat = VectorEvaluator(tp_nat, native=get_engine())
        ev_nat.call_raw(mono_nat, [vec])        # compile + warm the kernel
        t_np = timeit(lambda: ev_np.call_raw(mono_np, [vec]), reps=7)
        t_nat = timeit(lambda: ev_nat.call_raw(mono_nat, [vec]), reps=7)
        speedup = t_np / t_nat
        print(f"  {'backend':>14} {'time(ms)':>10} {'speedup':>9}")
        print(f"  {'numpy':>14} {t_np * 1e3:>10.3f} {'1.0x':>9}")
        print(f"  {'native':>14} {t_nat * 1e3:>10.3f} {speedup:>8.1f}x")
        print(f"  results bit-identical: {identical}")
        record.update({"numpy_ms": round(t_np * 1e3, 4),
                       "native_ms": round(t_nat * 1e3, 4),
                       "speedup": round(speedup, 2),
                       "bit_identical": identical,
                       "met": identical and speedup >= 5.0})
    path = Path(__file__).resolve().parent / "BENCH_E17.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"  wrote {path.relative_to(Path.cwd())}"
          if path.is_relative_to(Path.cwd()) else f"  wrote {path}")


def e18():
    hdr("E18 — Fault-tolerant multi-process serving (extension)")
    import json
    import os
    from pathlib import Path

    from repro.guard import ChaosSpec
    from repro.serve import (
        BatchExecutor, PoolConfig, RetryPolicy, ServeConfig, WorkerPool,
    )

    # the E15 workload, spread over 8 batch keys so a 4-worker pool has
    # concurrent shards to run (one key would serialize on one worker)
    srcs = [f"fun main(s) = sum([x <- s: x * x + {k}]);" for k in range(8)]
    n = 96
    work = [(f"e{i}", srcs[i % 8], [list(range(i % 20 + 1))])
            for i in range(n)]
    types = ("seq(int)",)

    def drive(ex):
        """One pass of the workload; returns (wall_s, p99_s, ok, err).
        Per-request latency is completion time since the pass started,
        collected in submission order — the same proxy for every
        configuration, so the ratios are comparable."""
        t0 = time.perf_counter()
        futs = [ex.submit(src, "main", args, types=types, request_id=rid)
                for rid, src, args in work]
        lat, ok, err = [], 0, 0
        for f in futs:
            try:
                f.result(timeout=300.0)
                ok += 1
                lat.append(time.perf_counter() - t0)
            except Exception:
                err += 1
        wall = time.perf_counter() - t0
        lat.sort()
        return wall, lat[int(0.99 * (len(lat) - 1))], ok, err

    with BatchExecutor(ServeConfig(max_batch=16)) as ex:
        drive(ex)                                # warm compile caches
        t_single, p99_single, ok1, _ = drive(ex)

    pool_kw = dict(workers=4, max_batch=16, native_after=0)
    with WorkerPool(PoolConfig(**pool_kw)) as pool:
        drive(pool)                              # warm worker caches
        t_pool, p99_pool, ok4, _ = drive(pool)

    # seed chosen so the kill set includes early request ids — the ones
    # that lead coalesced groups (chaos rolls once per dispatch group)
    chaos = ChaosSpec(sites=("pool.worker.abort",), rate=0.10, seed=12)
    with WorkerPool(PoolConfig(chaos=chaos, respawn_backoff_s=0.05,
                               retry=RetryPolicy(max_retries=2,
                                                 base_backoff_s=0.05),
                               **pool_kw)) as pool:
        drive(pool)
        t_chaos, p99_chaos, ok_c, err_c = drive(pool)
        restarts = pool.stats.restarts

    cpus = os.cpu_count() or 1
    speedup = t_single / t_pool
    p99_ratio = p99_chaos / p99_pool
    print(f"  {'configuration':>22} {'wall(ms)':>10} {'p99(ms)':>9} "
          f"{'ok':>4}")
    print(f"  {'1-thread executor':>22} {t_single * 1e3:>10.1f} "
          f"{p99_single * 1e3:>9.1f} {ok1:>4}")
    print(f"  {'4-worker pool':>22} {t_pool * 1e3:>10.1f} "
          f"{p99_pool * 1e3:>9.1f} {ok4:>4}")
    print(f"  {'pool + 10% kills':>22} {t_chaos * 1e3:>10.1f} "
          f"{p99_chaos * 1e3:>9.1f} {ok_c:>4}")
    print(f"  pool speedup {speedup:.2f}x over single-process "
          f"({cpus} CPU{'s' if cpus != 1 else ''}; target 2x needs >= 2), "
          f"chaos p99 {p99_ratio:.2f}x fault-free (target <= 3x), "
          f"{restarts} restarts, {err_c} crash-failed")
    record = {
        "experiment": "E18", "workload": "E15 sum-of-squares x 8 keys",
        "requests": n, "workers": 4, "cpus": cpus,
        "single_ms": round(t_single * 1e3, 2),
        "pool_ms": round(t_pool * 1e3, 2),
        "speedup": round(speedup, 3),
        "p99_pool_ms": round(p99_pool * 1e3, 2),
        "p99_chaos_ms": round(p99_chaos * 1e3, 2),
        "p99_ratio": round(p99_ratio, 3),
        "chaos": {"sites": list(chaos.sites), "rate": chaos.rate,
                  "seed": chaos.seed},
        "chaos_ok": ok_c, "chaos_failed": err_c, "restarts": restarts,
        "throughput_target": 2.0,
        "throughput_met": speedup >= 2.0 if cpus >= 2 else None,
        "p99_target": 3.0,
        "p99_met": p99_ratio <= 3.0,
    }
    path = Path(__file__).resolve().parent / "BENCH_E18.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"  wrote {path.relative_to(Path.cwd())}"
          if path.is_relative_to(Path.cwd()) else f"  wrote {path}")
    return record


def e19():
    hdr("E19 — True multicore execution of flat vector code (extension)")
    import json
    import os
    from pathlib import Path

    import numpy as np

    from repro.machine import VectorMachine
    from repro.native import toolchain
    from repro.native.engine import get_engine
    from repro.parallel.engine import get_parallel_engine
    from repro.vexec.evaluator import VectorEvaluator

    # the E14 shape with a segmented reduction on top: a fused float
    # chain over >= 1M flat elements, summed per segment
    src = ("fun f(v: seq(seq(float))) = "
           "[s <- v: sum([x <- s: (x * 0.5 + 1.0) * x - 0.25])]")
    nseg, per = 4000, 256               # 1,024,000 flat elements
    rng = np.random.default_rng(1993)
    arg = rng.uniform(-1.0, 1.0, size=nseg * per) \
        .reshape(nseg, per).tolist()
    prog = compile_program(src)
    cpus = os.cpu_count() or 1
    threaded = toolchain.available()
    at = prog.entry_types("f", [arg])
    vec = from_python(arg, at[0])
    mono_np, tp_np = prog.prepare("f", tuple(at))
    mono_nat, tp_nat = prog.prepare("f", tuple(at))
    ev_np = VectorEvaluator(tp_np)
    want = ev_np.call_raw(mono_np, [vec])
    t_np = timeit(lambda: ev_np.call_raw(mono_np, [vec]), reps=5)

    # serial baseline: native when a toolchain exists, else NumPy — the
    # honest denominator for each machine's fastest serial path.  Every
    # lane is built and verified first, then the lanes take turns, ten
    # rounds of five calls each after one untimed call (the team starts
    # its helpers on the first call at a larger team size), and each
    # keeps its best: two lanes that run the same engine (native serial
    # and parallel x1) then read the same time, where timing each lane
    # once, one after the other, read them up to 37% apart.
    evs = {}
    if toolchain.available():
        # one thread: the native engine itself would size this call
        evs["serial"] = VectorEvaluator(
            tp_nat, native=get_engine().at_threads(1))
        baseline = "native"
    else:
        baseline = "numpy"
    for threads in (1, 2, 4, 8):
        evs[threads] = VectorEvaluator(
            tp_nat, native=get_parallel_engine(threads))
    same = {lane: ev.call_raw(mono_nat, [vec]) == want
            for lane, ev in evs.items()}
    assert same.get("serial", True)
    best = dict.fromkeys(evs, float("inf"))
    for _ in range(10):
        for lane, ev in evs.items():
            ev.call_raw(mono_nat, [vec])
            best[lane] = min(
                best[lane], timeit(lambda: ev.call_raw(mono_nat, [vec]),
                                   reps=5))
    t_serial = best.get("serial", t_np)

    # E8's machine-model prediction for the same trace shape: predicted
    # speedup at P processors = P * utilization(P)
    _r, trace = prog.vector_trace("f", [arg[:500]])
    predicted = {p: round(
        VectorMachine(processors=p, latency=2).run_trace(trace)
        .utilization * p, 2) for p in (1, 2, 4, 8)}

    lanes = {}
    identical = True
    print(f"  {'lane':>16} {'time(ms)':>10} {'speedup':>9} "
          f"{'E8 predicts':>12}")
    print(f"  {'numpy serial':>16} {t_np * 1e3:>10.2f} "
          f"{t_serial / t_np:>8.2f}x {'':>12}")
    print(f"  {baseline + ' serial':>16} {t_serial * 1e3:>10.2f} "
          f"{'1.00x':>9} {'':>12}")
    for threads in (1, 2, 4, 8):
        identical = identical and same[threads]
        t_par = best[threads]
        lanes[threads] = {"ms": round(t_par * 1e3, 3),
                          "speedup": round(t_serial / t_par, 3),
                          "bit_identical": same[threads],
                          "predicted_speedup": predicted[threads]}
        print(f"  {f'parallel x{threads}':>16} {t_par * 1e3:>10.2f} "
              f"{t_serial / t_par:>8.2f}x {predicted[threads]:>11.2f}x")
    enough_cpus = cpus >= 4
    met = (lanes[4]["speedup"] >= 1.7 and identical) if enough_cpus \
        else None
    path = "threaded kernels" if threaded else f"{baseline} serial"
    print(f"  path: {path}, "
          f"{cpus} CPU{'s' if cpus != 1 else ''}; "
          f"bit-identical: {identical}; 4-thread target 1.7x: "
          f"{'met' if met else 'MISSED' if met is not None else 'skipped (< 4 CPUs)'}")
    record = {
        "experiment": "E19",
        "workload": "segmented float reduction over fused chain",
        "segments": nseg, "elements": nseg * per, "cpus": cpus,
        "threaded": threaded, "baseline": baseline,
        "numpy_ms": round(t_np * 1e3, 3),
        "serial_ms": round(t_serial * 1e3, 3),
        "threads": lanes, "bit_identical": identical,
        "target_speedup": 1.7, "target_threads": 4,
        "met": met,
        "skipped_reason": None if enough_cpus
        else f"machine has {cpus} CPU(s); speedup target needs >= 4",
    }
    path = Path(__file__).resolve().parent / "BENCH_E19.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"  wrote {path.relative_to(Path.cwd())}"
          if path.is_relative_to(Path.cwd()) else f"  wrote {path}")
    return record


def e20():
    hdr("E20 — Predicted-budget admission precision (extension)")
    import json
    from pathlib import Path

    from repro.errors import ResourceLimitError
    from repro.guard.runtime import Budget
    from repro.serve.batcher import BatchExecutor, ServeConfig

    # a boundable workload (closed-form certificate) plus an unbounded
    # one (data-dependent recursion, widened) — the two admission regimes
    src = "fun main(n) = sum([i <- [1..n]: (i * i) + n div i])"
    rec = "fun main(n) = if n <= 0 then 0 else n + main(n - 1)"
    sizes = [8, 16, 32, 64, 128, 256]

    # predicted-vs-measured scatter: the certificate against the
    # interpreter's actual work at each size (ratio = looseness)
    prog = compile_program(src)
    scatter = []
    for n in sizes:
        at = prog.entry_types("main", [n])
        p = prog.cost_certificate("main", at).predict([n])
        _v, rep = prog.measure("main", [n])
        scatter.append({"n": n, "predicted": p["work"],
                        "measured": rep.work,
                        "ratio": round(p["work"] / rep.work, 3)})
    ratios = sorted(s["ratio"] for s in scatter)
    median_ratio = ratios[len(ratios) // 2]

    # admission trial: budgets sweeping [0.25x .. 4x] of the *measured*
    # work.  Decisions under predicted admission vs the runtime-only
    # oracle; disagreements split into false accepts (admitted, then
    # breached — impossible while the bounds are sound) and false
    # rejects (refused, though it would have fit: the looseness cost).
    factors = (0.25, 0.5, 0.9, 1.1, 1.5, 2.0, 3.0, 4.0)
    false_accept = false_reject = agree = 0
    rejected_before_execution = 0
    with BatchExecutor(ServeConfig(backend="interp")) as ex, \
            BatchExecutor(ServeConfig(backend="interp",
                                      predict_admission=False)) as oracle:
        for s in scatter:
            for f in factors:
                budget = max(1, int(s["measured"] * f))
                try:
                    fut = ex.submit(src, "main", [s["n"]],
                                    budget=Budget(max_elements=budget))
                    pred_ok = not isinstance(fut.exception(60),
                                             ResourceLimitError)
                except ResourceLimitError:
                    pred_ok = False
                    rejected_before_execution += 1
                ofut = oracle.submit(src, "main", [s["n"]],
                                     budget=Budget(max_elements=budget))
                oracle_ok = not isinstance(ofut.exception(60),
                                           ResourceLimitError)
                if pred_ok == oracle_ok:
                    agree += 1
                elif pred_ok:
                    false_accept += 1
                else:
                    false_reject += 1
        # the unbounded program: prediction cannot reject, so every
        # over-budget request must be caught by the runtime backstop
        backstop = 0
        for n in (50, 100, 200):
            fut = ex.submit(rec, "main", [n], budget=Budget(max_elements=5))
            if isinstance(fut.exception(60), ResourceLimitError):
                backstop += 1
        stats = ex.stats.snapshot()
    cases = len(scatter) * len(factors)
    fr_rate = round(false_reject / cases, 3)
    met = (false_accept == 0 and fr_rate <= 0.35 and backstop == 3)
    print(f"  {'n':>6} {'measured':>10} {'predicted':>10} {'ratio':>7}")
    for s in scatter:
        print(f"  {s['n']:>6} {s['measured']:>10} {s['predicted']:>10} "
              f"{s['ratio']:>7.2f}")
    print(f"  admission: {cases} trials, {agree} agree, "
          f"{false_accept} false-accept, {false_reject} false-reject "
          f"(rate {fr_rate}); {rejected_before_execution} refused "
          f"pre-execution; runtime backstop caught {backstop}/3 "
          f"unbounded; median over-prediction {median_ratio:.2f}x; "
          f"targets (0 false-accepts, <= 0.35 false-reject): "
          f"{'met' if met else 'MISSED'}")
    record = {
        "experiment": "E20",
        "workload": "predicted-budget admission vs runtime enforcement",
        "sizes": sizes, "budget_factors": list(factors),
        "scatter": scatter, "median_overprediction": median_ratio,
        "cases": cases, "agree": agree,
        "false_accepts": false_accept, "false_rejects": false_reject,
        "false_reject_rate": fr_rate,
        "rejected_before_execution": rejected_before_execution,
        "predicted_rejections": stats["predicted_rejections"],
        "unbounded_backstop_caught": backstop,
        "unbounded_backstop_total": 3,
        "target_false_accepts": 0, "target_false_reject_rate": 0.35,
        "met": met,
    }
    path = Path(__file__).resolve().parent / "BENCH_E20.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"  wrote {path.relative_to(Path.cwd())}"
          if path.is_relative_to(Path.cwd()) else f"  wrote {path}")
    return record


if __name__ == "__main__":
    for fn in (e1_e2, e3, e4, e5, e6, e7, e8, e9, e10, e11, e12, e13, e14,
               e15, e16, e17, e18, e19, e20):
        fn()
    print()
