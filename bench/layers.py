"""Per-layer probes: one group per module under ``src/repro/``.  Each group
calls that layer's public functions on the inputs of the workload that
leans on it, times the call, and reads the layer's public counters.  Every
time is the median of the calls made, as measured on the wall (not
host-normalised; ``bench.host_factor`` says how fast the host was); counts
are exact.

``run_probes`` returns every per-layer metric except the per-workload
ones (``share.*`` and ``bench.trace_overhead_ratio``), which ``run.py``
takes from the workload's traced pass.
"""

from __future__ import annotations

import ctypes
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import workloads as W
from harness import (
    Tracer, expect, median_time, percentile, rounds, run_phase,
)

from repro import compile_program
from repro.analysis.shapes import analyze_shapes
from repro.guard.runtime import scoped_recursion_limit
from repro.lang import types as T
from repro.lang.parser import parse_program
from repro.lang.prelude import merge_with_prelude
from repro.lang.pretty import pretty_def
from repro.lang.typecheck import typecheck_program
from repro.native import toolchain
from repro.native.cache import KernelCache
from repro.native.codegen import emit_fused_source, emit_segmented_source
from repro.native.engine import NativeEngine
from repro.parallel.engine import get_parallel_engine
from repro.passes.base import PassContext
from repro.passes.manager import manager_for
from repro.transform.pipeline import TransformOptions, transform_program
from repro.vcode.compile import compile_transformed
from repro.vcode.vm import VM
from repro.vector import ops as O
from repro.vector.batch import pack_values, unpack_values
from repro.vector.convert import from_python, to_python
from repro.vector.extract_insert import extract, insert
from repro.vexec.apply import Applier
from repro.vexec.evaluator import VectorEvaluator

MS = 1e3


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# -- lang, passes, transform, analysis, interp -----------------------------------

def probe_frontend(seed: int) -> dict:
    """The compile pipeline, one public call at a time, over the
    ``cold_compile`` program set; times are medians over the programs."""
    cc = W.ColdCompile()
    cc.setup(seed)
    t: dict[str, list] = {k: [] for k in (
        "parse", "canon", "typecheck", "mono", "flatten", "noverify",
        "fused", "shapes", "interp")}
    ir_defs = ir_chars = source_bytes = 0
    opts = TransformOptions()
    for _name, src, entry, args, types in cc.programs:
        source_bytes += len(src.encode())
        raw, dt = _timed(lambda: merge_with_prelude(parse_program(src)))
        t["parse"].append(dt)
        ctx = PassContext(options=opts, program=raw)
        _, dt = _timed(lambda: manager_for(opts).run_source(ctx))
        t["canon"].append(dt)
        prog = compile_program(src)
        at = prog.entry_types(entry, args, types)
        typed, dt = _timed(lambda: typecheck_program(ctx.program))
        t["typecheck"].append(dt)
        mono, dt = _timed(lambda: typed.instance(entry, at))
        t["mono"].append(dt)
        tp, dt = _timed(lambda: transform_program(typed, [mono], opts))
        t["flatten"].append(dt)
        ir_defs += len(tp.defs)
        # fresh-name counters run on through a process: leave their digits
        # out, or the size depends on what was compiled before
        ir_chars += sum(len(re.sub(r"%\d+", "%", pretty_def(d)))
                        for d in tp.defs.values())
        _, dt = _timed(lambda: analyze_shapes(tp))
        t["shapes"].append(dt)
        for key, o in (("noverify", replace(opts, verify=False)),
                       ("fused", replace(opts, fuse=True))):
            # instance() memoizes on the typed program: a fresh one each time
            fresh = typecheck_program(ctx.program)
            m = fresh.instance(entry, at)
            t[key].append(_timed(lambda: transform_program(fresh, [m], o))[1])
        _, dt = _timed(lambda: prog.run(entry, args, backend="interp",
                                        types=types))
        t["interp"].append(dt)
    med = {k: statistics.median(v) * MS for k, v in t.items()}
    verify = statistics.median(
        a - b for a, b in zip(t["flatten"], t["noverify"])) * MS
    return {
        "lang.parse_ms": med["parse"], "lang.typecheck_ms": med["typecheck"],
        "lang.source_bytes": source_bytes,
        "passes.canonicalize_ms": med["canon"],
        "transform.monomorphize_ms": med["mono"],
        "transform.flatten_ms": med["flatten"],
        "transform.flatten_fused_ms": med["fused"],
        "transform.ir_defs": ir_defs, "transform.ir_chars": ir_chars,
        "analysis.verify_ms": verify, "analysis.shapes_ms": med["shapes"],
        "interp.call_ms": med["interp"],
    }


# -- native, parallel, vexec on the flat input ------------------------------------

def probe_kernels(seed: int, scratch: Path) -> dict:
    """Code generation, cc compile and cache load against empty cache
    directories, then the ``flat_kernels`` call on each engine."""
    fk = W.FlatKernels()
    fk.setup(seed)
    evs = {"vector": VectorEvaluator(fk.tp_np)}
    out = {"native.available": int(toolchain.available())}
    if toolchain.available():
        tree = fk.tp.fusion.trees[max(fk.tp.fusion.trees)]
        kinds, hoisted = ["float"] * 5, [False, True, True, False, True]
        source, codegen_s = _timed(
            lambda: (emit_fused_source(tree, kinds, hoisted),
                     emit_segmented_source("sum", "float"))[0])
        argtypes = [ctypes.c_void_p, ctypes.c_longlong] + [
            ctypes.c_double if h else ctypes.c_void_p for h in hoisted]
        cold_dir = scratch / "probe-cold"
        _, cc_s = _timed(lambda: KernelCache(cold_dir).get(source, argtypes))
        _, load_s = _timed(lambda: KernelCache(cold_dir).get(source, argtypes))
        # one cache, two engines: the second engine's kernels are all hits
        cache = KernelCache(scratch / "probe-engine")
        for _ in range(2):
            evs["native"] = VectorEvaluator(fk.tp, native=NativeEngine(cache))
            expect(evs["native"].call_raw(fk.mono, [fk.vec]) == fk.want,
                   "native engine")
        stats = cache.stats()
        out.update({"native.codegen_ms": codegen_s * MS,
                    "native.cc_compile_ms": cc_s * MS,
                    "native.cache_load_ms": load_s * MS,
                    "native.kernels_compiled": stats["compiles"],
                    "native.cache_hits": stats["hits"]})
    else:       # NumPy runs the fused program; nothing is generated
        evs["native"] = VectorEvaluator(fk.tp)
        out.update({"native.codegen_ms": 0.0, "native.cc_compile_ms": 0.0,
                    "native.cache_load_ms": 0.0,
                    "native.kernels_compiled": 0, "native.cache_hits": 0})
    for key, threads in (("t1", 1), ("tN", os.cpu_count() or 1)):
        evs[key] = VectorEvaluator(fk.tp, native=get_parallel_engine(threads))
        expect(evs[key].call_raw(fk.mono, [fk.vec]) == fk.want,
               f"parallel {key}")
    names = {k: fk.mono_np if k == "vector" else fk.mono for k in evs}
    call = {k: statistics.median(v) for k, v in rounds(
        {k: (lambda k=k: evs[k].call_raw(names[k], [fk.vec])) for k in evs},
        7).items()}
    out.update({
        "native.call_ms": call["native"] * MS,
        "vexec.call_ms.flat": call["vector"] * MS,
        "native.speedup_vs_vector": call["vector"] / call["native"],
        "parallel.call_ms.t1": call["t1"] * MS,
        "parallel.call_ms.tN": call["tN"] * MS,
        "parallel.t1_tax": call["t1"] / call["native"],
    })
    return out


# -- vector, api ------------------------------------------------------------------------

def probe_vector_api(seed: int) -> dict:
    api = W.ApiRoundtrip()
    api.setup(seed)
    prog, v = api.prog, api.args[0]
    at = prog.entry_types("f", [v])
    mono, tp = prog.prepare("f", at)
    vec = from_python(v, at[0])
    res = VectorEvaluator(tp).call_raw(mono, [vec])
    ret = tp.defs[mono].ret_type
    # run() and its parts in the same repetitions, so a change of host
    # speed between them cannot show up as (negative) overhead
    steps = {"entry_types": lambda: prog.entry_types("f", [v]),
             "from_python": lambda: from_python(v, at[0]),
             "call_raw": lambda: VectorEvaluator(tp).call_raw(mono, [vec]),
             "to_python": lambda: to_python(res, ret),
             "run": lambda: prog.run("f", [v])}
    took = rounds(steps, 7)
    parts = {k: statistics.median(v) for k, v in took.items()}
    overhead_s = statistics.median(
        run_s - sum(rest) for run_s, *rest in zip(
            took["run"], *(took[k] for k in steps if k != "run")))

    # a 64-request serve batch, packed and unpacked as run_batched does
    seq_int = T.parse_type("seq(int)")
    col = [from_python(r[1], seq_int) for r in W.serve_requests(seed, 64)]
    packed = pack_values(col, seq_int)
    pack_s = median_time(lambda: pack_values(col, seq_int), 25)
    unpack_s = median_time(lambda: unpack_values(packed, seq_int, 64), 25)

    # E5: mul^3 through extract / mul^1 / insert against the bare mul^1
    rng = random.Random(seed)
    a = [[[rng.randrange(50) for _ in range(6)] for _ in range(5)]
         for _ in range(2000)]
    va = from_python(a, T.parse_type("seq(seq(seq(int)))"))
    flat = extract(va, 3)
    ap = Applier(lambda n, args: None, lambda n: False)
    e5 = {k: statistics.median(v) for k, v in rounds({
        "raw": lambda: O.apply_kernel("mul", [flat, flat]),
        "t1": lambda: ap.apply_named("mul", [va, va], [3, 3], 3, None),
        "ei": lambda: insert(extract(va, 3), va, 3)}, 25).items()}
    return {
        "vector.from_python_ms": parts["from_python"] * MS,
        "vector.to_python_ms": parts["to_python"] * MS,
        "vector.pack_ms": pack_s * MS,
        "vector.unpack_ms": unpack_s * MS,
        "vector.extract_insert_ms": e5["ei"] * MS,
        "vector.t1_overhead": e5["t1"] / e5["raw"],
        "api.entry_types_ms": parts["entry_types"] * MS,
        "api.run_overhead_ms": overhead_s * MS,
    }


# -- vexec, vcode, guard, obs on the irregular inputs -------------------------------

def _sparse_rows(rng: random.Random, n: int) -> tuple[list, list]:
    rows = [[(c, rng.randrange(-9, 10))
             for c in sorted(rng.sample(range(1, n + 1), rng.randrange(0, 24)))]
            for _ in range(n)]
    return rows, [rng.randrange(-5, 6) for _ in range(n)]


def probe_vexec(seed: int) -> dict:
    """``call_raw`` on pre-converted irregular inputs (quicksort, sparse
    matrix-vector, quickhull), the VCODE VM on the quicksort input, and
    the checking and profiling overhead ratios on it."""
    dc = W.NestedDC()
    dc.setup(seed)
    rng = random.Random(seed)
    sources = {p[0]: p[1] for p in W.example_programs()}
    points = [(rng.randrange(-5000, 5000), rng.randrange(-5000, 5000))
              for _ in range(2000)]
    cases = {"qsort": (dc.prog, dc.entry, dc.args),
             "spmv": (compile_program(sources["spmv"]), "spmv",
                      list(_sparse_rows(rng, 500))),
             "quickhull": (compile_program(sources["convex_hull"]),
                           "quickhull", [points])}
    out = {}
    with scoped_recursion_limit(200_000):
        for key, (prog, entry, args) in cases.items():
            at = prog.entry_types(entry, args)
            mono, tp = prog.prepare(entry, at)
            vargs = [from_python(a, t) for a, t in zip(args, at)]
            want = prog.run(entry, args)
            ev = VectorEvaluator(tp)
            expect(to_python(ev.call_raw(mono, vargs),
                             tp.defs[mono].ret_type) == want, key)
            out[f"vexec.call_ms.{key}"] = median_time(
                lambda: ev.call_raw(mono, vargs)) * MS
            if key == "qsort":
                vp, compile_s = _timed(lambda: compile_transformed(tp))
                vm = VM(vp, record_trace=False, fusion=tp.fusion)
                expect(vm.call_raw(mono, vargs) == ev.call_raw(mono, vargs),
                       "vcode vm")
                out["vcode.compile_ms"] = compile_s * MS
                out["vcode.vm_call_ms"] = median_time(
                    lambda: vm.call_raw(mono, vargs), 3) * MS
                out["vcode.instructions"] = vp.instruction_count
    _res, report = dc.prog.profile(dc.entry, dc.args)
    out["vexec.kernel_calls"] = report.total_calls()
    out["vexec.bytes_moved"] = report.total_bytes()
    out["vexec.us_per_kernel_call"] = \
        out["vexec.call_ms.qsort"] * 1e3 / report.total_calls()

    took = {k: statistics.median(v) for k, v in rounds({
        "plain": lambda: dc.prog.run(dc.entry, dc.args),
        "full": lambda: dc.prog.run(dc.entry, dc.args, check="full"),
        "static": lambda: dc.prog.run(dc.entry, dc.args, check="static"),
        "profile": lambda: dc.prog.profile(dc.entry, dc.args)}, 3).items()}
    out["guard.check_full_ratio"] = took["full"] / took["plain"]
    out["guard.check_static_ratio"] = took["static"] / took["plain"]
    out["obs.profiling_on_ratio"] = took["profile"] / took["plain"]
    return out


# -- analysis.cost, serve ----------------------------------------------------------------

def probe_serve(seed: int, seconds: float = 1.0) -> dict:
    """The serve request stream four ways — 32 in flight and 1 in flight,
    in process and through the pool — plus a plain ``prog.run`` loop over
    the same requests and the admission-time cost prediction."""
    requests = W.serve_requests(seed)
    progs = [compile_program(W.serve_source(k)) for k in range(W.SERVE_KEYS)]
    for (k, s, _b, want) in requests[:64]:
        expect(progs[k].run("main", [s], types=W.SERVE_TYPES) == want,
               "direct run")
    t0 = time.perf_counter()
    for (k, s, b, _want) in requests[:1024]:
        progs[k].run("main", [s], types=W.SERVE_TYPES, budget=b)
    direct_ops = 1024 / (time.perf_counter() - t0)

    def predict():
        for (k, s, _b, _w) in requests[:64]:
            at = progs[k].entry_types("main", [s], W.SERVE_TYPES)
            progs[k].cost_certificate("main", at).predict([s])
    predict()                       # certificates are built once per key
    predict_s = median_time(predict) / 64

    out = {"analysis.cost_predict_ms": predict_s * MS}
    rate = {}
    for pooled in (False, True):
        side = "pool" if pooled else "inproc"
        w = W.Serve(pooled)
        try:
            w.setup(seed)
            run_phase(w, seconds / 2)                   # tiers promote
            tr = Tracer()
            ph = run_phase(w, seconds, tr)
            expect(ph.failed == 0, f"{side}: {ph.failed} wrong responses")
            rate[side] = ph.ops_per_s(wall=True)
            stats = w.ex.stats.snapshot()
            w.outstanding = 1
            w1 = run_phase(w, seconds / 2)
            out[f"serve.{side}_w1_ms_p50"] = statistics.median(w1.lat(wall=True)) * MS
            if pooled:
                out["serve.pool_restarts"] = stats["restarts"]
                out["serve.pool_retries"] = stats["retries"]
                continue
            cache = w.ex.cache.stats()
            out.update({
                "serve.request_ms_p99": percentile(ph.lat(wall=True), 0.99) * MS,
                "serve.submit_us": statistics.median(
                    tr.durations("serve.submit")) * 1e6,
                "serve.batches": stats["batches"],
                "serve.mean_batch_size":
                    stats["batched_requests"] / max(1, stats["batches"]),
                "serve.max_queue_depth": stats["max_queue_depth"],
                "serve.compile_cache_hit_rate":
                    cache["hits"] / max(1, cache["hits"] + cache["misses"]),
                "serve.promotions": stats["promotions"],
                "serve.rejected": stats["rejected"],
            })
        finally:
            w.close()
    out["serve.ipc_overhead_ms"] = \
        out["serve.pool_w1_ms_p50"] - out["serve.inproc_w1_ms_p50"]
    out["serve.pool_vs_inproc"] = rate["pool"] / rate["inproc"]
    out["serve.direct_run_ratio"] = rate["inproc"] / direct_ops
    return out


# -- cli ------------------------------------------------------------------------------------

def probe_cli(seed: int) -> dict:
    """Process-cold numbers: interpreter start + ``import repro``, the
    first response of a fresh ``repro serve``, and the time per further
    response of a 33-request stream on one server.  (``repro serve``
    writes a response only when it reads its next input line, so a client
    that waits for each answer before sending the next request cannot be
    served; a stream is the closest a client can get.)"""
    requests = W.serve_requests(seed, 33)
    lines = [json.dumps({"id": i, "source": W.serve_source(k), "args": [s],
                         "types": list(W.SERVE_TYPES)}) + "\n"
             for i, (k, s, _b, _w) in enumerate(requests)]

    def serve(n: int) -> list[float]:
        """Arrival times of the ``n`` responses, from process spawn."""
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-m", "repro", "serve"],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              text=True) as proc:
            proc.stdin.write("".join(lines[:n]))
            proc.stdin.close()          # end of input: the server drains
            arrivals = []
            for i in range(n):
                resp = json.loads(proc.stdout.readline())
                arrivals.append(time.perf_counter() - t0)
                expect(resp["ok"] and resp["result"] == requests[i][3],
                       f"repro serve answered {resp}")
            return arrivals

    import_s = median_time(lambda: subprocess.run(
        [sys.executable, "-c", "import repro"], check=True), 3)
    first_s = statistics.median(serve(1)[0] for _ in range(3))
    stream = serve(len(lines))
    return {
        "cli.import_ms": import_s * MS,
        "cli.serve_first_response_ms": first_s * MS,
        "cli.serve_warm_request_ms":
            (stream[-1] - stream[0]) / (len(stream) - 1) * MS,
    }


def run_probes(seed: int, scratch: Path) -> dict:
    return {**probe_frontend(seed), **probe_kernels(seed, scratch),
            **probe_vector_api(seed), **probe_vexec(seed),
            **probe_serve(seed), **probe_cli(seed)}
