"""E14 (extension) — elementwise fusion.

The vector model charges a per-op latency, so chains of elementwise
operations waste steps; fusing them into single ops is the classic
vector-compiler optimization (and the modern one: every NESL-lineage
compiler fuses).  Measured: step count, simulated cycles on a
latency-dominated machine, and wall time — fused vs unfused."""

import random


from repro import TransformOptions, compile_program
from repro.machine import VectorMachine

SRC = "fun f(v) = [x <- v: ((x * 3 + 7) * x - 5) * (x + x * x)]"


def progs():
    on = compile_program(SRC)
    off = compile_program(SRC, options=TransformOptions(fuse=False))
    return on, off


class TestFusionAblation:
    def test_same_results(self):
        on, off = progs()
        rng = random.Random(1)
        v = [rng.randrange(-100, 100) for _ in range(500)]
        assert on.run("f", [v]) == off.run("f", [v])

    def test_fewer_steps(self):
        on, off = progs()
        v = list(range(100))
        _r, t_on = on.vector_trace("f", [v])
        _r, t_off = off.vector_trace("f", [v])
        # 7 arithmetic ops collapse into 1 fused op: 6 steps fewer
        assert len(t_off) - len(t_on) == 6
        assert [op for op, _n in t_on if op != "replicate"] == ["__fused0"]

    def test_a_fold_joins_the_region(self):
        """With a segmented fold on top the region grows by the fold: the
        fused program takes one step fewer again, and the vector the fold
        would have read is never a step's output."""
        src = f"fun g(v) = sum({SRC.split('= ', 1)[1]})"
        on = compile_program(src)
        off = compile_program(src, options=TransformOptions(fuse=False))
        v = list(range(100))
        r_on, t_on = on.vector_trace("g", [v])
        r_off, t_off = off.vector_trace("g", [v])
        assert r_on == r_off
        assert len(t_off) - len(t_on) == 7
        assert [op for op, _n in t_on if op != "replicate"] == ["__fused0"]
        _m, tp = on.prepare("g", on.entry_types("g", [v]))
        assert tp.fusion.size("__fused0") == 8   # the 7 and the sum

    def test_fewer_cycles_when_latency_dominates(self):
        on, off = progs()
        v = list(range(64))
        _r, t_on = on.vector_trace("f", [v])
        _r, t_off = off.vector_trace("f", [v])
        m = VectorMachine(processors=64, latency=10)
        assert m.run_trace(t_on).cycles < m.run_trace(t_off).cycles


def test_bench_fused(benchmark):
    on, _ = progs()
    v = list(range(50_000))
    vm, mono = on.vcode_vm("f", [v])
    benchmark(lambda: vm.call(mono, [v]))


def test_bench_unfused(benchmark):
    _, off = progs()
    v = list(range(50_000))
    vm, mono = off.vcode_vm("f", [v])
    benchmark(lambda: vm.call(mono, [v]))
