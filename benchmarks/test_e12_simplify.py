"""E12 (extension) — section 6: "investigating improvements to the
transformations that yield more efficient code."

The post-transformation simplifier (alias inlining + dead-binding
elimination) is our implementation of that direction.  Measured: generated
program size (lets / VCODE instructions) and end-to-end wall time, on/off,
plus equivalence."""

import random


from repro import TransformOptions, compile_program
from repro.lang.types import INT, TSeq
from repro.transform.simplify import count_lets

SRC = """
fun qs(s) =
  if #s <= 1 then s
  else let p = s[(#s + 1) div 2],
           less = [x <- s | x < p: x],
           same = [x <- s | x == p: x],
           more = [x <- s | x > p: x],
           sorted = [part <- [less, more]: qs(part)]
       in concat(concat(sorted[1], same), sorted[2])
"""


def programs():
    on = compile_program(SRC)
    off = compile_program(SRC, options=TransformOptions(
        passes="canonical,eliminate,optimize,fuse"))
    return on, off


class TestSimplifyAblation:
    def test_same_results(self):
        on, off = programs()
        rng = random.Random(0)
        data = [rng.randrange(100) for _ in range(40)]
        assert on.run("qs", [data]) == off.run("qs", [data]) == sorted(data)

    def test_fewer_lets(self):
        on, off = programs()
        _m, tp_on = on.prepare("qs", (TSeq(INT),))
        _m, tp_off = off.prepare("qs", (TSeq(INT),))
        lets_on = sum(count_lets(d.body) for d in tp_on.defs.values())
        lets_off = sum(count_lets(d.body) for d in tp_off.defs.values())
        assert lets_on < lets_off
        # record the sizes so regressions are visible in output
        print(f"lets: simplified={lets_on} raw={lets_off}")

    def test_fewer_instructions(self):
        on, off = programs()
        _m, vp_on = on.compile_vcode("qs", ["seq(int)"])
        _m, vp_off = off.compile_vcode("qs", ["seq(int)"])
        assert vp_on.instruction_count < vp_off.instruction_count

    def test_fewer_executed_steps(self):
        on, off = programs()
        rng = random.Random(1)
        data = [rng.randrange(1000) for _ in range(128)]
        _r, t_on = on.vector_trace("qs", [data])
        _r, t_off = off.vector_trace("qs", [data])
        assert len(t_on) <= len(t_off)


def _bench(benchmark, prog):
    rng = random.Random(2)
    data = [rng.randrange(10_000) for _ in range(512)]
    vm, mono = prog.vcode_vm("qs", [data])
    out = benchmark(lambda: vm.call(mono, [data]))
    assert out == sorted(data)


def test_bench_simplified(benchmark):
    _bench(benchmark, compile_program(SRC))


def test_bench_unsimplified(benchmark):
    _bench(benchmark, compile_program(
        SRC, options=TransformOptions(
            passes="canonical,eliminate,optimize,fuse")))
