"""E16 — Statically discharged guard checks (extension).

Full strict mode (``check=True``) re-validates the descriptor invariant
on every value crossing a kernel, VM, or call boundary — most of those
re-checks are provably redundant (an elementwise kernel reuses its
argument's descriptor chain unchanged).  The primitive catalog's shape
classes (docs/ANALYSIS.md) say which re-checks are redundant;
``check="static"`` keeps only the load-bearing runtime-class checks.

Shape expected: on a check-dominated E7 workload (many kernel and call
boundaries per run, so guard sites rather than data conversion dominate
the delta), static mode's overhead over unchecked execution is at most
**one third** of full mode's overhead, while producing element-wise
identical results on both the E7 and E9 (recursive divide-and-conquer)
workloads."""

import random
import time

import pytest

from repro import compile_program

E7_SRC = """
fun step(v) = [x <- v: (x * 3 + 1) mod 1000]
fun work(v, k) = if k == 0 then v else work(step(v), k - 1)
"""


@pytest.fixture(scope="module")
def e7_prog():
    return compile_program(E7_SRC)


def _time(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _interleaved_min(arms, reps=9):
    """min-of-N per arm with the arms interleaved, so clock drift and
    scheduler noise hit every mode equally (the E7 protocol)."""
    best = [float("inf")] * len(arms)
    for _ in range(reps):
        for k, fn in enumerate(arms):
            best[k] = min(best[k], _time(fn))
    return best


class TestStaticCheckOverhead:
    def test_static_overhead_at_most_third_of_full(self, e7_prog):
        # 600 iterations over a small vector: ~4k kernel sites and ~1k
        # call boundaries per run, so the three arms differ by check-site
        # cost rather than by Python<->vector conversion noise.
        v = list(range(256))
        run = e7_prog.run
        run("work", [v, 600], check="static")  # warm caches
        run("work", [v, 600], check=True)

        t_off, t_static, t_full = _interleaved_min([
            lambda: run("work", [v, 600]),
            lambda: run("work", [v, 600], check="static"),
            lambda: run("work", [v, 600], check=True),
        ])
        over_static = max(0.0, t_static - t_off)
        over_full = t_full - t_off
        assert over_full > 0, (t_off, t_full)
        assert over_static <= over_full / 3, \
            (t_off, t_static, t_full, over_static, over_full)

    def test_results_identical_on_e7(self, e7_prog):
        v = list(range(2000))
        base = e7_prog.run("work", [v, 3])
        for backend in ("vector", "native"):
            assert e7_prog.run("work", [v, 3], backend=backend,
                               check=True) == base
            assert e7_prog.run("work", [v, 3], backend=backend,
                               check="static") == base

    def test_results_identical_on_e9(self, qsort_program):
        rng = random.Random(16)
        data = [rng.randrange(10_000) for _ in range(2048)]
        base = sorted(data)
        for backend in ("vector", "native"):
            assert qsort_program.run("qsort", [data], backend=backend,
                                     check=True) == base
            assert qsort_program.run("qsort", [data], backend=backend,
                                     check="static") == base


N = 50_000


def test_bench_check_off(benchmark, e7_prog):
    v = list(range(N))
    e7_prog.run("step", [v])
    benchmark(lambda: e7_prog.run("step", [v]))


def test_bench_check_static(benchmark, e7_prog):
    v = list(range(N))
    e7_prog.run("step", [v], check="static")
    benchmark(lambda: e7_prog.run("step", [v], check="static"))


def test_bench_check_full(benchmark, e7_prog):
    v = list(range(N))
    e7_prog.run("step", [v], check=True)
    benchmark(lambda: e7_prog.run("step", [v], check=True))
