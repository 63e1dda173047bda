"""Parallel float determinism: bit-identical results at every thread
count, on every run.

Floating-point addition does not associate, so the classic parallel-sum
bug is a different answer at a different thread count.  The engine's
contract forbids that by construction — a segment never straddles two
pieces of a threaded call, so every segment folds in its serial order and
no float operation is ever reassociated (docs/PARALLEL.md).  These tests pin the
contract with exact ``==`` on raw float64 bits: segmented reductions and
scans over adversarially-scaled ragged floats, at thread counts 1
through 8, repeated runs.
"""

import random

import numpy as np
import pytest

from repro import compile_program
from repro.native import toolchain
from repro.parallel import engine as PE
from repro.vector import segments as S
from repro.vector.nested import NestedVector
from repro.vector.segments import INT_DTYPE

THREAD_COUNTS = (2, 3, 4, 8)

needs_cc = pytest.mark.skipif(not toolchain.available(),
                              reason="no C toolchain")
REPEATS = 3


def ragged_floats(seed: int) -> NestedVector:
    """A depth-2 float vector whose segments mix magnitudes (1e-8 .. 1e8)
    so any reassociation of the fold *would* change the sum bits."""
    rng = random.Random(seed)
    counts, vals = [], []
    for _ in range(rng.randrange(40, 120)):
        k = rng.randrange(0, 60)
        counts.append(k)
        vals.extend(rng.uniform(-1.0, 1.0) * 10.0 ** rng.randrange(-8, 9)
                    for _ in range(k))
    counts = np.array(counts, dtype=INT_DTYPE)
    values = np.array(vals, dtype=np.float64)
    descs = (np.array([counts.size], dtype=INT_DTYPE), counts)
    return NestedVector(descs, values, "float")


def serial(name: str, v: NestedVector) -> np.ndarray:
    fn = {"sum": S.seg_sum, "plus_scan": S.seg_plus_scan,
          "max_scan": S.seg_max_scan}[name]
    return fn(v.values, v.descs[1])


@needs_cc
@pytest.mark.parametrize("name", ["sum", "plus_scan", "max_scan"])
def test_openmp_floats_bit_identical(name):
    """The compiled multicore kernels reproduce the serial bits at every
    thread count."""
    v = ragged_floats(7)
    want = serial(name, v)
    for threads in THREAD_COUNTS:
        eng = PE.get_parallel_engine(threads)
        assert eng.threads == threads
        for _ in range(REPEATS):
            got = eng.apply_segmented(name, v)
            assert got is not None
            assert np.array_equal(got.values, want), \
                f"{name} differs at {threads} threads"


def test_full_program_floats_stable_across_thread_counts():
    """End to end through the public API: a segmented float-mean program
    returns the same Python floats at threads 1, 2, 4 and 8, twice
    each."""
    src = ("fun f(v: seq(seq(float))) = "
           "[s <- v: sum(s) * 0.25 + real(#s)]")
    rng = random.Random(42)
    arg = [[rng.uniform(-1.0, 1.0) * 10.0 ** rng.randrange(-6, 7)
            for _ in range(rng.randrange(0, 40))]
           for _ in range(200)]
    prog = compile_program(src)
    want = prog.run("f", [arg], backend="vector")
    for threads in (1, 2, 4, 8):
        for _ in range(2):
            assert prog.run("f", [arg], backend="native",
                            threads=threads) == want


@pytest.mark.skipif(not toolchain.available(), reason="no C toolchain")
def test_one_thread_is_the_serial_native_engine():
    """``native`` at one thread has nothing to fan out: it runs the
    serial native kernels (the ``native`` obs layer is charged, and no
    other) and returns the ``native`` back end's exact floats."""
    from repro.native.engine import get_engine
    from repro.obs import Profiler, profiling
    eng = PE.get_parallel_engine(1)
    assert eng.threads == 1 and eng.cache is get_engine().cache
    src = ("fun f(v: seq(seq(float))) = "
           "[s <- v: sum([x <- s: (x * 3.0 + 7.0) * x - 5.0])]")
    rng = random.Random(3)
    arg = [[rng.uniform(-1.0, 1.0) * 10.0 ** rng.randrange(-6, 7)
            for _ in range(rng.randrange(0, 40))]
           for _ in range(200)]
    prog = compile_program(src)
    want = prog.run("f", [arg], backend="native")
    prof = Profiler()
    with profiling(prof):
        got = prog.run("f", [arg], backend="native", threads=1)
    assert got == want
    # one kernel: the fold is the root of the fused region
    assert {c.op for c in prof.layer_counters("native")} == {"__fused0"}
    assert {c.layer for c in prof.counters.values()} == {"native"}


@needs_cc
@pytest.mark.parametrize("threads", THREAD_COUNTS)
def test_openmp_fused_slices_cover_every_length(threads):
    """The threaded fused kernel runs the serial loop once per piece over
    that piece's slice: every length — shorter than the pieces, not a
    multiple of them, not a multiple of the unrolling — comes back with
    the serial bits."""
    prog = compile_program(
        "fun f(v: seq(float), k: float) = [x <- v: (x * k + 1.0) * x]")
    rng = random.Random(threads)
    for n in (1, 2, 3, 5, 7, 8, 17, 63, 1025):
        arg = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randrange(-6, 7)
               for _ in range(n)]
        want = prog.run("f", [arg, 0.3], backend="native")
        assert prog.run("f", [arg, 0.3], backend="native",
                        threads=threads) == want, (n, threads)


@needs_cc
def test_openmp_engine_defaults_idle_threads_to_sleep():
    """The team's helpers sleep between calls: a helper that spun while
    the caller runs Python would cost a scheduler tick per call whenever
    it shared the caller's CPU (E19 at 2 threads on 2 CPUs once read
    16 ms against 1.6 ms).  After threaded calls the process burns next
    to no CPU while its calling thread sleeps."""
    import time
    from repro.native.engine import NativeEngine
    eng = NativeEngine().at_threads(4)
    v = ragged_floats(7)
    for _ in range(3):
        eng.apply_segmented("sum", v)
    c0 = time.process_time()
    time.sleep(0.3)
    assert time.process_time() - c0 < 0.05
