"""What ``--backend parallel`` runs on each kind of host.

One engine, lowered three ways: the native engine at the asked thread
count runs the threaded kernels at two or more threads where they build,
the serial kernels where they do not (or at one thread), and the NumPy
applier (no engine, None) where there is no compiler.  Each host is simulated in this process by resetting the
toolchain probes and monkeypatching.
"""

import random
import warnings

import numpy as np
import pytest

from repro import compile_program
from repro.native import engine as NE
from repro.native import toolchain
from repro.obs import Profiler, profiling
from repro.parallel import engine as PE
from repro.vector.nested import NestedVector
from repro.vector.segments import INT_DTYPE

needs_cc = pytest.mark.skipif(not toolchain.available(),
                              reason="no C toolchain")

FOLD_SRC = ("fun f(v: seq(seq(float))) = "
            "[s <- v: sum([x <- s: (x * 0.5 + 1.0) * x - 0.25])]")


@pytest.fixture
def host(monkeypatch):
    """Forget every probe and engine before the test and after it, so the
    test's monkeypatching is the host."""
    def reset():
        toolchain.reset()
        NE.reset_engine()
        PE.reset_engines()
    reset()
    yield monkeypatch
    monkeypatch.undo()
    reset()


def big_fold() -> NestedVector:
    """A float frame of 2^18 elements in 2^10 segments: above the floor
    for two threads."""
    counts = np.full(1 << 10, 1 << 8, dtype=INT_DTYPE)
    values = np.random.default_rng(0).uniform(-1.0, 1.0, 1 << 18)
    return NestedVector((np.array([counts.size], dtype=INT_DTYPE), counts),
                        values, "float")


@needs_cc
def test_without_openmp_it_is_the_serial_native_engine(host):
    """Where a threaded kernel failed to build, every count runs the
    serial kernels of the one native engine, and no threaded kernel is
    loaded or compiled."""
    host.setattr(toolchain, "threads_known", lambda: False)
    v = big_fold()
    want = NE.get_engine().at_threads(1).apply_segmented("sum", v)
    for t in (1, 2, 4):
        eng = PE.get_parallel_engine(t)
        assert eng.cache is NE.get_engine().cache
        assert eng.apply_segmented("sum", v).values.tobytes() == \
            want.values.tobytes()
    assert NE.get_engine().status()["threaded_kernels"] == 0


def test_without_a_compiler_it_is_numpy(host, tmp_path):
    host.setenv("CC", str(tmp_path / "no-such-cc"))
    host.setenv("PATH", str(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for t in (1, 2, 4):
            assert PE.get_parallel_engine(t) is None
    prog = compile_program(FOLD_SRC)
    arg = [[0.5, 1.5], [], [2.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert prog.run("f", [arg], backend="parallel", threads=2) == \
            prog.run("f", [arg], backend="vector")


@needs_cc
def test_with_openmp_every_count_is_the_native_engine_at_that_count(host):
    """No engine per count: each is the process-wide native engine with
    its count fixed, and one threaded kernel serves them all."""
    v = big_fold()
    want = NE.get_engine().at_threads(1).apply_segmented("sum", v)
    for t in (1, 2, 3, 4, 8):
        eng = PE.get_parallel_engine(t)
        assert eng.threads == t and eng.cache is NE.get_engine().cache
        assert eng.apply_segmented("sum", v).values.tobytes() == \
            want.values.tobytes()
    st = NE.get_engine().status()
    assert (st["segmented_kernels"], st["threaded_kernels"]) == (1, 1)
    assert st["cache"]["compiles"] + st["cache"]["hits"] <= 2


@needs_cc
def test_a_fused_fold_is_native_bits_on_the_native_layer(host):
    """Two threads return ``native``'s exact floats, and a profile shows
    one fused kernel on the ``native`` layer and nothing else."""
    rng = random.Random(5)
    arg = [[rng.uniform(-1.0, 1.0) * 10.0 ** rng.randrange(-6, 7)
            for _ in range(rng.randrange(0, 40))]
           for _ in range(200)]
    prog = compile_program(FOLD_SRC)
    want = prog.run("f", [arg], backend="native")
    prof = Profiler()
    with profiling(prof):
        got = prog.run("f", [arg], backend="parallel", threads=2)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert {(c.layer, c.op) for c in prof.counters.values()} == \
        {("native", "__fused0")}
