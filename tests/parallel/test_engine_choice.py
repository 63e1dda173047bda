"""What ``--backend parallel`` runs on each kind of host.

One engine, lowered three ways: the OpenMP kernels at two or more threads
where the compiler builds ``-fopenmp`` objects, the serial native engine
where it does not (or at one thread), and the NumPy applier (no engine,
None) where there is no compiler.  Each host is simulated in this process
by resetting the toolchain probes and monkeypatching.
"""

import random
import warnings

import pytest

from repro import compile_program
from repro.native import engine as NE
from repro.native import toolchain
from repro.obs import Profiler, profiling
from repro.parallel import engine as PE

needs_omp = pytest.mark.skipif(
    not (toolchain.available() and toolchain.openmp_available()),
    reason="no OpenMP toolchain")

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


def test_without_openmp_it_is_the_serial_native_engine(host):
    host.setattr(toolchain, "openmp_available", lambda: False)
    for t in (1, 2, 4):
        assert PE.get_parallel_engine(t) is NE.get_engine()


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


@needs_omp
def test_with_openmp_it_is_one_cached_openmp_engine_per_count(host):
    engines = {t: PE.get_parallel_engine(t) for t in (2, 3, 4, 8)}
    for t, eng in engines.items():
        assert isinstance(eng, PE._OmpNative) and eng._omp_threads == t
        assert PE.get_parallel_engine(t) is eng
    assert len({id(e) for e in engines.values()}) == len(engines)
    assert PE.get_parallel_engine(1) is NE.get_engine()


@needs_omp
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
