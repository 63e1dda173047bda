"""The thread-count conformance suite: ``backend="native"`` at a fixed
``threads=`` count must be bit-identical to the serial back ends at every
count.

This is the acceptance battery for the threaded kernels — every runnable
example program and 200 fuzzer-generated programs, each at threads 1, 2
and 4, compared against the vector back end (and, with a toolchain,
against native sized per call).  A separate fixture takes the threaded
kernels away, as on a host where they do not build, where every count is
the serial native engine.  The differ's ``native@t`` lane is the same run
(``TestDifferIntegration``).  Thread counts above the machine's CPU count are deliberate —
oversubscription must not change a single bit.
"""

import os

import pytest

from repro import ReproError, compile_program
from repro.native import toolchain
from repro.native.engine import reset_engine
from tests.passes.test_equivalence import EXAMPLE_FILES, _example_spec

THREADS = (1, 2, 4)


@pytest.fixture
def without_openmp(monkeypatch):
    """A host where threaded kernels do not build, whatever this one
    does: the engine, and the threaded kernels it holds, are new."""
    reset_engine()
    monkeypatch.setattr(toolchain, "threads_known", lambda: False)
    yield
    monkeypatch.undo()
    reset_engine()


def outcome(prog, entry, args, **kw):
    try:
        return ("ok", prog.run(entry, args, **kw))
    except ReproError as e:
        return (type(e).__name__,)


# -- a fixed battery hitting every engine hook ------------------------------

PROGRAMS = [
    # fused elementwise chain
    ("fun f(n) = sum([x <- [1..n]: ((x * 3 + 7) * x - 5) * (x + x)])",
     "f", [6000]),
    # float fused arithmetic
    ("fun f(v: seq(float)) = [x <- v: x * x + x - 0.5]",
     "f", [[1.5, -2.25, 0.0, 8.0] * 40]),
    # bool output kind
    ("fun f(v) = [x <- v: x * 2 > x + 3]", "f", [list(range(-30, 90))]),
    # segmented reductions and scans over ragged nests
    ("fun f(n) = [i <- [1..n]: sum([j <- [1..i]: i * j])]", "f", [120]),
    ("fun f(n) = [i <- [1..n]: maxval([j <- [1..i]: j * (i - j)])]",
     "f", [90]),
    # shared-index gather (section 4.5)
    ("fun f(n) = let v = [i <- [1..n]: i * i] in "
     "[i <- [1..n]: v[n + 1 - i]]", "f", [5000]),
    # out-of-range gather: the error must be identical too
    ("fun f(n) = let v = [1..n] in [i <- [1..n]: v[i + 1]]", "f", [5000]),
    # strict reduction of an empty segment: same error at every count
    ("fun f(n) = [i <- [1..n]: maxval([j <- [1..i - 1]: j])]", "f", [40]),
    # recursive divide and conquer (quicksort shape)
    ("fun q(v) = if #v <= 1 then v else let p = v[1 + #v / 2] in "
     "concat(concat(q([x <- v | x < p: x]), [x <- v | x == p: x]), "
     "q([x <- v | x > p: x])) "
     "fun f(n) = q([i <- [1..n]: (i * 37) mod 101])", "f", [300]),
]


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("src,entry,args", PROGRAMS,
                         ids=[f"p{i}" for i in range(len(PROGRAMS))])
def test_programs_match_vector(src, entry, args, threads):
    prog = compile_program(src)
    assert (outcome(prog, entry, args, backend="native", threads=threads)
            == outcome(prog, entry, args, backend="vector"))


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("src,entry,args", PROGRAMS,
                         ids=[f"p{i}" for i in range(len(PROGRAMS))])
def test_programs_match_vector_without_openmp(without_openmp, src, entry,
                                              args, threads):
    prog = compile_program(src)
    assert (outcome(prog, entry, args, backend="native", threads=threads)
            == outcome(prog, entry, args, backend="vector"))


@pytest.mark.skipif(not toolchain.available(), reason="no C toolchain")
@pytest.mark.parametrize("src,entry,args", PROGRAMS,
                         ids=[f"p{i}" for i in range(len(PROGRAMS))])
def test_programs_match_native(src, entry, args):
    prog = compile_program(src)
    assert (outcome(prog, entry, args, backend="native", threads=4)
            == outcome(prog, entry, args, backend="native"))


# -- every runnable example program -----------------------------------------

@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("path", EXAMPLE_FILES,
                         ids=[p.stem for p in EXAMPLE_FILES])
def test_examples_bit_identical(path, threads):
    spec = _example_spec(path)
    prog = compile_program(spec["SOURCE"])
    entry, args = spec["PROFILE_ENTRY"], list(spec["PROFILE_ARGS"])
    assert (prog.run(entry, args, backend="native", threads=threads)
            == prog.run(entry, args, backend="vector")), path.name


# -- 200 generated programs at every thread count ---------------------------

@pytest.mark.parametrize("chunk", range(4))
def test_fuzzed_programs_bit_identical(chunk):
    """200 generated programs: the parallel back end at threads 1, 2 and
    4 against the vector reference — equal values or the same error
    class (chunked so a failure names a 50-seed window)."""
    from repro.fuzz.gen import gen_case
    for seed in range(chunk * 50, (chunk + 1) * 50):
        case = gen_case(seed)
        try:
            prog = compile_program(case.source)
            ref = outcome(prog, case.entry, list(case.args),
                          backend="vector", types=list(case.types))
        except ReproError:
            continue                  # generator bug, not a backend issue
        for threads in THREADS:
            got = outcome(prog, case.entry, list(case.args),
                          backend="native", threads=threads,
                          types=list(case.types))
            assert got == ref, f"seed {seed} at {threads} threads"


# -- the differ's native@t lanes --------------------------------------------

class TestDifferIntegration:
    def test_resolve_plus_parallel(self):
        """A lane names its thread count: ``native@t``."""
        from repro.fuzz.differ import lane_call, resolve_backends
        assert resolve_backends("+native@2") == \
            ("interp", "vector", "native@2")
        assert lane_call("native@4") == ("native", 4)

    def test_unknown_backend_still_rejected(self):
        from repro.fuzz.differ import resolve_backends
        for spec in ("+paralel", "+parallel", "+vcode", "+native@0",
                     "+native@", "+vector@2", "+native@two"):
            with pytest.raises(ValueError, match="unknown fuzz back end"):
                resolve_backends(spec)

    def test_fuzz_runs_or_skips_cleanly(self):
        """On a multi-CPU machine with a toolchain the native@2 lane
        runs; otherwise it is dropped up front and named in the summary
        — never an error."""
        from repro.fuzz.differ import fuzz
        from repro.native.engine import default_threads
        report = fuzz(0, 6, backends=("vector", "native", "native@2"),
                      shrink=False)
        assert report.ok, report.summary()
        if not toolchain.available():
            assert report.skipped_backends == {
                "native": "no C toolchain", "native@2": "no C toolchain"}
        elif default_threads() < 2:
            assert report.skipped_backends == {"native@2": "single CPU"}
            assert "native@2 (single CPU)" in report.summary()
        else:
            assert report.skipped_backends == {}

    @pytest.mark.skipif(not toolchain.available(), reason="no C toolchain")
    def test_one_cpu_is_read_from_the_affinity_mask(self, monkeypatch):
        """The engine's CPUs (``default_threads``), not the machine's."""
        from repro.fuzz.differ import fuzz
        from repro.native import engine as NE
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(NE, "default_threads", lambda: 1)
        report = fuzz(0, 2, backends=("vector", "native@2", "native@1"))
        assert report.skipped_backends == {"native@2": "single CPU"}
        assert report.agreed == 2

    @pytest.mark.skipif(not toolchain.available(), reason="no C toolchain")
    def test_a_run_whose_threaded_kernels_did_not_build_is_skipped(
            self, monkeypatch):
        """The lane ran the serial kernels: skipped after the run, not
        reported as agreeing."""
        from repro.errors import NativeCompileError
        from repro.fuzz.differ import fuzz
        from repro.native import engine as NE
        from repro.native.cache import KernelCache
        real = KernelCache.get

        def no_threads(self, source, argtypes, restype=None, extra_flags=()):
            if "-pthread" in extra_flags:
                raise NativeCompileError("simulated", "no -pthread")
            return real(self, source, argtypes, restype, extra_flags)
        monkeypatch.setattr(KernelCache, "get", no_threads)
        monkeypatch.setattr(NE, "default_threads", lambda: 2)
        monkeypatch.setattr(toolchain, "_threads", None)   # not known yet
        reset_engine()
        try:
            report = fuzz(0, 10, backends=("vector", "native@2"))
        finally:
            reset_engine()
        assert report.ok and toolchain.threads_known() is False
        assert "[skipped: native@2 (threaded kernels did not build)]" \
            in report.summary()
