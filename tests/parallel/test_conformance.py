"""The parallel conformance suite: ``backend="parallel"`` must be
bit-identical to the serial back ends at every thread count.

This is the acceptance battery for the multicore engine — every runnable
example program and 200 fuzzer-generated programs, each at threads 1, 2
and 4, compared against the vector back end (and, with a toolchain,
against serial native).  A separate fixture takes OpenMP away, as on a
host whose compiler has none, where the lane is the serial native
engine.  Thread counts above the machine's CPU count are deliberate —
oversubscription must not change a single bit.
"""

import ast as pyast
import os
from pathlib import Path

import pytest

from repro import ReproError, compile_program
from repro.native import toolchain
from repro.parallel import engine as PE

THREADS = (1, 2, 4)
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


@pytest.fixture
def without_openmp(monkeypatch):
    """A host whose compiler cannot build OpenMP objects, whatever this
    one's can."""
    monkeypatch.setattr(PE.toolchain, "openmp_available", lambda: False)


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
    assert (outcome(prog, entry, args, backend="parallel", threads=threads)
            == outcome(prog, entry, args, backend="vector"))


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("src,entry,args", PROGRAMS,
                         ids=[f"p{i}" for i in range(len(PROGRAMS))])
def test_programs_match_vector_without_openmp(without_openmp, src, entry,
                                              args, threads):
    prog = compile_program(src)
    assert (outcome(prog, entry, args, backend="parallel", threads=threads)
            == outcome(prog, entry, args, backend="vector"))


@pytest.mark.skipif(not toolchain.available(), reason="no C toolchain")
@pytest.mark.parametrize("src,entry,args", PROGRAMS,
                         ids=[f"p{i}" for i in range(len(PROGRAMS))])
def test_programs_match_native(src, entry, args):
    prog = compile_program(src)
    assert (outcome(prog, entry, args, backend="parallel", threads=4)
            == outcome(prog, entry, args, backend="native"))


# -- every runnable example program -----------------------------------------

def _example_spec(path: Path) -> dict:
    spec = {}
    for node in pyast.parse(path.read_text()).body:
        if (isinstance(node, pyast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], pyast.Name)
                and node.targets[0].id in ("SOURCE", "PROFILE_ENTRY",
                                           "PROFILE_ARGS")):
            spec[node.targets[0].id] = pyast.literal_eval(node.value)
    return spec


EXAMPLE_FILES = sorted(p for p in EXAMPLES.glob("*.py")
                       if "SOURCE" in _example_spec(p)
                       and "PROFILE_ENTRY" in _example_spec(p))


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("path", EXAMPLE_FILES,
                         ids=[p.stem for p in EXAMPLE_FILES])
def test_examples_bit_identical(path, threads):
    spec = _example_spec(path)
    prog = compile_program(spec["SOURCE"])
    entry, args = spec["PROFILE_ENTRY"], list(spec["PROFILE_ARGS"])
    assert (prog.run(entry, args, backend="parallel", threads=threads)
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
                          backend="parallel", threads=threads,
                          types=list(case.types))
            assert got == ref, f"seed {seed} at {threads} threads"


# -- the differ's fifth back end --------------------------------------------

class TestDifferIntegration:
    def test_resolve_plus_parallel(self):
        from repro.fuzz.differ import resolve_backends
        assert resolve_backends("+parallel") == \
            ("interp", "vector", "vcode", "parallel")

    def test_unknown_backend_still_rejected(self):
        from repro.fuzz.differ import resolve_backends
        with pytest.raises(ValueError, match="unknown fuzz back end"):
            resolve_backends("+paralel")

    def test_fuzz_runs_or_skips_cleanly(self):
        """On a multi-CPU machine the parallel lane runs; on a single CPU
        it is dropped up front and named in the summary — never an
        error."""
        from repro.fuzz.differ import fuzz
        report = fuzz(0, 6, backends=("vector", "vcode", "parallel"),
                      shrink=False)
        assert report.ok, report.summary()
        if (os.cpu_count() or 1) < 2:
            assert report.skipped_backends == ("parallel",)
            assert "parallel (single CPU)" in report.summary()
        else:
            assert report.skipped_backends == ()
