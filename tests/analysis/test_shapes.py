"""Symbolic shape analysis: classification facts, the discharged tag
set, and the check="static" guard mode it drives — which must agree with
full strict checking everywhere while keeping the load-bearing
runtime-class checks."""

import glob
import os

import pytest

from repro.analysis.shapes import analyze_shapes
from repro.api import compile_program
from repro.transform.pipeline import TransformOptions
from repro.cli import _example_spec
from repro.errors import InvariantError
from repro.guard import faults as F

EXAMPLES = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "*.py")))

NEST_SRC = """
fun nest(n) = [i <- [1..n]: [j <- [1..i]: [k <- [1..j]: i*j + k]]]
fun nsum(n) = sum([i <- [1..n]: sum([j <- nest(i)[1 + i / 2]: sum(j)])])
"""


def _spec(path):
    with open(path) as f:
        return _example_spec(f.read())


def _analysis(source, entry, args, options=None):
    prog = compile_program(source, options=options)
    _mono, tp = prog.prepare(entry, *prog.resolve_entry(entry, args))
    return prog, analyze_shapes(tp)


def test_elementwise_sites_are_discharged():
    _prog, sa = _analysis("fun main(n) = [i <- [1..n]: i*i + i]", "main", [4],
                          TransformOptions(fuse=False))
    assert "kernel:mul" in sa.discharged
    assert "kernel:add" in sa.discharged
    static, runtime = sa.counts()
    assert static >= 2
    assert runtime == 0


def test_runtime_class_sites_are_never_discharged():
    _prog, sa = _analysis(NEST_SRC, "nsum", [6])
    static, runtime = sa.counts()
    assert runtime >= 1  # the 4.5 shared-index gathers, dist, ...
    runtime_fns = {s.fn for d in sa.defs.values()
                   for s in d.sites if s.cls == "runtime"}
    for fn in runtime_fns:
        assert f"kernel:{fn}" not in sa.discharged


def test_call_boundaries_of_valid_defs_are_discharged():
    _prog, sa = _analysis(NEST_SRC, "nsum", [6])
    assert any(t.startswith("call:") for t in sa.discharged)
    for name, facts in sa.defs.items():
        if facts.ret_valid:
            assert f"call:{name}" in sa.discharged


def test_sites_carry_reasons():
    _prog, sa = _analysis(NEST_SRC, "nsum", [6])
    for facts in sa.defs.values():
        for s in facts.sites:
            assert s.cls in ("static", "runtime")
            assert s.reason


def test_analysis_is_memoized_per_program():
    prog = compile_program("fun main(n) = [i <- [1..n]: i+1]")
    at = prog.entry_types("main", [3])
    _mono, tp = prog.prepare("main", at)
    assert analyze_shapes(tp) is analyze_shapes(tp)


@pytest.mark.parametrize("path", EXAMPLES,
                         ids=[os.path.basename(p) for p in EXAMPLES])
def test_static_mode_matches_full_mode_on_examples(path):
    """check=off, check=full and check=static agree element-wise on
    every example, on both vector back ends."""
    spec = _spec(path)
    prog = compile_program(spec["SOURCE"])
    entry, args = spec["PROFILE_ENTRY"], list(spec["PROFILE_ARGS"])
    base = prog.run(entry, args)
    for backend in ("vector", "native"):
        assert prog.run(entry, args, backend=backend, check=True) == base
        assert prog.run(entry, args, backend=backend,
                        check="static") == base


def test_static_mode_still_catches_kernel_level_faults():
    """The retained runtime-class checks catch descriptor corruption in
    the gather/scatter kernels even with every static site discharged."""
    for site in ("extract_insert.extract.top-bump",
                 "segments.compress_subtrees.desc-bump"):
        prog = compile_program(NEST_SRC)
        with F.injecting(site, seed=1) as inj:
            with pytest.raises(InvariantError):
                prog.run("nsum", [8], backend="vector", check="static")
        assert inj.fired, f"site {site} never fired"


def test_static_mode_via_run_batched():
    prog = compile_program("fun main(n) = sum([i <- [1..n]: i*i])")
    full = prog.run_batched("main", [[4], [7], [10]], check=True)
    static = prog.run_batched("main", [[4], [7], [10]], check="static")
    assert static == full == [30, 140, 385]


# -- a fused region rooted at a segmented fold ---------------------------------

#: bench/workloads.py's FLAT_SRC and serve_source(3), with the static-site
#: counts of their unbatched / batched native programs when map and fold
#: were two sites (4 / 9 and 3 / 7, none runtime-class): the fold's own
#: site is gone, one per definition that held it, and nothing else moved
FOLD_ROOTED = [
    ("fun f(v: seq(seq(float))) = "
     "[s <- v: sum([x <- s: (x * 0.5 + 1.0) * x - 0.25])]",
     "f", [[[0.5, -2.0], []]], (4 - 1, 9 - 2)),
    ("fun main(s) = sum([x <- s: x * x + 3])", "main", [[1, 2]],
     (3 - 1, 7 - 2)),
]


@pytest.mark.parametrize("src,entry,args,sites", FOLD_ROOTED,
                         ids=["flat_kernels", "serve"])
def test_fold_rooted_region_is_discharged(src, entry, args, sites):
    """The analysis follows the op: a reduction-rooted region projects
    its first stream leaf's outer level, so every site of the native
    program is still static and ``kernel:__fused<k>`` is discharged."""
    prog = compile_program(src)
    at = prog.entry_types(entry, args)
    for batched, want in zip((False, True), sites):
        _mono, tp = prog._prepare(entry, at, (), prog.options, batched)
        sa = analyze_shapes(tp)
        assert sa.counts() == (want, 0)
        for name in tp.fusion.trees:
            assert f"kernel:{name}" in sa.discharged
        fused = [s for d in sa.defs.values() for s in d.sites
                 if s.fn.startswith("__fused")]
        assert fused and all("outer descriptor level" in s.reason
                             for s in fused)
    base = prog.run(entry, args, backend="vector")
    for threads in (None, 2):
        assert prog.run(entry, args, backend="native", threads=threads,
                        check=True) == base
        assert prog.run(entry, args, backend="native", threads=threads,
                        check="static") == base


def test_scan_rooted_region_keeps_the_chain():
    src = "fun f(v) = [s <- v: plus_scan([x <- s: x * x + 1])]"
    prog = compile_program(src)
    args = [[[1, 2, 3], [], [4]]]
    _mono, tp = prog.prepare("f", prog.entry_types("f", args))
    sa = analyze_shapes(tp)
    site, = [s for d in sa.defs.values() for s in d.sites
             if s.fn.startswith("__fused")]
    assert site.cls == "static" and "full descriptor chain" in site.reason
    assert prog.run("f", args, backend="native", check=True) \
        == prog.run("f", args, backend="vector") \
        == [[0, 2, 7], [], [0]]
