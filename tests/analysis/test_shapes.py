"""Shape classes: the catalog's column, the sites ``repro analyze``
lists (pinned byte for byte on every example), and the check="static"
guard mode that reads the catalog — which must agree with full strict
checking everywhere while keeping the load-bearing runtime-class
checks."""

import glob
import json
import os
from pathlib import Path

import pytest

from repro.analysis.report import analyze_source
from repro.analysis.shapes import analyze_shapes
from repro.api import compile_program
from repro.lang import builtins as B
from repro.transform.pipeline import TransformOptions
from repro.cli import _example_spec
from repro.errors import InvariantError
from repro.guard import faults as F
from tests.guard.test_faults import DRIVERS, SRC as FAULT_SRC

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
    """Every value is valid, so is every definition's result: every
    call boundary is discharged."""
    _prog, sa = _analysis(NEST_SRC, "nsum", [6])
    assert {f"call:{name}" for name in sa.defs} \
        == {t for t in sa.discharged if t.startswith("call:")}


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
    the gather/scatter kernels and in extract/insert even with every
    static site discharged: every ``segments.*`` and ``extract_insert.*``
    fault site, on both vector back ends."""
    sites = [s for s in F.FAULT_SITES
             if s.startswith(("segments.", "extract_insert."))]
    assert len(sites) == 12
    for site in sites:
        _backends, entry, args, stage = DRIVERS[site]
        for backend in ("vector", "native"):
            prog = compile_program(FAULT_SRC)
            with F.injecting(site, seed=1) as inj:
                with pytest.raises(InvariantError, match=stage):
                    prog.run(entry, args, backend=backend, check="static")
            assert inj.fired, f"site {site} never fired on {backend}"


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


# -- the catalog column and the pinned site lists ------------------------------

def test_every_primitive_has_a_shape_class():
    """A map or a fold keeps its argument's chain; what computes
    descriptors from data (a gather, a pack, a merge, a replication) is
    runtime; a name nothing classifies is runtime too."""
    for name, row in B.all_builtins().items():
        cls, reason = B.shape_class(name)
        assert (cls, reason) == row.shape and reason
        if row.elementwise or row.fold:
            assert cls == "static", name
        if row.op_class in ("gather_scatter", "replicate"):
            assert cls == "runtime", name
    assert B.shape_class("__fused7")[0] == "static"
    assert B.shape_class("__tuple_extract_3")[0] == "static"
    assert B.shape_class("__seq_index_shared")[0] == "runtime"
    assert B.shape_class("no_such_kernel")[0] == "runtime"
    assert B.shape_class("__fused2", "scan") != B.shape_class("__fused2") \
        != B.shape_class("__fused2", "reduce")


GOLDEN = Path(__file__).parent / "golden" / "shapes"


@pytest.mark.parametrize("path", EXAMPLES,
                         ids=[os.path.basename(p) for p in EXAMPLES])
def test_sites_match_the_golden_section(path):
    """The ``shapes`` section of ``repro analyze`` on each example, byte
    for byte: site order (post-order: a site's arguments before it, then
    cond / then / else), classes, reasons, counts, the discharged tags
    and ``ret_valid``."""
    spec = _spec(path)
    rep = analyze_source(spec["SOURCE"], spec["PROFILE_ENTRY"],
                         list(spec["PROFILE_ARGS"]))
    want = (GOLDEN / (Path(path).stem + ".json")).read_text()
    assert json.dumps(rep.to_json()["shapes"], indent=2) + "\n" == want
