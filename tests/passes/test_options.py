"""Every combination of the four ``TransformOptions`` switches is
supported: the flag-derived pipeline has the documented shape (the
option-interaction table in docs/PASSES.md), and each combination runs
the nine examples and 200 fuzzed programs to the same bits — or the
same failure — as the pipeline with every switch off.  ``simplify``
on/off is let-floating + CSE on/off and ``shared_seq_index`` on/off is
the ``__iter`` view on/off, so the battery is also the differential
test of both rewrites."""

import functools
import itertools

import pytest

from repro import ReproError, TransformOptions, compile_program
from repro.fuzz.gen import gen_case, gen_fold_case
from tests.passes.test_equivalence import EXAMPLE_FILES, _example_spec
from tests.vector.test_boundary import exact

FLAGS = ("shared_seq_index", "reduce_to_native", "simplify", "fuse")
COMBOS = list(itertools.product([False, True], repeat=len(FLAGS)))


def combo_opts(combo):
    return TransformOptions(**dict(zip(FLAGS, combo)))


def combo_id(combo):
    on = [f for f, v in zip(FLAGS, combo) if v]
    return "+".join(on) or "none"


@pytest.mark.parametrize("combo", COMBOS, ids=map(combo_id, COMBOS))
def test_pipeline_shape(combo):
    """The documented compile-down rules: canonical/eliminate/optimize
    always; simplify when flagged; fuse appended last when flagged.  The
    §4.5 flags gate patterns *inside* optimize, never the pipeline."""
    opts = combo_opts(combo)
    names = ["canonical", "eliminate", "optimize"]
    if opts.simplify:
        names.append("simplify")
    if opts.fuse:
        names.append("fuse")
    assert opts.pipeline() == tuple(names)
    if opts.fuse:
        assert opts.pipeline()[-1] == "fuse"  # fusion sees cleaned IR


SOURCE = """
fun sqs(n) = [j <- [1..n]: j * j]
fun dotp(xs, ys) = sum([i <- [1..#xs]: xs[i] * ys[i]])
fun main(k) = dotp(flatten([i <- [1..k]: sqs(i)]),
                   flatten([i <- [1..k]: sqs(i)]))
"""


@pytest.mark.parametrize("combo", COMBOS, ids=map(combo_id, COMBOS))
def test_combination_runs_correctly(combo):
    """Each combination produces the interpreter's answer on a program
    exercising nesting, reduction (native-reducible) and shared
    indexing — the behaviours the flags actually gate."""
    opts = combo_opts(combo)
    prog = compile_program(SOURCE, options=opts)
    assert prog.run("main", [4]) == prog.run("main", [4], backend="interp")


def outcome(source, entry, args, types, combo):
    """The exact value (scalars by class, floats by bits), or the class
    and message of the failure."""
    prog = compile_program(source, options=combo_opts(combo))
    try:
        return ("ok", exact(prog.run(entry, list(args), types=types)))
    except ReproError as e:
        return (type(e).__name__, str(e))


@functools.lru_cache(maxsize=None)
def corpus():
    """The nine examples and 200 fuzzed programs, each with the outcome
    of the all-switches-off pipeline (built once per session)."""
    specs = [(path.stem, _example_spec(path)) for path in EXAMPLE_FILES]
    programs = [(name, spec["SOURCE"], spec["PROFILE_ENTRY"],
                 tuple(spec["PROFILE_ARGS"]), None) for name, spec in specs]
    for seed in range(200):
        case = gen_case(seed)
        programs.append((f"seed {seed}", case.source, case.entry,
                         case.args, list(case.types)))
    return [(label, src, entry, args, types,
             outcome(src, entry, args, types, COMBOS[0]))
            for label, src, entry, args, types in programs]


@pytest.mark.parametrize("combo", COMBOS[1:], ids=map(combo_id, COMBOS[1:]))
def test_combination_agrees_on_examples_and_fuzz_corpus(combo):
    """Bit-identical values and identical failures (class and message)
    against the all-off pipeline, on every program of the corpus."""
    assert len(corpus()) >= 209
    for label, src, entry, args, types, want in corpus():
        assert outcome(src, entry, args, types, combo) == want, label


@pytest.mark.parametrize("combo", COMBOS[1:], ids=map(combo_id, COMBOS[1:]))
def test_combination_agrees_on_folds_over_elementwise_trees(combo):
    """The shape the fuzz corpus draws once in 200 programs — a segmented
    fold directly over an elementwise tree, which ``fuse`` roots a region
    at: the phase verifier's postcondition and the VCODE lint accept the
    call, and the evaluator and the VM return the all-off pipeline's
    bits."""
    for seed in range(24):
        case = gen_fold_case(seed)
        want = outcome(case.source, case.entry, case.args,
                       list(case.types), COMBOS[0])
        prog = compile_program(case.source, options=combo_opts(combo))
        for backend in ("vector", "vcode"):
            got = ("ok", exact(prog.run(case.entry, list(case.args),
                                        types=list(case.types),
                                        backend=backend)))
            assert got == want, (seed, backend)


def test_fuse_and_native_reduce_compose():
    """reduce_to_native + fuse: reductions rewrite to native segmented
    ops AND fusion still finds the elementwise region under them (the
    documented interaction — neither disables the other): the rewritten
    ``sum`` is the fold at the root of the fused tree."""
    from repro.lang import ast as A
    src = "fun main(v) = sum([x <- v: x * x + x])"
    opts = TransformOptions(fuse=True, reduce_to_native=True)
    prog = compile_program(src, options=opts)
    arg = [[1, 2, 3, 4]]
    mono, tp = prog.prepare("main", prog.entry_types("main", arg))
    assert tp.fusion is not None and tp.fusion.trees  # fusion ran, found ops
    called = [e.fn for d in tp.defs.values() for e in A.walk(d.body)
              if isinstance(e, A.ExtCall)]
    assert "sum" not in called      # no second kernel, no intermediate
    roots = [tp.fusion.trees[fn][:2] for fn in called if fn in tp.fusion]
    assert roots == [("fold", "sum")]   # the native reduction survived
    assert tp.verified_phases  # postconditions ran for every defs pass
    assert prog.run("main", arg) == prog.run("main", arg, backend="interp")
