"""Every list of the four optional passes is supported: each of
``native-reduce``, ``optimize``, ``simplify`` and ``fuse`` in or out, in
the documented order after ``canonical, eliminate`` (the table in
docs/PASSES.md).  Each list runs the nine examples and 200 fuzzed
programs to the same bits — or the same failure — as the list with none
of them.  ``simplify`` in/out is let-floating + CSE on/off and
``optimize`` in/out is the ``__iter`` view on/off, so the battery is
also the differential test of both rewrites."""

import functools
import itertools

import pytest

from repro import ReproError, TransformOptions, compile_program
from repro.fuzz.gen import gen_case, gen_fold_case
from repro.transform.pipeline import DEFAULT_PASSES
from tests.passes.test_equivalence import EXAMPLE_FILES, _example_spec
from tests.vector.test_boundary import exact

#: the optional passes, in pipeline order
OPTIONAL = ("native-reduce", "optimize", "simplify", "fuse")
#: a configuration says, for each of these passes, whether it is listed;
#: its test id uses the names of the options the passes replaced, so
#: every configuration keeps its id
ID_WORDS = {"optimize": "shared_seq_index",
            "native-reduce": "reduce_to_native",
            "simplify": "simplify", "fuse": "fuse"}
COMBOS = list(itertools.product([False, True], repeat=len(ID_WORDS)))


def combo_passes(combo):
    on = {name for name, v in zip(ID_WORDS, combo) if v}
    return ("canonical", "eliminate", *(n for n in OPTIONAL if n in on))


def combo_opts(combo):
    return TransformOptions(passes=combo_passes(combo))


def combo_id(combo):
    on = [word for word, v in zip(ID_WORDS.values(), combo) if v]
    return "+".join(on) or "none"


@pytest.mark.parametrize("combo", COMBOS, ids=map(combo_id, COMBOS))
def test_pipeline_shape(combo):
    """The pass list that runs: the default ends in ``fuse`` (fusion
    sees cleaned IR); ``fuse=False`` drops that last entry; an explicit
    list — each of the battery's, as a tuple or a list — runs as given,
    whatever ``fuse`` says."""
    assert TransformOptions().pipeline() == DEFAULT_PASSES == (
        "canonical", "eliminate", "optimize", "simplify", "fuse")
    assert TransformOptions(fuse=False).pipeline() == (
        "canonical", "eliminate", "optimize", "simplify")
    listed = combo_passes(combo)
    assert combo_opts(combo).pipeline() == listed
    assert TransformOptions(passes=list(listed),
                            fuse=False).pipeline() == listed
    if "fuse" in listed:
        assert listed[-1] == "fuse"  # fusion sees cleaned IR


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
    indexing — the behaviours the optional passes rewrite."""
    opts = combo_opts(combo)
    prog = compile_program(SOURCE, options=opts)
    assert prog.run("main", [4]) == prog.run("main", [4], backend="interp")


@pytest.mark.parametrize("backend", ["vector", "native"])
def test_list_and_tuple_spellings_run_alike(backend):
    """A pass list — and a dump request — given as a list is hashed into
    the entry's cache key like a tuple: both spellings run, through
    ``run`` and through the serving layer, to the same result."""
    from repro.serve import BatchExecutor
    names = ["canonical", "eliminate", "native-reduce", "optimize",
             "simplify"]
    want = compile_program(SOURCE, options=TransformOptions(
        passes=tuple(names))).run("main", [4], backend=backend)
    dumps: list[str] = []
    listed = TransformOptions(passes=names, print_ir_after=["simplify"],
                              ir_sink=dumps.append)
    assert compile_program(SOURCE, options=listed).run(
        "main", [4], backend=backend) == want
    assert len(dumps) == 1
    with BatchExecutor() as ex:
        futs = [ex.submit(SOURCE, "main", [4], backend=backend,
                          options=TransformOptions(passes=p))
                for p in (names, tuple(names))]
        assert [f.result(timeout=60) for f in futs] == [want, want]


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
    of the list without optional passes (built once per session)."""
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
    against the list without optional passes, on every program of the
    corpus."""
    assert len(corpus()) >= 209
    for label, src, entry, args, types, want in corpus():
        assert outcome(src, entry, args, types, combo) == want, label


@pytest.mark.parametrize("combo", COMBOS[1:], ids=map(combo_id, COMBOS[1:]))
def test_combination_agrees_on_folds_over_elementwise_trees(combo):
    """The shape the fuzz corpus draws once in 200 programs — a segmented
    fold directly over an elementwise tree, which ``fuse`` roots a region
    at: the phase verifier's postcondition and the VCODE lint accept the
    call, and the evaluator, native and the traced run (the VM) return
    the bits of the list without optional passes."""
    for seed in range(24):
        case = gen_fold_case(seed)
        want = outcome(case.source, case.entry, case.args,
                       list(case.types), COMBOS[0])
        prog = compile_program(case.source, options=combo_opts(combo))
        for backend in ("vector", "native"):
            got = ("ok", exact(prog.run(case.entry, list(case.args),
                                        types=list(case.types),
                                        backend=backend)))
            assert got == want, (seed, backend)
        traced, _trace = prog.vector_trace(case.entry, list(case.args),
                                           list(case.types))
        assert ("ok", exact(traced)) == want, (seed, "traced")


def test_fuse_and_native_reduce_compose():
    """native-reduce + fuse: reductions rewrite to native segmented
    ops AND fusion still finds the elementwise region under them (the
    documented interaction — neither disables the other): the rewritten
    ``sum`` is the fold at the root of the fused tree."""
    from repro.lang import ast as A
    src = "fun main(v) = sum([x <- v: x * x + x])"
    opts = TransformOptions(passes=("canonical", "eliminate",
                                    "native-reduce", "optimize",
                                    "simplify", "fuse"))
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
