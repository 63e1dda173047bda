"""A fused region may end in a segmented fold: one kernel, no
intermediate, four segments in lock-step — and the same bits as the
unfused ``vector`` run, on every fold, at every lock-step seam.

The table is 7 folds x their kinds x {the identity tree (a plain
segmented op), a two-prim tree with a hoisted scalar, a comparison under
``anytrue``/``alltrue``, ``real`` under a float ``sum``}, on descriptors
of 0..9 segments (every remainder of four) whose lengths mix 0, 1, 2,
255, 256, 257 and one 10,000 outlier inside a group of four, over values
holding NaN, +-inf, -0.0 and the int64 extremes.  ``native`` and
``parallel`` (its OpenMP kernels, 2 and 3 threads) must equal the
unfused ``vector`` run by ``.tobytes()``.
"""

import hashlib
import subprocess
import tracemalloc

import numpy as np
import pytest

from repro import ReproError, TransformOptions, compile_program
from repro.fuzz.differ import ALL_BACKENDS, compare_outcomes, run_case
from repro.fuzz.gen import gen_case, gen_fold_case
from repro.native import toolchain
from repro.native.cache import CFLAGS, KernelCache
from repro.native.codegen import (
    SEGMENTED_OPS, emit_fused_source, emit_segmented_source, plain_fold,
)
from repro.native.engine import NativeEngine
from repro.obs import Profiler, profiling
from repro.vector.nested import NestedVector
from repro.vector.segments import INT_DTYPE
from repro.vexec.evaluator import VectorEvaluator

needs_cc = pytest.mark.skipif(not toolchain.available(),
                              reason="no C toolchain")

#: bench/workloads.py's FLAT_SRC and serve_source(3)
FLAT_SRC = ("fun f(v: seq(seq(float))) = "
            "[s <- v: sum([x <- s: (x * 0.5 + 1.0) * x - 0.25])]")
SERVE_SRC = "fun main(s) = sum([x <- s: x * x + 3])"

OP_KINDS = [(op, kind) for op, kinds in SEGMENTED_OPS.items()
            for kind in kinds]
IDENTITY = ("arg", 0)
TWO_PRIM = ("prim", "add", (("prim", "mul", (("arg", 0), ("arg", 1))),
                            ("arg", 0)))


# -- one renderer -----------------------------------------------------------

@pytest.mark.parametrize("omp", [None, 3])
@pytest.mark.parametrize("op,kind", OP_KINDS)
def test_segmented_source_is_the_identity_fold(op, kind, omp):
    """``emit_segmented_source`` has no renderer of its own: it is the
    fold emitter on the identity tree, serial and threaded (whose variant
    is the same for every thread count)."""
    threaded = omp is not None
    assert emit_segmented_source(op, kind, threaded=threaded) == \
        emit_fused_source(plain_fold(op), [kind], [False], name=op,
                          threaded=threaded)
    assert plain_fold(op) == ("fold", op, (IDENTITY,))


def _variants():
    """Every kernel the emitter can write: the elementwise form and, per
    fold and kind, the plain and the fold-rooted form."""
    yield "map", TWO_PRIM, ["int", "int"], [False, True]
    for op, kind in OP_KINDS:
        yield f"{op}/{kind}", ("fold", op, (IDENTITY,)), [kind], [False]
        if kind == "bool":      # a comparison feeds anytrue / alltrue
            tree = ("prim", "lt", (TWO_PRIM, ("arg", 1)))
            yield f"{op}/cmp", ("fold", op, (tree,)), ["float"] * 2, \
                [False, True]
        else:
            yield f"{op}/{kind}/tree", ("fold", op, (TWO_PRIM,)), \
                [kind] * 2, [False, True]
    yield "sum/real", ("fold", "sum", (("prim", "real", (IDENTITY,)),)), \
        ["int"], [False]
    yield "maxval/max2", ("fold", "maxval", (
        ("prim", "max2", (("arg", 0), ("arg", 1))),)), ["float"] * 2, \
        [False, False]


@needs_cc
@pytest.mark.parametrize("omp", [None, 4])
@pytest.mark.parametrize("label,tree,kinds,hoisted", list(_variants()),
                         ids=[v[0] for v in _variants()])
def test_every_variant_compiles_without_warnings(label, tree, kinds, hoisted,
                                                 omp):
    source = emit_fused_source(tree, kinds, hoisted, threaded=omp is not None)
    flags = [*CFLAGS, *(["-pthread"] if omp else []),
             "-Wall", "-Wextra", "-Werror", "-fsyntax-only"]
    proc = subprocess.run([toolchain.find_cc(), *flags, "-x", "c", "-"],
                          input=source, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr + source


# -- bit-identity at every lock-step seam ------------------------------------

#: the 10,000 outlier sits inside the first group of four
LENGTHS = [257, 0, 10_000, 256, 2, 255, 1, 0, 256]
FLOAT_SPECIALS = [np.nan, np.inf, -np.inf, -0.0]
INT_SPECIALS = [np.iinfo(np.int64).max, np.iinfo(np.int64).min, -1, 0]


def frame(nseg: int, kind: str, strict: bool) -> NestedVector:
    """``nseg`` segments of the table's lengths (no empty one under a
    strict fold).  Each segment holds at most one special value, so no
    two NaN payloads ever meet in one fold; the two-element segment is
    nothing but -0.0."""
    rng = np.random.default_rng(nseg)
    counts = np.array(LENGTHS[:nseg], dtype=INT_DTYPE)
    if strict:
        counts = np.maximum(counts, 1)
    total = int(counts.sum())
    if kind == "float":
        values = rng.uniform(-4.0, 4.0, total)
        specials = FLOAT_SPECIALS
    elif kind == "int":
        values = rng.integers(-9, 10, total, dtype=np.int64)
        specials = INT_SPECIALS
    else:
        values = rng.integers(0, 2, total).astype(np.bool_)
        specials = []
    pos = 0
    for i, c in enumerate(int(c) for c in counts):
        if c and specials:
            values[pos + (7 * i) % c] = specials[i % len(specials)]
        if c == 2 and kind == "float":
            values[pos:pos + 2] = -0.0
        pos += c
    return NestedVector((np.array([nseg], dtype=INT_DTYPE), counts),
                        values, kind)


def sources():
    """``(label, source, kind of the argument, fold)`` per table row."""
    for op, kind in OP_KINDS:
        if kind != "bool":
            t = f"seq(seq({kind}))"
            yield (f"{op}/{kind}/identity", kind, op,
                   f"fun f(v: {t}, k: {kind}) = [s <- v: {op}(s)]")
            yield (f"{op}/{kind}/tree", kind, op,
                   f"fun f(v: {t}, k: {kind}) = "
                   f"[s <- v: {op}([x <- s: x * k + x])]")
        else:
            yield (f"{op}/bool/identity", "bool", op,
                   f"fun f(v: seq(seq(bool)), k: bool) = [s <- v: {op}(s)]")
            for arg in ("int", "float"):
                yield (f"{op}/{arg}/cmp", arg, op,
                       f"fun f(v: seq(seq({arg})), k: {arg}) = "
                       f"[s <- v: {op}([x <- s: x * k > x])]")
    yield ("sum/real", "int", "sum",
           "fun f(v: seq(seq(int)), k: int) = "
           "[s <- v: sum([x <- s: real(x) * 0.5])]")


ROWS = list(sources())
#: a positive float keeps ``x * k + x`` from making inf - inf: every NaN a
#: fold meets is the canonical one (which of two payloads ``np.maximum``
#: hands back is its choice of instruction, outside the contract)
SCALAR = {"int": 3, "float": 1.5, "bool": True}


def bits(value) -> tuple:
    assert isinstance(value, NestedVector)
    return (value.kind, value.values.dtype.str, value.values.tobytes(),
            *(d.tobytes() for d in value.descs))


def unfused(source: str):
    """The program of ``source`` without the ``fuse`` pass: the oracle."""
    return compile_program(source, options=TransformOptions(fuse=False))


def check_row(source: str, kind: str, op: str, engines: dict) -> None:
    prog = compile_program(source)
    at = prog.entry_types("f", [[[SCALAR[kind]]], SCALAR[kind]])
    mono_np, tp_np = unfused(source).prepare("f", at)
    mono, tp = prog.prepare("f", at)
    assert tp_np.fusion is None and tp.fusion is not None
    oracle = VectorEvaluator(tp_np)
    for nseg in range(10):
        args = [frame(nseg, kind, op in ("maxval", "minval")), SCALAR[kind]]
        want = bits(oracle.call_raw(mono_np, args))
        for label, engine in engines.items():
            got = VectorEvaluator(tp, native=engine).call_raw(mono, args)
            assert bits(got) == want, f"{label}, {nseg} segments"


@pytest.fixture(scope="module")
def cache():
    return KernelCache()    # the shared on-disk cache: re-runs load


@needs_cc
@pytest.mark.parametrize("label,kind,op,source", ROWS,
                         ids=[r[0] for r in ROWS])
def test_native_equals_unfused_vector(cache, label, kind, op, source):
    check_row(source, kind, op, {"native": NativeEngine(cache)})


@needs_cc
@pytest.mark.parametrize("label,kind,op,source", ROWS,
                         ids=[r[0] for r in ROWS])
def test_openmp_equals_unfused_vector(cache, label, kind, op, source):
    check_row(source, kind, op, {
        f"threaded x{t}": NativeEngine(cache).at_threads(t) for t in (2, 3)})


def test_fused_program_without_an_engine_equals_unfused_vector():
    """E14's lane: a fused program on ``vector`` / the VM has no engine;
    NumPy evaluates the tree and the fold's own kernel folds it."""
    for _label, kind, op, source in ROWS:
        check_row(source, kind, op, {"numpy": None})


@pytest.mark.parametrize("op", ["maxval", "minval"])
def test_empty_segment_under_a_fused_producer(op):
    """The strict folds fail as the unfused run does — class and message
    — on every engine, before any kernel runs."""
    src = (f"fun f(v: seq(seq(int)), k: int) = "
           f"[s <- v: {op}([x <- s: x*k+x])]")
    prog = compile_program(src)
    at = prog.entry_types("f", [[[1]], 1])
    mono_np, tp_np = unfused(src).prepare("f", at)
    mono, tp = prog.prepare("f", at)
    args = [frame(6, "int", False), 2]
    with pytest.raises(ReproError) as want:
        VectorEvaluator(tp_np).call_raw(mono_np, args)
    engines = {"numpy": None}
    if toolchain.available():
        engines["native"] = NativeEngine()
    if toolchain.available():
        engines["threaded"] = NativeEngine().at_threads(2)
    for label, engine in engines.items():
        with pytest.raises(ReproError) as got:
            VectorEvaluator(tp, native=engine).call_raw(mono, args)
        assert (type(got.value), str(got.value)) == \
            (type(want.value), str(want.value)), label
        assert str(got.value) == f"{op} of an empty sequence"


# -- the fuzz lane gen_case does not reach -----------------------------------

@pytest.mark.parametrize("block", range(10))
def test_fold_programs_agree_on_every_lane(block):
    """100 seeded ``red([x <- s: tree(x)])`` programs, all five lanes."""
    for seed in range(block * 10, block * 10 + 10):
        case = gen_fold_case(seed)
        outcomes = run_case(case, backends=ALL_BACKENDS)
        assert compare_outcomes(outcomes), \
            f"seed {seed}\n{case.source}\n{case.args}\n" + "\n".join(
                f"{b}: {o.brief()}" for b, o in outcomes.items())


def test_most_fold_programs_root_a_region_at_the_fold():
    from repro.lang import types as T
    rooted = 0
    for seed in range(100):
        case = gen_fold_case(seed)
        prog = compile_program(case.source)
        _m, tp = prog.prepare(
            "main", tuple(T.parse_type(t) for t in case.types))
        rooted += any(t[0] == "fold" for t in tp.fusion.trees.values())
    assert rooted >= 90     # the rest fold a constant body: nothing to fuse


def test_gen_case_is_unchanged():
    """``cold_compile`` draws its programs from ``gen_case``: adding a
    generator beside it may not move a byte of what it returns."""
    h = hashlib.sha256()
    for seed in range(1000):
        case = gen_case(seed)
        h.update(case.source.encode())
        h.update(repr(case.args).encode())
    assert h.hexdigest() == ("3adf321a7a14fb57fe0dc603ea7df7df"
                             "48cfc951a850dc111147615a7e3a3c85")


# -- counts named beforehand -------------------------------------------------

@needs_cc
def test_flat_kernels_is_one_kernel_one_call_no_intermediate(tmp_path):
    segments, per = 400, 256
    n = segments * per
    arg = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    vec = NestedVector((np.array([segments], dtype=INT_DTYPE),
                        np.full(segments, per, dtype=INT_DTYPE)),
                       arg, "float")
    prog = compile_program(FLAT_SRC)
    at = prog.entry_types("f", [[[0.5]]])
    mono, tp = prog.prepare("f", at)
    assert [t[:2] for t in tp.fusion.trees.values()] == [("fold", "sum")]
    fresh = KernelCache(tmp_path)
    ev = VectorEvaluator(tp, native=NativeEngine(fresh))
    want = ev.call_raw(mono, [vec])
    assert fresh.stats()["compiles"] == 1
    prof = Profiler()
    with profiling(prof):
        ev.call_raw(mono, [vec])
    assert [(c.op, c.calls) for c in prof.layer_counters("native")] == \
        [("__fused0", 1)]
    tracemalloc.start()
    try:
        got = ev.call_raw(mono, [vec])
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bits(got) == bits(want)
    # the output is one value per segment; nothing of n elements is made
    assert peak < n * 8 // 4


@needs_cc
def test_serve_group_is_one_native_call():
    prog = compile_program(SERVE_SRC)
    argsets = [[list(range(i, i + 5))] for i in range(8)]
    want = prog.run_batched("main", argsets, backend="vector")
    prof = Profiler()
    with profiling(prof):
        assert prog.run_batched("main", argsets, backend="native") == want
    assert sum(c.calls for c in prof.layer_counters("native")) == 1
