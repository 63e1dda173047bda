"""A ``native`` kernel call sizes its own thread count: serial below
``THREAD_FLOOR`` elements per thread, else one threaded variant per tree
that takes the count as an argument and hands its pieces to the process's
team — with the serial kernel's bits.

The parity table runs each fold over each kind it folds, the scans among
them, a fold-rooted tree and an elementwise tree with hoisted scalars,
on 2^18 elements in a number of segments that is not a multiple of the
lock-step width, empty segments included where the fold admits them.
The sized engine (``native``) and fixed counts (``threads=t``) must equal
the forced-serial engine by ``.tobytes()``.  Inputs this size are above
the floor; the seeded fuzzer's never are.
"""

import numpy as np
import pytest

from repro import compile_program
from repro.lang import builtins as B
from repro.native import toolchain
from repro.native.cache import KernelCache
from repro.native.codegen import SEGMENTED_OPS
from repro.native.engine import (
    THREAD_FLOOR, NativeEngine, default_threads, set_default_threads,
)
from repro.vector.nested import NestedVector
from repro.vector.segments import INT_DTYPE

needs_threads = pytest.mark.skipif(
    not (toolchain.available() and default_threads() >= 2),
    reason="no C toolchain, or one CPU")

N = 1 << 18
NSEG = 4097                 # not a multiple of the four lock-step lanes
TWO_PRIM = ("prim", "add", (("prim", "mul", (("arg", 0), ("arg", 1))),
                            ("arg", 0)))


def counts(strict: bool) -> np.ndarray:
    """``NSEG`` lengths summing to about ``N``, some of them 0 unless the
    fold is strict."""
    c = np.random.default_rng(1).integers(0, 2 * N // NSEG, NSEG)
    c[::97] = 0
    if strict:
        c[c == 0] = 1
    return c.astype(INT_DTYPE)


def values(kind: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(2)
    if kind == "bool":
        return rng.random(n) < 0.999        # alltrue/anytrue both vary
    if kind == "int":
        v = rng.integers(-10 ** 6, 10 ** 6, n)
        v[::1009] = np.iinfo(np.int64).max      # sums wrap
        return v.astype(np.int64)
    v = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-8, 9, n)
    v[::4099] = -0.0
    v[7::8191] = np.inf
    v[3::8191] = np.nan          # at most one per segment
    return v


def frame(kind: str, strict: bool) -> NestedVector:
    c = counts(strict)
    return NestedVector((np.array([c.size], dtype=INT_DTYPE), c),
                        values(kind, int(c.sum())), kind)


def engines(tmp_path) -> dict:
    cache = KernelCache(tmp_path)
    return {"native": NativeEngine(cache),
            **{f"native x{t}": NativeEngine(cache).at_threads(t)
               for t in (2, 3)}}


def same_bits(got, want) -> bool:
    return got.values.tobytes() == want.values.tobytes() and all(
        a.tobytes() == b.tobytes() for a, b in zip(got.descs, want.descs))


OP_KINDS = [(op, kind) for op, kinds in SEGMENTED_OPS.items()
            for kind in kinds]


@needs_threads
@pytest.mark.parametrize("op,kind", OP_KINDS,
                         ids=[f"{op}/{kind}" for op, kind in OP_KINDS])
def test_every_fold_above_the_floor_is_the_serial_bits(tmp_path, op, kind):
    v = frame(kind, B.get_builtin(op).strict)
    want = NativeEngine(KernelCache(tmp_path)).at_threads(1) \
        .apply_segmented(op, v)
    for label, eng in engines(tmp_path).items():
        assert same_bits(eng.apply_segmented(op, v), want), label


@needs_threads
@pytest.mark.parametrize("op", ["sum", "plus_scan", "maxval", "max_scan"])
@pytest.mark.parametrize("kind", ["int", "float"])
def test_a_fold_rooted_tree_with_a_hoisted_scalar(tmp_path, op, kind):
    v = frame(kind, B.get_builtin(op).strict)
    k = 3 if kind == "int" else 0.3
    tree = ("fold", op, (TWO_PRIM,))
    want = NativeEngine(KernelCache(tmp_path)).at_threads(1) \
        .apply_fused("f", tree, [v, None], [v, k], NSEG)
    for label, eng in engines(tmp_path).items():
        got = eng.apply_fused("f", tree, [v, None], [v, k], NSEG)
        assert same_bits(got, want), label


@needs_threads
@pytest.mark.parametrize("n", [2 * THREAD_FLOOR, N + 3])
def test_an_elementwise_tree_with_hoisted_scalars(tmp_path, n):
    v = NestedVector((np.array([n], dtype=INT_DTYPE),),
                     values("float", n), "float")
    tree = ("prim", "max2", (TWO_PRIM, ("arg", 2)))
    raw = [v, 0.3, -0.25]
    want = NativeEngine(KernelCache(tmp_path)).at_threads(1) \
        .apply_fused("f", tree, [v, None, None], raw, n)
    for label, eng in engines(tmp_path).items():
        got = eng.apply_fused("f", tree, [v, None, None], raw, n)
        assert same_bits(got, want), label


@needs_threads
def test_a_program_on_native_and_parallel(tmp_path, monkeypatch):
    """End to end through the public API: ``native`` sized per call and
    at a fixed count return the serial floats on an input above the
    floor."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    prog = compile_program("fun f(v: seq(seq(float)), k: float) = "
                           "[s <- v: sum([x <- s: (x * k + 1.0) * x])]")
    c, vals = counts(False), values("float", N).tolist()
    arg, at = [], 0
    for m in c:
        arg.append(vals[at:at + m])
        at += m
    def run(**kw):
        return [x.hex() for x in prog.run("f", [arg, 0.5], **kw)]
    want = run(backend="native", threads=1)
    assert run(backend="native") == want
    assert run(backend="native", threads=2) == want


# -- which kernel ran ------------------------------------------------------

@needs_threads
def test_a_call_above_the_floor_compiles_only_the_threaded_variant(tmp_path):
    eng = NativeEngine(KernelCache(tmp_path))
    eng.apply_segmented("sum", frame("float", False))
    st = eng.status()
    assert (st["segmented_kernels"], st["threaded_kernels"]) == (0, 1)
    assert st["cache"]["compiles"] == 1


@pytest.mark.skipif(not toolchain.available(), reason="no C toolchain")
def test_a_call_below_the_floor_loads_no_threaded_kernel(tmp_path):
    c = np.full(64, 64, dtype=INT_DTYPE)
    small = NestedVector((np.array([c.size], dtype=INT_DTYPE), c),
                         values("float", int(c.sum())), "float")
    # below the floor, and at a fixed count of one above it
    for eng, v in ((NativeEngine(KernelCache(tmp_path)), small),
                   (NativeEngine(KernelCache(tmp_path)).at_threads(1),
                    frame("float", False))):
        eng.apply_segmented("sum", v)
        st = eng.status()
        assert (st["segmented_kernels"], st["threaded_kernels"]) == (1, 0)


# -- the team ----------------------------------------------------------------

@needs_threads
def test_callers_on_several_threads_at_once(tmp_path):
    """One team per process: a call that finds it busy runs its pieces
    on the calling thread, with the same bits."""
    import threading
    v = frame("float", False)
    eng = NativeEngine(KernelCache(tmp_path)).at_threads(2)
    want = eng.at_threads(1).apply_segmented("sum", v).values.tobytes()
    got = []

    def call():
        for _ in range(20):
            got.append(eng.apply_segmented("sum", v).values.tobytes())
    ts = [threading.Thread(target=call) for _ in range(3)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert got == [want] * 60


@needs_threads
def test_a_forked_child_has_a_team_of_its_own(tmp_path):
    """A forked child does not inherit the parent's helpers; its first
    threaded call starts its own and returns the serial bits."""
    import os
    v = frame("float", False)
    eng = NativeEngine(KernelCache(tmp_path)).at_threads(2)
    want = eng.at_threads(1).apply_segmented("sum", v).values.tobytes()
    assert eng.apply_segmented("sum", v).values.tobytes() == want
    pid = os.fork()
    if pid == 0:
        ok = all(eng.apply_segmented("sum", v).values.tobytes() == want
                 for _ in range(5))
        os._exit(0 if ok else 1)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0


# -- the choice itself -----------------------------------------------------

@pytest.fixture
def cpus(monkeypatch):
    """``default_threads()`` as the test sets it."""
    monkeypatch.delenv("REPRO_THREADS", raising=False)
    yield set_default_threads
    set_default_threads(None)


def test_each_thread_gets_the_floor(cpus):
    cpus(8)
    eng = NativeEngine(KernelCache())
    assert eng.threads_for(2 * THREAD_FLOOR - 1) == 1
    assert eng.threads_for(2 * THREAD_FLOOR) == 2
    assert eng.threads_for(5 * THREAD_FLOOR + 7) == 5
    assert eng.threads_for(100 * THREAD_FLOOR) == 8


def test_under_a_fold_each_thread_gets_a_group_of_segments(cpus):
    cpus(8)
    eng = NativeEngine(KernelCache())
    assert eng.threads_for(8 * THREAD_FLOOR, nseg=2) == 1
    assert eng.threads_for(8 * THREAD_FLOOR, nseg=7) == 1
    assert eng.threads_for(8 * THREAD_FLOOR, nseg=12) == 3
    assert eng.threads_for(8 * THREAD_FLOOR, nseg=10 ** 6) == 8


def test_the_cap_and_a_fixed_count(cpus):
    cpus(1)
    assert NativeEngine(KernelCache()).threads_for(10 ** 9) == 1
    for t in (1, 2, 5):
        eng = NativeEngine(KernelCache()).at_threads(t)
        assert eng.threads_for(1) == eng.threads_for(10 ** 9, nseg=1) == t
