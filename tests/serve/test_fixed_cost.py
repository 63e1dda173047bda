"""The fixed cost of a coalesced group, as counts (not times): Python-level
calls of one warm ``run_batched`` and how they grow with the group, what a
warm entry is never asked again (its types, its evaluator), and what a
request allocates.  The program and requests are ``serve_batch``'s."""

import gc
import importlib.util
import sys
import threading
from pathlib import Path

import pytest

from repro import compile_program
from repro.fuzz.differ import skip_reason
from repro.lang import types as T
from repro.serve import BatchExecutor, ServeConfig
from repro.vexec.evaluator import VectorEvaluator

BENCH = Path(__file__).resolve().parents[2] / "bench" / "workloads.py"
TYPES = ("seq(int)",)

needs_cc = pytest.mark.skipif(skip_reason("native") is not None,
                              reason="no C toolchain")
LANES = ["vector", pytest.param("native", marks=needs_cc)]


@pytest.fixture(scope="module")
def workloads():
    """``bench/workloads.py`` (the benchmark's inputs), loaded by path."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def group(workloads):
    """``(program, first n argument sets, their answers)`` of key 3."""
    prog = compile_program(workloads.serve_source(3))
    requests = workloads.serve_requests(0)

    def first(n):
        return ([[s] for _k, s, _b, _w in requests[:n]],
                [sum(x * x + 3 for x in s) for _k, s, _b, _w in requests[:n]])
    return prog, first


def calls_of(f):
    """Python-level calls (``call`` + ``c_call`` events) of ``f()`` —
    and of nothing else: a collection that lands inside it would run the
    finalizers of every worker pool an earlier test closed (28 calls
    each), so the collector runs before the count and not during it."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        result = f()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls, result


def warm_batch_calls(prog, argsets, want, backend):
    def batch():
        return prog.run_batched("main", argsets, backend=backend, types=TYPES)
    assert batch() == want and batch() == want          # warm, and right
    calls, got = calls_of(batch)
    assert got == want
    return calls


@pytest.mark.parametrize("backend", LANES)
def test_a_request_adds_a_couple_of_calls_to_its_group(group, backend):
    """263 + 53 n calls on ``native`` before the batch was one conversion
    per column (1,111 at 16, 475 at 4); 221 + n with it (237, 225)."""
    prog, first = group
    at = {n: warm_batch_calls(prog, *first(n), backend) for n in (4, 16)}
    assert at[16] - at[4] <= 30, at


@needs_cc
def test_a_warm_native_group_of_four_stays_inside_its_budget(group):
    prog, first = group
    assert warm_batch_calls(prog, *first(4), "native") <= 240


@pytest.mark.parametrize("backend", LANES)
def test_a_warm_entry_is_not_bound_again(group, monkeypatch, backend):
    """String ``types`` are parsed by the first call of an entry and the
    row's executor built by it: a warm ``run`` / ``run_batched`` tokenises
    nothing and makes no evaluator."""
    prog, first = group
    argsets, want = first(4)
    assert prog.run("main", argsets[0], backend=backend, types=TYPES) \
        == want[0]
    assert prog.run_batched("main", argsets, backend=backend, types=TYPES) \
        == want
    assert prog.predict("main", argsets[0], TYPES)["bounded"]
    seen = []
    real_tokens, real_init = T._type_tokens, VectorEvaluator.__init__
    monkeypatch.setattr(T, "_type_tokens",
                        lambda text: seen.append(text) or real_tokens(text))
    monkeypatch.setattr(VectorEvaluator, "__init__",
                        lambda self, *a, **kw: seen.append(self)
                        or real_init(self, *a, **kw))
    for _ in range(3):
        assert prog.run("main", argsets[0], backend=backend,
                        types=list(TYPES)) == want[0]
        assert prog.run_batched("main", argsets, backend=backend,
                                types=TYPES) == want
        assert prog.predict("main", argsets[0], TYPES)["bounded"]
    assert seen == []


def test_a_request_allocates_no_condition(workloads, monkeypatch):
    """A future is one lock (a ``threading.Event`` was a condition and a
    lock per request)."""
    with BatchExecutor(ServeConfig()) as ex:
        src = workloads.serve_source(3)
        assert ex.submit(src, "main", [[1, 2]], types=TYPES).result(30) == 11
        made = []
        real = threading.Condition
        monkeypatch.setattr(threading, "Condition",
                            lambda *a, **kw: made.append(1) or real(*a, **kw))
        futs = [ex.submit(src, "main", [[k, k]], types=TYPES)
                for k in range(40)]
        assert [f.result(30) for f in futs] == \
            [2 * k * k + 6 for k in range(40)]
        assert made == []
