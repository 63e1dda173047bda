"""The fixed cost of a vector op, as counts (not times): how many
Python-level calls and NumPy reductions one warm op of the ``nested_dc``
benchmark makes, how often one warm ``api_roundtrip`` op walks its list,
that a warm program is never lowered again, and that racing threads may
publish the same plan."""

import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import compile_program
from repro.vexec import evaluator

BENCH = Path(__file__).resolve().parents[2] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    """``bench/workloads.py`` (the benchmark's inputs), loaded by path."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_one_warm_nested_dc_op_stays_inside_its_budget(workloads):
    """60,328 calls and 3,417 reductions before plans, inherited sums and
    compress/merge; 25,206 and 689 with them (CPython 3.11); 24,321 and 689
    once a pack is an index, which also takes the running sums out:
    ``cumsum`` 260 -> 88 and ``astype`` 104 -> 18 C-calls; 15,845 once a
    depth-0 pack or merge wraps no unit frame and an elementwise op runs
    on the value vectors (``extract`` 119 -> 17, ``insert`` 68 -> 17: only
    ``qsort^2``'s own T1 is left)."""
    dc = workloads.NestedDC()
    dc.setup(0)
    assert dc.check(0, dc.op(0))            # warm, and right
    calls = reductions = 0
    methods = dict.fromkeys(("cumsum", "astype"), 0)
    python = dict.fromkeys(("prepend_unit", "drop_unit", "extract",
                            "insert"), 0)

    def count(frame, event, arg):
        nonlocal calls, reductions
        if event in ("call", "c_call"):
            calls += 1
            if event == "call":
                name = frame.f_code.co_name
                if name in python:
                    python[name] += 1
            else:
                name = arg.__name__
                if name in methods:
                    methods[name] += 1
                elif name == "reduce" and isinstance(arg.__self__, np.ufunc):
                    reductions += 1
    sys.setprofile(count)
    try:
        got = dc.op(0)
    finally:
        sys.setprofile(None)
    assert dc.check(0, got)
    assert calls < 16_500, calls
    assert reductions < 1_000, reductions
    assert methods["cumsum"] <= 100 and methods["astype"] <= 30, methods
    assert python["prepend_unit"] == python["drop_unit"] == 0, python
    assert python["extract"] <= 17 and python["insert"] <= 17, python


def test_one_warm_api_roundtrip_op_walks_its_list_once(workloads):
    """389 calls with a type scan ahead of the converter's own and three
    ``np.full`` constants; 363 once the list is typed by converting it and a
    replicated scalar is a view.  What is left walks the 100,000 elements
    in C: ``fromiter`` (the descriptor, the values) and ``tolist``."""
    api = workloads.ApiRoundtrip()
    api.setup(0)
    assert api.check(0, api.op(0))          # warm, and right
    calls = 0
    walks = dict.fromkeys(("full", "fromiter", "tolist"), 0)

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1
            name = frame.f_code.co_name if event == "call" else arg.__name__
            if name in walks:
                walks[name] += 1
    sys.setprofile(count)
    try:
        got = api.op(0)
    finally:
        sys.setprofile(None)
    assert api.check(0, got)
    assert calls <= 370, calls
    assert walks == {"full": 0, "fromiter": 2, "tolist": 1}, walks


@pytest.mark.parametrize("backend", ["vector", "native"])
def test_a_warm_program_lowers_nothing(workloads, monkeypatch, backend):
    lowered = []
    real = evaluator._Lowered.lower
    monkeypatch.setattr(evaluator._Lowered, "lower",
                        lambda self, name: lowered.append(name)
                        or real(self, name))
    prog = compile_program(workloads.QSORT_SRC)
    args = [[[3, 1, 2], [], [5, 4]]]
    want = [[1, 2, 3], [], [4, 5]]
    assert prog.run("qsort_all", args, backend=backend) == want
    first = len(lowered)
    assert first >= 2                       # qsort_all and qsort^1, at least
    assert prog.run("qsort_all", args, backend=backend) == want
    assert len(lowered) == first            # a fresh evaluator, the same plans


def test_threads_racing_a_first_run_agree_with_the_interpreter(workloads):
    """Publishing a plan is idempotent: eight threads lowering the same
    functions at once each get the interpreter's answer."""
    prog = compile_program(workloads.QSORT_SRC)
    args = [[[9, 3, 7, 1, 8, 2], [4], [], [6, 5, 6, 5]]]
    want = prog.run("qsort_all", args, backend="interp")
    prog.prepare("qsort_all", prog.entry_types("qsort_all", args))
    n = 8
    start = threading.Barrier(n)
    results: list = [None] * n

    def run(i):
        start.wait(timeout=30)
        results[i] = prog.run("qsort_all", args)
    threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [want] * n
