"""Resource budgets and the flattened-recursion depth guard."""

import sys

import pytest

from repro.api import BACKENDS, compile_program
from repro.errors import ResourceLimitError
from repro.guard import Budget, GuardConfig, guarded
from repro.guard.runtime import scoped_recursion_limit

LOOP = """
fun loop(v) = if #v == 0 then v else loop(v)
fun main(n) = loop([1..n])
fun work(n) = sum([i <- [1..n]: sum([1..i])])
"""


@pytest.fixture(scope="module")
def prog():
    return compile_program(LOOP)


class TestDepthGuard:
    """The emptiness-guard recursion that never shrinks its argument (the
    classic flattening non-termination mode) must fail within budget, on
    every back end, with a diagnostic naming the function."""

    @pytest.mark.parametrize("backend", list(BACKENDS))
    def test_nonterminating_recursion_diagnosed(self, prog, backend):
        budget = Budget(max_call_depth=64)
        with pytest.raises(ResourceLimitError) as ei:
            prog.run("main", [5], backend=backend, budget=budget)
        e = ei.value
        assert e.limit == "call-depth"
        assert "loop" in e.function
        assert len(e.frame_sizes) > 1
        # non-shrinking: the recursion passes the same-size frame down
        assert list(e.frame_sizes) == sorted(e.frame_sizes)
        assert "non-shrinking" in str(e)

    @pytest.mark.parametrize("backend", list(BACKENDS))
    def test_no_raw_recursionerror(self, prog, backend):
        try:
            prog.run("main", [3], backend=backend,
                     budget=Budget(max_call_depth=40))
        except ResourceLimitError:
            pass  # the required failure mode
        # notably NOT RecursionError and NOT a hang

    def test_terminating_recursion_unaffected(self, prog):
        assert prog.run("work", [6], budget=Budget(max_call_depth=64)) == \
            sum(sum(range(1, i + 1)) for i in range(1, 7))


class TestBudgets:
    def test_elements_ceiling(self, prog):
        with pytest.raises(ResourceLimitError) as ei:
            prog.run("work", [400], budget=Budget(max_elements=100))
        assert ei.value.limit == "elements"
        assert ei.value.stage  # names the kernel that crossed the line

    def test_bytes_ceiling(self, prog):
        with pytest.raises(ResourceLimitError) as ei:
            prog.run("work", [400], budget=Budget(max_bytes=256))
        assert ei.value.limit == "bytes"

    def test_steps_ceiling(self, prog):
        # the flattened `work` runs 4 vector ops regardless of n (that is
        # the point of the transformation), so the ceiling must sit below
        # that; native counts a vector op as vector does
        for backend in ("vector", "native"):
            with pytest.raises(ResourceLimitError) as ei:
                prog.run("work", [50], backend=backend,
                         budget=Budget(max_steps=3))
            assert ei.value.limit == "steps"

    def test_timeout(self, prog):
        with pytest.raises(ResourceLimitError) as ei:
            prog.run("work", [200], budget=Budget(timeout_s=1e-9))
        assert ei.value.limit == "timeout"

    def test_within_budget_returns_normally(self, prog):
        budget = Budget(max_elements=10**9, max_steps=10**9, timeout_s=60.0)
        assert prog.run("work", [5], budget=budget) == \
            sum(sum(range(1, i + 1)) for i in range(1, 6))

    def test_budget_error_carries_numbers(self, prog):
        with pytest.raises(ResourceLimitError) as ei:
            prog.run("work", [400], budget=Budget(max_elements=100))
        assert ei.value.budget == 100
        assert ei.value.used > 100


class TestStepVerdictAcrossLanes:
    """Every lane runs the one fused program, and a fused region is one
    step whoever executes it: NumPy, the C kernel or the threaded one."""

    SRC = "fun f(n) = sum([i <- [1..n]: i * i + 1])"

    @pytest.mark.parametrize("k", range(1, 6))
    def test_same_verdict_on_vector_native_and_parallel(self, k):
        prog = compile_program(self.SRC)
        verdict = {}
        for backend, threads in (("vector", None), ("native", None),
                                 ("native", 2)):
            try:
                verdict[backend, threads] = prog.run(
                    "f", [500], backend=backend, threads=threads,
                    budget=Budget(max_steps=k))
            except ResourceLimitError as e:
                verdict[backend, threads] = e.limit
        assert len(set(verdict.values())) == 1, verdict
        # range1, then the region: two steps
        assert verdict["vector", None] == ("steps" if k == 1 else 41792250)


class TestScopedRecursionLimit:
    def test_restores_previous_limit(self):
        before = sys.getrecursionlimit()
        with scoped_recursion_limit(before + 1234):
            assert sys.getrecursionlimit() == before + 1234
        assert sys.getrecursionlimit() == before

    def test_never_lowers(self):
        before = sys.getrecursionlimit()
        with scoped_recursion_limit(10):
            assert sys.getrecursionlimit() == before
        assert sys.getrecursionlimit() == before

    def test_last_writer_wins_inside_scope(self):
        before = sys.getrecursionlimit()
        with scoped_recursion_limit(before + 777):
            sys.setrecursionlimit(before + 999)  # someone else raises it
        assert sys.getrecursionlimit() == before + 999
        sys.setrecursionlimit(before)

    @pytest.mark.parametrize("backend", list(BACKENDS))
    def test_executors_do_not_leak_limit(self, prog, backend):
        before = sys.getrecursionlimit()
        prog.run("work", [5], backend=backend)
        assert sys.getrecursionlimit() == before
