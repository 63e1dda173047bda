"""Phase spans, the activation contract, and the zero-overhead-off paths."""

import pytest

from repro import Profiler, compile_program, profiling
from repro.obs import runtime
from repro.obs.runtime import NULL_SPAN, current, span, traced

SRC = """
fun sqs(n) = [j <- [1..n]: j * j]
fun main(k) = [i <- [1..k]: sqs(i)]
"""


class TestOffPaths:
    """With no active profiler, instrumentation must be inert."""

    def test_profiler_global_defaults_to_none(self):
        assert runtime.PROFILER is None
        assert current() is None

    def test_span_returns_shared_null_singleton(self):
        # identity, not just equality: the off path allocates nothing
        assert span("anything") is NULL_SPAN
        assert span("other") is NULL_SPAN

    def test_null_span_is_a_noop_context_manager(self):
        with span("x") as s:
            assert s is NULL_SPAN

    def test_traced_function_runs_normally_when_off(self):
        @traced
        def f(x):
            return x + 1
        assert f(2) == 3

    def test_run_records_nothing_when_off(self):
        prog = compile_program(SRC)
        assert prog.run("main", [3]) == [[1], [1, 4], [1, 4, 9]]
        assert runtime.PROFILER is None


class TestActivation:
    def test_profiling_sets_and_clears_global(self):
        prof = Profiler()
        with profiling(prof):
            assert runtime.PROFILER is prof
            assert current() is prof
        assert runtime.PROFILER is None

    def test_profiling_restores_previous_profiler(self):
        outer, inner = Profiler(), Profiler()
        with profiling(outer):
            with profiling(inner):
                assert current() is inner
            assert current() is outer
        assert current() is None

    def test_profiling_clears_on_exception(self):
        prof = Profiler()
        with pytest.raises(ValueError):
            with profiling(prof):
                raise ValueError("boom")
        assert runtime.PROFILER is None

    def test_profiling_default_creates_profiler(self):
        with profiling() as prof:
            assert isinstance(prof, Profiler)
            assert current() is prof


class TestSpanRecording:
    def test_nesting_depth(self):
        prof = Profiler()
        with profiling(prof):
            with span("outer"):
                with span("inner"):
                    pass
            with span("after"):
                pass
        by_name = {s.name: s for s in prof.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["after"].depth == 0

    def test_traced_decorator_names(self):
        prof = Profiler()

        @traced
        def plain():
            return 1

        @traced("custom-name")
        def named():
            return 2

        with profiling(prof):
            assert plain() == 1
            assert named() == 2
        names = [s.name for s in prof.spans]
        assert any(n.endswith("plain") for n in names)  # default = qualname
        assert "custom-name" in names

    def test_durations_are_nonnegative_and_ordered(self):
        prof = Profiler()
        with profiling(prof):
            with span("a"):
                pass
            with span("b"):
                pass
        rep = prof.report()
        assert all(s.duration >= 0 for s in rep.spans)
        starts = [s.start for s in rep.spans]
        assert starts == sorted(starts)


class TestPipelineSpans:
    def test_compile_and_run_phase_names(self):
        prof = Profiler()
        with profiling(prof):
            prog = compile_program(SRC)
            prog.run("main", [3])
        names = [s.name for s in prof.spans]
        for expected in ("parse", "canonicalize", "typecheck",
                         "monomorphize", "transform", "eliminate",
                         "optimize", "simplify", "execute:vector"):
            assert expected in names, f"missing span {expected}"
        assert any(n.startswith("vexec:main") for n in names)

    def test_transform_children_nest_under_transform(self):
        prof = Profiler()
        with profiling(prof):
            prog = compile_program(SRC)
            prog.run("main", [3])
        by_name = {s.name: s for s in prof.spans}
        assert by_name["eliminate"].depth == by_name["transform"].depth + 1
        assert by_name["simplify"].depth == by_name["transform"].depth + 1

    def test_vcode_backend_spans(self):
        """The traced run compiles the VCODE program once and runs the VM."""
        prof = Profiler()
        with profiling(prof):
            compile_program(SRC).vector_trace("main", [3])
        names = [s.name for s in prof.spans]
        assert "vcode-compile" in names
        assert any(n.startswith("vcode-vm:") for n in names)

    def test_cached_entry_shows_only_execution_spans(self):
        prog = compile_program(SRC)
        prog.run("main", [3])  # fills the prepare() cache
        prof = Profiler()
        with profiling(prof):
            prog.run("main", [3])
        names = [s.name for s in prof.spans]
        assert "transform" not in names
        assert "execute:vector" in names
