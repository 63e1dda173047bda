"""Tests for the public API surface (repro.api / repro.__init__)."""

import pytest

from repro import FunVal, ReproError, TransformOptions, \
    compile_program, run
from repro.errors import EvalError, TypeCheckError
from repro.lang.types import BOOL, INT, TSeq


class TestOneShotRun:
    def test_run(self):
        assert run("fun sqs(n) = [i <- [1..n]: i*i]", "sqs", [4]) == \
            [1, 4, 9, 16]

    def test_run_backend(self):
        assert run("fun f(x) = x + 1", "f", [1], backend="interp") == 2

    def test_run_types(self):
        assert run("fun f(v) = #v", "f", [[]], types=["seq(bool)"]) == 0


class TestEntryTypes:
    def test_inferred_from_values(self):
        prog = compile_program("fun f(v) = v")
        ts = prog.entry_types("f", [[1, 2]])
        assert ts == (TSeq(INT),)

    def test_inferred_ragged_with_empty_rows(self):
        prog = compile_program("fun f(v) = v")
        ts = prog.entry_types("f", [[[], [True]]])
        assert ts == (TSeq(TSeq(BOOL)),)

    def test_explicit_validation(self):
        prog = compile_program("fun f(v) = v")
        with pytest.raises(EvalError):
            prog.entry_types("f", [[1, True]])
        with pytest.raises(EvalError):
            prog.entry_types("f", [[1]], types=["seq(bool)"])

    def test_length_mismatch(self):
        prog = compile_program("fun f(v) = v")
        with pytest.raises(TypeCheckError):
            prog.entry_types("f", [[1]], types=["seq(int)", "int"])

    def test_function_arg_requires_types(self):
        prog = compile_program("fun ap(f, x) = f(x)")
        with pytest.raises(EvalError):
            prog.run("ap", [FunVal("neg"), 1])  # no types given


class TestPrepareCaching:
    def test_same_entry_reuses_transform(self):
        prog = compile_program("fun f(v) = [x <- v: x + 1]")
        m1, tp1 = prog.prepare("f", (TSeq(INT),))
        m2, tp2 = prog.prepare("f", (TSeq(INT),))
        assert m1 == m2 and tp1 is tp2

    def test_different_types_different_instances(self):
        prog = compile_program("fun f(x) = [x, x]")
        m1, _ = prog.prepare("f", (INT,))
        m2, _ = prog.prepare("f", (BOOL,))
        assert m1 != m2

    def test_unknown_entry(self):
        prog = compile_program("fun f(x) = x")
        with pytest.raises(TypeCheckError):
            prog.prepare("nosuch", (INT,))


class TestRunAll:
    def test_agreement_value_returned(self):
        prog = compile_program("fun f(n) = sum([1..n])")
        assert prog.run_all("f", [10]) == 55

    def test_user_function_as_entry_argument(self):
        prog = compile_program("""
            fun double(x) = 2 * x
            fun mapf(f, v) = [x <- v: f(x)]
        """)
        got = prog.run("mapf", [FunVal("double"), [1, 2, 3]],
                       types=["(int) -> int", "seq(int)"])
        assert got == [2, 4, 6]

    def test_prelude_function_as_entry_argument(self):
        prog = compile_program("fun mapf(f, v) = [x <- v: f(x)]")
        got = prog.run("mapf", [FunVal("odd"), [1, 2, 3]],
                       types=["(int) -> bool", "seq(int)"])
        assert got == [True, False, True]


class TestOptions:
    def test_options_respected(self):
        prog = compile_program(
            "fun gather(v, ix) = [i <- ix: v[i]]",
            options=TransformOptions(passes=("canonical", "eliminate",
                                             "simplify", "fuse")))
        assert prog.run("gather", [[5, 6], [2, 1]]) == [6, 5]

    def test_no_prelude(self):
        compile_program("fun f(x) = x + 1", use_prelude=False)
        with pytest.raises(TypeCheckError):
            compile_program("fun f(v) = sort(v)", use_prelude=False) \
                .run("f", [[2, 1]])

    def test_user_shadows_prelude(self):
        prog = compile_program("fun reverse(v) = v")  # shadow: identity
        assert prog.run("reverse", [[1, 2]]) == [1, 2]


class TestInspectionAPIs:
    def test_transformed_source_is_parseable_text(self):
        prog = compile_program("fun f(v) = [x <- v: x * 2]")
        src = prog.transformed_source("f", [[1, 2]])
        assert "fun f(v)" in src and "<-" not in src  # no iterators remain

    def test_emit_c_nonempty(self):
        prog = compile_program("fun f(n) = [i <- [1..n]: i]")
        assert "vec_p f(" in prog.emit_c("f", ["int"])

    def test_vector_trace_result_and_ops(self):
        prog = compile_program("fun f(n) = sum([i <- [1..n]: i])")
        result, trace = prog.vector_trace("f", [100])
        assert result == 5050
        assert any(op == "sum" for op, _n in trace)

    def test_measure(self):
        prog = compile_program("fun f(n) = [i <- [1..n]: i]")
        val, cost = prog.measure("f", [10])
        assert val == list(range(1, 11))
        assert cost.work >= 10 and cost.span >= 1

    def test_trace_for(self):
        prog = compile_program("fun f(v) = [x <- v: x]",
                               options=TransformOptions(trace=True))
        tr = prog.trace_for("f", ["seq(int)"])
        assert tr.rules_fired()


class TestErrorSurface:
    def test_all_errors_are_repro_errors(self):
        cases = [
            lambda: compile_program("fun f(x ="),               # parse
            lambda: compile_program("fun f(x) = x + true"),      # type
            lambda: compile_program("fun f(v) = v[9]").run("f", [[1]]),
        ]
        for c in cases:
            with pytest.raises(ReproError):
                c()

    def test_unknown_backend(self):
        prog = compile_program("fun f(x) = x")
        with pytest.raises(ValueError):
            prog.run("f", [1], backend="quantum")
