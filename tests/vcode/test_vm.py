"""Tests for VCODE compilation and the VM: the VM is the ``vector``
evaluator with a trace observer, so a traced run returns what the
``vector`` back end returns (observer parity), and structural properties
of the compiled code."""

import pytest

from repro import ReproError, compile_program
from repro.fuzz.gen import gen_case
from repro.lang.types import TSeq
from repro.vcode.instructions import Call, Jump, JumpIfNot, Prim, Ret
from tests.passes.test_equivalence import EXAMPLE_FILES, _example_spec


def vm_for(src, fname, arg_types):
    prog = compile_program(src)
    mono, vp = prog.compile_vcode(fname, arg_types)
    from repro.vcode.vm import VM
    return VM(vp), mono, vp


class TestCompilation:
    def test_simple_function_compiles(self):
        _vm, mono, vp = vm_for("fun sqs(n) = [i <- [1..n]: i*i]", "sqs", ["int"])
        f = vp[mono]
        assert isinstance(f.instrs[-1], Ret)
        assert any(isinstance(i, Prim) and i.fn == "range1" for i in f.instrs)

    def test_every_function_ends_with_ret_reachable(self):
        src = """
            fun fact(n) = if n <= 1 then 1 else n * fact(n - 1)
        """
        _vm, mono, vp = vm_for(src, "fact", ["int"])
        f = vp[mono]
        assert any(isinstance(i, (Jump, JumpIfNot)) for i in f.instrs)
        assert isinstance(f.instrs[-1], Ret)

    def test_user_call_compiles_to_call(self):
        src = """
            fun sq(n) = n * n
            fun f(n) = sq(n) + 1
        """
        _vm, mono, vp = vm_for(src, "f", ["int"])
        assert any(isinstance(i, Call) for i in vp[mono].instrs)

    def test_extensions_compiled_too(self):
        src = """
            fun sqs(n) = [i <- [1..n]: i*i]
            fun nested(k) = [i <- [1..k]: sqs(i)]
        """
        _vm, _mono, vp = vm_for(src, "nested", ["int"])
        assert "sqs^1" in vp.functions

    def test_instruction_count_positive(self):
        _vm, _m, vp = vm_for("fun f(n) = n + 1", "f", ["int"])
        assert vp.instruction_count >= 2

    def test_str_rendering(self):
        _vm, mono, vp = vm_for("fun f(n) = n + 1", "f", ["int"])
        s = str(vp)
        assert "function f" in s and "ret" in s


class TestExecution:
    @pytest.mark.parametrize("src,fname,args,expected", [
        ("fun sqs(n) = [i <- [1..n]: i*i]", "sqs", [5], [1, 4, 9, 16, 25]),
        ("fun f(v) = [x <- v: if x > 0 then x else 0 - x]", "f",
         [[3, -4, 0]], [3, 4, 0]),
        ("fun fact(n) = if n <= 1 then 1 else n * fact(n - 1)", "fact",
         [6], 720),
        ("fun tri(n) = [i <- [1..n]: [j <- [1..i]: j]]", "tri", [3],
         [[1], [1, 2], [1, 2, 3]]),
    ])
    def test_results(self, src, fname, args, expected):
        prog = compile_program(src)
        assert prog.vector_trace(fname, args)[0] == expected

    def test_three_way_agreement(self):
        src = """
            fun sqs(n) = [i <- [1..n]: i*i]
            fun oddsq(n) = [i <- [1..n] | odd(i): sqs(i)]
        """
        prog = compile_program(src)
        want = [[1], [1, 4, 9], [1, 4, 9, 16, 25]]
        assert prog.run_all("oddsq", [5]) == want
        assert prog.vector_trace("oddsq", [5])[0] == want

    def test_recursion_in_frame_on_vm(self):
        src = """
            fun fact(n) = if n <= 1 then 1 else n * fact(n - 1)
            fun facts(v) = [x <- v: fact(x)]
        """
        prog = compile_program(src)
        assert prog.run_all("facts", [[3, 1, 5]]) == [6, 1, 120]

    def test_higher_order_on_vm(self):
        src = "fun f(vv) = [v <- vv: reduce(add, v)]"
        prog = compile_program(src)
        assert prog.run_all("f", [[[1, 2], [3, 4, 5]]]) == [3, 12]

    def test_prelude_functions_on_vm(self):
        prog = compile_program("fun f(v) = reverse(v)")
        assert prog.vector_trace("f", [[1, 2, 3]])[0] == [3, 2, 1]


class TestArity:
    """The VM is the vector evaluator: a wrong argument count is the
    evaluator's ``EvalError``, on vector values and on Python values."""

    SRC = "fun f(a, b) = a + b"

    @pytest.mark.parametrize("n", [1, 3])
    def test_call_raw_checks_arity(self, n):
        from repro.errors import EvalError
        vm, mono, _vp = vm_for(self.SRC, "f", ["int", "int"])
        assert vm.call_raw(mono, [1, 2]) == 3
        with pytest.raises(EvalError,
                           match=f"f expects 2 arguments, got {n}"):
            vm.call_raw(mono, [1] * n)
        with pytest.raises(EvalError,
                           match=f"f expects 2 arguments, got {n}"):
            vm.call(mono, [1] * n)


class TestControlFlow:
    """The plan runs the diamond the compiler emits as the lazy ``if``; any
    other control flow is refused when the plan is built."""

    def test_other_control_flow_is_refused(self):
        from repro.errors import VMError
        from repro.lang.types import INT
        from repro.vcode.instructions import Label, VFunction, VProgram
        from repro.vcode.vm import VM
        loop = VFunction("f", [0], [INT], INT,
                         [Label(".top"), Jump(".top"), Ret(0)], 1)
        with pytest.raises(VMError, match="unsupported control flow"):
            VM(VProgram({"f": loop})).call_raw("f", [1])


class TestCompileOnce:
    """A transformed program keeps its linted VProgram: compiled and
    linted on the first ask, whoever asks (the traced run, ``emit_c``,
    ``repro analyze``), not on every one."""

    SRC = "fun f(n) = [i <- [1..n]: i * i + 1]"

    @pytest.fixture
    def lints(self, monkeypatch):
        import repro.analysis.vlint as L
        seen = []
        real = L.check_program
        monkeypatch.setattr(L, "check_program",
                            lambda vp: seen.append(vp) or real(vp))
        return seen

    def test_two_runs_compile_once(self, lints):
        from repro.analysis.report import analyze_source
        prog = compile_program(self.SRC)
        assert prog.vector_trace("f", [3])[0] == [2, 5, 10]
        assert prog.vector_trace("f", [4])[0] == [2, 5, 10, 17]
        assert len(lints) == 1
        vm, mono = prog.vcode_vm("f", [3])                      # the same tp
        assert vm.call(mono, [3]) == [2, 5, 10]
        assert "f" in prog.emit_c("f", ["int"])
        assert prog.compile_vcode("f", ["int"])[1] is lints[0]
        assert len(lints) == 1
        analyze_source(self.SRC, "f", [3])             # a program of its own
        assert len(lints) == 2

    def test_other_transform_options_compile_their_own(self, lints):
        from repro.lang.types import INT
        from repro.transform.pipeline import TransformOptions
        plain = compile_program(self.SRC)
        raw = compile_program(self.SRC,
                              options=TransformOptions(
                                  passes="canonical,eliminate,optimize,fuse"))
        for _ in range(2):
            assert plain.vector_trace("f", [3])[0] == [2, 5, 10]
            assert raw.vector_trace("f", [3])[0] == [2, 5, 10]
        assert len(lints) == 2 and lints[0] is not lints[1]
        tps = [p.prepare("f", (INT,))[1] for p in (plain, raw)]
        assert all(tp.vcode[0] is vp for tp, vp in zip(tps, lints))
        assert tps[0].options != tps[1].options

    def test_a_copy_does_not_inherit_the_vcode(self):
        from dataclasses import replace
        from repro.lang.types import INT
        prog = compile_program(self.SRC)
        prog.vector_trace("f", [3])
        tp = prog.prepare("f", (INT,))[1]
        assert tp.vcode is not None and replace(tp).vcode is None


def _outcome(run, *args):
    try:
        return ("ok", run(*args))
    except ReproError as e:
        return (type(e).__name__, str(e))


class TestObserverParity:
    """The trace observes ``vector``; it computes nothing of its own:
    ``vector_trace(...)[0] == run(..., "vector")``, failures included."""

    @pytest.mark.parametrize("path", EXAMPLE_FILES,
                             ids=[p.stem for p in EXAMPLE_FILES])
    def test_examples(self, path):
        spec = _example_spec(path)
        prog = compile_program(spec["SOURCE"])
        entry, args = spec["PROFILE_ENTRY"], list(spec["PROFILE_ARGS"])
        assert prog.vector_trace(entry, args)[0] == \
            prog.run(entry, args, backend="vector")

    @pytest.mark.parametrize("chunk", range(4))
    def test_generated_programs(self, chunk):
        for seed in range(chunk * 50, (chunk + 1) * 50):
            case = gen_case(seed)
            prog = compile_program(case.source)
            args, types = list(case.args), list(case.types)
            assert _outcome(lambda: prog.vector_trace(case.entry, args, types)[0]) \
                == _outcome(prog.run, case.entry, args, "vector", types), seed


class TestTrace:
    def test_trace_recorded(self):
        prog = compile_program("fun sqs(n) = [i <- [1..n]: i*i]")
        result, trace = prog.vector_trace("sqs", [100])
        assert result[:3] == [1, 4, 9]
        ops = [op for op, _n in trace]
        assert "range1" in ops and "mul" in ops

    def test_trace_widths_scale_with_input(self):
        prog = compile_program("fun sqs(n) = [i <- [1..n]: i*i]")
        _, t1 = prog.vector_trace("sqs", [10])
        _, t2 = prog.vector_trace("sqs", [1000])
        w1 = sum(n for op, n in t1 if op == "mul")
        w2 = sum(n for op, n in t2 if op == "mul")
        assert w2 == 100 * w1

    def test_step_count_independent_of_width(self):
        # a flat data-parallel program: #vector-ops constant as n grows
        prog = compile_program("fun sqs(n) = [i <- [1..n]: i*i]")
        _, t1 = prog.vector_trace("sqs", [10])
        _, t2 = prog.vector_trace("sqs", [10000])
        assert len(t1) == len(t2)


class TestEmitC:
    def test_c_shape(self):
        prog = compile_program("""
            fun sqs(n) = [i <- [1..n]: i*i]
            fun nested(k) = [i <- [1..k]: sqs(i)]
        """)
        c = prog.emit_c("nested", ["int"])
        assert '#include "cvl.h"' in c
        assert "vec_p sqs_ext1(" in c          # the f^1 extension
        assert "cvl_mul_1(" in c               # depth-1 kernel call
        assert "return r" in c

    def test_t1_visible_for_depth2(self):
        prog = compile_program(
            "fun tri(n) = [i <- [1..n]: [j <- [1..i]: i * j]]")
        c = prog.emit_c("tri", ["int"])
        assert "cvl_extract(" in c and "cvl_insert(" in c

    def test_control_flow_rendered(self):
        prog = compile_program(
            "fun fact(n) = if n <= 1 then 1 else n * fact(n - 1)")
        c = prog.emit_c("fact", ["int"])
        assert "goto" in c and ":;" in c

    def test_identifiers_are_c_safe(self):
        prog = compile_program("""
            fun id(x) = x
            fun f(n) = if id(true) then id(1) else n
        """)
        c = prog.emit_c("f", ["int"])
        for ch in ("^", "$", "%"):
            assert ch not in c
