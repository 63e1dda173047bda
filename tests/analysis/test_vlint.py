"""VCODE lint: clean on everything the compiler emits; each hard-error
class detected on hand-built broken functions."""

import glob
import os

import pytest

from repro.analysis.vlint import check_program, lint_function, lint_program
from repro.api import compile_program
from repro.cli import _example_spec
from repro.errors import AnalysisError
from repro.lang import types as T
from repro.vcode.instructions import (
    Call, Const, Jump, JumpIfNot, Label, Prim, Ret, VFunction, VProgram,
)

EXAMPLES = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "*.py")))


def _fn(instrs, nregs, params=(), name="t"):
    f = VFunction(name=name, params=list(params),
                  param_types=[T.TInt() for _ in params],
                  ret_type=T.TInt(), instrs=list(instrs), nregs=nregs)
    f.finalize()
    return f


def _codes(res):
    return {x.code for x in res.errors}


@pytest.mark.parametrize("path", EXAMPLES,
                         ids=[os.path.basename(p) for p in EXAMPLES])
def test_compiler_output_is_lint_clean(path):
    with open(path) as fh:
        spec = _example_spec(fh.read())
    from repro.vcode.compile import compile_transformed
    prog = compile_program(spec["SOURCE"])
    entry, args = spec["PROFILE_ENTRY"], list(spec["PROFILE_ARGS"])
    _mono, tp = prog.prepare(entry, *prog.resolve_entry(entry, args))
    res = lint_program(compile_transformed(tp))
    assert res.errors == []


def test_use_before_definition():
    f = _fn([Prim(0, "add", (1, 2), 0, (0, 0)), Ret(0)], nregs=3)
    assert "undefined-use" in _codes(lint_function(f))


def test_defined_on_one_path_only_is_undefined():
    # r1 is defined only when the branch is taken: a *must* analysis
    # rejects the later use
    f = _fn([Const(0, True), JumpIfNot(0, ".else"), Const(1, 7),
             Label(".else"), Ret(1)], nregs=2)
    assert "undefined-use" in _codes(lint_function(f))


def test_bad_jump_target():
    f = _fn([Const(0, 1), Jump(".nowhere"), Ret(0)], nregs=1)
    assert "bad-jump" in _codes(lint_function(f))


def test_duplicate_label():
    f = _fn([Label(".l"), Const(0, 1), Label(".l"), Ret(0)], nregs=1)
    assert "duplicate-label" in _codes(lint_function(f))


def test_missing_ret():
    f = _fn([Const(0, 1)], nregs=1)
    assert "missing-ret" in _codes(lint_function(f))


def test_register_out_of_range():
    f = _fn([Const(5, 1), Ret(5)], nregs=2)
    assert "register-range" in _codes(lint_function(f))


def test_prim_arity_mismatch():
    f = _fn([Const(0, 1), Prim(1, "add", (0, 0), 0, (0,)), Ret(1)], nregs=2)
    assert "prim-arity" in _codes(lint_function(f))


def test_call_arity_and_unknown_callee():
    callee = _fn([Ret(0)], nregs=1, params=(0,), name="g")
    bad = _fn([Const(0, 1), Call(1, "g", (0, 0)), Ret(1)], nregs=2,
              name="caller")
    ghost = _fn([Const(0, 1), Call(1, "zz", (0,)), Ret(1)], nregs=2,
                name="ghost")
    vp = VProgram({"g": callee, "caller": bad, "ghost": ghost})
    res = lint_program(vp)
    assert "call-arity" in _codes(res)
    assert "unknown-callee" in _codes(res)


def test_literal_consumed_at_vector_depth():
    f = _fn([Const(0, 3), Const(1, 2),
             Prim(2, "mul", (0, 1), 1, (1, 0)), Ret(2)], nregs=3)
    assert "scalar-at-vector-depth" in _codes(lint_function(f))


def test_dead_result_and_unreferenced_label_warn():
    f = _fn([Label(".never"), Const(0, 1),
             Prim(1, "add", (0, 0), 0, (0, 0)), Ret(0)], nregs=2)
    res = lint_function(f)
    assert res.errors == []
    warns = {x.code for x in res.warnings}
    assert "dead-result" in warns
    assert "unreferenced-label" in warns


def test_check_program_raises_stage_named_error():
    f = _fn([Prim(0, "add", (1, 2), 0, (0, 0)), Ret(0)], nregs=3,
            name="broken")
    with pytest.raises(AnalysisError) as ei:
        check_program(VProgram({"broken": f}))
    assert ei.value.stage == "vlint:broken"
    assert "undefined-use" in str(ei.value)
