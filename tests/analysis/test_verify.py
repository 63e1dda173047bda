"""Phase-boundary IR verifier: the postconditions hold on every example
program and on fuzzed programs, opt out cleanly, and fail with the right
stage name on deliberately broken IR."""

import glob
import os

import pytest

from repro.analysis.verify import verify_canonical, verify_def
from repro.api import compile_program
from repro.cli import _example_spec
from repro.errors import AnalysisError
from repro.guard import faults as F
from repro.lang import ast as A
from repro.transform.pipeline import TransformOptions

EXAMPLES = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "*.py")))


def _spec(path):
    with open(path) as f:
        return _example_spec(f.read())


def test_all_ten_examples_found():
    assert len(EXAMPLES) == 10


@pytest.mark.parametrize("path", EXAMPLES,
                         ids=[os.path.basename(p) for p in EXAMPLES])
def test_example_passes_every_phase_postcondition(path):
    """Compiling + preparing an example runs the verifier after every
    transform phase; verified_phases records each passing run."""
    spec = _spec(path)
    prog = compile_program(spec["SOURCE"])
    entry, args = spec["PROFILE_ENTRY"], list(spec["PROFILE_ARGS"])
    _mono, tp = prog.prepare(entry, *prog.resolve_entry(entry, args))
    stages = [s for s, _n in tp.verified_phases]
    assert stages and stages[0] == "verify:eliminate"
    assert all(s.startswith("verify:") for s in stages)
    assert all(n >= 1 for _s, n in tp.verified_phases)


def test_two_hundred_fuzzed_programs_pass_postconditions():
    from repro.fuzz import gen_case
    for seed in range(200):
        case = gen_case(seed)
        prog = compile_program(case.source)
        at = prog.entry_types(case.entry, list(case.args))
        _mono, tp = prog.prepare(case.entry, at)
        assert tp.verified_phases, f"seed {seed}: verifier did not run"


def test_verify_opt_out():
    prog = compile_program("fun main(n) = [i <- [1..n]: i*i]",
                           options=TransformOptions(verify=False))
    at = prog.entry_types("main", [4])
    _mono, tp = prog.prepare("main", at)
    assert tp.verified_phases == ()


def test_injected_transform_fault_fails_at_verify_eliminate():
    src = ("fun fact(n) = if n <= 1 then 1 else n * fact(n - 1)\n"
           "fun main(n) = [i <- [1..n]: fact(i)]")
    with F.injecting("transform.R2d.drop-guard", seed=0) as inj:
        with pytest.raises(AnalysisError) as ei:
            compile_program(src).run("main", [5])
    assert inj.fired
    assert ei.value.stage == "verify:eliminate"
    assert "restrict" in ei.value.detail


# -- hand-built IR against verify_def ---------------------------------------

def _known(_name):
    return False  # no function constants in the hand-built terms


def _arity(_name):
    return None


def _check(body, params=("x",)):
    d = A.FunDef(name="f", params=list(params), body=body)
    verify_def(d, "verify:test", _known, _arity)


def test_residual_iterator_is_rejected():
    body = A.Iter(var="i", domain=A.Var("x"), body=A.Var("i"))
    with pytest.raises(AnalysisError) as ei:
        _check(body)
    assert "residual iterator" in ei.value.detail
    assert ei.value.stage == "verify:test"


def test_unbound_variable_is_rejected():
    with pytest.raises(AnalysisError, match="unbound variable"):
        _check(A.Var("nope"), params=())


def test_argument_above_supplied_depth_is_rejected():
    # x is a parameter (depth 0) consumed at depth 1: the depth
    # bookkeeping the R2c fault site corrupts
    body = A.ExtCall(fn="mul", args=[A.Var("x"), A.Var("x")],
                     depth=1, arg_depths=[1, 1])
    with pytest.raises(AnalysisError, match="can supply at most depth 0"):
        _check(body)


def test_application_without_frame_argument_is_rejected():
    # depth-1 application broadcasting *every* argument: nothing carries
    # the frame the parallel extension is supposed to map over
    body = A.ExtCall(fn="mul", args=[A.IntLit(2), A.IntLit(3)],
                     depth=1, arg_depths=[0, 0])
    with pytest.raises(AnalysisError,
                       match="no argument at the application depth"):
        _check(body)


def test_builtin_arity_is_checked():
    def arity(name):
        return 2 if name == "add" else None

    body = A.ExtCall(fn="add", args=[A.Var("x")], depth=0, arg_depths=[0])
    d = A.FunDef(name="f", params=["x"], body=body)
    with pytest.raises(AnalysisError, match="expects 2 arguments, got 1"):
        verify_def(d, "verify:test", _known, arity)


def test_tagged_restrict_outside_guard_is_rejected():
    e = A.ExtCall(fn="restrict", args=[A.Var("x"), A.Var("x")],
                  depth=0, arg_depths=[0, 0])
    e.origin = "R2d-restrict"
    with pytest.raises(AnalysisError,
                       match="not dominated by an __any emptiness guard"):
        _check(e)


def test_untagged_user_restrict_is_exempt():
    # the same term without provenance is user-written code: allowed
    e = A.ExtCall(fn="restrict", args=[A.Var("x"), A.Var("x")],
                  depth=0, arg_depths=[0, 0])
    _check(e)


def test_r2d_tag_on_non_combine_is_rejected():
    e = A.ExtCall(fn="add", args=[A.Var("x"), A.Var("x")],
                  depth=0, arg_depths=[0, 0])
    e.origin = "R2d"
    with pytest.raises(AnalysisError, match="non-combine"):
        _check(e)


def test_error_carries_pretty_subterm():
    body = A.ExtCall(fn="mul", args=[A.Var("x"), A.Var("x")],
                     depth=1, arg_depths=[1, 1])
    with pytest.raises(AnalysisError) as ei:
        _check(body)
    assert "mul" in ei.value.subterm
    assert "in:" in str(ei.value)


def test_verify_canonical_counts_defs():
    prog = compile_program("fun main(n) = [i <- [1..n]: i]",
                           use_prelude=False)
    assert verify_canonical(prog.canonical) == 1
