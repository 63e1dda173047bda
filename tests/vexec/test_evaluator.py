"""Unit-level tests for the vector evaluator and shared Applier: argument
broadcasting, depth-0 wrap/unwrap, group dispatch internals, and error
paths that integration tests don't isolate."""

import numpy as np
import pytest

from repro import compile_program
from repro.errors import EvalError, VMError
from repro.lang.types import INT, TSeq, TTuple, seq_of
from repro.vector import ops as O
from repro.vector.convert import from_python, to_python
from repro.vector.nested import VFun, VTuple
from repro.vexec.apply import Applier, merge_groups


def plain_applier():
    return Applier(call_user=lambda n, a: (_ for _ in ()).throw(VMError(n)),
                   is_user=lambda n: False)


class TestWrapUnwrap:
    @pytest.mark.parametrize("v", [5, -3, True, False])
    def test_scalar_roundtrip(self, v):
        assert O.unwrap1(O.wrap1(v)) == v
        assert type(O.unwrap1(O.wrap1(v))) is type(v)

    def test_sequence_roundtrip(self):
        nv = from_python([[1], [2, 3]], seq_of(INT, 2))
        assert O.unwrap1(O.wrap1(nv)) == nv

    def test_tuple_roundtrip(self):
        v = from_python((1, [2, 3]), TTuple((INT, TSeq(INT))))
        out = O.unwrap1(O.wrap1(v))
        assert to_python(out, TTuple((INT, TSeq(INT)))) == (1, [2, 3])

    def test_function_roundtrip(self):
        out = O.unwrap1(O.wrap1(VFun("add")))
        assert isinstance(out, VFun) and out.name == "add"

    def test_unwrap_rejects_wide_frame(self):
        from repro.errors import VectorError
        nv = from_python([1, 2], TSeq(INT))
        with pytest.raises(VectorError):
            O.unwrap1(nv)


class TestApplierBroadcast:
    def test_depth0_arg_broadcast(self):
        ap = plain_applier()
        v = from_python([1, 2, 3], TSeq(INT))
        out = ap.apply_named("add", [v, 10], [1, 0], 1, None)
        assert to_python(out, TSeq(INT)) == [11, 12, 13]

    def test_depth0_seq_arg_broadcast(self):
        ap = plain_applier()
        idx = from_python([2, 1], TSeq(INT))
        shared = from_python([10, 20], TSeq(INT))
        out = ap.apply_named("seq_index", [shared, idx], [0, 1], 1, None)
        assert to_python(out, TSeq(INT)) == [20, 10]

    def test_shared_fast_path(self):
        ap = plain_applier()
        idx = from_python([2, 1], TSeq(INT))
        shared = from_python([10, 20], TSeq(INT))
        out = ap.apply_named("__seq_index_shared", [shared, idx],
                             [0, 1], 1, None)
        assert to_python(out, TSeq(INT)) == [20, 10]

    def test_rep_kernel(self):
        ap = plain_applier()
        w = from_python([0, 0, 0], TSeq(INT))
        out = ap.apply_named("__rep", [w, 42], [1, 0], 1, None)
        assert to_python(out, TSeq(INT)) == [42, 42, 42]

    def test_no_full_depth_arg_rejected(self):
        ap = plain_applier()
        with pytest.raises(VMError):
            ap.apply_named("add", [1, 2], [0, 0], 1, None)

    def test_replication_observed(self):
        seen = []
        ap = Applier(lambda n, a: None, lambda n: False,
                     observe=lambda op, n: seen.append((op, n)))
        v = from_python(list(range(10)), TSeq(INT))
        ap.apply_named("add", [v, 5], [1, 0], 1, None)
        assert ("replicate", 10) in seen
        assert ("add", 10) in seen


def apply0(ap, name, args, node_type):
    """Depth-0 application: every argument at frame depth 0."""
    return ap.apply_named(name, args, [0] * len(args), 0, node_type)


class TestApply0:
    def test_scalar_prim(self):
        ap = plain_applier()
        assert apply0(ap, "add", [2, 3], None) == 5

    def test_seq_prim(self):
        ap = plain_applier()
        v = from_python([5, 1], TSeq(INT))
        assert apply0(ap, "length", [v], None) == 2

    def test_seq_cons_empty_needs_type(self):
        ap = plain_applier()
        out = apply0(ap, "__seq_cons", [], TSeq(INT))
        assert to_python(out, TSeq(INT)) == []

    def test_tuple_ops(self):
        ap = plain_applier()
        t = apply0(ap, "__tuple_cons", [1, True], None)
        assert isinstance(t, VTuple)
        assert apply0(ap, "__tuple_extract_2", [t], None) is True

    def test_unknown_prim(self):
        ap = plain_applier()
        with pytest.raises(VMError):
            apply0(ap, "nonsense", [], None)


class TestGroupDispatch:
    def test_single_function_group(self):
        ap = plain_applier()
        fun = from_python([VFun("neg")] * 3, TSeq(__import__(
            "repro.lang.types", fromlist=["TFun"]).TFun((INT,), INT)))
        args = [from_python([1, 2, 3], TSeq(INT))]
        out = ap.apply_dynamic(fun, args, [1], 1, 1, INT)
        assert to_python(out, TSeq(INT)) == [-1, -2, -3]

    def test_two_function_groups_interleaved(self):
        from repro.lang.types import TFun
        ap = plain_applier()
        fun = from_python([VFun("neg"), VFun("abs_"), VFun("neg"),
                           VFun("abs_")], TSeq(TFun((INT,), INT)))
        args = [from_python([1, -2, 3, -4], TSeq(INT))]
        out = ap.apply_dynamic(fun, args, [1], 1, 1, INT)
        assert to_python(out, TSeq(INT)) == [-1, 2, -3, 4]

    def test_empty_function_frame(self):
        from repro.lang.types import TFun
        ap = plain_applier()
        fun = from_python([], TSeq(TFun((INT,), INT)))
        args = [from_python([], TSeq(INT))]
        out = ap.apply_dynamic(fun, args, [1], 1, 1, INT)
        assert to_python(out, TSeq(INT)) == []

    def test_apply_non_function_value(self):
        ap = plain_applier()
        with pytest.raises(EvalError):
            ap.apply_dynamic(5, [], [], 0, 0, None)

    def test_merge_groups_restores_order(self):
        p1 = from_python([10, 30], TSeq(INT))
        p2 = from_python([21, 41], TSeq(INT))
        out = merge_groups([p1, p2],
                           [np.array([0, 2]), np.array([1, 3])], 4)
        assert to_python(out, TSeq(INT)) == [10, 21, 30, 41]


class TestPlan:
    """A function's plan, on hand-built bodies the pipeline never emits:
    slots are per binder, and a node that cannot run fails when it is
    reached — not when its function is lowered."""

    @staticmethod
    def evaluator(body):
        from dataclasses import replace
        from repro.lang.types import BOOL
        from repro.vexec.evaluator import VectorEvaluator
        prog = compile_program("fun f(c, x) = if c then x else x + 1")
        mono, tp = prog.prepare("f", (BOOL, INT))
        tp = replace(tp, defs={mono: replace(tp.defs[mono], body=body)},
                     plans={})
        return VectorEvaluator(tp), mono

    def test_shadowing_and_nested_lets_get_their_own_slots(self):
        from repro.lang import ast as A
        add = lambda a, b: A.ExtCall("add", [a, b], 0, [0, 0])
        # let x = (let y = x + 1 in y + y), x = x + 1 in x
        inner = A.Let("y", add(A.Var("x"), A.IntLit(1)),
                      add(A.Var("y"), A.Var("y")))
        body = A.Let("x", inner,
                     A.Let("x", add(A.Var("x"), A.IntLit(1)), A.Var("x")))
        ev, mono = self.evaluator(body)
        assert ev.call(mono, [True, 5]) == 13
        assert ev.call(mono, [True, 0]) == 3       # the warm plan, new frame

    def test_unrunnable_nodes_fail_only_when_reached(self):
        from repro.lang import ast as A
        bad = A.If(A.Var("c"), A.Var("nosuch"),
                   A.Iter("i", A.Var("x"), A.Var("i"), None))
        ev, mono = self.evaluator(A.If(A.BoolLit(True), A.Var("x"), bad))
        assert ev.call(mono, [True, 7]) == 7       # lowered, never reached
        ev, mono = self.evaluator(bad)
        with pytest.raises(EvalError, match="unbound variable 'nosuch'"):
            ev.call(mono, [True, 7])
        with pytest.raises(VMError, match="cannot execute node Iter"):
            ev.call(mono, [False, 7])
        ev, mono = self.evaluator(A.If(A.Var("x"), A.Var("x"), A.Var("x")))
        with pytest.raises(EvalError, match="not a scalar bool"):
            ev.call(mono, [True, 7])

    def test_wrong_arity_on_vector_values_is_an_eval_error(self):
        from repro.lang import ast as A
        ev, mono = self.evaluator(A.Var("x"))
        with pytest.raises(EvalError, match="expects 2 arguments, got 1"):
            ev.call_raw(mono, [True])


class TestEvaluatorErrors:
    def test_missing_definition(self):
        prog = compile_program("fun f(x) = x")
        from repro.lang.types import INT as I
        mono, tp = prog.prepare("f", (I,))
        from repro.vexec.evaluator import VectorEvaluator
        ev = VectorEvaluator(tp)
        with pytest.raises(VMError):
            ev.call("nosuch", [1])

    def test_wrong_arity(self):
        prog = compile_program("fun f(x) = x")
        from repro.lang.types import INT as I
        mono, tp = prog.prepare("f", (I,))
        from repro.vexec.evaluator import VectorEvaluator
        ev = VectorEvaluator(tp)
        with pytest.raises(EvalError):
            ev.call(mono, [1, 2])

    def test_observer_via_constructor(self):
        prog = compile_program("fun f(n) = [i <- [1..n]: i + 1]")
        from repro.lang.types import INT as I
        mono, tp = prog.prepare("f", (I,))
        from repro.vexec.evaluator import VectorEvaluator
        seen = []
        ev = VectorEvaluator(tp, observer=lambda op, n: seen.append(op))
        ev.call(mono, [5])
        assert "range1" in seen and "add" in seen
