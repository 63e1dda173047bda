"""Tests for the iterator-elimination rules: structural properties of the
transformed programs (no iterators, correct extension requests, R2d shape,
section-4.5 rewrites).  Semantic equivalence is covered by the integration
suite."""

import pytest

from repro.errors import TransformError
from repro.lang import ast as A
from repro.lang.types import INT, TFun, TSeq, seq_of
from repro.api import compile_program
from repro.transform.extensions import ext1_name, synthesize_ext1
from repro.transform.pipeline import TransformOptions


def transformed(src, fname, arg_types, options=None):
    prog = compile_program(src, options=options)
    mono, tp = prog.prepare(fname, tuple(arg_types))
    return tp


def body_nodes(tp, name, cls):
    return [n for n in A.walk(tp.defs[name].body) if isinstance(n, cls)]


class TestPostconditions:
    def test_no_iterators_anywhere(self):
        tp = transformed("""
            fun sqs(n) = [i <- [1..n]: i*i]
            fun nested(k) = [i <- [1..k]: sqs(i)]
        """, "nested", [INT])
        for d in tp.defs.values():
            assert not A.contains_iterator(d.body), d.name

    def test_extension_generated_for_nested_call(self):
        tp = transformed("""
            fun sqs(n) = [i <- [1..n]: i*i]
            fun nested(k) = [i <- [1..k]: sqs(i)]
        """, "nested", [INT])
        assert "sqs^1" in tp.defs

    def test_no_extension_for_flat_program(self):
        tp = transformed("fun sqs(n) = [i <- [1..n]: i*i]", "sqs", [INT])
        assert not any(n.endswith("^1") for n in tp.defs)

    def test_number_of_extensions_static(self):
        # "The number of parallel extensions ... is a static property"
        tp = transformed("""
            fun f(n) = [i <- [1..n]: g(i)]
            fun g(n) = [i <- [1..n]: h(i)]
            fun h(n) = n * n
        """, "f", [INT])
        exts = sorted(n for n in tp.defs if "^1" in n)
        assert exts == ["g^1", "h^1"]

    def test_recursive_function_single_extension(self):
        tp = transformed("""
            fun down(n) = if n <= 0 then [] else concat([n], down(n - 1))
            fun all(k) = [i <- [1..k]: down(i)]
        """, "all", [INT])
        assert "down^1" in tp.defs
        assert not A.contains_iterator(tp.defs["down^1"].body)


class TestExtCallShapes:
    def test_depth_annotations(self):
        tp = transformed("fun sqs(n) = [i <- [1..n]: i*i]", "sqs", [INT])
        muls = [n for n in body_nodes(tp, "sqs", A.ExtCall) if n.fn == "mul"]
        assert len(muls) == 1 and muls[0].depth == 1

    def test_nested_depth_two(self):
        tp = transformed(
            "fun tri(n) = [i <- [1..n]: [j <- [1..i]: i * j]]", "tri", [INT])
        muls = [n for n in body_nodes(tp, "tri", A.ExtCall) if n.fn == "mul"]
        assert muls[0].depth == 2

    def test_dist_inserted_for_outer_var(self):
        tp = transformed(
            "fun tri(n) = [i <- [1..n]: [j <- [1..i]: i]]", "tri", [INT])
        dists = [n for n in body_nodes(tp, "tri", A.ExtCall) if n.fn == "dist"]
        assert len(dists) == 1 and dists[0].depth == 1

    def test_no_dist_when_var_unused(self):
        tp = transformed(
            "fun f(n) = [i <- [1..n]: [j <- [1..3]: j]]", "f", [INT])
        dists = [n for n in body_nodes(tp, "f", A.ExtCall) if n.fn == "dist"]
        assert dists == []

    def test_loop_invariant_stays_depth0(self):
        tp = transformed(
            "fun f(n, c) = [i <- [1..n]: c * c]", "f", [INT, INT])
        muls = [n for n in body_nodes(tp, "f", A.ExtCall) if n.fn == "mul"]
        # c*c does not involve the bound variable: computed once at depth 0
        assert muls and all(m.depth == 0 for m in muls)

    def test_range1_emitted(self):
        tp = transformed("fun sqs(n) = [i <- [1..n]: i*i]", "sqs", [INT])
        assert any(n.fn == "range1" for n in body_nodes(tp, "sqs", A.ExtCall))


class TestR2dShape:
    SRC = "fun f(v) = [x <- v: if x > 0 then x else 0 - x]"

    def test_combine_emitted(self):
        tp = transformed(self.SRC, "f", [TSeq(INT)])
        combines = [n for n in body_nodes(tp, "f", A.ExtCall) if n.fn == "combine"]
        assert len(combines) == 1 and combines[0].depth == 0

    def test_guards_emitted(self):
        tp = transformed(self.SRC, "f", [TSeq(INT)])
        anys = [n for n in body_nodes(tp, "f", A.ExtCall) if n.fn == "__any"]
        empties = [n for n in body_nodes(tp, "f", A.ExtCall) if n.fn == "__empty"]
        assert len(anys) == 2 and len(empties) == 2

    def test_restricts_for_used_vars(self):
        # simplification removes the unused witness restricts, leaving the
        # per-branch variable restriction
        tp = transformed(self.SRC, "f", [TSeq(INT)])
        rs = [n for n in body_nodes(tp, "f", A.ExtCall) if n.fn == "restrict"]
        assert len(rs) == 2

    def test_restricts_include_witnesses_unsimplified(self):
        tp = transformed(self.SRC, "f", [TSeq(INT)],
                         options=TransformOptions(
                             passes="canonical,eliminate,optimize,fuse"))
        rs = [n for n in body_nodes(tp, "f", A.ExtCall) if n.fn == "restrict"]
        # x restricted in each branch + 2 witness restricts
        assert len(rs) >= 4

    def test_uniform_condition_stays_plain_if(self):
        tp = transformed(
            "fun f(v, b) = [x <- v: if b then x else 0]", "f",
            [TSeq(INT), __import__("repro.lang.types", fromlist=["BOOL"]).BOOL])
        combines = [n for n in body_nodes(tp, "f", A.ExtCall) if n.fn == "combine"]
        assert combines == []
        ifs = body_nodes(tp, "f", A.If)
        assert len(ifs) == 1

    def test_depth0_if_stays_plain(self):
        tp = transformed("fun f(n) = if n > 0 then n else 0 - n", "f", [INT])
        assert body_nodes(tp, "f", A.If)
        assert not [n for n in body_nodes(tp, "f", A.ExtCall) if n.fn == "combine"]


class TestSharedIndexOptimization:
    SRC = "fun gather(v, ix) = [i <- ix: v[i]]"

    def test_enabled_by_default(self):
        tp = transformed(self.SRC, "gather", [TSeq(INT), TSeq(INT)])
        shared = [n for n in body_nodes(tp, "gather", A.ExtCall)
                  if n.fn == "__seq_index_shared"]
        assert shared and shared[0].arg_depths[0] == 0

    def test_disabled(self):
        tp = transformed(self.SRC, "gather", [TSeq(INT), TSeq(INT)],
                         options=TransformOptions(
                             passes="canonical,eliminate,simplify,fuse"))
        assert not [n for n in body_nodes(tp, "gather", A.ExtCall)
                    if n.fn == "__seq_index_shared"]

    def test_frame_dependent_source_not_shared(self):
        # v[i] where v is itself iterator-bound must NOT use the shared path
        src = "fun f(vv) = [v <- vv: v[1]]"
        tp = transformed(src, "f", [seq_of(INT, 2)])
        for d in tp.defs.values():
            for n in A.walk(d.body):
                if isinstance(n, A.ExtCall) and n.fn == "__seq_index_shared":
                    assert n.arg_depths[0] == 0


class TestNativeReduceOptimization:
    def test_rewrite(self):
        tp = transformed("fun total(v) = reduce(add, v)", "total", [TSeq(INT)],
                         options=TransformOptions(
                             passes="canonical,eliminate,native-reduce,"
                                    "optimize,simplify,fuse"))
        sums = [n for n in body_nodes(tp, "total", A.ExtCall) if n.fn == "sum"]
        assert sums

    def test_not_rewritten_by_default(self):
        tp = transformed("fun total(v) = reduce(add, v)", "total", [TSeq(INT)])
        assert not [n for n in body_nodes(tp, "total", A.ExtCall) if n.fn == "sum"]


class TestHigherOrder:
    def test_indirect_call_emitted(self):
        tp = transformed("fun ap(f, x) = f(x)", "ap", [TFun((INT,), INT), INT])
        ind = body_nodes(tp, "ap", A.IndirectCall)
        assert len(ind) == 1 and ind[0].depth == 0

    def test_indirect_in_iterator(self):
        tp = transformed("fun mapf(f, v) = [x <- v: f(x)]", "mapf",
                         [TFun((INT,), INT), TSeq(INT)])
        ind = []
        for d in tp.defs.values():
            ind += [n for n in A.walk(d.body) if isinstance(n, A.IndirectCall)]
        assert any(n.depth >= 1 for n in ind)


class TestExtensionSynthesis:
    def test_wrapper_shape(self):
        prog = compile_program("fun sqs(n) = [i <- [1..n]: i*i]")
        mono = prog.typed.instance("sqs", (INT,))
        d = prog.typed.mono_defs[mono]
        w = synthesize_ext1(d)
        assert w.name == ext1_name(mono)
        assert w.param_types == [TSeq(INT)]
        assert w.ret_type == TSeq(TSeq(INT))
        assert isinstance(w.body, A.Iter)

    def test_zero_arg_rejected(self):
        prog = compile_program("fun z() = 42")
        mono = prog.typed.instance("z", ())
        with pytest.raises(TransformError):
            synthesize_ext1(prog.typed.mono_defs[mono])
