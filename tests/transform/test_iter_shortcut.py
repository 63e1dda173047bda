"""Iteration is a view at every depth: the iterator-entry gather
``__seq_index_shared^1(v, range1(length(v)))`` (depth 0) or
``__seq_index_segshared^{j+1}(v, range1^j(length^j(v)))`` (depth j >= 1)
— "gather every element of v in order" — is the identity, and the
``optimize`` pass rewrites it to the zero-cost view ``__iter^j(v)`` (a
sequence at frame depth j and the frame of its elements at depth j+1
share one representation, so no vector op executes at all)."""

import pytest

from repro import TransformOptions, compile_program
from repro.lang import ast as A
from repro.transform.optimize import (
    rewrite_identity_gather as shortcut_iteration,
)

FUSE = TransformOptions(fuse=True)


def ext(fn, args, depth, arg_depths):
    return A.ExtCall(fn, args, depth, list(arg_depths))


def gather(j, vec="v", idx="I"):
    """The iterator-entry gather of a sequence at frame depth j."""
    fn = "__seq_index_shared" if j == 0 else "__seq_index_segshared"
    return ext(fn, [A.Var(vec), A.Var(idx)], j + 1, [j, j + 1])


def identity_gather(vec="v", ln_of="v", j=0):
    """let L = length^j(v) in let I = range1^j(L) in <gather>^{j+1}(v, I)"""
    return A.Let("L", ext("length", [A.Var(ln_of)], j, [j]),
                 A.Let("I", ext("range1", [A.Var("L")], j, [j]),
                       gather(j, vec)))


def find_iter(e):
    return [n for n in A.walk(e)
            if isinstance(n, A.ExtCall) and n.fn == "__iter"]


def ir_of(src, types, options=None):
    prog = compile_program(src, options=options)
    return prog.transformed_source("f", types, by_types=True)


class TestRewriteFires:
    def test_basic_pattern(self):
        out = shortcut_iteration(identity_gather())
        hits = find_iter(out)
        assert len(hits) == 1
        assert isinstance(hits[0].args[0], A.Var)
        assert hits[0].args[0].name == "v"
        assert hits[0].depth == 0 and list(hits[0].arg_depths) == [0]

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_pattern_at_every_depth(self, j):
        """``__iter^j(v)``: application depth and argument depth are both
        the depth of the *sequence*; its elements live one deeper."""
        hits = find_iter(shortcut_iteration(identity_gather(j=j)))
        assert len(hits) == 1
        assert hits[0].args[0].name == "v"
        assert hits[0].depth == j and list(hits[0].arg_depths) == [j]

    def test_index_resolved_through_aliases(self):
        """R2 binds the iterator variable as an alias of ``iw``; the
        explicit ``[i <- [1..#v]: v[i]]`` spelling indexes by it."""
        e = A.Let("L", ext("length", [A.Var("v")], 1, [1]),
                  A.Let("I", ext("range1", [A.Var("L")], 1, [1]),
                        A.Let("i", A.Var("I"), gather(1, idx="i"))))
        assert len(find_iter(shortcut_iteration(e))) == 1

    def test_end_to_end_ir(self):
        """On the E14 map the transformed body iterates via __iter: no
        length, no range1, no identity gather left."""
        ir = ir_of("fun f(v) = [x <- v: ((x * 3 + 7) * x - 5) * (x + x * x)]",
                   ["seq(int)"], FUSE)
        assert "__iter" in ir
        assert "__seq_index_shared" not in ir
        assert "range1" not in ir

    def test_default_pipeline_emits_view(self):
        """The rewrite lives in ``optimize``, so the default pipeline —
        no fuse pass — iterates through the view too."""
        ir = ir_of("fun f(v) = [x <- v: x + 1]", ["seq(int)"])
        assert "__iter" in ir
        assert "__seq_index_shared" not in ir
        assert "range1" not in ir

    @pytest.mark.parametrize("src,types,view", [
        ("fun f(v) = [i <- [1..#v]: v[i]]", ["seq(int)"], "__iter("),
        ("fun f(vv) = [v <- vv: [x <- v: x * 2]]", ["seq(seq(int))"],
         "__iter^1("),
        ("fun f(vv) = [v <- vv: [i <- [1..#v]: v[i]]]", ["seq(seq(int))"],
         "__iter^1("),
        ("fun f(vvv) = [vv <- vvv: [v <- vv: [x <- v: x + 1]]]",
         ["seq(seq(seq(int)))"], "__iter^2("),
    ])
    def test_source_spellings(self, src, types, view):
        ir = ir_of(src, types)
        assert view in ir
        assert "__seq_index" not in ir and "range1" not in ir

    def test_results_unchanged(self):
        src = "fun f(v) = [x <- v: x * x + x]"
        on = compile_program(src, options=FUSE)
        off = compile_program(
            src, options=TransformOptions(
                passes="canonical,eliminate,simplify,fuse"))
        v = list(range(-5, 25))
        for backend in ("vector", "native"):
            assert (on.run("f", [v], backend=backend)
                    == off.run("f", [v], backend=backend))

    def test_deep_results_unchanged(self):
        src = "fun f(vvv) = [vv <- vvv: [v <- vv: [x <- v: x + #v]]]"
        arg = [[[1, 2], [], [3]], [], [[4, 5, 6]]]
        on = compile_program(src)
        off = compile_program(
            src, options=TransformOptions(
                passes="canonical,eliminate,simplify,fuse"))
        want = on.run("f", [arg], backend="interp")
        for backend in ("vector", "native"):
            assert on.run("f", [arg], backend=backend) == want
            assert off.run("f", [arg], backend=backend) == want


class TestRewriteBlocked:
    def test_different_vector(self):
        """range1(length(w)) indexing v is NOT the identity on v."""
        e = identity_gather(vec="v", ln_of="w")
        assert not find_iter(shortcut_iteration(e))

    @pytest.mark.parametrize("j", [1, 2])
    def test_different_vector_in_a_frame(self, j):
        e = identity_gather(vec="v", ln_of="w", j=j)
        assert not find_iter(shortcut_iteration(e))

    def test_shadowed_binding(self):
        """An inner rebinding of the length variable invalidates the
        chain — the rewrite must not see through the shadow."""
        e = A.Let("L", ext("length", [A.Var("v")], 0, [0]),
                  A.Let("L", ext("length", [A.Var("w")], 0, [0]),
                        A.Let("I", ext("range1", [A.Var("L")], 0, [0]),
                              gather(0))))
        assert not find_iter(shortcut_iteration(e))

    @pytest.mark.parametrize("j", [0, 1])
    def test_source_rebound_between_length_and_gather(self, j):
        """``v`` rebound after its length was taken: the gather indexes
        the *new* v by the old one's length."""
        e = A.Let("L", ext("length", [A.Var("v")], j, [j]),
                  A.Let("I", ext("range1", [A.Var("L")], j, [j]),
                        A.Let("v", ext("restrict", [A.Var("v"), A.Var("m")],
                                       j, [j, j]),
                              gather(j))))
        assert not find_iter(shortcut_iteration(e))

    def test_self_referential_rebinding(self):
        """``let v = length(v)``: the bound mentions the *outer* v and
        must not be chased as if it were the inner one."""
        e = A.Let("v", ext("length", [A.Var("v")], 0, [0]),
                  A.Let("I", ext("range1", [A.Var("v")], 0, [0]),
                        gather(0)))
        assert not find_iter(shortcut_iteration(e))

    @pytest.mark.parametrize("j", [0, 1])
    def test_shorter_range(self, j):
        """range1(length(v) - 1) drops the last element."""
        e = A.Let("L", ext("sub", [ext("length", [A.Var("v")], j, [j]),
                                   A.IntLit(1)], j, [j, 0]),
                  A.Let("I", ext("range1", [A.Var("L")], j, [j]),
                        gather(j)))
        assert not find_iter(shortcut_iteration(e))

    def test_mismatched_arg_depths(self):
        """A depth-0 source under a depth-2 gather is replicated per
        outer element, not viewed; nor is a scaffold at another depth."""
        e = identity_gather(j=1)
        e.body.body.arg_depths = [0, 2]
        assert not find_iter(shortcut_iteration(e))
        e = A.Let("L", ext("length", [A.Var("v")], 0, [0]),
                  A.Let("I", ext("range1", [A.Var("L")], 0, [0]),
                        gather(1)))
        assert not find_iter(shortcut_iteration(e))

    def test_opaque_index(self):
        """Any other index expression is left alone."""
        e = gather(0, idx="idx")
        out = shortcut_iteration(e)
        assert not find_iter(out)
        assert isinstance(out, A.ExtCall)
        assert out.fn == "__seq_index_shared"

    def test_non_identity_index_in_source(self):
        ir = ir_of("fun f(vv) = [v <- vv: [i <- [1..#v-1]: v[i+1]]]",
                   ["seq(seq(int))"])
        assert "__seq_index_segshared^2" in ir and "__iter^1" not in ir

    def test_disabled_without_optimize(self):
        """``optimize`` makes the gathers the view is made from, so a
        list without it has no view."""
        ir = ir_of("fun f(vv) = [v <- vv: [x <- v: x]]", ["seq(seq(int))"],
                   TransformOptions(
                       passes="canonical,eliminate,simplify,fuse"))
        assert "__iter" not in ir
