"""Tests for the post-transformation simplifier."""

import pytest

from repro import TransformOptions, compile_program
from repro.lang import ast as A
from repro.lang.parser import parse_expression
from repro.lang.types import INT, TSeq
from repro.transform.simplify import count_lets, simplify_expr


def simp(src):
    return simplify_expr(parse_expression(src))


class TestRewrites:
    def test_alias_inlined(self):
        e = simp("let x = y in x + x")
        assert not isinstance(e, A.Let)
        # x was replaced by y ("add" is the desugared + operator)
        assert A.free_vars(e) == {"y", "add"}

    def test_literal_inlined(self):
        e = simp("let x = 5 in x * x")
        assert not isinstance(e, A.Let)
        ints = [n.value for n in A.walk(e) if isinstance(n, A.IntLit)]
        assert ints == [5, 5]

    def test_dead_binding_dropped(self):
        e = simp("let x = f(1) in 42")
        assert isinstance(e, A.IntLit) and e.value == 42

    def test_live_binding_kept(self):
        e = simp("let x = f(1) in x + x")
        assert isinstance(e, A.Let)

    def test_chain_collapses(self):
        e = simp("let a = 1, b = a, c = b in c")
        assert isinstance(e, A.IntLit) and e.value == 1

    def test_shadowing_respected(self):
        # inner x shadows: outer alias must not leak into inner scope
        e = simp("let x = y in let x = f(2) in x + x")
        assert isinstance(e, A.Let)
        assert "y" not in A.free_vars(e)

    def test_inside_iterators(self):
        e = simp("[i <- [1..n]: let a = i in a * a]")
        assert count_lets(e) == 0

    def test_fixpoint(self):
        e = simp("let a = f(1) in let b = a in 7")
        assert isinstance(e, A.IntLit)


class TestInPipeline:
    SRC = """
        fun sqs(n) = [j <- [1..n]: j * j]
        fun main(k) = [i <- [1..k]: sqs(i)]
    """

    def test_simplified_has_fewer_lets(self):
        on = compile_program(self.SRC)
        off = compile_program(self.SRC, options=TransformOptions(
            passes="canonical,eliminate,optimize,fuse"))
        _m, tp_on = on.prepare("main", (INT,))
        _m, tp_off = off.prepare("main", (INT,))
        lets_on = sum(count_lets(d.body) for d in tp_on.defs.values())
        lets_off = sum(count_lets(d.body) for d in tp_off.defs.values())
        assert lets_on < lets_off

    def test_results_unchanged(self):
        on = compile_program(self.SRC)
        off = compile_program(self.SRC, options=TransformOptions(
            passes="canonical,eliminate,optimize,fuse"))
        assert on.run("main", [6]) == off.run("main", [6])

    @pytest.mark.parametrize("src,fname,args", [
        ("fun f(v) = [x <- v: if x > 0 then x else 0 - x]", "f", [[1, -2, 3]]),
        ("fun f(n) = [a <- [1..n]: [b <- [1..a]: a + b]]", "f", [4]),
        ("""fun fact(n) = if n <= 1 then 1 else n * fact(n - 1)
            fun f(v) = [x <- v: fact(x)]""", "f", [[0, 3, 5]]),
        ("fun f(vv) = [v <- vv: reduce(add, v)]", "f", [[[1, 2], [3]]]),
    ])
    def test_equivalence_preserved(self, src, fname, args):
        on = compile_program(src)
        off = compile_program(src, options=TransformOptions(
            passes="canonical,eliminate,optimize,fuse"))
        a = on.run_all(fname, args)
        b = off.run_all(fname, args)
        assert a == b

    def test_dead_dist_removed(self):
        # i is distributed for the inner body but the then-branch never
        # uses some rebindings; simplify must not change results
        src = ("fun f(n) = [i <- [1..n]: [j <- [1..i]:"
               " if odd(j) then j else i]]")
        on = compile_program(src)
        off = compile_program(src, options=TransformOptions(
            passes="canonical,eliminate,optimize,fuse"))
        assert on.run_all("f", [5]) == off.run_all("f", [5])

    def test_fewer_vcode_instructions(self):
        on = compile_program(self.SRC)
        off = compile_program(self.SRC, options=TransformOptions(
            passes="canonical,eliminate,optimize,fuse"))
        _m1, vp_on = on.compile_vcode("main", ["int"])
        _m2, vp_off = off.compile_vcode("main", ["int"])
        assert vp_on.instruction_count <= vp_off.instruction_count
