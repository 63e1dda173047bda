"""Tests for R1 canonicalization and filter desugaring."""

from repro.lang import ast as A
from repro.lang.parser import parse_expression, parse_program
from repro.lang.prelude import merge_with_prelude
from repro.interp.interpreter import Interpreter
from repro.transform.canonical import canonicalize_expr, canonicalize_program
from repro.transform.trace import Trace


def canon(src):
    return canonicalize_expr(parse_expression(src))


def iters(e):
    return [n for n in A.walk(e) if isinstance(n, A.Iter)]


def is_canonical(it: A.Iter):
    d = it.domain
    return (isinstance(d, A.Call) and isinstance(d.fn, A.Var)
            and d.fn.name == "range" and isinstance(d.args[0], A.IntLit)
            and d.args[0].value == 1)


class TestR1:
    def test_range_domain_untouched(self):
        e = canon("[i <- [1..n]: i]")
        assert isinstance(e, A.Iter)

    def test_value_domain_rewritten(self):
        e = canon("[x <- v: x + 1]")
        assert isinstance(e, A.Let)
        assert all(is_canonical(it) for it in iters(e))

    def test_range_from_two_domain_rewritten(self):
        e = canon("[x <- [2..n]: x]")
        assert isinstance(e, A.Let)
        assert all(is_canonical(it) for it in iters(e))

    def test_nested_all_canonical(self):
        e = canon("[x <- v: [y <- x: y + 1]]")
        assert all(is_canonical(it) for it in iters(e))
        assert len(iters(e)) == 2

    def test_no_filters_remain(self):
        e = canon("[x <- v | x > 0: x]")
        assert all(it.filter is None for it in iters(e))
        assert all(is_canonical(it) for it in iters(e))

    def test_trace_records_rules(self):
        tr = Trace()
        canonicalize_expr(parse_expression("[x <- v | p(x): x]"), tr)
        assert "filter" in tr.rules_fired()
        assert "R1" in tr.rules_fired()


class TestSemanticsPreserved:
    """Canonicalization must not change meaning (interpreter as oracle)."""

    def check(self, src, fname, args):
        prog = merge_with_prelude(parse_program(src))
        before = Interpreter(prog).call(fname, args)
        after = Interpreter(canonicalize_program(prog)).call(fname, args)
        assert before == after
        return after

    def test_value_domain(self):
        got = self.check("fun f(v) = [x <- v: x * 2]", "f", [[3, 1, 4]])
        assert got == [6, 2, 8]

    def test_filter(self):
        got = self.check("fun f(n) = [i <- [1..n] | odd(i): i * i]", "f", [6])
        assert got == [1, 9, 25]

    def test_filter_over_value_domain(self):
        got = self.check("fun f(v) = [x <- v | x > 2: x]", "f", [[1, 5, 2, 7]])
        assert got == [5, 7]

    def test_nested_value_domains(self):
        got = self.check("fun f(vv) = [v <- vv: [x <- v: x + 1]]",
                         "f", [[[1], [2, 3]]])
        assert got == [[2], [3, 4]]

    def test_shadowing_preserved(self):
        got = self.check("fun f(v) = [x <- v: [x <- [1..x]: x]]", "f", [[2, 1]])
        assert got == [[1, 2], [1]]

    def test_body_uses_outer_binding(self):
        got = self.check("fun f(v, w) = [x <- v: [y <- w: x * y]]",
                         "f", [[1, 2], [10, 20]])
        assert got == [[10, 20], [20, 40]]


class TestBuiltinNames:
    """What R1 generates calls the builtins, whatever the program
    defines; a domain the program wrote is a range only while ``range``
    is the builtin.  Every lane agrees (docs/LANGUAGE.md)."""

    ROWS = [
        # R1's length(v) is the builtin: the iterator visits xs
        ("fun length(a0) = 0\nfun f(xs) = [x <- xs: x + 1]", [2, 3]),
        # the #xs the program wrote is the user's length: no iterations
        ("fun length(a0) = 0\nfun f(xs) = [i <- [1..#xs]: xs[i] + 1]", []),
        # R1's range is the builtin
        ("fun range(a0, a1) = [1]\nfun f(xs) = [x <- xs: x + 1]", [2, 3]),
        # and so is the restrict of the filter desugaring
        ("fun length(a0) = 0\nfun f(xs) = [x <- xs | x > 1: x]", [2]),
        ("fun restrict(a0, a1) = a0\nfun f(xs) = [x <- xs | x > 1: x]", [2]),
        # a user's length at depth 1 is the user's
        ("fun length(a0) = 0\nfun f(xs) = [x <- [xs, xs]: length(x)]",
         [0, 0]),
        # [1..2] calls the user's range: its value is the domain
        ("fun range(a, b) = [b, a]\nfun f(xs) = [i <- [1..2]: xs[i]]",
         [2, 1]),
        # a local named like a builtin captures nothing R1 generates
        ("fun f(xs) = let length = 5 in [x <- xs: x + length]", [6, 7]),
    ]

    def test_the_five_lanes_agree(self):
        """Every lane of the differ: each back end and ``native@2``."""
        from repro import compile_program
        from repro.fuzz.differ import ALL_BACKENDS, lane_call
        for src, want in self.ROWS:
            prog = compile_program(src)
            got = {lane: prog.run("f", [[1, 2]], backend=b, threads=t)
                   for lane, (b, t) in zip(ALL_BACKENDS,
                                           map(lane_call, ALL_BACKENDS))}
            assert got == dict.fromkeys(ALL_BACKENDS, want), src

    def test_generated_calls_name_the_builtins(self):
        e = canon("[x <- v | p(x): x]")
        heads = [n.fn for n in A.walk(e)
                 if isinstance(n, A.Call) and isinstance(n.fn, A.Var)
                 and n.fn.name != "p"]
        assert {h.name for h in heads} == {"range", "length", "seq_index",
                                           "restrict"}
        assert all(h.origin == A.BUILTIN for h in heads)
        assert canon("[i <- [1..#v]: i]").domain.fn.origin != A.BUILTIN
