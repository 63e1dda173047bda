"""Metamorphic properties of the source-to-source passes: idempotence of
canonicalization and simplification, and semantics preservation of each
pass in isolation (hypothesis over generated inputs)."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import TransformOptions, compile_program
from repro.lang import ast as A
from repro.lang.parser import parse_program
from repro.lang.prelude import merge_with_prelude
from repro.lang.pretty import pretty_program
from repro.transform.canonical import canonicalize_program
from repro.transform.simplify import simplify_expr

_SETTINGS = dict(max_examples=20, deadline=None,
                 suppress_health_check=list(HealthCheck))

SRCS = [
    "fun f(v) = [x <- v: x + 1]",
    "fun f(v) = [x <- v | odd(x): [y <- [1..x]: y]]",
    "fun f(v) = let s = sort(v) in [x <- s: x * 2]",
    "fun f(v) = [x <- reverse(v): if x > 0 then [1..x] else []]",
]

ints = st.integers(min_value=-20, max_value=20)


class TestCanonicalIdempotent:
    def test_second_pass_is_identity(self):
        for src in SRCS:
            p1 = canonicalize_program(parse_program(src))
            p2 = canonicalize_program(p1)
            assert pretty_program(p1) == pretty_program(p2), src

    def test_prelude_canonical_idempotent(self):
        p1 = canonicalize_program(merge_with_prelude(parse_program("")))
        p2 = canonicalize_program(p1)
        assert pretty_program(p1) == pretty_program(p2)


class TestSimplifyIdempotent:
    @settings(**_SETTINGS)
    @given(st.sampled_from(SRCS), st.data())
    def test_fixpoint_reached(self, src, data):
        prog = compile_program(src)
        args = [data.draw(st.lists(ints, max_size=5))]
        arg_types = prog.entry_types("f", args)
        _m, tp = prog.prepare("f", arg_types)
        for d in tp.defs.values():
            once = simplify_expr(d.body)
            twice = simplify_expr(once)
            assert A.count_nodes(once) == A.count_nodes(twice)


class TestPassesPreserveSemantics:
    @settings(**_SETTINGS)
    @given(st.sampled_from(SRCS), st.data())
    def test_simplify_on_off_agree(self, src, data):
        args = [data.draw(st.lists(ints, max_size=5))]
        on = compile_program(src)
        off = compile_program(src, options=TransformOptions(
            passes="canonical,eliminate,optimize,fuse"))
        assert on.run("f", args) == off.run("f", args)

    @settings(**_SETTINGS)
    @given(st.sampled_from(SRCS), st.data())
    def test_shared_index_on_off_agree(self, src, data):
        args = [data.draw(st.lists(ints, max_size=5))]
        on = compile_program(src)
        off = compile_program(src,
                              options=TransformOptions(
                                  passes="canonical,eliminate,simplify,fuse"))
        assert on.run("f", args) == off.run("f", args)
