"""``share_expr`` — "a value computed twice is computed once": total
let-bindings float to their region (a function body or one ``If`` arm)
and a builtin call equal to a dominating binding becomes that binding's
variable.  Every soundness rule of the sweep has a test here that fails
when the rule is dropped."""

import pytest

from repro import ReproError, TransformOptions, compile_program
from repro.api import BACKENDS
from repro.lang import ast as A
from repro.lang.pretty import pretty
from repro.lang.types import BOOL, INT
from repro.transform.simplify import share_expr


def call(fn, *args, depth=0, arg_depths=None):
    return A.ExtCall(fn, list(args), depth,
                     [depth] * len(args) if arg_depths is None
                     else list(arg_depths))


def v(name):
    return A.Var(name)


def let(*bindings_then_body):
    *bindings, body = bindings_then_body
    for name, bound in reversed(bindings):
        body = A.Let(name, bound, body)
    return body


def shared(e, params=("a", "b", "c", "m", "p", "w", "x", "y")):
    A.reset_fresh_names()
    return " ".join(pretty(share_expr(e, params)).split())


def calls(e, fn):
    return [n for n in A.walk(e) if isinstance(n, A.ExtCall) and n.fn == fn]


class TestSharing:
    def test_equal_binding_is_reused(self):
        e = let(("n", call("length", v("x"))),
                ("k", call("length", v("x"))),
                call("add", v("n"), v("k")))
        assert shared(e) == "let n = length(x) in add(n, n)"

    def test_total_binding_floats_out_of_an_argument(self):
        e = call("restrict", v("x"),
                 let(("n", call("length", v("x"))), call("lt", v("x"), v("n"))))
        assert shared(e) == "let n = length(x) in restrict(x, lt(x, n))"

    def test_nested_call_named_only_when_used_twice(self):
        """One use: the tree stays one tree (fuse must see it whole)."""
        once = call("add", call("mul", v("x"), v("x")), v("y"))
        assert shared(once) == "add(mul(x, x), y)"
        twice = call("add", call("mul", v("x"), v("x")),
                     call("mul", v("x"), v("x")))
        assert shared(twice) == "let cse%0 = mul(x, x) in add(cse%0, cse%0)"

    def test_shared_subtree_names_the_outermost_repeat_only(self):
        """``neg(x)`` repeats only inside the repeated ``mul``: naming it
        too would split a tree that is evaluated once anyway."""
        def tree():
            return call("mul", call("neg", v("x")), v("y"))
        out = shared(call("add", tree(), tree()))
        assert out.count("neg(x)") == 1 and out.count("mul(") == 1
        assert "mul(neg(x), y)" in out

    def test_key_includes_depth_and_arg_depths(self):
        e = call("add",
                 call("length", v("x"), depth=1),
                 call("add", call("length", v("x")),
                      call("__rep", v("w"), v("c"), depth=1,
                           arg_depths=[1, 0]),
                      depth=1, arg_depths=[0, 1]),
                 depth=1)
        assert "cse" not in shared(e)

    def test_float_literals_keyed_by_spelling(self):
        e = call("add", call("mul", v("x"), A.FloatLit(0.0)),
                 call("mul", v("x"), A.FloatLit(-0.0)))
        assert "cse" not in shared(e)


class TestNothingCrossesAnIf:
    def test_binding_in_an_arm_stays_in_the_arm(self):
        e = A.If(v("c"), let(("n", call("length", v("x"))),
                             call("add", v("n"), v("n"))),
                 A.IntLit(0))
        assert shared(e) == ("if c then let n = length(x) in add(n, n) "
                             "else 0")

    def test_call_in_both_arms_is_not_hoisted(self):
        e = A.If(v("c"), call("add", call("length", v("x")), A.IntLit(1)),
                 call("add", call("length", v("x")), A.IntLit(2)))
        out = shared(e)
        assert "let" not in out and out.count("length(x)") == 2

    def test_dominating_binding_is_reused_inside_an_arm(self):
        e = let(("n", call("length", v("x"))),
                A.If(v("c"), call("length", v("x")), v("n")))
        assert shared(e) == "let n = length(x) in if c then n else n"

    def test_arm_binding_is_not_available_after_the_if(self):
        e = let(("r", A.If(v("c"), let(("n", call("length", v("x"))), v("n")),
                           A.IntLit(0))),
                call("add", v("r"), call("length", v("x"))))
        out = shared(e)
        assert out.endswith("in add(r, length(x))")

    def test_r2d_guards_survive_on_a_recursive_program(self):
        """The emptiness guards are what makes flattened recursion
        terminate; the verifier's R2d checks run unchanged after
        ``simplify`` and the recursion still bottoms out."""
        prog = compile_program("""
            fun f(n) = if n <= 1 then 1 else f(n - 1) + f(n - 2)
            fun g(v) = [x <- v: f(x)]
        """)
        _m, tp = prog.prepare("g", prog.entry_types("g", [[1]]))
        assert "verify:simplify" in [s for s, _n in tp.verified_phases]
        assert prog.run_all("g", [[1, 5, 8]]) == [1, 8, 34]


class TestOnlyTotalCallsMove:
    def test_partial_binding_stays_behind_the_call_before_it(self):
        """``div`` may fail; so may the ``seq_index`` evaluated before it.
        Hoisting the ``div`` would change which error is reported."""
        e = call("add", call("seq_index", v("x"), v("a")),
                 let(("q", call("div", v("a"), v("b"))),
                     call("add", v("q"), v("q"))))
        assert shared(e) == ("add(seq_index(x, a), "
                             "let q = div(a, b) in add(q, q))")

    def test_total_binding_in_the_same_position_does_move(self):
        e = call("add", call("seq_index", v("x"), v("a")),
                 let(("q", call("mul", v("a"), v("b"))),
                     call("add", v("q"), v("q"))))
        assert shared(e) == ("let q = mul(a, b) "
                             "in add(seq_index(x, a), add(q, q))")

    @pytest.mark.parametrize("fn", ["div", "mod", "fdiv"])
    def test_checked_elementwise_is_never_named(self, fn):
        e = call("add", call(fn, v("a"), v("b")), call(fn, v("a"), v("b")))
        assert "let" not in shared(e)

    def test_partial_call_is_reused_from_a_dominating_binding(self):
        e = let(("q", call("div", v("a"), v("b"))),
                call("add", v("q"), call("div", v("a"), v("b"))))
        assert shared(e) == "let q = div(a, b) in add(q, q)"

    def test_tree_over_a_partial_call_is_not_moved(self):
        e = call("seq_cons_user", call("seq_index", v("x"), v("a")),
                 let(("t", call("add", call("div", v("a"), v("b")), v("c"))),
                     v("t")))
        out = shared(e)
        assert out.index("seq_index") < out.index("div")

    def test_dist_is_total_only_on_a_length_count(self):
        def body(count):
            return call("concat", call("seq_index", v("y"), v("a")),
                        let(("d", call("dist", v("p"), count)), v("d")))
        by_length = let(("n", call("length", v("x"))), body(v("n")))
        assert shared(by_length).startswith(
            "let n = length(x), d = dist(p, n) in")
        # a count from anywhere else may be negative: dist can fail
        assert shared(body(v("c"))) == (
            "concat(seq_index(y, a), let d = dist(p, c) in d)")

    def test_error_reported_is_unchanged_end_to_end(self):
        """Two failing operations; the one the source evaluates first is
        the one reported, with and without the sweep."""
        src = "fun f(v, i, z) = [x <- v: v[i] + (x div z) + (x div z)]"
        def failure(simplify, backend):
            passes = "canonical,eliminate,optimize,fuse"
            if simplify:
                passes = "canonical,eliminate,optimize,simplify,fuse"
            prog = compile_program(
                src, options=TransformOptions(passes=passes))
            with pytest.raises(ReproError) as err:
                prog.run("f", [[1, 2, 3], 9, 0], backend=backend)
            return type(err.value), str(err.value)
        for backend in BACKENDS:
            assert failure(True, backend) == failure(False, backend)
            assert "index 9" in failure(True, backend)[1]


class TestBinders:
    def test_floated_rebinding_does_not_capture_the_outer_name(self):
        """``let p = mul(p, 2)`` floats past a later use of the outer p."""
        e = call("add", let(("p", call("mul", v("p"), A.IntLit(2))),
                            call("neg", v("p"))), v("p"))
        assert shared(e) == "let p%0 = mul(p, 2) in add(neg(p%0), p)"

    def test_key_does_not_survive_a_rebinding(self):
        """``neg(p)`` before and after ``p`` is rebound are two values."""
        e = let(("t", call("neg", v("p"))),
                ("p", call("mul", v("p"), A.IntLit(2))),
                call("add", v("t"), call("neg", v("p"))))
        assert shared(e) == ("let t = neg(p), p%0 = mul(p, 2) "
                             "in add(t, neg(p%0))")

    def test_floated_binder_does_not_capture_a_global(self):
        """A let-bound name that is also a top-level function another
        part of the body refers to."""
        e = call("pair_user",
                 let(("g", call("length", v("x"))), call("neg", v("g"))),
                 v("g"))
        assert shared(e) == "let g%0 = length(x) in pair_user(neg(g%0), g)"

    def test_source_names_that_shadow_end_to_end(self):
        src = """
            fun f(v, p) =
              [x <- v: let a = 0 - p in let p = p * x in (0 - p) + a]
        """
        prog = compile_program(src)
        assert prog.run_all("f", [[1, 2, 3], 5]) == [-10, -15, -20]


class TestNeverShared:
    def test_user_function_calls(self):
        """Also one that takes a builtin's name, or an internal-looking
        one: what a call means is decided by the program's definitions."""
        for fn in ("g", "length", "__g"):
            e = let(("r", call(fn, v("a"))),
                    call("add", v("r"), call(fn, v("a"))))
            A.reset_fresh_names()
            out = share_expr(e, ["a"], {"g", "length", "__g"}.__contains__)
            assert len(calls(out, fn)) == 2

    def test_user_function_calls_end_to_end(self):
        prog = compile_program("""
            fun max_scan(x) = x + 1
            fun f(a) = let r = max_scan(a) in r * max_scan(a)
        """)
        _m, tp = prog.prepare("f", (INT,))
        # a user function's instance never takes the builtin's name
        assert len(calls(tp.defs["f"].body, "max_scan$0")) == 2
        assert prog.run_all("f", [3]) == 16

    def test_type_directed_builtins(self):
        """``__empty(m)`` builds an empty frame of the *node's* element
        type: equal operands, different values."""
        e1, e2 = call("__empty", v("m"), depth=1), call("__empty", v("m"),
                                                        depth=1)
        e1.type, e2.type = INT, BOOL
        e = let(("r", e1), call("pair_user", v("r"), e2))
        A.reset_fresh_names()
        out = share_expr(e, ["m"])
        assert [n.type for n in calls(out, "__empty")] == [INT, BOOL]
