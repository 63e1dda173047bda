"""The paper's soundness property, end to end:

    interpret(P, args)  ==  vector_execute(transform(P), args)

for programs covering every construct: flat/nested/filtered iterators,
conditionals (uniform and data-dependent), recursion (including recursion
*inside* frames, which exercises the R2d emptiness guards), tuples,
higher-order application, and frames of function values.
"""

import pytest

from repro import FunVal, compile_program


def both(src, fname, args, types=None):
    return compile_program(src).run_all(fname, args, types)


class TestFlatIterators:
    def test_paper_sqs(self):
        assert both("fun sqs(n) = [i <- [1..n]: i*i]", "sqs", [5]) == \
            [1, 4, 9, 16, 25]

    def test_empty_iteration(self):
        assert both("fun sqs(n) = [i <- [1..n]: i*i]", "sqs", [0]) == []

    def test_value_domain(self):
        assert both("fun f(v) = [x <- v: x + 10]", "f", [[5, 1]]) == [15, 11]

    def test_loop_invariant_expression(self):
        assert both("fun f(n, c) = [i <- [1..n]: c * c + i]", "f", [3, 5]) == \
            [26, 27, 28]

    def test_constant_body(self):
        assert both("fun f(n) = [i <- [1..n]: 7]", "f", [4]) == [7, 7, 7, 7]

    def test_index_into_shared(self):
        assert both("fun g(v, ix) = [i <- ix: v[i]]", "g",
                    [[10, 20, 30], [3, 1, 3]]) == [30, 10, 30]

    def test_range_in_body(self):
        assert both("fun f(n) = [i <- [1..n]: [i..n]]", "f", [3]) == \
            [[1, 2, 3], [2, 3], [3]]

    def test_two_iterators_sequential(self):
        src = "fun f(n) = concat([i <- [1..n]: i], [i <- [1..n]: 0 - i])"
        assert both(src, "f", [2]) == [1, 2, -1, -2]


class TestNestedIterators:
    def test_paper_tri_i(self):
        # [i <- [1..N]: [j <- [1..i]: i]] from section 3
        assert both("fun f(n) = [i <- [1..n]: [j <- [1..i]: i]]", "f", [3]) == \
            [[1], [2, 2], [3, 3, 3]]

    def test_paper_tri_j(self):
        # [i <- [1..N]: [j <- [1..i]: j]] from section 3
        assert both("fun f(n) = [i <- [1..n]: [j <- [1..i]: j]]", "f", [3]) == \
            [[1], [1, 2], [1, 2, 3]]

    def test_depth_three(self):
        src = "fun f(n) = [i <- [1..n]: [j <- [1..i]: [k <- [1..j]: i*100 + j*10 + k]]]"
        assert both(src, "f", [3]) == [
            [[111]],
            [[211], [221, 222]],
            [[311], [321, 322], [331, 332, 333]],
        ]

    def test_outer_var_at_depth_three(self):
        src = "fun f(n) = [i <- [1..n]: [j <- [1..2]: [k <- [1..2]: i]]]"
        assert both(src, "f", [2]) == [[[1, 1], [1, 1]], [[2, 2], [2, 2]]]

    def test_constant_inner_bound(self):
        src = "fun f(n) = [i <- [1..n]: [j <- [1..2]: j]]"
        assert both(src, "f", [3]) == [[1, 2], [1, 2], [1, 2]]

    def test_nested_call(self):
        src = """
            fun sqs(n) = [i <- [1..n]: i*i]
            fun nested(k) = [i <- [1..k]: sqs(i)]
        """
        assert both(src, "nested", [4]) == [[1], [1, 4], [1, 4, 9], [1, 4, 9, 16]]

    def test_irregular_lengths(self):
        src = "fun f(v) = [x <- v: [y <- x: y * 2]]"
        assert both(src, "f", [[[1, 2, 3], [], [9]]]) == [[2, 4, 6], [], [18]]

    def test_sum_of_rows(self):
        src = "fun rowsums(m) = [row <- m: sum(row)]"
        assert both(src, "rowsums", [[[1, 2], [3], []]]) == [3, 3, 0]


class TestFilters:
    def test_paper_oddsq(self):
        src = """
            fun sqs(n) = [i <- [1..n]: i*i]
            fun oddsq(n) = [i <- [1..n] | odd(i): sqs(i)]
        """
        assert both(src, "oddsq", [5]) == [[1], [1, 4, 9], [1, 4, 9, 16, 25]]

    def test_filter_inside_iterator(self):
        src = "fun f(n) = [i <- [1..n]: [j <- [1..i] | even(j): j]]"
        assert both(src, "f", [4]) == [[], [2], [2], [2, 4]]

    def test_filter_all_out(self):
        assert both("fun f(v) = [x <- v | x > 100: x]", "f", [[1, 2]]) == []


class TestConditionals:
    def test_data_dependent(self):
        src = "fun f(v) = [x <- v: if x > 0 then x else 0 - x]"
        assert both(src, "f", [[3, -4, 0, -1]]) == [3, 4, 0, 1]

    def test_all_then(self):
        src = "fun f(v) = [x <- v: if x > 0 then x else 0 - x]"
        assert both(src, "f", [[1, 2]]) == [1, 2]

    def test_all_else(self):
        src = "fun f(v) = [x <- v: if x > 0 then x else 0 - x]"
        assert both(src, "f", [[-1, -2]]) == [1, 2]

    def test_branch_with_sequences(self):
        src = "fun f(v) = [x <- v: if x > 2 then [1..x] else []]"
        assert both(src, "f", [[1, 3, 2, 4]]) == [[], [1, 2, 3], [], [1, 2, 3, 4]]

    def test_nested_conditionals(self):
        src = """
            fun sgn(v) = [x <- v: if x > 0 then 1 else if x == 0 then 0 else 0-1]
        """
        assert both(src, "sgn", [[5, 0, -5, 2]]) == [1, 0, -1, 1]

    def test_conditional_under_two_iterators(self):
        src = "fun f(n) = [i <- [1..n]: [j <- [1..i]: if even(j) then i else j]]"
        assert both(src, "f", [4]) == \
            [[1], [1, 2], [1, 3, 3], [1, 4, 3, 4]]

    def test_uniform_condition(self):
        src = "fun f(v, b) = [x <- v: if b then x else 0 - x]"
        assert both(src, "f", [[1, 2], True]) == [1, 2]
        assert both(src, "f", [[1, 2], False]) == [-1, -2]

    def test_branches_only_one_frame_dependent(self):
        src = "fun f(v, c) = [x <- v: if x > 0 then c else x]"
        assert both(src, "f", [[2, -3], 99]) == [99, -3]


class TestRecursion:
    def test_plain_recursion_depth0(self):
        src = "fun fact(n) = if n <= 1 then 1 else n * fact(n - 1)"
        assert both(src, "fact", [10]) == 3628800

    def test_recursion_inside_frame(self):
        # fact applied at depth 1: recursion through R2d guards
        src = """
            fun fact(n) = if n <= 1 then 1 else n * fact(n - 1)
            fun facts(v) = [x <- v: fact(x)]
        """
        assert both(src, "facts", [[1, 3, 5, 0, 2]]) == [1, 6, 120, 1, 2]

    def test_recursive_sequence_builder(self):
        src = """
            fun down(n) = if n <= 0 then [] else concat([n], down(n - 1))
            fun all(k) = [i <- [1..k]: down(i)]
        """
        assert both(src, "all", [3]) == [[1], [2, 1], [3, 2, 1]]

    def test_fib_in_frame(self):
        src = """
            fun fib(n) = if n <= 2 then 1 else fib(n - 1) + fib(n - 2)
            fun fibs(k) = [i <- [1..k]: fib(i)]
        """
        assert both(src, "fibs", [8]) == [1, 1, 2, 3, 5, 8, 13, 21]

    def test_divide_and_conquer_sum(self):
        src = """
            fun dcsum(v) =
              if #v == 0 then 0
              else if #v == 1 then v[1]
              else let h = #v div 2
                   in dcsum(take(v, h)) + dcsum(drop(v, h))
        """
        assert both(src, "dcsum", [list(range(1, 20))]) == sum(range(1, 20))


class TestTuples:
    def test_tuple_results(self):
        src = "fun f(v) = [x <- v: (x, x * x)]"
        assert both(src, "f", [[1, 2, 3]]) == [(1, 1), (2, 4), (3, 9)]

    def test_tuple_projection_in_frame(self):
        # a bare parameter's tuple width is not inferrable: annotate
        src = "fun f(v: seq((int, int))) = [p <- v: p.1 + p.2]"
        assert both(src, "f", [[(1, 10), (2, 20)]]) == [11, 22]

    def test_tuple_projection_constrained_later_in_body(self):
        # the deferred-retry path: q.1 appears textually before the call
        # that fixes q's tuple type
        src = """
            fun snd(q: (int, int)) = q.2
            fun f(q) = q.1 + snd(q)
        """
        assert both(src, "f", [(3, 4)], types=["(int, int)"]) == 7

    def test_zip2_prelude(self):
        assert both("fun f(v, w) = zip2(v, w)", "f", [[1, 2], [5, 6]]) == \
            [(1, 5), (2, 6)]

    def test_tuple_of_seqs(self):
        src = "fun f(n) = [i <- [1..n]: ([1..i], i)]"
        assert both(src, "f", [2]) == [([1], 1), ([1, 2], 2)]

    def test_loop_invariant_tuple(self):
        src = "fun f(n, p: (int, int)) = [i <- [1..n]: p.1 + i]"
        assert both(src, "f", [2, (10, 0)]) == [11, 12]


class TestHigherOrder:
    def test_map_builtin(self):
        src = "fun mapf(f, v) = [x <- v: f(x)]"
        assert both(src, "mapf", [FunVal("neg"), [1, -2]],
                    types=["(int) -> int", "seq(int)"]) == [-1, 2]

    def test_map_user_function(self):
        src = """
            fun double(x) = 2 * x
            fun mapf(f, v) = [x <- v: f(x)]
            fun main(v) = mapf(double, v)
        """
        assert both(src, "main", [[1, 2, 3]]) == [2, 4, 6]

    def test_map_lambda(self):
        src = "fun main(v) = [x <- v: (fn(y) => y + 100)(x)]"
        assert both(src, "main", [[1, 2]]) == [101, 102]

    def test_reduce_prelude_add(self):
        assert both("fun f(v) = reduce(add, v)", "f", [[1, 2, 3, 4, 5]]) == 15

    def test_reduce_user_fn(self):
        src = """
            fun m(a, b) = a * b
            fun f(v) = reduce(m, v)
        """
        assert both(src, "f", [[1, 2, 3, 4]]) == 24

    def test_reduce_inside_iterator(self):
        # higher-order *nested* parallel application
        src = "fun f(vv) = [v <- vv: reduce(add, v)]"
        assert both(src, "f", [[[1, 2], [3, 4, 5], [10]]]) == [3, 12, 10]

    def test_frame_of_function_values(self):
        # different functions at different frame positions: group dispatch
        src = """
            fun pick(v) = [x <- v: (if odd(x) then neg else abs_)(x)]
        """
        assert both(src, "pick", [[1, -2, 3, -4]]) == [-1, 2, -3, 4]

    def test_frame_of_user_functions(self):
        src = """
            fun inc(x) = x + 1
            fun dec(x) = x - 1
            fun pick(v) = [x <- v: (if x > 0 then inc else dec)(x)]
        """
        assert both(src, "pick", [[5, -5, 0, 2]]) == [6, -6, -1, 3]

    def test_seq_of_functions(self):
        src = """
            fun applyall(fs, x) = [f <- fs: f(x)]
            fun main(x) = applyall([neg, abs_], x)
        """
        assert both(src, "main", [-7]) == [7, 7]


class TestPreludeOnVector:
    def test_concat_p(self):
        assert both("fun f(v, w) = concat_p(v, w)", "f", [[1, 2], [3]]) == [1, 2, 3]

    def test_flatten_p(self):
        assert both("fun f(v) = flatten_p(v)", "f", [[[1], [2, 3], []]]) == [1, 2, 3]

    def test_distribute(self):
        assert both("fun f(v, r) = distribute(v, r)", "f",
                    [[3, 4, 5], [3, 2, 1]]) == [[3, 3, 3], [4, 4], [5]]

    def test_reverse(self):
        assert both("fun f(v) = reverse(v)", "f", [[1, 2, 3]]) == [3, 2, 1]

    def test_count(self):
        assert both("fun f(v) = count([x <- v: x > 2])", "f", [[1, 3, 5]]) == 2


class TestErrorParity:
    """Both back ends must reject the same bad executions."""

    @pytest.mark.parametrize("src,fname,args", [
        ("fun f(v) = [x <- v: v[x]]", "f", [[1, 5]]),      # index range
        ("fun f(v) = [x <- v: x div (x - x)]", "f", [[1]]),  # div by zero
    ])
    def test_both_raise(self, src, fname, args):
        from repro.errors import ReproError
        prog = compile_program(src)
        with pytest.raises(ReproError):
            prog.run(fname, args, backend="interp")
        with pytest.raises(ReproError):
            prog.run(fname, args, backend="vector")
