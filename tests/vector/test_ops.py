"""Tests for the depth-1 kernels, oracle-checked against the per-element
interpreter primitives: f^1(args)[k] == f(args[k]) by definition of the
parallel extension."""

import tracemalloc

import numpy as np
import pytest

from repro import FunVal, compile_program
from repro.fuzz.differ import ALL_BACKENDS, lane_call
from repro.errors import EvalError, VectorError
from repro.interp.interpreter import PRIM_IMPLS
from repro.lang.types import BOOL, INT, TSeq, TTuple, seq_of
from repro.vector import ops as O
from repro.vector.convert import from_python, to_python
from repro.vector.nested import FUNTABLE, NestedVector, VFun, VTuple


def frame(pyval, elem_t):
    """Build a depth-1 frame (a Seq of elem_t) from a Python list."""
    return from_python(pyval, TSeq(elem_t))


def unframe(v, elem_t):
    return to_python(v, TSeq(elem_t))


def oracle(name, *columns):
    """Elementwise application of the interpreter primitive."""
    return [PRIM_IMPLS[name](*row) for row in zip(*columns)]


class TestElementwise:
    @pytest.mark.parametrize("name", ["add", "sub", "mul", "max2", "min2"])
    def test_binary_int(self, name):
        a, b = [3, -1, 7, 0], [2, 5, -7, 9]
        out = O.apply_kernel(name, [frame(a, INT), frame(b, INT)])
        assert unframe(out, INT) == oracle(name, a, b)

    @pytest.mark.parametrize("name", ["eq", "ne", "lt", "le", "gt", "ge"])
    def test_comparisons(self, name):
        a, b = [1, 2, 3], [3, 2, 1]
        out = O.apply_kernel(name, [frame(a, INT), frame(b, INT)])
        assert unframe(out, BOOL) == oracle(name, a, b)

    def test_div_mod_match_interpreter(self):
        a, b = [7, -7, 9], [2, 2, -4]
        for name in ("div", "mod"):
            out = O.apply_kernel(name, [frame(a, INT), frame(b, INT)])
            assert unframe(out, INT) == oracle(name, a, b)

    def test_div_by_zero(self):
        with pytest.raises(EvalError):
            O.apply_kernel("div", [frame([1], INT), frame([0], INT)])

    def test_bool_ops(self):
        a, b = [True, True, False], [True, False, False]
        for name in ("and_", "or_"):
            out = O.apply_kernel(name, [frame(a, BOOL), frame(b, BOOL)])
            assert unframe(out, BOOL) == oracle(name, a, b)
        out = O.apply_kernel("not_", [frame(a, BOOL)])
        assert unframe(out, BOOL) == oracle("not_", a)

    def test_unary_int(self):
        a = [3, -4, 0]
        assert unframe(O.apply_kernel("neg", [frame(a, INT)]), INT) == [-3, 4, 0]
        assert unframe(O.apply_kernel("abs_", [frame(a, INT)]), INT) == [3, 4, 0]

    def test_nonconformable_rejected(self):
        with pytest.raises(VectorError):
            O.apply_kernel("add", [frame([1], INT), frame([1, 2], INT)])


class TestSequenceKernels:
    def test_length(self):
        v = [[1, 2], [], [5, 6, 7]]
        out = O.apply_kernel("length", [frame(v, TSeq(INT))])
        assert unframe(out, INT) == [2, 0, 3]

    def test_length_of_nested(self):
        v = [[[1], [2, 3]], []]
        out = O.apply_kernel("length", [frame(v, seq_of(INT, 2))])
        assert unframe(out, INT) == [2, 0]

    def test_range1(self):
        n = [3, 0, 2]
        out = O.apply_kernel("range1", [frame(n, INT)])
        assert unframe(out, TSeq(INT)) == [[1, 2, 3], [], [1, 2]]

    def test_range1_negative_is_empty(self):
        out = O.apply_kernel("range1", [frame([-5], INT)])
        assert unframe(out, TSeq(INT)) == [[]]

    def test_range(self):
        a, b = [2, 5, 0], [4, 4, 0]
        out = O.apply_kernel("range", [frame(a, INT), frame(b, INT)])
        assert unframe(out, TSeq(INT)) == [[2, 3, 4], [], [0]]

    def test_seq_index(self):
        v = [[10, 20], [30], [40, 50, 60]]
        i = [2, 1, 3]
        out = O.apply_kernel("seq_index", [frame(v, TSeq(INT)), frame(i, INT)])
        assert unframe(out, INT) == oracle("seq_index", v, i)

    def test_seq_index_deep_elements(self):
        v = [[[1], [2, 3]], [[4, 5]]]
        i = [2, 1]
        out = O.apply_kernel("seq_index", [frame(v, seq_of(INT, 2)), frame(i, INT)])
        assert unframe(out, TSeq(INT)) == [[2, 3], [4, 5]]

    def test_seq_index_out_of_range(self):
        with pytest.raises(EvalError):
            O.apply_kernel("seq_index", [frame([[1]], TSeq(INT)), frame([2], INT)])

    def test_seq_index_shared(self):
        shared = from_python([10, 20, 30], TSeq(INT))
        i = [3, 1, 1, 2]
        out = O.k_seq_index_shared(shared, frame(i, INT))
        assert unframe(out, INT) == [30, 10, 10, 20]

    def test_seq_index_shared_bounds(self):
        shared = from_python([10], TSeq(INT))
        with pytest.raises(EvalError):
            O.k_seq_index_shared(shared, frame([2], INT))

    def test_seq_update_scalar_elems(self):
        v = [[1, 2], [3, 4, 5]]
        i = [1, 3]
        x = [9, 8]
        out = O.apply_kernel("seq_update",
                             [frame(v, TSeq(INT)), frame(i, INT), frame(x, INT)])
        assert unframe(out, TSeq(INT)) == oracle("seq_update", v, i, x)

    def test_seq_update_deep_elems(self):
        v = [[[1], [2, 2]], [[3]]]
        i = [2, 1]
        x = [[7, 7, 7], []]
        out = O.apply_kernel(
            "seq_update",
            [frame(v, seq_of(INT, 2)), frame(i, INT), frame(x, TSeq(INT))])
        assert unframe(out, seq_of(INT, 2)) == [[[1], [7, 7, 7]], [[]]]

    def test_restrict(self):
        v = [[1, 2, 3], [4, 5]]
        m = [[True, False, True], [False, False]]
        out = O.apply_kernel("restrict",
                             [frame(v, TSeq(INT)), frame(m, TSeq(BOOL))])
        assert unframe(out, TSeq(INT)) == oracle("restrict", v, m)

    def test_restrict_deep(self):
        v = [[[1], [2, 3]], [[4]]]
        m = [[False, True], [True]]
        out = O.apply_kernel("restrict",
                             [frame(v, seq_of(INT, 2)), frame(m, TSeq(BOOL))])
        assert unframe(out, seq_of(INT, 2)) == [[[2, 3]], [[4]]]

    def test_restrict_mismatch(self):
        with pytest.raises(EvalError):
            O.apply_kernel("restrict",
                           [frame([[1, 2]], TSeq(INT)), frame([[True]], TSeq(BOOL))])

    def test_combine(self):
        m = [[True, False, True], [False]]
        v = [[1, 2], []]
        u = [[9], [7]]
        out = O.apply_kernel("combine",
                             [frame(m, TSeq(BOOL)), frame(v, TSeq(INT)),
                              frame(u, TSeq(INT))])
        assert unframe(out, TSeq(INT)) == oracle("combine", m, v, u)

    def test_combine_restrict_law(self):
        # restrict(combine(M,V,U), M) == V  per frame element
        m = [[True, True, False], [False, True]]
        v = [[1, 2], [3]]
        u = [[9], [8]]
        c = O.apply_kernel("combine",
                           [frame(m, TSeq(BOOL)), frame(v, TSeq(INT)),
                            frame(u, TSeq(INT))])
        r = O.apply_kernel("restrict", [c, frame(m, TSeq(BOOL))])
        assert unframe(r, TSeq(INT)) == v

    def test_combine_mismatch(self):
        with pytest.raises(EvalError):
            O.apply_kernel("combine",
                           [frame([[True]], TSeq(BOOL)), frame([[1, 2]], TSeq(INT)),
                            frame([[]], TSeq(INT))])

    def test_dist(self):
        c = [5, 6]
        r = [3, 0]
        out = O.apply_kernel("dist", [frame(c, INT), frame(r, INT)])
        assert unframe(out, TSeq(INT)) == oracle("dist", c, r)

    def test_dist_deep(self):
        c = [[1, 2], [3]]
        r = [2, 3]
        out = O.apply_kernel("dist", [frame(c, TSeq(INT)), frame(r, INT)])
        assert unframe(out, seq_of(INT, 2)) == [[[1, 2], [1, 2]], [[3], [3], [3]]]

    def test_dist_negative(self):
        with pytest.raises(EvalError):
            O.apply_kernel("dist", [frame([1], INT), frame([-1], INT)])

    def test_seq_cons(self):
        a, b = [1, 2], [10, 20]
        out = O.apply_kernel("__seq_cons", [frame(a, INT), frame(b, INT)])
        assert unframe(out, TSeq(INT)) == [[1, 10], [2, 20]]

    def test_seq_cons_single(self):
        out = O.apply_kernel("__seq_cons", [frame([7, 8], INT)])
        assert unframe(out, TSeq(INT)) == [[7], [8]]

    def test_seq_cons_deep(self):
        a = [[1], [2, 2]]
        b = [[], [3]]
        out = O.apply_kernel("__seq_cons",
                             [frame(a, TSeq(INT)), frame(b, TSeq(INT))])
        assert unframe(out, seq_of(INT, 2)) == [[[1], []], [[2, 2], [3]]]


class TestExtendedKernels:
    def test_flatten(self):
        v = [[[1], [2, 3]], [[], [4]]]
        out = O.apply_kernel("flatten", [frame(v, seq_of(INT, 2))])
        assert unframe(out, TSeq(INT)) == oracle("flatten", v)

    def test_flatten_is_descriptor_surgery(self):
        v = frame([[[1], [2, 3]]], seq_of(INT, 2))
        out = O.apply_kernel("flatten", [v])
        assert out.values is v.values

    def test_concat(self):
        v = [[1, 2], []]
        w = [[3], [4, 5]]
        out = O.apply_kernel("concat", [frame(v, TSeq(INT)), frame(w, TSeq(INT))])
        assert unframe(out, TSeq(INT)) == oracle("concat", v, w)

    def test_concat_deep(self):
        v = [[[1]], [[2], [3]]]
        w = [[[9, 9]], []]
        out = O.apply_kernel("concat",
                             [frame(v, seq_of(INT, 2)), frame(w, seq_of(INT, 2))])
        assert unframe(out, seq_of(INT, 2)) == [[[1], [9, 9]], [[2], [3]]]

    @pytest.mark.parametrize("name", ["sum", "maxval", "minval"])
    def test_reductions(self, name):
        v = [[3, 1, 4], [5, 9]]
        out = O.apply_kernel(name, [frame(v, TSeq(INT))])
        assert unframe(out, INT) == oracle(name, v)

    def test_sum_empty_segments(self):
        out = O.apply_kernel("sum", [frame([[], [1]], TSeq(INT))])
        assert unframe(out, INT) == [0, 1]

    def test_maxval_empty_segment_errors(self):
        with pytest.raises(VectorError):
            O.apply_kernel("maxval", [frame([[]], TSeq(INT))])

    def test_any_all(self):
        v = [[True, False], [], [False]]
        assert unframe(O.apply_kernel("anytrue", [frame(v, TSeq(BOOL))]), BOOL) == \
            oracle("anytrue", v)
        assert unframe(O.apply_kernel("alltrue", [frame(v, TSeq(BOOL))]), BOOL) == \
            oracle("alltrue", v)

    def test_scans(self):
        v = [[1, 2, 3], [10, 20]]
        out = O.apply_kernel("plus_scan", [frame(v, TSeq(INT))])
        assert unframe(out, TSeq(INT)) == oracle("plus_scan", v)
        out = O.apply_kernel("max_scan", [frame(v, TSeq(INT))])
        assert unframe(out, TSeq(INT)) == oracle("max_scan", v)


class TestTupleFrames:
    def test_kernels_map_over_tuple_components(self):
        t = TTuple((INT, INT))
        v = [[(1, 10), (2, 20)], [(3, 30)]]
        i = [2, 1]
        out = O.apply_kernel("seq_index",
                             [frame(v, TSeq(t)), frame(i, INT)])
        assert unframe(out, t) == [(2, 20), (3, 30)]

    def test_dist_tuple(self):
        v = [(1, True), (2, False)]
        out = O.apply_kernel("dist", [frame(v, TTuple((INT, BOOL))),
                                      frame([2, 1], INT)])
        assert unframe(out, TSeq(TTuple((INT, BOOL)))) == \
            [[(1, True), (1, True)], [(2, False)]]


class TestBroadcast:
    def test_scalar(self):
        out = O.broadcast_to_count(7, 3)
        assert unframe(out, INT) == [7, 7, 7]

    def test_bool(self):
        out = O.broadcast_to_count(True, 2)
        assert unframe(out, BOOL) == [True, True]

    def test_sequence(self):
        v = from_python([[1], [2, 3]], seq_of(INT, 2))
        out = O.broadcast_to_count(v, 2)
        assert unframe(out, seq_of(INT, 2)) == [[[1], [2, 3]], [[1], [2, 3]]]

    def test_tuple(self):
        v = from_python((1, [2]), TTuple((INT, TSeq(INT))))
        out = O.broadcast_to_count(v, 2)
        assert unframe(out, TTuple((INT, TSeq(INT)))) == [(1, [2]), (1, [2])]

    def test_function(self):
        out = O.broadcast_to_count(VFun("add"), 2)
        assert out.kind == "fun" and out.top_length == 2

    def test_zero_count(self):
        out = O.broadcast_to_count(5, 0)
        assert unframe(out, INT) == []


#: programs whose replicated scalar meets a consumer that might have
#: assumed contiguous memory, with arguments
REPLICATED = """
fun is_frame(s) = [x <- s: 7]
fun is_nested(vv) = [v <- vv: [x <- v: 2.5]]
fun joined(s, k) = concat([x <- s: k], s)
fun filtered(s, k) = [y <- [x <- s: k] | y > s[1]: y + 1]
fun indexed(s, k) = [i <- [1..#s]: [x <- s: k][i] + s[i]]
fun reduced(vv, k) = [v <- vv: sum([x <- v: k])]
fun largest(vv, k) = [v <- vv: maxval([x <- v: k * 1.5])]
fun streamed(s, k) = let r = [x <- s: k] in [y <- r: y * 2 + y]
fun folded(vv, k) = [v <- vv: let r = [x <- v: k] in sum([y <- r: y * 2 + y])]
fun called(s, f) = [x <- s: f(x)]
fun inc(x) = x + 1
"""
REPLICATED_CASES = [
    ("is_frame", [[1, 2, 3]], [7, 7, 7]),
    ("is_frame", [[]], []),
    ("is_nested", [[[1], [], [2, 3]]], [[2.5], [], [2.5, 2.5]]),
    ("joined", [[1, 2, 3], 7], [7, 7, 7, 1, 2, 3]),
    ("filtered", [[1, 2, 3], 4], [5, 5, 5]),
    ("filtered", [[9, 2, 3], 4], []),
    ("indexed", [[1, 2, 3], 4], [5, 6, 7]),
    ("reduced", [[[1], [], [2, 3], [4]], 5], [5, 0, 10, 5]),
    ("largest", [[[1], [2, 3]], 2.0], [3.0, 3.0]),
    ("streamed", [[1, 2, 3], 4], [12, 12, 12]),     # native: not hoisted
    ("folded", [[[1, 2], [3], []], 4], [24, 12, 0]),   # apply_segmented
]


class TestReplicatedScalar:
    """A replicated scalar is one stored element read n times
    (section 4.5) and behaves like the vector it stands for."""

    @pytest.mark.parametrize("n", [0, 1, 2, 1000])
    @pytest.mark.parametrize("c, kind, dtype", [
        (True, "bool", np.bool_), (-3, "int", np.int64),
        (2.5, "float", np.float64), (VFun("inc"), "fun", np.int64)])
    def test_equals_the_written_out_frame(self, c, kind, dtype, n):
        out = O.broadcast_to_count(c, n)
        fill = FUNTABLE.intern(c.name) if kind == "fun" else c
        full = NestedVector([[n]], np.full(n, fill, dtype=dtype), kind)
        out.validate()
        assert out == full and out.kind == kind and out.top_length == n
        assert out.values.dtype == dtype and out.values.shape == (n,)
        assert out.values.tobytes() == full.values.tobytes()
        assert [d.tolist() for d in out.descs] == [[n]]
        # one element is stored, and nothing may be written through it
        assert out.values.base.size == 1 and not out.values.flags.writeable
        if n:
            with pytest.raises(ValueError):
                out.values[0] = fill

    def test_costs_no_memory(self):
        tracemalloc.start()
        try:
            out = O.broadcast_to_count(7, 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.top_length == 10 ** 6 and peak < 4096

    def test_is_a_scalar_operand_to_the_kernels(self):
        a = frame(list(range(5)), INT)
        out = O.apply_kernel("mul", [a, O.broadcast_to_count(3, 5)])
        assert unframe(out, INT) == [0, 3, 6, 9, 12]
        assert out.values.flags.writeable and out.values.strides == (8,)

    @pytest.mark.parametrize("lane", ALL_BACKENDS)
    @pytest.mark.parametrize("check", [False, True])
    def test_end_to_end(self, lane, check):
        backend, threads = lane_call(lane)
        prog = compile_program(REPLICATED)
        for fname, args, want in REPLICATED_CASES:
            got = prog.run(fname, args, backend=backend, check=check,
                           threads=threads)
            assert repr(got) == repr(want), (fname, args)
        got = prog.run("called", [[1, 2], FunVal("inc")], backend=backend,
                       check=check, types=["seq(int)", "(int) -> int"],
                       threads=threads)
        assert got == [2, 3]


class TestEmptyFrameValue:
    def test_flat(self):
        v = O.empty_frame_value(TSeq(INT))
        assert unframe(v, INT) == []

    def test_nested(self):
        v = O.empty_frame_value(seq_of(BOOL, 3))
        assert to_python(v, seq_of(BOOL, 3)) == []

    def test_tuple_elems(self):
        v = O.empty_frame_value(TSeq(TTuple((INT, BOOL))))
        assert isinstance(v, VTuple)
        assert to_python(v, TSeq(TTuple((INT, BOOL)))) == []

    def test_non_seq_rejected(self):
        with pytest.raises(VectorError):
            O.empty_frame_value(INT)
