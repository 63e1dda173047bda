"""Tests for the segmented shared-index optimization (generalized §4.5):
an iterator-entry dist of a variable that the body only indexes (or takes
the length of) is eliminated in favour of a segmented gather."""

import random

import pytest

from repro import TransformOptions, compile_program
from repro.lang import ast as A
from repro.lang.types import INT, TSeq, seq_of


def work_of(prog, fname, args, types=None):
    _r, t = prog.vector_trace(fname, args, types=types)
    return sum(max(0, n) for _op, n in t)


def transformed(prog, fname, arg_types):
    _m, tp = prog.prepare(fname, tuple(arg_types))
    return tp


class TestRewriteFires:
    SRC = "fun f(vv) = [v <- vv: [i <- [1..#v]: v[i] * 2]]"
    #: the same shape with an index that is not the identity on v
    SHIFTED = "fun f(vv) = [v <- vv: [i <- [1..#v-1]: v[i+1] * 2]]"

    def test_segshared_emitted(self):
        tp = transformed(compile_program(self.SHIFTED), "f",
                         [seq_of(INT, 2)])
        calls = [n for d in tp.defs.values() for n in A.walk(d.body)
                 if isinstance(n, A.ExtCall)]
        assert any(c.fn == "__seq_index_segshared" for c in calls)
        # and the quadratic dist of v is gone
        assert not any(c.fn == "dist" and c.depth == 1 for c in calls)

    def test_identity_index_becomes_view(self):
        """Indexing every element in order needs no gather at all: the
        segment-shared form of ``v[i]`` over ``[1..#v]`` is the view
        ``__iter^1(v)``."""
        tp = transformed(compile_program(self.SRC), "f", [seq_of(INT, 2)])
        calls = [n for d in tp.defs.values() for n in A.walk(d.body)
                 if isinstance(n, A.ExtCall)]
        views = [c for c in calls if c.fn == "__iter" and c.depth == 1]
        assert len(views) == 1 and list(views[0].arg_depths) == [1]
        assert not any(c.fn in ("__seq_index_segshared", "range1", "dist")
                       for c in calls)

    def test_disabled_with_option(self):
        prog = compile_program(self.SRC,
                               options=TransformOptions(
                                   passes="canonical,eliminate,simplify,fuse"))
        tp = transformed(prog, "f", [seq_of(INT, 2)])
        calls = [n for d in tp.defs.values() for n in A.walk(d.body)
                 if isinstance(n, A.ExtCall)]
        assert not any(c.fn == "__seq_index_segshared" for c in calls)

    def test_bare_use_blocks_rewrite(self):
        # v used whole (as a sequence value) inside the body: must replicate
        src = "fun f(vv: seq(seq(int))) = [v <- vv: [i <- [1..2]: v]]"
        tp = transformed(compile_program(src), "f", [seq_of(INT, 2)])
        calls = [n for d in tp.defs.values() for n in A.walk(d.body)
                 if isinstance(n, A.ExtCall)]
        assert any(c.fn == "dist" for c in calls)


class TestCorrectness:
    @pytest.mark.parametrize("src,args,types", [
        ("fun f(vv) = [v <- vv: [i <- [1..#v]: v[i] + i]]",
         [[[10, 20], [], [30, 40, 50]]], ["seq(seq(int))"]),
        ("fun f(vv) = [v <- vv: [i <- [1..#v]: v[#v - i + 1]]]",
         [[[1, 2, 3], [4]]], ["seq(seq(int))"]),
        ("fun f(vv) = [v <- vv: sum([i <- [1..#v]: v[i] * v[i]])]",
         [[[1, 2], [3, 4, 5], []]], ["seq(seq(int))"]),
    ])
    def test_matches_interpreter_and_unoptimized(self, src, args, types):
        on = compile_program(src)
        off = compile_program(src,
                              options=TransformOptions(
                                  passes="canonical,eliminate,simplify,fuse"))
        want = on.run(src and "f", args, backend="interp", types=types)
        assert on.run("f", args, types=types) == want
        assert on.run("f", args, backend="native", types=types) == want
        assert off.run("f", args, types=types) == want

    def test_index_errors_still_raised(self):
        from repro import ReproError
        prog = compile_program(
            "fun f(vv: seq(seq(int))) = [v <- vv: [i <- [1..#v]: v[i + 1]]]")
        with pytest.raises(ReproError):
            prog.run("f", [[[1, 2]]])

    def test_deep_elements_gathered(self):
        src = ("fun f(vvv: seq(seq(seq(int)))) ="
               " [v <- vvv: [i <- [1..#v]: v[#v - i + 1]]]")
        prog = compile_program(src)
        vvv = [[[1], [2, 2]], [[3, 3, 3]]]
        assert prog.run_all("f", [vvv]) == [[[2, 2], [1]], [[3, 3, 3]]]

    def test_random_ragged(self):
        rng = random.Random(4)
        vv = [[rng.randrange(100) for _ in range(rng.randrange(0, 7))]
              for _ in range(25)]
        src = "fun f(vv) = [v <- vv: [i <- [1..#v]: v[i] * 10]]"
        prog = compile_program(src)
        assert prog.run_all("f", [vv], types=["seq(seq(int))"]) == \
            [[x * 10 for x in v] for v in vv]


class TestWorkReduction:
    def test_quadratic_replication_eliminated(self):
        src = "fun f(vv) = [v <- vv: [i <- [1..#v]: v[i]]]"
        on = compile_program(src)
        off = compile_program(src,
                              options=TransformOptions(
                                  passes="canonical,eliminate,simplify,fuse"))
        vv = [[1] * 60 for _ in range(30)]  # 30 segments of 60
        w_on = work_of(on, "f", [vv], ["seq(seq(int))"])
        w_off = work_of(off, "f", [vv], ["seq(seq(int))"])
        # unoptimized replicates each 60-elem segment 60 times
        assert w_off > 10 * w_on, (w_on, w_off)

    def test_qsort_work_near_nlogn(self, qsort_src=None):
        src = """
            fun qs(s) =
              if #s <= 1 then s
              else let p = s[(#s + 1) div 2],
                       less = [x <- s | x < p: x],
                       same = [x <- s | x == p: x],
                       more = [x <- s | x > p: x],
                       sorted = [part <- [less, more]: qs(part)]
                   in concat(concat(sorted[1], same), sorted[2])
        """
        prog = compile_program(src)
        rng = random.Random(2)
        w = {}
        for n in (64, 1024):
            data = [rng.randrange(n * 10) for _ in range(n)]
            w[n] = work_of(prog, "qs", [data])
        # 16x data -> ~16 * (10/6) = ~27x work for n log n; far below 256x
        assert w[1024] / w[64] < 80, w

    def test_length_use_also_optimized(self):
        src = "fun f(vv) = [v <- vv: [i <- [1..#v]: v[i] + #v]]"
        on = compile_program(src)
        off = compile_program(src,
                              options=TransformOptions(
                                  passes="canonical,eliminate,simplify,fuse"))
        vv = [[1] * 50 for _ in range(20)]
        ty = ["seq(seq(int))"]
        assert on.run("f", [vv], types=ty) == off.run("f", [vv], types=ty)
        assert work_of(on, "f", [vv], ty) < work_of(off, "f", [vv], ty) / 5
