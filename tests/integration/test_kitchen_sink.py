"""Kitchen-sink programs combining every feature at once, run under every
option combination — the final line of defence against feature
interactions."""

import itertools
import random

import pytest

from repro import TransformOptions, compile_program

#: every list of the optional passes, by id: each of ``optimize`` (s,
#: shared index), ``simplify`` (p), ``fuse`` (f) and ``native-reduce`` (r)
#: in or out
OPTION_GRID = {
    f"s{s:d}p{p:d}f{f:d}r{r:d}": TransformOptions(passes=(
        "canonical", "eliminate", *["native-reduce"] * r, *["optimize"] * s,
        *["simplify"] * p, *["fuse"] * f))
    for s, p, f, r in itertools.product([True, False], repeat=4)
}


SINK = """
fun qsort(s) =
  if #s <= 1 then s
  else let p = s[(#s + 1) div 2],
           parts = [q <- [[x <- s | x < p: x], [x <- s | x > p: x]]: qsort(q)]
       in concat(concat(parts[1], [x <- s | x == p: x]), parts[2])

fun stats(v) = (sum(v), maxval(concat(v, [0])), #v)

fun weird(vv, t) =
  [v <- vv:
     let s = qsort(v),
         st = stats(s)
     in if st.3 == 0 then (0, 0 - 1)
        else (st.1 * 2 + t, (if odd(st.2) then neg else abs_)(st.2))]
"""


def oracle(vv, t):
    out = []
    for v in vv:
        s = sorted(v)
        total, mx, n = sum(s), max(s + [0]), len(s)
        if n == 0:
            out.append((0, -1))
        else:
            out.append((total * 2 + t, -mx if mx % 2 else abs(mx)))
    return out


class TestKitchenSink:
    @pytest.mark.parametrize("opts", OPTION_GRID.values(),
                             ids=OPTION_GRID.keys())
    def test_all_option_combinations(self, opts):
        prog = compile_program(SINK, options=opts)
        rng = random.Random(8)
        vv = [[rng.randrange(50) for _ in range(rng.randrange(0, 9))]
              for _ in range(10)]
        want = oracle(vv, 7)
        assert prog.run("weird", [vv, 7], types=["seq(seq(int))", "int"]) == want
        assert prog.run("weird", [vv, 7], backend="native",
                        types=["seq(seq(int))", "int"]) == want

    def test_matches_interpreter(self):
        prog = compile_program(SINK)
        rng = random.Random(9)
        vv = [[rng.randrange(99) for _ in range(rng.randrange(0, 12))]
              for _ in range(14)]
        ty = ["seq(seq(int))", "int"]
        assert prog.run("weird", [vv, 3], types=ty) == \
            prog.run("weird", [vv, 3], backend="interp", types=ty) == \
            oracle(vv, 3)


FLOATS_AND_FUNS = """
fun normalize(v: seq(float)) =
  let total = sum(v)
  in if total == 0.0 then v else [x <- v: fdiv(x, total)]

fun table(v: seq(float)) = [f <- [sum, maxval, minval]: f(v)]

fun pipeline(vv: seq(seq(float))) =
  [v <- vv: if #v == 0 then 0.0 else sum(normalize(v))]
"""


class TestFloatsAndFunctionFrames:
    def test_pipeline(self):
        prog = compile_program(FLOATS_AND_FUNS)
        vv = [[1.0, 3.0], [], [2.5]]
        got = prog.run_all("pipeline", [vv], types=["seq(seq(float))"])
        assert got[1] == 0.0
        assert abs(got[0] - 1.0) < 1e-12 and got[2] == 1.0

    def test_float_function_table(self):
        prog = compile_program(FLOATS_AND_FUNS)
        got = prog.run_all("table", [[2.0, 8.0, 4.0]])
        assert got == [14.0, 8.0, 2.0]


SEGSHARED_TUPLES = """
fun lookup_rows(rows: seq(seq((int, int))), q: seq(seq(int))) =
  [k <- [1..#rows]:
     [i <- q[k]: rows[k][i].2]]
"""


class TestSegsharedWithTuples:
    def test_tuple_elements_through_segmented_gather(self):
        prog = compile_program(SEGSHARED_TUPLES)
        rows = [[(1, 10), (2, 20)], [(9, 90)]]
        q = [[2, 1, 2], [1]]
        assert prog.run_all("lookup_rows", [rows, q]) == [[20, 10, 20], [90]]


class TestEverythingAtDepthThree:
    def test_sorting_rows_of_rows(self):
        src = """
            fun f(www: seq(seq(seq(int)))) =
              [ww <- www: [w <- ww: sort(w)]]
        """
        prog = compile_program(src)
        rng = random.Random(12)
        www = [[[rng.randrange(30) for _ in range(rng.randrange(5))]
                for _ in range(rng.randrange(4))]
               for _ in range(6)]
        want = [[sorted(w) for w in ww] for ww in www]
        assert prog.run_all("f", [www], types=["seq(seq(seq(int)))"]) == want
