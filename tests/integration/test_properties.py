"""Property-based tests (hypothesis) for the representation laws and the
soundness of the transformation on *randomly generated programs*."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import compile_program
from repro.lang.types import INT, TSeq, seq_of
from repro.vector import segments as S
from repro.vector.convert import from_python, to_python
from repro.vector.extract_insert import extract, insert

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

ints = st.integers(min_value=-50, max_value=50)


def nested_lists(depth: int):
    base = st.lists(ints, max_size=5)
    s = base
    for _ in range(depth - 1):
        s = st.lists(s, max_size=4)
    return s


counts = st.lists(st.integers(min_value=0, max_value=6), max_size=8)


# ---------------------------------------------------------------------------
# Representation laws
# ---------------------------------------------------------------------------


class TestRepresentationProperties:
    @given(nested_lists(1))
    def test_roundtrip_depth1(self, v):
        nv = from_python(v, TSeq(INT))
        assert to_python(nv, TSeq(INT)) == v

    @given(nested_lists(2))
    def test_roundtrip_depth2(self, v):
        t = seq_of(INT, 2)
        assert to_python(from_python(v, t), t) == v

    @given(nested_lists(3))
    def test_roundtrip_depth3(self, v):
        t = seq_of(INT, 3)
        assert to_python(from_python(v, t), t) == v

    @given(nested_lists(3))
    def test_invariant(self, v):
        nv = from_python(v, seq_of(INT, 3))
        levels = [*nv.descs, nv.values]
        for i in range(len(levels) - 1):
            assert len(levels[i + 1]) == int(levels[i].sum())

    @given(nested_lists(3), st.integers(min_value=1, max_value=3))
    def test_extract_insert_identity(self, v, d):
        nv = from_python(v, seq_of(INT, 3))
        assert insert(extract(nv, d), nv, d) == nv

    @given(nested_lists(2))
    def test_extract_full_is_flat_concat(self, v):
        nv = from_python(v, seq_of(INT, 2))
        flat = extract(nv, 2)
        assert to_python(flat, TSeq(INT)) == [x for row in v for x in row]


class TestSegmentedKernelProperties:
    @given(counts)
    def test_iota_matches_naive(self, cs):
        got = S.seg_iota(np.asarray(cs, dtype=np.int64)).tolist()
        want = [i for c in cs for i in range(c)]
        assert got == want

    @given(st.lists(ints, max_size=30), st.data())
    def test_seg_sum_matches_naive(self, vals, data):
        cs = data.draw(partitions_of(len(vals)))
        got = S.seg_sum(np.asarray(vals, dtype=np.int64),
                        np.asarray(cs, dtype=np.int64)).tolist()
        want, pos = [], 0
        for c in cs:
            want.append(sum(vals[pos:pos + c]))
            pos += c
        assert got == want

    @given(st.lists(ints, max_size=30), st.data())
    def test_plus_scan_matches_naive(self, vals, data):
        cs = data.draw(partitions_of(len(vals)))
        got = S.seg_plus_scan(np.asarray(vals, dtype=np.int64),
                              np.asarray(cs, dtype=np.int64)).tolist()
        want, pos = [], 0
        for c in cs:
            acc = 0
            for x in vals[pos:pos + c]:
                want.append(acc)
                acc += x
            pos += c
        assert got == want

    @given(st.lists(ints, max_size=30), st.data())
    def test_max_scan_matches_naive(self, vals, data):
        cs = data.draw(partitions_of(len(vals)))
        got = S.seg_max_scan(np.asarray(vals, dtype=np.int64),
                             np.asarray(cs, dtype=np.int64)).tolist()
        want, pos = [], 0
        for c in cs:
            seg = vals[pos:pos + c]
            run = None
            for x in seg:
                run = x if run is None else max(run, x)
                want.append(run)
            pos += c
        assert got == want


@st.composite
def partitions_of(draw, total):
    """Counts summing exactly to ``total`` (via random cut points)."""
    k = draw(st.integers(min_value=0, max_value=6))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=k, max_size=k)))
    bounds = [0, *cuts, total]
    return [bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1)]


# ---------------------------------------------------------------------------
# Paper laws on P programs (section 2)
# ---------------------------------------------------------------------------

_LAWS = compile_program("""
    fun comb(m, v, u) = combine(m, v, u)
    fun restr(v, m) = restrict(v, m)
    fun notseq(m) = [x <- m: not x]
""")


class TestPaperLaws:
    @given(st.lists(st.tuples(ints, st.booleans()), max_size=10))
    def test_restrict_combine_inverse(self, pairs):
        # paper section 2: if R = combine(M,V,U) then restrict(R,M) = V
        # and restrict(R, not M) = U
        m = [b for _, b in pairs]
        v = [x for x, b in pairs if b]
        u = [x * 2 + 1 for x, b in pairs if not b]
        ts = ["seq(bool)", "seq(int)", "seq(int)"]
        r = _LAWS.run("comb", [m, v, u], types=ts)
        assert _LAWS.run("restr", [r, m], types=["seq(int)", "seq(bool)"]) == v
        notm = _LAWS.run("notseq", [m], types=["seq(bool)"])
        assert _LAWS.run("restr", [r, notm], types=["seq(int)", "seq(bool)"]) == u

    @given(st.lists(st.tuples(ints, st.booleans()), max_size=10))
    def test_laws_hold_on_interp_too(self, pairs):
        m = [b for _, b in pairs]
        v = [x for x, b in pairs if b]
        u = [x for x, b in pairs if not b]
        ts = ["seq(bool)", "seq(int)", "seq(int)"]
        r = _LAWS.run("comb", [m, v, u], backend="interp", types=ts)
        assert _LAWS.run("restr", [r, m], backend="interp", types=["seq(int)", "seq(bool)"]) == v


# ---------------------------------------------------------------------------
# Random-program soundness: interp == vector == native
# ---------------------------------------------------------------------------

_PROGRAMS = [
    # (source, arg strategy description)
    ("fun main(v) = [x <- v: x * x - 1]", 1),
    ("fun main(v) = [x <- v: if x > 0 then x else 0 - x]", 1),
    ("fun main(v) = [x <- v | odd(x): x + 1]", 1),
    ("fun main(v) = [x <- v: [j <- [1..(x mod 4) + 1]: x + j]]", 1),
    ("fun main(v) = [x <- v: sum([j <- [1..(x mod 5) + 1]: j * x])]", 1),
    ("fun main(v) = sum([x <- v: if even(x) then x else 0])", 1),
    ("fun main(v) = [i <- [1..#v]: v[#v - i + 1]]", 1),
    ("fun main(v) = [x <- v: [y <- v: x * y]]", 1),
    ("fun main(v) = concat([x <- v: x + 1], reverse(v))", 1),
    ("fun main(v) = [x <- v: (x, x > 0)]", 1),
    ("""fun f(n) = if n <= 1 then 1 else n + f(n - 2)
        fun main(v) = [x <- v: f(abs_(x) mod 9)]""", 1),
    ("fun main(v) = [x <- v: maxval(concat([x], v))]", 1),
    ("""fun main(v) = [x <- v: reduce(add, concat([x], [1, 2]))]""", 1),
    ("fun main(v, w) = [x <- v: [y <- w: if x > y then x else y]]", 2),
]


class TestRandomProgramSoundness:
    @pytest.mark.parametrize("src,nargs", _PROGRAMS)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(data=st.data())
    def test_backends_agree(self, src, nargs, data):
        prog = compile_program(src)
        args = [data.draw(st.lists(ints, max_size=6)) for _ in range(nargs)]
        ref = prog.run("main", args, backend="interp")
        vec = prog.run("main", args, backend="vector")
        assert vec == ref
        nat = prog.run("main", args, backend="native")
        assert nat == ref


# ---------------------------------------------------------------------------
# Random expression generator: deeper structural coverage
# ---------------------------------------------------------------------------


@st.composite
def int_expr(draw, vars_, depth):
    """A total (error-free) integer-valued P expression over ``vars_``."""
    if depth <= 0 or draw(st.integers(0, 3)) == 0:
        choices = [str(draw(st.integers(-9, 9)))]
        choices.extend(vars_)
        return draw(st.sampled_from(choices))
    kind = draw(st.sampled_from(["add", "mul", "sub", "if", "sum", "mod"]))
    if kind in ("add", "mul", "sub"):
        a = draw(int_expr(vars_, depth - 1))
        b = draw(int_expr(vars_, depth - 1))
        op = {"add": "+", "mul": "*", "sub": "-"}[kind]
        return f"({a} {op} {b})"
    if kind == "mod":
        a = draw(int_expr(vars_, depth - 1))
        return f"({a} mod 7)"
    if kind == "if":
        a = draw(int_expr(vars_, depth - 1))
        b = draw(int_expr(vars_, depth - 1))
        c = draw(int_expr(vars_, depth - 1))
        return f"(if {a} > {b} then {b} else {c})"
    # sum of a small iterator whose bound derives from an expression
    a = draw(int_expr(vars_, depth - 1))
    body = draw(int_expr(vars_ + ["q"], depth - 1))
    return f"sum([q <- [1..(({a}) mod 4) + 1]: {body}])"


class TestGeneratedExpressions:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(data=st.data())
    def test_soundness_on_generated_bodies(self, data):
        body = data.draw(int_expr(["x"], 2))
        src = f"fun main(v) = [x <- v: {body}]"
        prog = compile_program(src)
        args = [data.draw(st.lists(ints, min_size=0, max_size=5))]
        ref = prog.run("main", args, backend="interp")
        assert prog.run("main", args, backend="vector") == ref

    @settings(max_examples=12, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(data=st.data())
    def test_soundness_under_two_iterators(self, data):
        body = data.draw(int_expr(["x", "y"], 2))
        src = f"fun main(v) = [x <- v: [y <- [1..(x mod 3) + 1]: {body}]]"
        prog = compile_program(src)
        args = [data.draw(st.lists(st.integers(0, 20), max_size=4))]
        ref = prog.run("main", args, backend="interp")
        assert prog.run("main", args, backend="vector") == ref
