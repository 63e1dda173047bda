"""Regression tests — one per bug found and fixed while building this
reproduction.  Each test documents the failure mode so it stays fixed."""

import pytest

from repro import ReproError, compile_program
from repro.api import BACKENDS


class TestT1DepthOffByOne:
    """extract(V, d) merges the top d levels into ONE level, so rule T1 is
    f^d = insert(f^1(extract(e, d)), e, d) — an early implementation used
    d-1 and produced malformed descriptors at depth >= 2."""

    def test_depth_three_elementwise(self):
        prog = compile_program(
            "fun f(n) = [a <- [1..n]: [b <- [1..a]: [c <- [1..b]: c * c]]]")
        assert prog.run_all("f", [3]) == [
            [[1]], [[1], [1, 4]], [[1], [1, 4], [1, 4, 9]]]


class TestPythonKeywordCollisions:
    """P variables named like Python parameters ('w', 'self') crashed the
    transformer when scope maps were passed as **kwargs."""

    def test_variable_named_w(self):
        prog = compile_program("fun f(w) = [x <- w: let w = x + 1 in w]")
        assert prog.run_all("f", [[1, 2]]) == [2, 3]

    def test_variable_named_self(self):
        prog = compile_program("fun f(self) = [x <- self: x]")
        assert prog.run_all("f", [[7]]) == [7]


class TestReduceOnEmpty:
    """The prelude reduce looped forever on empty input instead of raising
    (the #v == 1 guard never fired and recursion never shrank)."""

    def test_raises_not_hangs(self):
        prog = compile_program("fun f(v) = reduce(add, v)")
        for backend in BACKENDS:
            with pytest.raises(ReproError):
                prog.run("f", [[]], backend=backend)


class TestFloatSummationOrder:
    """NumPy's pairwise summation (np.sum / np.add.reduceat) rounds
    differently from the interpreter's left-to-right accumulation; the
    segmented kernels must use sequential per-segment accumulation."""

    def test_bitwise_agreement(self):
        prog = compile_program("fun f(vv: seq(seq(float))) = [v <- vv: sum(v)]")
        tricky = [[0.1] * 17 + [1e16, 1.0, -1e16], [0.1, 0.2, 0.3]]
        assert prog.run("f", [tricky]) == \
            prog.run("f", [tricky], backend="interp")

    def test_no_cross_segment_bleed(self):
        # prefix-difference summation would subtract accumulated prefixes
        prog = compile_program("fun f(vv: seq(seq(float))) = [v <- vv: sum(v)]")
        vv = [[1e16, 1.0], [1.0, 1.0, 1.0]]
        assert prog.run("f", [vv]) == [sum(vv[0]), 3.0]


class TestChainedProjectionLexing:
    """p.1.2 lexes its tail as the float literal '1.2'; the parser must
    split it back into two projections."""

    def test_chained_projection(self):
        prog = compile_program("fun f(p: (int, (int, int))) = p.2.1")
        assert prog.run_all("f", [(1, (2, 3))]) == 2

    def test_float_literal_still_lexes(self):
        prog = compile_program("fun f() = 1.25 + 0.75")
        assert prog.run_all("f", []) == 2.0


class TestPaperDistTypo:
    """The paper's printed example dist([3,4,5],[3,2,1]) = [[3,3,3],[4,4,4],
    [5]] contradicts its own definition; we follow the definition."""

    def test_definition_wins(self):
        prog = compile_program("fun f(v, r) = distribute(v, r)")
        assert prog.run_all("f", [[3, 4, 5], [3, 2, 1]]) == \
            [[3, 3, 3], [4, 4], [5]]


class TestR1SubstitutionDuplication:
    """R1 as printed substitutes v[i] for every occurrence of the bound
    variable, duplicating the gather; we bind it once with a let.  The
    observable contract: one seq_index op regardless of occurrences —
    and none at all once ``optimize`` has seen that this one gather is
    the identity on ``v`` (``__iter``)."""

    SRC = "fun f(v) = [x <- v: x * x + x - x]"

    @staticmethod
    def gathers(prog):
        _r, trace = prog.vector_trace("f", [list(range(10))])
        return [op for op, _n in trace
                if op in ("seq_index", "__seq_index_shared")]

    def test_single_gather(self):
        from repro import TransformOptions
        unshared = compile_program(
            self.SRC, options=TransformOptions(
                passes="canonical,eliminate,simplify,fuse"))
        assert len(self.gathers(unshared)) == 1
        assert self.gathers(compile_program(self.SRC)) == []


class TestUserCallTraceDoubleCount:
    """User-function applications must not appear as vector ops in the
    trace (their bodies report the real ops)."""

    def test_no_user_names_in_trace(self):
        prog = compile_program("""
            fun sq(x) = x * x
            fun f(v) = [x <- v: sq(x)]
        """)
        _r, trace = prog.vector_trace("f", [[1, 2, 3]])
        assert not any(op.startswith("sq") for op, _n in trace)


class TestEmptyRowTypeInference:
    """Value-type inference must merge element types so ragged inputs with
    empty rows (e.g. sparse matrices) infer correctly."""

    def test_empty_rows_with_tuples(self):
        prog = compile_program(
            "fun f(rows: seq(seq((int, int)))) = [r <- rows: #r]")
        assert prog.run("f", [[[], [(1, 2)], []]]) == [0, 1, 0]


class TestBranchGuardLaziness:
    """R2d's emptiness guards must prevent evaluating a branch none of
    whose elements are selected — both for termination and for errors."""

    def test_untaken_branch_with_error(self):
        prog = compile_program(
            "fun f(v) = [x <- v: if x > 0 then x else 1 div x]")
        assert prog.run_all("f", [[1, 2, 3]]) == [1, 2, 3]

    def test_recursion_terminates_on_uniform_input(self):
        prog = compile_program("""
            fun qs(s) =
              if #s <= 1 then s
              else let p = s[1],
                       rest = drop(s, 1),
                       parts = [q <- [[x <- rest: x], []]: qs(q)]
                   in concat(append(parts[1], p), parts[2])
        """)
        # worst-case pivot: recursion depth = n; guards must still bottom out
        assert prog.run("qs", [[5] * 12]) == [5] * 12


class TestCLIBrokenPipe:
    """CLI output piped into `head` must not traceback."""

    def test_broken_pipe_handled(self, tmp_path):
        import subprocess
        import sys
        f = tmp_path / "p.p"
        f.write_text("fun main(k) = [i <- [1..k]: i]")
        proc = subprocess.run(
            f"{sys.executable} -m repro transform {f} -t int | head -1",
            shell=True, capture_output=True, text=True, cwd="/root/repo")
        assert "Traceback" not in proc.stderr
