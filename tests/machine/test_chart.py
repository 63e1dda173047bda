"""Tests for the ASCII chart helpers and the vector-model cost of a
traced run."""

import pytest

from repro import TransformOptions, compile_program
from repro.interp.cost import CostReport
from repro.machine.chart import hbar_chart, line_chart


def measure_vector(prog, fname, args):
    """Vector-model cost of the flattened run: work = elements moved by
    its vector ops, span = their number."""
    result, trace = prog.vector_trace(fname, args)
    return result, CostReport(work=sum(max(0, n) for _op, n in trace),
                              span=len(trace))


class TestHBar:
    def test_basic(self):
        out = hbar_chart(["a", "bb"], [1, 2], width=10)
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1].count("#") == 10     # max value fills the width
        assert lines[0].count("#") == 5

    def test_unit_suffix(self):
        out = hbar_chart(["x"], [3.5], unit="ms")
        assert "3.5ms" in out

    def test_empty(self):
        assert hbar_chart([], []) == "(empty chart)"

    def test_mismatch(self):
        with pytest.raises(ValueError):
            hbar_chart(["a"], [1, 2])

    def test_zero_values(self):
        out = hbar_chart(["a"], [0.0])
        assert "#" not in out


class TestLineChart:
    def test_corners_marked(self):
        out = line_chart([1, 2, 3, 4], [1, 2, 3, 4], height=4, width=8)
        rows = [l for l in out.splitlines() if "|" in l]
        assert rows[0].rstrip().endswith("*")    # top-right
        assert "*" in rows[-1].split("|")[1][:2]  # bottom-left

    def test_flat_series(self):
        out = line_chart([1, 2], [5, 5])
        assert out.count("*") == 2

    def test_labels(self):
        out = line_chart([0, 10], [0, 1], xlabel="P", ylabel="speedup")
        assert "speedup" in out and "P" in out

    def test_empty(self):
        assert line_chart([], []) == "(empty chart)"

    def test_mismatch(self):
        with pytest.raises(ValueError):
            line_chart([1], [1, 2])


class TestMeasureVector:
    def test_counts_ops_and_elements(self):
        # the unfused program: fused, mul and sum are one op
        prog = compile_program("fun f(n) = sum([i <- [1..n]: i * i])",
                               options=TransformOptions(fuse=False))
        val, cost = measure_vector(prog, "f", [100])
        assert val == sum(i * i for i in range(1, 101))
        assert cost.span >= 3            # range1, mul, sum at least
        assert cost.work >= 300

    def test_flat_span_vs_interp_span(self):
        # the vector-model span (#ops) must not grow with n for flat code,
        # mirroring the interpreter's parallel span
        prog = compile_program("fun f(n) = [i <- [1..n]: i + 1]")
        _v, small = measure_vector(prog, "f", [10])
        _v, big = measure_vector(prog, "f", [10_000])
        assert small.span == big.span
        assert big.work > 100 * small.work

    def test_concurrency_property(self):
        prog = compile_program("fun f(n) = [i <- [1..n]: i * i]")
        _v, c = measure_vector(prog, "f", [1000])
        assert c.concurrency > 100
