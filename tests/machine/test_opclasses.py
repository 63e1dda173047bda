"""Tests for op classification and the communication-aware machine."""

import pytest

from repro import TransformOptions, compile_program
from repro.machine.opclasses import (
    DEFAULT_FACTORS, ClassMix, CommMachine, classify, classify_trace, top_ops,
)
from repro.machine.simulator import VectorMachine


def _fusion(prog, entry, args):
    """The fusion registry of the program ``vector_trace`` runs."""
    return prog.prepare(entry, *prog.resolve_entry(entry, args))[1].fusion


class TestClassify:
    @pytest.mark.parametrize("op,cls", [
        ("add", "elementwise"), ("not_", "elementwise"),
        ("sqrt_", "elementwise"), ("__rep", "elementwise"),
        ("sum", "scan_reduce"), ("plus_scan", "scan_reduce"),
        ("rank", "scan_reduce"), ("any", "scan_reduce"),
        ("seq_index", "gather_scatter"), ("permute", "gather_scatter"),
        ("combine", "gather_scatter"), ("apply_frame", "gather_scatter"),
        ("dist", "replicate"), ("replicate", "replicate"),
        ("length", "structure"), ("flatten", "structure"),
        ("range1", "structure"),
    ])
    def test_known_ops(self, op, cls):
        assert classify(op) == cls

    def test_unknown_is_conservative(self):
        assert classify("mystery_op") == "gather_scatter"

    def test_every_kernel_classified(self):
        from repro.vector.ops import KERNELS
        for name in KERNELS:
            assert classify(name) in DEFAULT_FACTORS


class TestClassifyTrace:
    TRACE = [("add", 100), ("sum", 100), ("seq_index", 50), ("add", 10)]

    def test_mix(self):
        mix = classify_trace(self.TRACE)
        assert mix.steps["elementwise"] == 2
        assert mix.work["elementwise"] == 110
        assert mix.work["scan_reduce"] == 100
        assert mix.total_work == 260

    def test_fractions_sum_to_one(self):
        mix = classify_trace(self.TRACE)
        assert sum(mix.work_fraction(c) for c in mix.work) == pytest.approx(1.0)

    def test_str(self):
        assert "elementwise" in str(classify_trace(self.TRACE))

    def test_empty_trace(self):
        mix = classify_trace([])
        assert mix.total_work == 0 and mix.work_fraction("elementwise") == 0.0


class TestCommMachine:
    def test_unit_factors_match_basic_machine(self):
        trace = [("add", 100), ("seq_index", 64), ("sum", 7)]
        basic = VectorMachine(processors=8, latency=2).run_trace(trace)
        comm = CommMachine(processors=8, latency=2,
                           factors={k: 1.0 for k in DEFAULT_FACTORS})
        assert comm.run_trace(trace).cycles == basic.cycles

    def test_gather_costs_more(self):
        m = CommMachine(processors=8, latency=0)
        ew = m.run_trace([("add", 800)])
        gs = m.run_trace([("seq_index", 800)])
        assert gs.cycles == 4 * ew.cycles

    def test_invalid_processors(self):
        with pytest.raises(ValueError):
            CommMachine(processors=0).run_trace([])


class TestTopOps:
    def test_ranking(self):
        trace = [("add", 10), ("mul", 500), ("add", 20), ("sum", 100)]
        ranked = top_ops(trace, k=2)
        assert ranked[0] == ("mul", 1, 500)
        assert ranked[1] == ("sum", 1, 100)

    def test_k_bounds(self):
        assert top_ops([("a", 1)], k=10) == [("a", 1, 1)]


class TestOnRealPrograms:
    def test_gather_heavy_program(self):
        prog = compile_program("fun gather(v, ix) = [i <- ix: v[i]]")
        v = list(range(100))
        _r, trace = prog.vector_trace("gather", [v, [1] * 100])
        mix = classify_trace(trace)
        assert mix.work_fraction("gather_scatter") > 0.3

    def test_elementwise_heavy_program(self):
        # constant-free body: no replicate ops for broadcast literals; the
        # unfused program, whose trace names each elementwise op
        prog = compile_program(
            "fun f(v) = [x <- v: (x * x + x) * (x - x * x)]",
            options=TransformOptions(fuse=False))
        _r, trace = prog.vector_trace("f", [list(range(500))])
        mix = classify_trace(trace)
        assert mix.work_fraction("elementwise") > 0.6

    def test_elementwise_heavy_default_program(self):
        # the default program fuses the chain: [mul, __fused0], each an
        # elementwise op once the registry says what __fused0's root is
        prog = compile_program(
            "fun f(v) = [x <- v: (x * x + x) * (x - x * x)]")
        args = [list(range(500))]
        _r, trace = prog.vector_trace("f", args)
        fusion = _fusion(prog, "f", args)
        assert any(op in fusion for op, _n in trace)
        mix = classify_trace(trace, fusion)
        assert mix.work_fraction("elementwise") > 0.6
        m = CommMachine(processors=16, latency=2)
        assert m.run_trace(trace, fusion).cycles == \
            VectorMachine(processors=16, latency=2).run_trace(trace).cycles

    def test_fold_rooted_region_is_scan_reduce(self):
        prog = compile_program("fun f(v) = sum([x <- v: x * x + 1])")
        args = [list(range(100))]
        _r, trace = prog.vector_trace("f", args)
        fusion = _fusion(prog, "f", args)
        fused = [op for op, _n in trace if op in fusion]
        assert fused and fusion.trees[fused[0]][0] == "fold"
        assert classify(fused[0], fusion) == "scan_reduce"
        # without the registry a fused name is unknown: the fallback
        assert classify(fused[0]) == "gather_scatter"

    def test_comm_machine_penalizes_gather_program_more(self):
        gather = compile_program("fun f(v, ix) = [i <- ix: v[i]]")
        ew = compile_program("fun f(v, w) = [x <- v: x * 2 + 1]")
        n = 2000
        _r, tg = gather.vector_trace("f", [list(range(n)), [1] * n])
        _r, te = ew.vector_trace("f", [list(range(n)), [0]])
        m_basic = VectorMachine(processors=16, latency=2)
        m_comm = CommMachine(processors=16, latency=2)
        slowdown_g = m_comm.run_trace(tg).cycles / m_basic.run_trace(tg).cycles
        slowdown_e = m_comm.run_trace(te).cycles / m_basic.run_trace(te).cycles
        assert slowdown_g > slowdown_e
