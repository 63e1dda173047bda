"""Exact per-kernel counter semantics on small known programs.

These tests pin the *measured* operation counts of the flattening for
tiny inputs, so any change to the transformation or the instrumentation
that alters how many vector ops run (or how their sizes are charged)
fails loudly.  Counts follow the semantics in docs/OBSERVABILITY.md.
"""

import numpy as np
import pytest

from repro import Profiler, compile_program, profiling
from repro.native import toolchain
from repro.obs import validate_profile
from repro.lang import types as T
from repro.vector import ops as O
from repro.vector.convert import from_python


def traced_report(prog, entry, args):
    """The profile of a traced ``vector`` run (``vector_trace``, what
    ``repro simulate`` runs): the only run that fills the ``vm`` layer."""
    with profiling() as prof:
        prog.vector_trace(entry, args)
    return prof.report(entry=entry, backend="vector")


def kernel_map(report):
    return {c.op: c for c in report.layer("kernel")}


class TestRange1Generator:
    """``[i <- [1..k]: i*i]`` — one range1, one mul, nothing else."""

    def setup_method(self):
        prog = compile_program("fun main(k) = [i <- [1..k]: i*i]")
        self.result, self.report = prog.profile("main", [6])

    def test_result_unchanged(self):
        assert self.result == [1, 4, 9, 16, 25, 36]

    def test_exact_kernel_op_set(self):
        assert set(kernel_map(self.report)) == {"range1", "mul"}

    def test_mul_counts(self):
        mul = kernel_map(self.report)["mul"]
        # one call, on a 6-wide frame: two 6-element inputs + 6-element
        # result = 18 elements.
        assert (mul.calls, mul.elements, mul.max_frame_len) == (1, 18, 6)

    def test_range1_counts(self):
        r = kernel_map(self.report)["range1"]
        # unit frame in (scalar 6 -> 1 elem), depth-1 result holds 6
        # values + descriptor row -> 7 charged elements total.
        assert (r.calls, r.elements, r.max_frame_len) == (1, 7, 1)

    def test_totals_match_kernel_layer(self):
        assert self.report.total_calls() == 2
        assert self.report.total_elements() == 25

    def test_segment_layer_present_but_not_totalled(self):
        seg = {c.op for c in self.report.layer("segment")}
        assert seg == {"seg_iota"}


class TestDistGenerator:
    """``[x <- v: x + 10]`` — iterating ``v`` is a view (``__iter``: no
    length, no range1, no gather runs), and the literal 10 is a depth-0
    operand the add reads as a scalar, as the native engine reads a hoisted
    one: the kernel layer is the add alone.  The machine model still
    charges CVL's distribute of 10 to the frame."""

    def setup_method(self):
        self.prog = compile_program("fun main(v) = [x <- v: x + 10]")
        self.result, self.report = self.prog.profile("main", [[1, 2, 3, 4]])

    def test_result_unchanged(self):
        assert self.result == [11, 12, 13, 14]

    def test_exact_kernel_table(self):
        got = {op: c.calls for op, c in kernel_map(self.report).items()}
        assert got == {"add": 1}

    def test_replicate_charged_at_frame_width(self):
        # in the machine model's view: the vm layer and the trace
        rep = traced_report(self.prog, "main", [[1, 2, 3, 4]])
        vm = {c.op: c for c in rep.layer("vm")}["replicate"]
        assert (vm.calls, vm.elements) == (1, 4)

    def test_simulator_trace_keeps_the_distribute(self):
        _r, trace = self.prog.vector_trace("main", [[1, 2, 3, 4]])
        assert trace == [("replicate", 4), ("add", 4)]

    def test_scalar_operand_counted_as_a_scalar(self):
        add = kernel_map(self.report)["add"]
        # x (4 + its [4] descriptor), 10 (one 8-byte word), the result
        assert (add.elements, add.bytes_moved, add.max_frame_len) == \
            (9, 40 + 8 + 40, 4)

    def test_shared_index_no_dist_of_source(self):
        # section 4.5: v is viewed in place, never replicated per index
        assert "dist" not in kernel_map(self.report)

    def test_totals(self):
        assert self.report.total_calls() == 1
        # add reads 4 + the scalar 10 and writes 4
        assert self.report.total_elements() == 9


class TestConditionalRestrictCombine:
    """R2d: a data-dependent ``if`` packs with restrict, merges with
    combine, and guards both branches."""

    def setup_method(self):
        prog = compile_program(
            "fun f(v) = [x <- v: if x > 0 then x else 0 - x]")
        self.result, self.report = prog.profile("f", [[3, -1, 4, -2]])

    def test_result_unchanged(self):
        assert self.result == [3, 1, 4, 2]

    def test_mask_and_merge_counts(self):
        k = kernel_map(self.report)
        assert k["gt"].calls == 1          # the mask
        assert k["not_"].calls == 1        # its negation
        assert k["restrict"].calls == 2    # one pack per branch
        assert k["combine"].calls == 1     # one merge
        assert k["sub"].calls == 1         # else-branch on the packed space

    def test_else_branch_ran_packed(self):
        # only the two negative elements reached the else branch
        assert kernel_map(self.report)["sub"].max_frame_len == 2


class TestLayerAndBackendSelection:
    def test_interp_backend_has_no_kernel_counters(self):
        prog = compile_program("fun main(k) = [i <- [1..k]: i*i]")
        _r, rep = prog.profile("main", [6], backend="interp")
        assert rep.layer("kernel") == []
        assert rep.layer("segment") == []

    def test_vcode_backend_populates_vm_layer(self):
        prog = compile_program("fun main(k) = [i <- [1..k]: i*i]")
        rep = traced_report(prog, "main", [6])
        # charged widths mirror the machine-model trace
        assert rep.counter("mul", layer="vm").elements > 0

    def test_vector_backend_has_empty_vm_layer(self):
        prog = compile_program("fun main(k) = [i <- [1..k]: i*i]")
        _r, rep = prog.profile("main", [6])
        assert rep.layer("vm") == []


class TestChargingRules:
    def test_value_nbytes_includes_descriptors(self):
        v = from_python([[1, 2], [3]], T.parse_type("seq(seq(int))"))
        expected = int(v.values.nbytes) + sum(int(d.nbytes) for d in v.descs)
        assert O.value_nbytes(v) == expected

    def test_scalar_charged_eight_bytes(self):
        assert O.value_nbytes(7) == 8
        assert O.value_nbytes(True) == 8

    def test_max_frame_len_is_max_not_sum(self):
        prog = compile_program("fun main(k) = [i <- [1..k]: i*i]")
        prof = Profiler()
        with profiling(prof):
            prog.run("main", [3])
            prog.run("main", [9])
        rep = prof.report()
        assert rep.counter("mul").calls == 2
        assert rep.counter("mul").max_frame_len == 9

    def test_unit_frame_broadcast_not_charged_as_replicate(self):
        # depth-0 scalar ops wrap through unit frames; that bookkeeping
        # must not appear as data movement
        prog = compile_program("fun main(a, b) = a + b")
        _r, rep = prog.profile("main", [2, 3])
        assert rep.counter("replicate") is None


class TestQuicksortKernelCount:
    """The flattened quicksort of ``examples/quicksort.py`` on its fixed
    16-key input: every iterator of the recursion ranges over a sequence
    (a view, no kernel), and ``#s`` / ``dist(p, #s)`` are computed once
    per level, not once per iterator.  354 kernel calls before both
    rewrites; a change that brings the identity gathers or the repeated
    values back shows up as a count."""

    def setup_method(self):
        from tests.passes.test_equivalence import EXAMPLES, _example_spec
        spec = _example_spec(EXAMPLES / "quicksort.py")
        prog = compile_program(spec["SOURCE"])
        self.args = spec["PROFILE_ARGS"]
        self.result, self.report = prog.profile(spec["PROFILE_ENTRY"],
                                                self.args)

    def test_result_unchanged(self):
        assert self.result == sorted(self.args[0])

    def test_total_calls(self):
        assert self.report.total_calls() <= 173

    def test_no_identity_gather_runs(self):
        # in this program every shared-index gather and every range1 fed
        # an identity iteration: none of them may run as a kernel
        k = kernel_map(self.report)
        assert not {"seq_index_shared", "seq_index_segshared",
                    "range1"} & set(k)
        # the pivot pick and the two sorted[..] selections per level stay
        assert k["seq_index"].calls == 21

    def test_repeated_values_computed_once_per_level(self):
        k = kernel_map(self.report)
        levels = k["combine"].calls          # one R2d merge per level
        assert levels == 7
        assert k["length"].calls == 2 * levels   # #s for the test, #s' after
        assert k["dist"].calls <= levels         # dist(p, #s), shared by 3


#: (source, arguments): E14's elementwise chain, three literals hoisted
#: by the C kernel and replicated by NumPy; a region rooted at a fold
FUSED = [
    ("fun f(v) = [x <- v: ((x * 3 + 7) * x - 5) * (x + x * x)]",
     [[1, 2, 3]]),
    ("fun f(v) = [s <- v: sum([x <- s: x * 3 + 1])]", [[[1, 2], [], [3]]]),
]


class TestFusedRegion:
    """A fused region is one op in the profile, whoever runs it."""

    @pytest.mark.parametrize("src,args", FUSED, ids=["chain", "fold"])
    def test_numpy_counts_the_region_once(self, src, args):
        _r, rep = compile_program(src).profile("f", args, backend="vector")
        k = kernel_map(rep)
        assert k["__fused0"].calls == 1
        assert set(k) <= {"__fused0", "replicate"}
        assert rep.total_calls() == 1 + (k["replicate"].calls
                                         if "replicate" in k else 0)

    def test_e14_chain_is_its_replicates_and_one_op(self):
        src, args = FUSED[0]
        _r, rep = compile_program(src).profile("f", args, backend="vector")
        assert {c.op: c.calls for c in rep.layer("kernel")} == \
            {"__fused0": 1, "replicate": 3}

    @pytest.mark.skipif(not toolchain.available(), reason="no C toolchain")
    @pytest.mark.parametrize("src,args", FUSED, ids=["chain", "fold"])
    def test_kernel_row_agrees_with_native_row(self, src, args):
        prog = compile_program(src)
        r1, vec = prog.profile("f", args, backend="vector")
        r2, nat = prog.profile("f", args, backend="native")
        assert r1 == r2
        numpy_row = vec.counter("__fused0", "kernel")
        c_row = nat.counter("__fused0", "native")
        assert (numpy_row.calls, numpy_row.elements, numpy_row.bytes_moved) \
            == (c_row.calls, c_row.elements, c_row.bytes_moved)
        assert nat.counter("__fused0", "kernel") is None

    @pytest.mark.skipif(not toolchain.available(), reason="no C toolchain")
    def test_every_recorded_layer_is_rendered_and_serialized(self):
        src, args = FUSED[0]
        _r, rep = compile_program(src).profile("f", args, backend="native")
        doc = rep.to_dict()
        assert validate_profile(doc) == []
        assert ("native", "__fused0") in \
            [(c["layer"], c["op"]) for c in doc["counters"]]
        table = rep.table()
        assert "native C kernels" in table
        assert "__fused0" in table
