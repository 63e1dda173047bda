"""Tests for elementwise fusion (TransformOptions.fuse)."""

import glob
import os
import random

import pytest

from repro import ReproError, TransformOptions, compile_program
from repro.cli import _example_spec
from repro.fuzz.gen import gen_case
from repro.lang import ast as A
from repro.lang import types as T


def pair(src):
    on = compile_program(src)
    off = compile_program(src, options=TransformOptions(fuse=False))
    return on, off


def ops_of(prog, fname, args, types=None):
    _r, trace = prog.vector_trace(fname, args, types=types)
    return trace


class TestFusionCorrectness:
    CASES = [
        ("fun f(v) = [x <- v: x * x + x]", [[1, -2, 3]]),
        ("fun f(v) = [x <- v: (x * x + x) * (x - 1)]", [list(range(-5, 9))]),
        ("fun f(v) = [x <- v: x + 1 + 1 + 1 + 1]", [[0, 10]]),
        ("fun f(v) = [x <- v: if x * 2 > 6 then x else x * x]", [[1, 5, 3]]),
        ("fun f(v, w) = [i <- [1..#v]: v[i] * 2 + w[i] * 3]",
         [[1, 2], [10, 20]]),
        ("fun f(v) = [x <- v: not (x > 0 and x < 10)]", [[-1, 5, 20]]),
        ("fun f(n) = [i <- [1..n]: [j <- [1..i]: i * j + i - j]]", [5]),
        ("fun f(v) = sum([x <- v: x * x + 1])", [[1, 2, 3]]),
    ]

    @pytest.mark.parametrize("src,args", CASES)
    def test_all_backends_agree(self, src, args):
        on, off = pair(src)
        want = off.run("f", args)
        assert on.run("f", args) == want
        assert on.run("f", args, backend="native") == want
        assert on.run("f", args, backend="interp") == want

    def test_float_fusion(self):
        src = "fun f(v: seq(float)) = [x <- v: x * x + x - 0.5]"
        on, off = pair(src)
        v = [1.5, -2.25, 0.0]
        assert on.run("f", [v]) == off.run("f", [v])

    def test_comparison_result_kind(self):
        src = "fun f(v) = [x <- v: x * 2 > x + 3]"
        on, off = pair(src)
        v = [0, 5, -5]
        assert on.run("f", [v]) == off.run("f", [v]) == [False, True, False]


class TestFusionEffect:
    def test_fewer_vector_ops(self):
        src = "fun f(v) = [x <- v: (x * x + x) * (x - x * x)]"
        on, off = pair(src)
        v = list(range(50))
        assert len(ops_of(on, "f", [v])) < len(ops_of(off, "f", [v]))

    def test_fused_op_in_trace(self):
        src = "fun f(v) = [x <- v: x * x + x]"
        on, _ = pair(src)
        trace = ops_of(on, "f", [[1, 2]])
        assert any(op.startswith("__fused") for op, _n in trace)

    def test_single_prim_not_fused(self):
        src = "fun f(v) = [x <- v: x * x]"
        on, _ = pair(src)
        trace = ops_of(on, "f", [[1, 2]])
        assert not any(op.startswith("__fused") for op, _n in trace)

    def test_adjacent_groups_merge(self):
        # nested fusable subtrees must inline into one op, not chain
        src = "fun f(v) = [x <- v: (x + 1) * (x + 2) * (x + 3)]"
        on, _ = pair(src)
        trace = ops_of(on, "f", [[1, 2]])
        fused = [op for op, _n in trace if op.startswith("__fused")]
        assert len(fused) == 1

    def test_registry_size(self):
        src = "fun f(v) = [x <- v: x * x + x]"
        prog = compile_program(src, options=TransformOptions(fuse=True))
        _m, tp = prog.prepare("f", prog.entry_types("f", [[1]]))
        assert tp.fusion is not None
        names = [n.fn for n in A.walk(tp.defs["f"].body)
                 if isinstance(n, A.ExtCall) and n.fn.startswith("__fused")]
        assert names == list(tp.fusion.trees) == ["__fused0"]
        assert tp.fusion.size("__fused0") == 2      # mul, add

    def test_fold_roots_the_region(self):
        """``sum`` over an elementwise tree is one op: the fold is the
        root of the tree, counted as one primitive, and no ``sum`` (nor
        the vector it would read) appears in the trace — one step fewer
        than map-then-fold."""
        src = "fun f(v) = sum([x <- v: x * x + 1])"
        on, off = pair(src)
        _m, tp = on.prepare("f", on.entry_types("f", [[1]]))
        assert list(tp.fusion.trees) == ["__fused0"]
        assert tp.fusion.trees["__fused0"][:2] == ("fold", "sum")
        assert tp.fusion.streams["__fused0"] == (0, 1)   # x, x; not the 1
        assert tp.fusion.size("__fused0") == 3           # sum, add, mul
        t_on = [op for op, _n in ops_of(on, "f", [[1, 2, 3]])]
        t_off = [op for op, _n in ops_of(off, "f", [[1, 2, 3]])]
        assert [op for op in t_on if op in ("sum", "__fused0")] \
            == ["__fused0"]
        # mul, add and sum become the one op (on this lane NumPy still
        # replicates the 1; a native engine hoists it)
        assert t_off == ["mul", "replicate", "add", "sum"]
        assert t_on == ["replicate", "__fused0"]

    def test_let_bound_producer_stays_materialised(self):
        """Only the fold's own argument expression is pulled under it: a
        producer two readers share is made once and read twice."""
        src = ("fun f(v) = let w = [x <- v: x * x + 1] "
               "in sum(w) + maxval(w)")
        on, off = pair(src)
        _m, tp = on.prepare("f", on.entry_types("f", [[1]]))
        assert [t[0] for t in tp.fusion.trees.values()] == ["prim"]
        assert on.run("f", [[3, 1, 2]]) == off.run("f", [[3, 1, 2]]) == 27

    def test_checked_op_is_still_a_barrier(self):
        src = "fun f(v) = sum([x <- v: (x * x + 1) div x])"
        on, _off = pair(src)
        _m, tp = on.prepare("f", on.entry_types("f", [[1]]))
        assert [t[0] for t in tp.fusion.trees.values()] == ["prim"]
        with pytest.raises(ReproError):
            on.run("f", [[2, 0]])


EXAMPLES = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "*.py")))


def _fused_names(tp):
    return {n.fn for d in tp.defs.values() for n in A.walk(d.body)
            if isinstance(n, A.ExtCall) and n.fn.startswith("__fused")}


class TestRegistryHoldsWhatIsCalled:
    """The registry keeps exactly the trees some ``ExtCall`` names — what
    ``repro native`` prints is what the program runs."""

    @pytest.mark.parametrize("path", EXAMPLES,
                             ids=[os.path.basename(p) for p in EXAMPLES])
    def test_examples(self, path):
        with open(path) as f:
            spec = _example_spec(f.read())
        prog = compile_program(spec["SOURCE"],
                               options=TransformOptions(fuse=True))
        entry, args = spec["PROFILE_ENTRY"], list(spec["PROFILE_ARGS"])
        _m, tp = prog.prepare(entry, *prog.resolve_entry(entry, args))
        assert set(tp.fusion.trees) == _fused_names(tp)
        assert set(tp.fusion.streams) <= set(tp.fusion.trees)

    @pytest.mark.parametrize("block", range(4))
    def test_generated_programs(self, block):
        for seed in range(block * 50, block * 50 + 50):
            case = gen_case(seed)
            prog = compile_program(case.source,
                                   options=TransformOptions(fuse=True))
            _m, tp = prog.prepare(
                "main", tuple(T.parse_type(t) for t in case.types))
            assert set(tp.fusion.trees) == _fused_names(tp), seed

    def test_flat_kernels_region(self):
        """bench/layers.py reads ``trees[max(trees)]`` of this program
        and hands it five float leaves, hoisting 0.5, 1.0 and 0.25."""
        src = ("fun f(v: seq(seq(float))) = "
               "[s <- v: sum([x <- s: (x * 0.5 + 1.0) * x - 0.25])]")
        prog = compile_program(src, options=TransformOptions(fuse=True))
        _m, tp = prog.prepare("f", prog.entry_types("f", [[[0.5]]]))
        call, = [n for n in A.walk(tp.defs["f"].body)
                 if isinstance(n, A.ExtCall) and n.fn in tp.fusion]
        assert call.fn == max(tp.fusion.trees)
        assert [getattr(a, "name", getattr(a, "value", None))
                for a in call.args] == ["x", 0.5, 1.0, "x", 0.25]
        assert (call.depth, list(call.arg_depths)) == (1, [1, 0, 0, 1, 0])


class TestFusionSafety:
    def test_division_not_fused(self):
        # div must keep its zero check: stays an unfused checked kernel
        src = "fun f(v) = [x <- v: (x + 1) div x]"
        on, _ = pair(src)
        with pytest.raises(ReproError):
            on.run("f", [[2, 0]])

    def test_division_around_fusion_still_checked(self):
        src = "fun f(v) = [x <- v: (x * x + 1) div (x - x)]"
        on, _ = pair(src)
        with pytest.raises(ReproError):
            on.run("f", [[1]])

    def test_depth0_not_fused(self):
        # scalar code path untouched
        src = "fun f(a, b) = a * b + a"
        on, off = pair(src)
        assert on.run("f", [3, 4]) == off.run("f", [3, 4]) == 15

    def test_random_equivalence(self):
        rng = random.Random(0)
        src = "fun f(v) = [x <- v: ((x * 3 + 7) * x - 5) * (x + x * x)]"
        on, off = pair(src)
        for _ in range(10):
            v = [rng.randrange(-50, 50) for _ in range(rng.randrange(0, 9))]
            assert on.run("f", [v]) == off.run("f", [v])
