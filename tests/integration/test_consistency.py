"""Cross-cutting consistency checks: every surface primitive must be fully
wired through every layer (interpreter, kernels, cost model, op classes,
documentation), and the three back ends must expose the same surface.
The kind of op each primitive is gets stated once, in the catalog
(``repro.lang.builtins``); the parametrized rows below hold each lane's
implementation to its row."""

from pathlib import Path

import numpy as np
import pytest

from repro import compile_program
from repro.cli import _example_spec
from repro.interp.cost import prim_work
from repro.interp.interpreter import PRIM_IMPLS
from repro.lang import types as T
from repro.lang.builtins import (
    SURFACE_BUILTINS, all_builtins, get_builtin, is_unchecked_elementwise,
    lookup,
)
from repro.machine import opclasses
from repro.machine.opclasses import DEFAULT_FACTORS, classify
from repro.native.codegen import CTYPES, SEGMENTED_OPS, emit_fused_source
from repro.transform.fuse import tree_kind
from repro.vector.convert import from_python
from repro.vector.ops import KERNELS
from repro.vector.segments import FOLDS

ROOT = Path(__file__).resolve().parents[2]
DOCS = ROOT / "docs"
ROWS = all_builtins()
ELEMENTWISE = sorted(n for n, b in ROWS.items() if b.elementwise)
FOLD_ROWS = sorted(n for n, b in ROWS.items() if b.fold is not None)
SAMPLE = {"int": 3, "float": 2.5, "bool": True}
DTYPE = {"int": np.int64, "float": np.float64, "bool": np.bool_}


def _operand_kinds(name: str, kind: str) -> list[str]:
    """Each operand's leaf kind when the scheme's variable is ``kind``."""
    kinds = {T.INT: "int", T.BOOL: "bool", T.FLOAT: "float"}
    return [kinds.get(p, kind) for p in get_builtin(name).fresh_type().params]


def _admitted(names):
    return [(n, k) for n in names for k in get_builtin(n).arg_kinds]


def _row_kind(name: str, kinds: list[str]) -> str:
    """The catalog's result kind of ``name`` on operands of ``kinds``."""
    return tree_kind(("prim", name, tuple(("arg", i)
                                          for i in range(len(kinds)))), kinds)


class TestPrimitiveWiring:
    def test_every_surface_builtin_has_interpreter_impl(self):
        missing = SURFACE_BUILTINS - set(PRIM_IMPLS)
        assert not missing, missing

    def test_every_surface_builtin_has_depth1_kernel(self):
        missing = SURFACE_BUILTINS - set(KERNELS)
        assert not missing, missing

    def test_every_surface_builtin_classified(self):
        for name in SURFACE_BUILTINS:
            assert classify(name) in DEFAULT_FACTORS, name

    def test_cost_model_total(self):
        # prim_work must not crash for any primitive with plausible args
        samples = {
            "length": [[1, 2]], "range": [1, 5], "range1": [4],
            "seq_index": [[1], 1], "seq_update": [[1], 1, 2],
            "restrict": [[1], [True]], "combine": [[True], [1], []],
            "dist": [1, 3], "concat": [[1], [2]], "flatten": [[[1]]],
        }
        from repro.interp.interpreter import PRIM_IMPLS as P
        for name in SURFACE_BUILTINS:
            args = samples.get(name)
            if args is None:
                continue
            res = P[name](*args)
            assert prim_work(name, args, res) >= 1

    def test_no_interp_impl_without_builtin_entry(self):
        # implementations must not drift ahead of the declared surface
        extra = set(PRIM_IMPLS) - set(all_builtins())
        assert not extra, extra

    def test_elementwise_flag_matches_kernel_behavior(self):
        # all 'elementwise' builtins classify as elementwise ops
        for name, b in all_builtins().items():
            if b.elementwise and name in KERNELS:
                assert classify(name) == "elementwise", name


class TestCatalogRows:
    """Parametrized over the catalog: each lane implements what a row
    says, and nothing the machine model meets falls to a guess."""

    @pytest.mark.parametrize("name", ELEMENTWISE)
    def test_elementwise_row_has_interp_impl_and_numpy_kernel(self, name):
        assert name in PRIM_IMPLS and name in KERNELS
        assert get_builtin(name).op_class == "elementwise"

    @pytest.mark.parametrize("name,kind", _admitted(ELEMENTWISE))
    def test_numpy_kernel_result_kind_is_the_rows(self, name, kind):
        kinds = _operand_kinds(name, kind)
        args = [from_python([SAMPLE[k], SAMPLE[k]], T.TSeq(T.parse_type(k)))
                for k in kinds]
        out = KERNELS[name](*args)
        want = _row_kind(name, kinds)
        assert out.kind == want
        assert out.values.dtype == DTYPE[want]

    @pytest.mark.parametrize("name,kind", _admitted(
        n for n in ELEMENTWISE if is_unchecked_elementwise(n)))
    def test_unchecked_elementwise_row_has_a_c_lowering(self, name, kind):
        kinds = _operand_kinds(name, kind)
        tree = ("prim", name, tuple(("arg", i) for i in range(len(kinds))))
        src = emit_fused_source(tree, kinds, [False] * len(kinds))
        assert f"{CTYPES[_row_kind(name, kinds)]}* restrict out" in src

    @pytest.mark.parametrize("name", FOLD_ROWS)
    def test_fold_row_has_a_folds_kernel(self, name):
        assert name in FOLDS and name in KERNELS
        assert SEGMENTED_OPS[name] == get_builtin(name).arg_kinds
        assert get_builtin(name).op_class == "scan_reduce"

    def test_folds_kernels_are_the_fold_rows(self):
        assert sorted(FOLDS) == FOLD_ROWS

    @pytest.mark.parametrize("stem", sorted(
        p.stem for p in (ROOT / "examples").glob("*.py")))
    def test_example_trace_ops_have_an_explicit_class(self, stem):
        spec = _example_spec((ROOT / "examples" / f"{stem}.py").read_text())
        prog = compile_program(spec["SOURCE"])
        entry, args = spec["PROFILE_ENTRY"], list(spec["PROFILE_ARGS"])
        _r, trace = prog.vector_trace(entry, args)
        fusion = prog.prepare(entry, *prog.resolve_entry(entry, args))[1] \
            .fusion
        for op, _n in trace:
            root = fusion.trees[op][1] if op in fusion else op
            # a catalog row, or a trace name the machine model lists
            assert lookup(root) is not None or root.rstrip("0123456789") \
                in opclasses._TRACE_NAMES, op
            assert classify(op, fusion) in DEFAULT_FACTORS


class TestSurfaceDocumentation:
    def test_language_reference_mentions_every_builtin(self):
        text = (DOCS / "LANGUAGE.md").read_text()
        display = {"and_": "and", "or_": "or", "not_": "not", "abs_": "abs",
                   "eq": "==", "ne": "!=", "lt": "<", "le": "<=",
                   "gt": ">", "ge": ">=", "add": "+", "sub": "-",
                   "mul": "*", "neg": "-", "seq_index": "seq_index",
                   "sqrt_": "sqrt_", "trunc_": "trunc_", "round_": "round_",
                   "floor_": "floor_", "ceil_": "ceil_"}
        for name in sorted(SURFACE_BUILTINS):
            shown = display.get(name, name)
            assert shown in text, f"{name} undocumented in LANGUAGE.md"

    def test_prelude_functions_documented(self):
        text = (DOCS / "LANGUAGE.md").read_text()
        from repro.lang.prelude import prelude_program
        for d in prelude_program():
            assert d.name in text, f"prelude {d.name} undocumented"


class TestBuiltinMetadata:
    def test_schemes_are_functions(self):
        for name, b in all_builtins().items():
            t = b.fresh_type()
            from repro.lang.types import TFun
            assert isinstance(t, TFun), name

    def test_fresh_types_are_fresh(self):
        b = get_builtin("seq_index")
        t1, t2 = b.fresh_type(), b.fresh_type()
        # polymorphic schemes must not share variables across instantiations
        from repro.lang.types import type_vars
        assert not (type_vars(t1) & type_vars(t2))

    def test_shared_args_only_on_indexing(self):
        for name, b in all_builtins().items():
            if b.shared_args:
                assert name in ("seq_index", "seq_update"), name
