"""The strict descriptor-invariant checker (repro.guard.invariants)."""

import numpy as np
import pytest

from repro.api import BACKENDS, compile_program
from repro.errors import InvariantError
from repro.guard import GuardConfig, guarded
from repro.guard.invariants import validate_nested, validate_value
from repro.guard.runtime import GUARD  # noqa: F401  (import must not cycle)
from repro.lang.types import parse_type
from repro.vector.convert import from_python
from repro.vector.nested import VFun, VTuple

NESTED = parse_type("seq(seq(int))")


def make(v=((1, 2), (), (3,))):
    return from_python([list(x) for x in v], NESTED)


class TestValidateNested:
    def test_valid_value_passes(self):
        validate_nested("t", make())

    def test_in_place_corruption_bump(self):
        v = make()
        v.descs[1][0] += 1   # beneath the constructor's validation
        with pytest.raises(InvariantError, match="sum"):
            validate_nested("t", v)

    def test_in_place_corruption_negative(self):
        v = make()
        v.descs[1][1] = -2
        with pytest.raises(InvariantError, match="negative"):
            validate_nested("t", v)

    def test_top_descriptor_must_be_singleton(self):
        # descs is immutable on a real NestedVector; a duck-typed stand-in
        # models a value whose top level was mangled wholesale
        from types import SimpleNamespace
        v = make()
        bad = SimpleNamespace(descs=[np.array([1, 1]), *v.descs[1:]],
                              values=v.values)
        with pytest.raises(InvariantError, match="singleton"):
            validate_nested("t", bad)

    def test_stage_named_in_message(self):
        v = make()
        v.descs[1][0] += 3
        with pytest.raises(InvariantError, match="kernel:concat"):
            validate_nested("kernel:concat", v)


class TestValidateValue:
    def test_scalars_and_funs_trivially_valid(self):
        for x in (0, True, 1.5, np.int64(7), VFun("f")):
            validate_value("t", x)

    def test_tuple_checked_leafwise(self):
        t = VTuple([make(), 3])
        validate_value("t", t)
        t.items[0].descs[1][0] += 1
        with pytest.raises(InvariantError):
            validate_value("t", t)

    def test_tuple_conformability(self):
        a, b = make(((1,), (2, 3))), make(((1, 2), (3,)))
        with pytest.raises(InvariantError, match="disagree"):
            validate_value("t", VTuple([a, b]))

    def test_unexpected_value_rejected(self):
        with pytest.raises(InvariantError, match="unexpected"):
            validate_value("t", object())


SRC = """
fun qsort(v) =
  if #v <= 1 then v
  else let p = v[1 + #v / 2] in
    concat(concat(qsort([x <- v | x < p: x]),
                  [x <- v | x == p: x]),
           qsort([x <- v | x > p: x]))
fun main(n) = qsort([i <- [1..n]: (i * i) mod 19])
fun nest(n) = sum([i <- [1..n]: sum([j <- [1..i]: i*j])])
"""


class TestStrictMode:
    """check=True must not change results on healthy programs."""

    @pytest.mark.parametrize("backend", list(BACKENDS))
    @pytest.mark.parametrize("entry,args", [("main", [12]), ("nest", [7])])
    def test_checked_run_matches_unchecked(self, backend, entry, args):
        prog = compile_program(SRC)
        plain = prog.run(entry, args, backend=backend)
        checked = prog.run(entry, args, backend=backend, check=True)
        assert plain == checked

    def test_run_all_checked(self):
        prog = compile_program(SRC)
        assert prog.run_all("main", [9], check=True) == \
            sorted((i * i) % 19 for i in range(1, 10))

    def test_guard_scope_restored(self):
        from repro.guard import runtime
        prog = compile_program(SRC)
        with guarded(GuardConfig(check=True)) as st:
            prog.run("main", [5])
            assert runtime.current() is st
        assert runtime.current() is None and runtime.GUARD is None
