"""``NestedVector.splice``, the builder of every derived vector: what it
takes over from a validated vector it does not reduce again, what it is
offered as a new level it rejects exactly as the public constructor does,
and what it remembers is true of the arrays — on every vector any kernel
builds while the examples and 200 generated programs run."""

import glob
import os

import numpy as np
import pytest

from repro.api import compile_program
from repro.cli import _example_spec
from repro.errors import InvariantError, ReproError, VectorError
from repro.fuzz.gen import gen_case
from repro.guard import GuardConfig, guarded
from repro.lang.types import parse_type
from repro.vector import nested
from repro.vector import ops as O
from repro.vector.convert import from_python
from repro.vector.nested import NestedVector

EXAMPLES = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "*.py")))


def arr(xs):
    return np.array(xs, dtype=np.int64)


#: the constructor's rejection table: (descs, values, kind, message)
REJECTED = [
    ([], arr([]), "int", "needs at least one descriptor"),
    ([arr([1, 1])], arr([1, 2]), "int", "top descriptor must be a singleton"),
    ([arr([2]), np.ones((2, 1), dtype=np.int64)], arr([1, 2]), "int",
     "descriptors must be 1-D"),
    ([arr([1]), arr([-1])], arr([]), "int", "negative count in descriptor"),
    ([arr([2]), arr([1])], arr([7]), "int",
     "descriptor invariant violated at level 1: sum=2 but next level has 1"),
    ([arr([2]), arr([1, 1])], arr([7, 8, 9]), "int",
     "descriptor invariant violated at level 2: sum=2 but next level has 3"),
    ([arr([2])], np.ones((2, 1), dtype=np.int64), "int",
     "value vector must be 1-D"),
    ([arr([0])], arr([]), "complex", "bad leaf kind"),
]


def rejection(build):
    with pytest.raises(VectorError) as ei:
        build()
    return type(ei.value), str(ei.value)


@pytest.mark.parametrize("descs,values,kind,message", REJECTED,
                         ids=[r[3][:34] for r in REJECTED])
def test_new_levels_are_rejected_as_the_constructor_rejects(
        descs, values, kind, message):
    want = rejection(lambda: NestedVector(descs, values, kind))
    assert message in want[1]
    assert rejection(
        lambda: NestedVector.splice(values, kind, new=descs)) == want
    if len(descs) > 1:      # the same lower levels under an inherited top
        head = NestedVector(descs[:1], np.zeros(int(descs[0].sum())), "int")
        assert rejection(lambda: NestedVector.splice(
            values, kind, head, 1, descs[1:])) == want


def test_inherited_levels_are_linked_not_reduced(monkeypatch):
    v = from_python([[1, 2], [], [3]], parse_type("seq(seq(int))"))
    w = from_python([[[1], []], [[2, 3]]], parse_type("seq(seq(seq(int)))"))
    reduced = []
    monkeypatch.setattr(nested, "_checked_sum",
                        lambda d, real=nested._checked_sum:
                        reduced.append(d) or real(d))
    out = v.with_values(np.array([True, False, True]), "bool")
    assert out.descs[1] is v.descs[1] and out._sums == v._sums
    mixed = NestedVector.splice(w.values, "int", v, 1, (arr([2, 0, 1]),), w, 2)
    assert [d.tolist() for d in mixed.descs] == [[3], [2, 0, 1], [1, 0, 2]]
    assert mixed._sums == (3, 3, 3)
    assert [d.tolist() for d in reduced] == [[2, 0, 1]]  # the new level only
    with pytest.raises(VectorError, match="violated at level 2"):
        v.with_values(np.array([1, 2]), "int")          # a link that fails
    with pytest.raises(VectorError, match="violated at level 1"):
        NestedVector.splice(w.values, "int", v, 1, tail=w, j=1)


def test_a_source_built_with_the_belt_off_is_validated_in_full(monkeypatch):
    monkeypatch.setattr(nested, "CHECK_INVARIANTS", False)
    bad = NestedVector([arr([2]), arr([1, -1])], arr([]), "int")
    assert bad._sums is None
    assert bad.with_values(arr([]), "int")._sums is None    # belt still off
    monkeypatch.setattr(nested, "CHECK_INVARIANTS", True)
    with pytest.raises(VectorError, match="negative count"):
        bad.with_values(arr([]), "int")


def test_in_place_corruption_is_caught_at_the_next_checked_boundary():
    """Construction-time validation does not see a later in-place write
    (the remembered sums still describe the array as it was); the strict
    guard recomputes from the arrays, and does."""
    v = from_python([[1, 2], [3]], parse_type("seq(seq(int))"))
    v.descs[1][0] += 1
    assert O.apply_kernel("add", [v, v])._sums == (2, 3)    # unchecked: stale
    with guarded(GuardConfig(check=True)):
        with pytest.raises(InvariantError) as ei:
            O.apply_kernel("add", [v, v])
    assert ei.value.stage == "kernel:add"
    with pytest.raises(VectorError, match="violated at level 2"):
        v.validate()        # from scratch: nothing remembered is trusted


def _programs():
    for path in EXAMPLES:
        with open(path) as f:
            spec = _example_spec(f.read())
        yield (os.path.basename(path), spec["SOURCE"], spec["PROFILE_ENTRY"],
               list(spec["PROFILE_ARGS"]), None)
    for seed in range(200):
        case = gen_case(seed)
        yield f"fuzz{seed}", case.source, case.entry, list(case.args), \
            list(case.types)


def test_remembered_sums_are_true_of_every_vector_a_kernel_builds(monkeypatch):
    built = [0]
    real = NestedVector.splice.__func__

    def checking(cls, *args, **kwargs):
        out = real(cls, *args, **kwargs)
        built[0] += 1
        remembered = out._sums
        assert remembered == tuple(int(d.sum()) for d in out.descs)
        out.validate()                      # from scratch
        assert out._sums == remembered
        return out
    monkeypatch.setattr(NestedVector, "splice", classmethod(checking))
    for name, source, entry, args, types in _programs():
        try:
            compile_program(source).run(entry, args, types=types)
        except ReproError:
            continue        # a generator slip or a partial program
    assert built[0] > 1_000
