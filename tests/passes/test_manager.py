"""Pass-manager contract tests: the declared ``requires``/``produces``
invariants fully determine which pipelines are legal, and every illegal
ordering is rejected *statically* (at :class:`PassManager` construction,
before any pass runs)."""

from itertools import permutations

import pytest

from repro import TransformOptions, compile_program
from repro.errors import TransformError
from repro.passes import invariants as INV
from repro.passes.base import Pass
from repro.passes.manager import PassManager, manager_for
from repro.passes.registry import (get_pass, parse_pass_list,
                                   registered_passes)

ALL = ("canonical", "eliminate", "optimize", "simplify", "fuse")


def reference_legal(names) -> bool:
    """Independent re-derivation of pipeline legality from the declared
    contracts alone (what the manager *should* accept)."""
    passes = [get_pass(n) for n in names]
    if len({p.name for p in passes}) != len(passes):
        return False
    defs_started = False
    established = set(INV.ENTRY)
    for p in passes:
        if p.stage == "defs":
            defs_started = True
        elif defs_started:
            return False
        if p.requires - established:
            return False
        established |= p.produces
    return True


def manager_accepts(names, **opt_kw) -> bool:
    try:
        PassManager(names, TransformOptions(**opt_kw))
    except TransformError:
        return False
    return True


def test_all_permutations_match_declared_invariants():
    """Property: over every permutation of the five default passes, the
    manager accepts exactly the orders the declared invariants allow."""
    accepted = [p for p in permutations(ALL) if manager_accepts(p)]
    expected = [p for p in permutations(ALL) if reference_legal(p)]
    assert accepted == expected
    # and concretely: canonical then eliminate are forced, the three
    # iterator-free passes may follow in any order
    assert len(accepted) == 6
    assert all(p[:2] == ("canonical", "eliminate") for p in accepted)


@pytest.mark.parametrize("names", [
    ("eliminate",),                            # R2 without R1's canonical form
    ("canonical", "optimize"),                 # §4.5 before iterator freedom
    ("canonical", "simplify", "eliminate"),    # cleanup before R2
    ("optimize", "eliminate"),                 # the docs' example
    ("canonical", "eliminate", "fuse", "canonical"),  # duplicate + inversion
])
def test_illegal_orders_rejected(names):
    with pytest.raises(TransformError):
        PassManager(names, TransformOptions())


@pytest.mark.parametrize("names", [
    ("canonical",),
    ("canonical", "eliminate"),
    ("canonical", "eliminate", "fuse"),
    ("canonical", "eliminate", "simplify", "optimize", "fuse"),
])
def test_legal_subsets_accepted(names):
    assert manager_accepts(names)


def test_duplicate_pass_rejected():
    with pytest.raises(TransformError, match="listed twice"):
        PassManager(("canonical", "eliminate", "eliminate"),
                    TransformOptions())


def test_source_after_defs_rejected():
    class NoOpDefs(Pass):
        name = "noop-defs-test"

        def run(self, ctx):
            pass

        def postcondition(self, ctx):
            return None

    with pytest.raises(TransformError, match="source-stage"):
        PassManager([NoOpDefs(), get_pass("canonical")], TransformOptions())


def test_unknown_pass_names_known_set():
    with pytest.raises(TransformError, match="unknown pass 'frobnicate'"):
        PassManager(("frobnicate",), TransformOptions())
    with pytest.raises(TransformError, match="eliminate"):
        get_pass("nope")  # error text lists the registered spellings


def test_error_names_missing_invariant():
    with pytest.raises(TransformError,
                       match=r"'optimize' requires \['iterator-free'\]"):
        PassManager(("canonical", "optimize"), TransformOptions())


def test_validation_happens_at_compile_time():
    """An illegal ``TransformOptions(passes=...)`` fails in
    ``compile_program`` — before type inference, monomorphization, or any
    pass body runs."""
    with pytest.raises(TransformError, match="illegal pass order"):
        compile_program("fun id(x) = x",
                        options=TransformOptions(
                            passes=("optimize", "eliminate")))


@pytest.mark.parametrize("passes, after", [
    (None, "bogus"),                        # no such pass
    (("canonical", "eliminate"), "fuse"),   # a pass the list leaves out
])
def test_dump_of_a_pass_not_in_the_list_rejected(passes, after):
    """``print_ir_after`` naming a pass that will not run is an error
    that names the list — at construction, like an illegal order."""
    opts = TransformOptions(passes=passes, print_ir_after=[after])
    listed = ",".join(opts.pipeline())
    with pytest.raises(TransformError, match=repr(after)) as err:
        manager_for(opts)
    assert f"({listed})" in str(err.value)
    with pytest.raises(TransformError, match="cannot print IR after"):
        compile_program("fun id(x) = x", options=opts)


def test_registry_covers_default_pipeline():
    reg = registered_passes()
    for name in TransformOptions(fuse=True).pipeline():
        assert name in reg
    for name, cls in reg.items():
        p = cls()
        assert p.name == name
        assert p.stage in ("source", "defs")
        assert p.description


def test_invariant_names_documented():
    for p in (cls() for cls in registered_passes().values()):
        for inv in p.requires | p.produces:
            assert inv in INV.DESCRIPTIONS, inv


def test_parse_pass_list():
    assert parse_pass_list("canonical, eliminate ,simplify") == (
        "canonical", "eliminate", "simplify")
    assert parse_pass_list(["canonical", "fuse"]) == ("canonical", "fuse")
    with pytest.raises(TransformError, match="empty pass list"):
        parse_pass_list(" , ")


def test_manager_for_uses_options_pipeline():
    pm = manager_for(TransformOptions(
        passes=["canonical", "eliminate", "optimize", "fuse"]))
    assert [p.name for p in pm.passes] == [
        "canonical", "eliminate", "optimize", "fuse"]
    assert [p.name for p in pm.source_passes()] == ["canonical"]
    assert [p.name for p in pm.defs_passes()] == [
        "eliminate", "optimize", "fuse"]


def test_span_names_preserved():
    """The obs span and verifier stage names the pre-refactor pipeline
    used are pinned (dashboards and the analysis layer key on them)."""
    canonical = get_pass("canonical")
    assert canonical.span == "canonicalize"
    assert canonical.verify_span == "verify:canonicalize"
    for name in ("eliminate", "optimize", "simplify", "fuse"):
        p = get_pass(name)
        assert p.span == name
        assert p.verify_span == f"verify:{name}"
