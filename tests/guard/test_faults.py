"""Fault injection: every registered site's corruption must be caught —
runtime descriptor corruption by the boundary checker with a stage-named
InvariantError, and transform-level IR corruption *statically* by the
phase-boundary verifier with a stage-named AnalysisError (acceptance
criteria of the hardened-execution and analysis work)."""

import pytest

from repro.api import compile_program
from repro.errors import AnalysisError, FaultInjected, InvariantError
from repro.guard import GuardConfig, guarded
from repro.guard import faults as F

SRC = """
fun qsort(v) =
  if #v <= 1 then v
  else let p = v[1 + #v / 2] in
    concat(concat(qsort([x <- v | x < p: x]),
                  [x <- v | x == p: x]),
           qsort([x <- v | x > p: x]))
fun main(n) = qsort([i <- [1..n]: (i * i) - 13 * i])
fun nest(n) = [i <- [1..n]: [j <- [1..i]: [k <- [1..j]: i*j + k]]]
fun nsum(n) = sum([i <- [1..n]: sum([j <- nest(i)[1 + i / 2]: sum(j)])])
fun cc(n) = sum([i <- [1..n]:
  sum([s <- concat([j <- [1..i]: [k <- [1..j]: k]],
                   [j <- [1..i]: [k <- [1..j]: j]]): sum(s)])])
fun tri(n) = sum([i <- [1..n]:
  sum([s <- [[k <- [1..i]: k], [k <- [1..i]: i], [i]]: sum(s)])])
fun shr(n) = let t = nest(3) in
  sum([i <- [1..n]: sum([s <- t[1 + i mod 3]: sum(s)])])
"""

#: Which (backends, entry, args) drives execution through each *runtime*
#: site, and the stage name the resulting InvariantError must carry.
DRIVERS = {
    "extract_insert.extract.top-bump": ("vector", "nsum", [8], "extract"),
    "extract_insert.extract.desc-negate": ("vector", "nsum", [8], "extract"),
    "extract_insert.insert.desc-bump": ("vector", "nsum", [8], "insert"),
    "extract_insert.insert.desc-negate": ("vector", "nsum", [8], "insert"),
    # indexing one item per segment compresses; what still gathers nested
    # elements is what replicates them (here the shared index of 4.5)
    "segments.gather_subtrees.desc-bump":
        ("vector", "shr", [8], "segments.gather_subtrees"),
    "segments.gather_subtrees.desc-negate":
        ("vector", "shr", [8], "segments.gather_subtrees"),
    "segments.compress_subtrees.desc-bump":
        ("vector", "nsum", [8], "segments.compress_subtrees"),
    "segments.compress_subtrees.desc-negate":
        ("vector", "nsum", [8], "segments.compress_subtrees"),
    "segments.merge_subtrees.desc-bump":
        ("vector", "cc", [6], "segments.merge_subtrees"),
    "segments.merge_subtrees.desc-negate":
        ("vector", "cc", [6], "segments.merge_subtrees"),
    # concat merges; what still pools levels is a sequence literal of
    # three or more (nested) elements under an iterator
    "segments.concat_levels.desc-bump":
        ("vector", "tri", [6], "segments.concat_levels"),
    "segments.concat_levels.desc-negate":
        ("vector", "tri", [6], "segments.concat_levels"),
    # the user-call boundary every vector lane shares, driven on vector
    # and on native
    "vexec.call.desc-bump": ("vector,native", "main", [40], "vexec:"),
    "vexec.call.desc-negate": ("vector,native", "main", [40], "vexec:"),
}

#: Transform-level IR corruption is caught before anything runs: the
#: phase-boundary verifier (repro.analysis.verify) rejects the program
#: at the named stage.  Compilation must happen *inside* the injecting
#: context, so each test compiles afresh.
STATIC_SRC = """
fun fact(n) = if n <= 1 then 1 else n * fact(n - 1)
fun main(n) = [i <- [1..n]: fact(i)]
"""

STATIC_DRIVERS = {
    "transform.R2d.drop-guard": ("main", [5], "verify:eliminate"),
    "transform.R2c.depth-bump": ("main", [5], "verify:eliminate"),
}


@pytest.fixture(scope="module")
def prog():
    return compile_program(SRC)


def test_every_site_has_a_driver():
    """A new fault site cannot be added without proving it is caught."""
    assert set(DRIVERS) | set(STATIC_DRIVERS) == set(F.FAULT_SITES)
    assert not set(DRIVERS) & set(STATIC_DRIVERS)


@pytest.mark.parametrize("site", sorted(DRIVERS))
def test_injected_fault_is_caught_with_stage(prog, site):
    backends, entry, args, stage = DRIVERS[site]
    for backend in backends.split(","):
        with guarded(GuardConfig(check=True)):
            with F.injecting(site, seed=1) as inj:
                with pytest.raises(InvariantError) as ei:
                    prog.run(entry, args, backend=backend)
        assert inj.fired, f"site {site} never fired on {entry}{args}"
        assert ei.value.stage.startswith(stage), \
            f"expected stage {stage!r}, got {ei.value.stage!r}"


@pytest.mark.parametrize("site", sorted(DRIVERS))
def test_without_injection_runs_clean(prog, site):
    """The same checked runs succeed when no injector is armed."""
    backends, entry, args, _stage = DRIVERS[site]
    for backend in backends.split(","):
        with guarded(GuardConfig(check=True)):
            prog.run(entry, args, backend=backend)


@pytest.mark.parametrize("site", sorted(STATIC_DRIVERS))
def test_transform_fault_is_caught_statically(site):
    """Transform-level IR corruption never reaches execution: the
    verifier rejects it at the named phase boundary."""
    entry, args, stage = STATIC_DRIVERS[site]
    with F.injecting(site, seed=0) as inj:
        with pytest.raises(AnalysisError) as ei:
            compile_program(STATIC_SRC).run(entry, args)
    assert inj.fired, f"site {site} never fired during transformation"
    assert ei.value.stage == stage, \
        f"expected stage {stage!r}, got {ei.value.stage!r}"


@pytest.mark.parametrize("site", sorted(STATIC_DRIVERS))
def test_transform_site_clean_without_injection(site):
    entry, args, _stage = STATIC_DRIVERS[site]
    assert compile_program(STATIC_SRC).run(entry, args) \
        == [1, 2, 6, 24, 120]


def test_raise_mode_surfaces_faultinjected(prog):
    with F.injecting("vexec.call.desc-bump", mode="raise") as inj:
        with pytest.raises(FaultInjected, match="vexec.call.desc-bump"):
            prog.run("main", [40], backend="native")
    assert inj.fired


def test_corruption_is_silent_without_checker(prog):
    """Without check mode the corrupted run completes with a wrong
    answer — demonstrating exactly the failure class strict mode guards
    against."""
    clean = prog.run("nsum", [8], backend="vector")
    with F.injecting("segments.compress_subtrees.desc-bump", seed=1):
        try:
            bad = prog.run("nsum", [8], backend="vector")
        except Exception:
            return  # downstream blow-up is also an accepted outcome
    assert bad != clean


def test_injector_is_deterministic(prog):
    msgs = []
    for _ in range(2):
        with guarded(GuardConfig(check=True)):
            with F.injecting("extract_insert.insert.desc-bump", seed=7):
                with pytest.raises(InvariantError) as ei:
                    prog.run("nsum", [8], backend="vector")
        msgs.append(str(ei.value))
    assert msgs[0] == msgs[1]


def test_injecting_restores_globals(prog):
    from repro.vector import nested
    assert F.INJECTOR is None
    before = nested.CHECK_INVARIANTS
    with F.injecting("vexec.call.desc-bump"):
        assert F.INJECTOR is not None
        assert nested.CHECK_INVARIANTS is False
    assert F.INJECTOR is None
    assert nested.CHECK_INVARIANTS == before


def test_unknown_site_rejected():
    with pytest.raises(ValueError, match="unknown fault site"):
        F.FaultInjector("no.such.site")
