"""The batching equivalence battery (the serving layer's core promise).

For generated programs ``P`` and argument sets ``A_1..A_N``::

    run_batched(f, [A_1..A_N], backend) == [run(f, A_i, backend) for i]

element-wise, across all three back ends and under strict checking.
Programs come from the differential fuzzer's type-directed generator
(:mod:`repro.fuzz.gen`), so the battery sweeps iterators, filters,
scans, permutes, nested sequences, and helper calls — the same surface
the paper's transformation covers.
"""

import random

import pytest

from repro.api import compile_program
from repro.fuzz.gen import _gen_args, gen_case
from repro.serve import BatchExecutor, ServeConfig

N_PROGRAMS = 200          # generated programs exercised per backend
CHUNK = 20                # seeds per pytest case (keeps reporting granular)
ARGSETS = 4               # argument sets batched per program

_programs: dict[int, tuple] = {}


def program(seed):
    """Compile the seed's program once and share it across backends."""
    if seed not in _programs:
        case = gen_case(seed)
        argsets = [list(case.args)]
        rng = random.Random(seed * 7919 + 13)
        argsets += [list(_gen_args(rng)) for _ in range(ARGSETS - 1)]
        _programs[seed] = (compile_program(case.source), case, argsets)
    return _programs[seed]


def assert_batch_matches(seed, backend, check=False):
    prog, case, argsets = program(seed)
    expected = [prog.run(case.entry, a, backend, case.types, check=check)
                for a in argsets]
    got = prog.run_batched(case.entry, argsets, backend, case.types,
                           check=check)
    assert got == expected, (
        f"seed {seed} backend {backend} check={check}: batched run "
        f"diverged from {len(argsets)} independent runs\n{case.source}")


_CHUNKS = [range(lo, lo + CHUNK) for lo in range(0, N_PROGRAMS, CHUNK)]


@pytest.mark.parametrize("seeds", _CHUNKS,
                         ids=[f"{c.start}-{c.stop - 1}" for c in _CHUNKS])
class TestBackends:
    def test_vector(self, seeds):
        for seed in seeds:
            assert_batch_matches(seed, "vector")

    def test_native(self, seeds):
        for seed in seeds:
            assert_batch_matches(seed, "native")

    def test_interp(self, seeds):
        for seed in seeds:
            assert_batch_matches(seed, "interp")


@pytest.mark.parametrize("seeds", _CHUNKS[:3],
                         ids=[f"{c.start}-{c.stop - 1}" for c in _CHUNKS[:3]])
def test_strict_checking(seeds):
    """A slice of the battery re-run under check=True: the descriptor
    invariant holds at every kernel and at the pack/unpack boundary."""
    for seed in seeds:
        assert_batch_matches(seed, "vector", check=True)


def test_executor_end_to_end_matches_independent_runs():
    """The full serving path (queue -> coalesce -> pack -> f^1 -> unpack)
    returns exactly what N independent run() calls return — and really
    does batch (not a per-request loop in disguise)."""
    seed = 5
    prog, case, _ = program(seed)
    rng = random.Random(424242)
    argsets = [list(case.args)] + [list(_gen_args(rng)) for _ in range(15)]
    expected = [prog.run(case.entry, a, "vector", case.types)
                for a in argsets]
    with BatchExecutor(ServeConfig(max_batch=16)) as ex:
        got = ex.run_many(case.source, case.entry, argsets, types=case.types)
        stats = ex.stats.snapshot()
    assert got == expected
    assert stats["batched_requests"] >= 8      # coalescing actually happened
    assert stats["max_batch"] >= 8


def test_executor_varied_batch_sizes():
    seed = 11
    prog, case, _ = program(seed)
    rng = random.Random(31337)
    with BatchExecutor(ServeConfig(max_batch=8)) as ex:
        for n in (1, 2, 8):
            argsets = [list(_gen_args(rng)) for _ in range(n)]
            expected = [prog.run(case.entry, a, "vector", case.types)
                        for a in argsets]
            assert ex.run_many(case.source, case.entry, argsets,
                               types=case.types) == expected
