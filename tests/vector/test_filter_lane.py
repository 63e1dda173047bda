"""The fuzz lane for programs that are all pack and merge: filtered
iterators, ``if`` under an iterator, ``concat``, sequence constructors and
``seq_index`` over ragged int and tuple rows (``gen_filter_case``) — the
order-preserving structural kernels end to end, on every back end."""

import pytest

from repro import compile_program
from repro.fuzz.differ import ALL_BACKENDS, compare_outcomes, run_case
from repro.fuzz.gen import gen_filter_case


@pytest.mark.parametrize("block", range(10))
def test_filter_programs_agree_on_every_lane(block):
    """100 seeded programs, every lane; total by construction, so no
    lane may fail either."""
    for seed in range(block * 10, block * 10 + 10):
        case = gen_filter_case(seed)
        outcomes = run_case(case, backends=ALL_BACKENDS)
        assert compare_outcomes(outcomes) and \
            not any(o.failed for o in outcomes.values()), \
            f"seed {seed}\n{case.source}\n{case.args}\n" + "\n".join(
                f"{b}: {o.brief()}" for b, o in outcomes.items())


def test_filter_programs_run_the_kernels_they_are_for():
    """Every program packs; most also merge, build rows and index them."""
    ran = dict.fromkeys(
        ("restrict", "combine", "concat", "__seq_cons", "seq_index"), 0)
    empty_rows = 0
    for seed in range(100):
        case = gen_filter_case(seed)
        assert case == gen_filter_case(seed)            # deterministic
        empty_rows += [] in case.args[1] or [] in case.args[2]
        _value, report = compile_program(case.source).profile(
            case.entry, list(case.args), types=list(case.types))
        for op in ran:
            ran[op] += report.counter(op) is not None
    assert ran["restrict"] == 100
    assert all(n >= 40 for n in ran.values()), ran
    assert empty_rows >= 40
