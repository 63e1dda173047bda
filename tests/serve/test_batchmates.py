"""A request that cannot cross the vector boundary fails alone, typed, on
both executors; and an untyped group is typed as one value, whatever
request leads it."""

import pytest

from repro import compile_program
from repro.api import BACKENDS
from repro.errors import VectorError
from tests.serve.test_equivalence import SQUARES, serve, squares  # noqa: F401

TOTAL = "fun main(s) = sum([x <- s: x * x])"
DOUBLE = "fun main(s) = [x <- s: x + x]"
HUGE = 2 ** 70


def behind_a_slow_request(ex, submit_all):
    """What ``submit_all()`` submits coalesces: the one dispatcher is
    busy with a slow request meanwhile."""
    slow = ex.submit(SQUARES, "main", [300000])
    futs = submit_all()
    assert slow.result(60) == squares(300000)
    return futs


@pytest.mark.parametrize("types", [("seq(int)",), None],
                         ids=["typed", "untyped"])
def test_an_integer_outside_int64_fails_alone(serve, types):
    """At the parent all five futures raised a bare ``OverflowError``."""
    ex = serve()
    args = [[1, 2], [3], [HUGE], [4, 5], [6]]
    futs = behind_a_slow_request(ex, lambda: [
        ex.submit(TOTAL, "main", [a], types=types) for a in args])
    errors = [f.exception(60) for f in futs]
    assert [e is None for e in errors] == [True, True, False, True, True]
    assert [f.result(0) for f in futs if f.exception(0) is None] \
        == [5, 9, 41, 36]
    # ... as its lone run fails
    with pytest.raises(VectorError) as lone:
        compile_program(TOTAL).run("main", [[HUGE]], types=types)
    assert (type(errors[2]), str(errors[2])) == \
        (VectorError, str(lone.value)) == \
        (VectorError, f"integer {HUGE} does not fit int64")
    s = ex.stats.snapshot()
    assert s["fallbacks"] == 1 and s["errors"] == 1 and s["responses"] == 5


def test_a_lone_integer_outside_int64_is_a_typed_error():
    for src, args in ((TOTAL, [[HUGE]]), ("fun main(x) = x + 1", [HUGE])):
        prog = compile_program(src)
        for backend in ("vector", "native"):
            with pytest.raises(VectorError, match="does not fit int64"):
                prog.run("main", args, backend=backend)


ORDERS = [([[], [1.5], [2.5, 3.5]]), ([[1.5], [], [2.5, 3.5]])]


@pytest.mark.parametrize("order", ORDERS, ids=["empty-first", "empty-second"])
def test_an_untyped_batch_does_not_depend_on_request_order(order):
    """At the parent the first order raised ``VectorError: expected int
    element, got 1.5``: the types were the lead's alone."""
    prog = compile_program(DOUBLE)
    want = [[x + x for x in s] for s in order]
    for backend in BACKENDS:
        got = prog.run_batched("main", [[s] for s in order], backend=backend)
        assert got == want and repr(got) == repr(want)
    # nothing to merge with: an empty sequence alone is a seq(int)
    assert prog.run_batched("main", [[[]], [[]]]) == [[], []]
    # no common type: as before
    with pytest.raises(Exception, match="heterogeneous sequence"):
        prog.run_batched("main", [[[1]], [[1.5]]])


@pytest.mark.parametrize("order", ORDERS, ids=["empty-first", "empty-second"])
def test_an_untyped_group_is_one_batch(serve, order):
    """At the parent an empty sequence leading the group decomposed it
    (``fallbacks`` 1, three ``singles``)."""
    ex = serve()
    futs = behind_a_slow_request(ex, lambda: [
        ex.submit(DOUBLE, "main", [s]) for s in order])
    assert [f.result(60) for f in futs] == [[x + x for x in s] for s in order]
    s = ex.stats.snapshot()
    assert s["fallbacks"] == 0 and s["batches"] == 1
    assert s["batch_sizes"] == {3: 1} and s["singles"] == 1     # the slow one
