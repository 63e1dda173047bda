"""``_max_int_leaf`` — the ``|x|`` size variable admission prediction
reads off an argument — is C-level ``max``/``min`` over each flattened
layer, and equals the per-element formula it replaced."""

import random

import pytest

from repro.analysis.cost import _max_int_leaf
from repro.lang import types as T
from repro.lang.types import parse_type


def reference(vals, t) -> int:
    """The per-element formula: ``max(abs(int(x)))`` over every int leaf."""
    if isinstance(t, T.TInt):
        return max((abs(int(x)) for x in vals), default=0)
    if isinstance(t, T.TTuple):
        return max((reference([v[i] for v in vals], c)
                    for i, c in enumerate(t.items)), default=0)
    if isinstance(t, T.TSeq):
        return reference([x for s in vals for x in s], t.elem)
    return 0


CASES = [
    ("int", [3, -7, 5]),
    ("int", [-2, -9]),
    ("int", [0]),
    ("int", []),
    ("int", [True, False, -1]),
    ("int", [True]),
    ("int", [2 ** 70, -(2 ** 71)]),
    ("seq(int)", [[], []]),
    ("seq(int)", [[4, -4], [], [-12]]),
    ("seq(seq(int))", [[[1, -30], []], [], [[7]]]),
    ("(int, seq(int))", [(5, [-8, 2]), (-9, [])]),
    ("seq((int, bool, float))", [[(3, True, 9.5), (-4, False, -1e9)]]),
    ("seq(bool)", [[True, False]]),
    ("float", [1e30]),
]


@pytest.mark.parametrize("tname, vals", CASES)
def test_equals_the_per_element_formula(tname, vals):
    t = parse_type(tname)
    got = _max_int_leaf(vals, t)
    assert got == reference(vals, t) and type(got) is int


def test_random_nested_layers():
    rng = random.Random(5)
    t = parse_type("seq((int, seq(int)))")
    for _ in range(500):
        vals = [[(rng.randint(-50, 50), [rng.randint(-99, 99)
                                         for _ in range(rng.randrange(4))])
                 for _ in range(rng.randrange(4))]
                for _ in range(rng.randrange(4))]
        assert _max_int_leaf(vals, t) == reference(vals, t)
