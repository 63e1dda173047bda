"""Float max/min on every lane: a NaN operand wins, wherever it stands.

``maxval``, ``minval``, ``reduce(max2|min2, ...)`` and ``max_scan`` over
a sequence holding a NaN first, in the middle, last and alone, at depth 0
and per segment, plus elementwise ``max2`` / ``min2`` in both operand
orders.  Lanes are compared by ``repr``, which matches ``nan`` with
``nan`` and tells ``-0.0`` from ``0.0``, where ``==`` does neither.

Which of two equal zeros a fold keeps is not one rule yet (ROADMAP item
2(b)): the interpreter and the C fold keep the first, NumPy's reductions
do not.  Those rows are strict xfails, so the fix turns them green loudly.
"""

import math

import pytest

from repro import compile_program
from repro.fuzz.differ import ALL_BACKENDS, lane_call

NAN = math.nan
NAN_SEQS = [[NAN, 1.0, 2.0], [1.0, NAN, 2.0], [1.0, 2.0, NAN], [NAN]]
NAN_IDS = ["first", "middle", "last", "alone"]
FOLDS = ["maxval(s)", "minval(s)", "reduce(max2, s)", "reduce(min2, s)",
         "max_scan(s)"]


def said(src: str, args: list) -> dict:
    prog = compile_program(src)
    return {lane: repr(prog.run("f", args, backend=b, threads=t))
            for lane, (b, t) in zip(ALL_BACKENDS,
                                    map(lane_call, ALL_BACKENDS))}


def assert_lanes_agree(src: str, args: list) -> None:
    answers = said(src, args)
    assert len(set(answers.values())) == 1, answers


@pytest.mark.parametrize("fold", FOLDS)
@pytest.mark.parametrize("seq", NAN_SEQS, ids=NAN_IDS)
def test_fold_propagates_nan(fold, seq):
    assert_lanes_agree(f"fun f(s: seq(float)) = {fold}", [seq])


@pytest.mark.parametrize("fold", FOLDS)
def test_fold_propagates_nan_per_segment(fold):
    assert_lanes_agree(f"fun f(v: seq(seq(float))) = [s <- v: {fold}]",
                       [NAN_SEQS + [[3.0, 1.0]]])


@pytest.mark.parametrize("expr", ["max2(x, 1.5)", "max2(1.5, x)",
                                  "min2(x, 1.5)", "min2(1.5, x)"])
def test_elementwise_propagates_nan(expr):
    assert_lanes_agree(f"fun f(v: seq(float)) = [x <- v: {expr}]",
                       [[1.0, NAN, 2.0]])


SIGNED_ZERO_TIES = [
    ("fun f(s: seq(float)) = maxval(s)", [[0.0, -0.0]]),
    ("fun f(s: seq(float)) = maxval(s)", [[-0.0, 0.0]]),
    ("fun f(s: seq(float)) = minval(s)", [[0.0, -0.0]]),
    ("fun f(s: seq(float)) = minval(s)", [[-0.0, 0.0]]),
    ("fun f(s: seq(float)) = reduce(max2, s)", [[0.0, -0.0]]),
    # -0.0 on vector, 0.0 on native at every thread count: the C fold keeps
    # the first of two equal operands, NumPy the second
    ("fun f(v: seq(seq(float))) = [s <- v: maxval(s)]", [[[0.0, -0.0]]]),
]


@pytest.mark.xfail(strict=True, reason="ROADMAP 2(b): the lanes break a "
                   "tie between 0.0 and -0.0 differently")
@pytest.mark.parametrize("src,args", SIGNED_ZERO_TIES,
                         ids=[f"{s.split('= ')[-1]} {a}"
                              for s, a in SIGNED_ZERO_TIES])
def test_signed_zero_ties(src, args):
    assert_lanes_agree(src, args)
