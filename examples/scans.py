#!/usr/bin/env python
"""Classic vector-model scan applications (Blelloch's standard demos),
expressed in P and flattened to segmented scans.

* line-of-sight: which terrain points are visible from the origin —
  a running-maximum (max_scan) over angles;
* parenthesis matching: nesting depth and well-formedness via plus_scan;
* per-row running totals of a ragged matrix: the *segmented* scan the
  flattening produces automatically from a nested iterator.

Run:  python examples/scans.py
"""

import random

from repro import compile_program

SOURCE = """
-- line of sight: point i (height h[i] at distance i) is visible iff its
-- "angle" h[i]/i beats every earlier angle.  Using cross-multiplication
-- to stay in integers: angle_i > angle_j  <=>  h[i]*j > h[j]*i.
-- Scaled-angle trick: compare h[i] * K div i against the running max.
fun visible(h) =
  let angles = [i <- [1..#h]: (h[i] * 1000) div i],
      best = max_scan(angles)
  in [i <- [1..#h]: if i == 1 then true else angles[i] >= best[i]]

-- parenthesis matching: v holds +1 for '(' and -1 for ')'
fun depths(v) = [i <- [1..#v]: plus_scan(v)[i] + v[i]]

fun balanced(v) =
  let d = depths(v)
  in if #v == 0 then true
     else alltrue([x <- d: x >= 0]) and d[#v] == 0

-- segmented scans for free: running totals of every row of a ragged matrix
fun running_rows(m) = [row <- m: [i <- [1..#row]: plus_scan(row)[i] + row[i]]]
"""

# Defaults for ``repro profile examples/scans.py`` (see docs/OBSERVABILITY.md).
PROFILE_ENTRY = "visible"
PROFILE_ARGS = [[3, 1, 4, 1, 5, 9, 2, 6, 5, 3]]


def main() -> None:
    prog = compile_program(SOURCE)
    rng = random.Random(5)

    # line of sight over rolling terrain
    heights = [max(1, int(20 + 15 * rng.random() * (i % 7)))
               for i in range(1, 25)]
    vis = prog.run("visible", [heights])
    angles = [(h * 1000) // i for i, h in enumerate(heights, 1)]
    best = 0
    expect = []
    for i, a in enumerate(angles, 1):
        expect.append(i == 1 or a >= max(best, a))
        best = max(best, a) if i > 1 else a
        expect[-1] = True if i == 1 else a >= max(angles[:i])
    assert vis == expect
    print(f"line of sight: {sum(vis)} of {len(heights)} points visible")

    # parenthesis matching
    for text, want in [("(()())", True), ("(()", False), (")(", False),
                       ("", True), ("((()))", True)]:
        v = [1 if c == "(" else -1 for c in text]
        got = prog.run("balanced", [v])
        assert got == want, (text, got)
        print(f"balanced({text!r:10}) = {got}")

    # segmented running totals
    m = [[rng.randrange(9) for _ in range(rng.randrange(6))] for _ in range(5)]
    rr = prog.run("running_rows", [m])
    want = [[sum(row[:k + 1]) for k in range(len(row))] for row in m]
    assert rr == want
    print(f"running_rows over ragged {[len(r) for r in m]}: ok")

    # the interpreter and the traced vector run agree
    assert prog.run("running_rows", [m], backend="interp") == rr
    assert prog.vector_trace("running_rows", [m])[0] == rr
    print("interp == vector == traced vector  [ok]")


if __name__ == "__main__":
    main()
