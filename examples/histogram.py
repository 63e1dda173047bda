#!/usr/bin/env python
"""Word-frequency histogram over integer-coded tokens.

The classic "count occurrences" pipeline, entirely in P: sort the tokens
with the rank/permute CVL primitives, find the distinct values, and count
each one with a nested data-parallel comparison sweep — then rank the
result by descending frequency.  Irregular, data-dependent sizes all the
way through: exactly what flat data-parallel languages cannot express.

Run:  python examples/histogram.py [n]
"""

import collections
import random
import sys

from repro import compile_program

SOURCE = """
-- (token, count) for each distinct token, in first-seen-in-sorted order
fun histogram(v) =
  [u <- unique(v): (u, count([x <- v: x == u]))]

-- order the histogram by descending count (stable)
fun by_frequency(v) =
  let h = histogram(v),
      counts = [p <- h: 0 - p.2],
      toks = [p <- h: p.1],
      cnts = [p <- h: p.2]
  in zip2(sort_by(counts, toks), sort_by(counts, cnts))

fun most_common(v) = by_frequency(v)[1]
"""

# Defaults for ``repro profile examples/histogram.py`` (see docs/OBSERVABILITY.md).
PROFILE_ENTRY = "by_frequency"
PROFILE_ARGS = [[3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3]]


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    rng = random.Random(31)
    # zipf-ish token stream over a small vocabulary
    vocab = list(range(1, 21))
    weights = [1.0 / k for k in vocab]
    tokens = rng.choices(vocab, weights=weights, k=n)

    prog = compile_program(SOURCE)

    hist = prog.run("histogram", [tokens])
    want = collections.Counter(tokens)
    assert dict(hist) == dict(want)
    print(f"histogram of {n} tokens over {len(want)} distinct values: ok")

    ranked = prog.run("by_frequency", [tokens])
    py_ranked = sorted(want.items(), key=lambda p: (-p[1], None))
    assert ranked[0][1] == py_ranked[0][1]
    print("top 5 by frequency:", ranked[:5])

    top = prog.run("most_common", [tokens])
    assert top == ranked[0]
    print(f"most common token: {top[0]} ({top[1]} occurrences)")

    # the interpreter and the traced vector run agree
    assert prog.run("histogram", [tokens], backend="interp") == hist
    assert prog.vector_trace("histogram", [tokens])[0] == hist
    print("interp == vector == traced vector  [ok]")


if __name__ == "__main__":
    main()
