#!/usr/bin/env python
"""Quickstart: the paper's running example, end to end.

Compiles the section-5 program ``[k <- [1..5]: sqs(k)]``, shows the
transformed (iterator-free) form, the generated CVL-style C, runs it on all
three back ends, and prints the machine-independent work/span measurements.

Run:  python examples/quickstart.py [N]
"""

import sys

from repro import compile_program

SOURCE = """
fun sqs(n) = [j <- [1..n]: j * j]

-- the paper's top-level expression [k <- [1..5]: sqs(k)], as a function
fun main(k) = [i <- [1..k]: sqs(i)]
"""

# Defaults for ``repro profile examples/quickstart.py`` (see docs/OBSERVABILITY.md).
PROFILE_ENTRY = "main"
PROFILE_ARGS = [12]


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    prog = compile_program(SOURCE)

    print("== source (P) ==")
    print(SOURCE)

    print("== result ==")
    result = prog.run("main", [n])
    print(f"main({n}) = {result}")

    print("\n== back-end agreement ==")
    assert prog.run("main", [n], backend="interp") == result
    assert prog.vector_trace("main", [n])[0] == result
    print("interp == vector == traced vector  [ok]")

    print("\n== transformed, iterator-free program (section 3) ==")
    print(prog.transformed_source("main", [n]))

    print("\n== generated CVL-style C (section 5) ==")
    print(prog.emit_c("main", ["int"]))

    print("== machine-independent measurements (work/span) ==")
    _, cost = prog.measure("main", [n])
    print(f"  {cost}")

    print("\n== the result's vector representation (paper Figure 1) ==")
    from repro.lang.types import INT, seq_of
    from repro.vector.convert import from_python
    from repro.vector.display import show
    print(show(from_python(result, seq_of(INT, 2))))

    print("\n== vector-op trace -> simulated machine ==")
    _, trace = prog.vector_trace("main", [n])
    from repro.machine import VectorMachine
    for p in (1, 4, 16):
        print(f"  {VectorMachine(processors=p).run_trace(trace)}")


if __name__ == "__main__":
    main()
