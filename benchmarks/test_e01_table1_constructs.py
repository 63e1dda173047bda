"""E1 — Table 1: the basic constructors of P.

Every construct of Table 1 (application, lambda abstraction, let,
conditional) plus the iterator goes through the full pipeline; the
benchmark measures end-to-end compile+transform+run of a program that uses
them all, and the assertions pin the reproduced semantics."""

import pytest

from repro import compile_program

ALL_CONSTRUCTS = """
fun apply2(f, x, y) = f(x, y)                 -- application of a fn value
fun use_lambda(x) = (fn(a, b) => a * b)(x, x) -- lambda abstraction
fun use_let(x) = let y = x + 1, z = y * y in z - y
fun use_if(x) = if x > 0 then x else 0 - x
fun use_iter(n) = [i <- [1..n]: use_let(i)]
fun main(n) =
  let tup = (use_lambda(n), use_if(0 - n))
  in apply2(add, tup.1, tup.2) + sum(use_iter(n))
"""


@pytest.fixture(scope="module")
def prog():
    return compile_program(ALL_CONSTRUCTS)


def expected(n):
    def use_let(x):
        y = x + 1
        return y * y - y
    return (n * n + abs(-n)) + sum(use_let(i) for i in range(1, n + 1))


class TestTable1Reproduction:
    def test_all_constructs_agree_across_backends(self, prog):
        for n in (0, 1, 7, 30):
            assert prog.run_all("main", [n]) == expected(n)

    def test_lambda_value(self, prog):
        assert prog.run_all("use_lambda", [6]) == 36

    def test_let_scoping(self, prog):
        assert prog.run_all("use_let", [4]) == 20

    def test_conditional(self, prog):
        assert prog.run_all("use_if", [-3]) == 3

    def test_application_of_value(self, prog):
        from repro import FunVal
        assert prog.run("apply2", [FunVal("mul"), 6, 7],
                        types=["(int, int) -> int", "int", "int"]) == 42


def test_bench_pipeline_all_constructs(benchmark):
    """Wall time of compile+typecheck+transform+vector-run for Table 1."""
    def go():
        p = compile_program(ALL_CONSTRUCTS)
        return p.run("main", [20])
    assert benchmark(go) == expected(20)


def test_bench_run_only(benchmark, prog):
    prog.run("main", [20])  # warm the transform cache
    assert benchmark(prog.run, "main", [20]) == expected(20)
