"""E6 — the section-5 worked example, reproduced rule by rule.

The paper transforms ``[k <- [1..5]: sqs(k)]`` with ``fun sqs(n) =
[j <- [1..n]: mult(j,j)]``, derives ``sqs^1``, translates ``mult`` at depth
2 through T1, and emits C.  This experiment checks each artifact:

* the result value ``[[1],[1,4],[1,4,9],[1,4,9,16],[1,4,9,16,25]]``;
* the rule trace fires {R0}, {R2c}, {R2e} (and the form R2 derives matches
  the paper's shape: range1, seq_index, range1^1, mul^2 — of which the
  default pipeline keeps ``__iter``, range1^1, mul^2);
* the generated C applies T1 (extract/insert around ``cvl_mul_1``);
* timing for the whole derivation.
"""

import pytest

from repro import TransformOptions, compile_program
from repro.lang import ast as A

SRC = """
fun sqs(n) = [j <- [1..n]: j * j]
fun main(k) = [i <- [1..k]: sqs(i)]
"""

EXPECTED = [[1], [1, 4], [1, 4, 9], [1, 4, 9, 16], [1, 4, 9, 16, 25]]


@pytest.fixture(scope="module")
def prog():
    return compile_program(SRC, options=TransformOptions(trace=True))


class TestSection5Reproduction:
    def test_result_value(self, prog):
        assert prog.run_all("main", [5]) == EXPECTED

    def test_extension_derived(self, prog):
        from repro.lang.types import INT
        _mono, tp = prog.prepare("main", (INT,))
        assert "sqs^1" in tp.defs  # the paper's {R0} step

    def test_rules_fired(self, prog):
        from repro.lang.types import INT
        _mono, tp = prog.prepare("main", (INT,))
        rules = set(tp.trace.rules_fired())
        assert "R0" in rules     # derivation of sqs^1
        assert "R2c" in rules    # iterator / application distribution
        assert "R2e" in rules    # let

    @staticmethod
    def sqs1_calls(options):
        from repro.lang.types import INT
        _mono, tp = compile_program(SRC, options=options).prepare(
            "main", (INT,))
        return [(n.fn, n.depth) for n in A.walk(tp.defs["sqs^1"].body)
                if isinstance(n, A.ExtCall)]

    def test_transformed_shape(self):
        # the paper's derived sqs', as rules R0/R2 alone produce it:
        # length, range1 (i), seq_index (n), range1^1 (j), mult at depth 2
        paper = self.sqs1_calls(
            TransformOptions(passes=("canonical", "eliminate")))
        assert paper == [("length", 0), ("range1", 0), ("seq_index", 1),
                         ("range1", 1), ("mul", 2)]
        # the default pipeline's §4.5 pass sees that the first three index
        # V by range1(length(V)) — the identity — and keeps a view of V
        assert self.sqs1_calls(TransformOptions()) == [
            ("__iter", 0), ("range1", 1), ("mul", 2)]

    def test_no_iterators_remain(self, prog):
        from repro.lang.types import INT
        _mono, tp = prog.prepare("main", (INT,))
        for d in tp.defs.values():
            assert not A.contains_iterator(d.body)

    def test_generated_c(self, prog):
        c = prog.emit_c("main", ["int"])
        assert "cvl_extract(" in c and "cvl_insert(" in c  # T1 on mul^2
        assert "cvl_mul_1(" in c
        assert "sqs_ext1" in c

    def test_trace_is_printable(self, prog):
        from repro.lang.types import INT
        _mono, tp = prog.prepare("main", (INT,))
        text = str(tp.trace)
        assert "{R0}" in text or "R0" in text


def test_bench_full_derivation(benchmark):
    """Time to replay the paper's entire section-5 derivation."""
    def go():
        p = compile_program(SRC, options=TransformOptions(trace=True))
        return p.run("main", [5])
    assert benchmark(go) == EXPECTED


def test_bench_transformed_execution(benchmark, prog):
    prog.run("main", [5])
    assert benchmark(prog.run, "main", [5]) == EXPECTED
