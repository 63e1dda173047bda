"""Tests for the REPL (driven through injected stdin/stdout) and the
Table-2 update syntax."""

import io

import pytest

from repro import compile_program
from repro.cli import repl


def run_repl(script: str, backend: str = "vector") -> str:
    out = io.StringIO()
    rc = repl(backend=backend, stdin=io.StringIO(script), stdout=out)
    assert rc == 0
    return out.getvalue()


class TestRepl:
    def test_eval_expression(self):
        out = run_repl("1 + 2\n:quit\n")
        assert "3" in out

    def test_definition_then_use(self):
        out = run_repl("fun d(x) = 2 * x\nd(21)\n:quit\n")
        assert "ok" in out and "42" in out

    def test_prelude_available(self):
        out = run_repl("sort([3, 1, 2])\n:quit\n")
        assert "[1, 2, 3]" in out

    def test_defs_listing(self):
        out = run_repl("fun d(x) = x\n:defs\n:quit\n")
        assert "fun d(x) = x" in out

    def test_transform_command(self):
        out = run_repl("fun s(n) = [i <- [1..n]: i*i]\n:transform s\n:quit\n")
        assert "range1" in out and "mul^1" in out

    def test_backend_switch(self):
        out = run_repl(":backend interp\n7 * 6\n:quit\n")
        assert "back end: interp" in out and "42" in out

    def test_bad_backend(self):
        out = run_repl(":backend gpu\n:quit\n")
        assert "unknown backend 'gpu'" in out

    def test_error_recovery(self):
        out = run_repl("nosuchvar\n1 + 1\n:quit\n")
        assert "error" in out and "2" in out

    def test_bad_definition_rejected_and_not_kept(self):
        out = run_repl("fun bad(x) = y\nfun good(x) = x\ngood(5)\n:quit\n")
        assert "error" in out and "5" in out

    def test_eof_exits(self):
        assert run_repl("1 + 1\n")  # no :quit — EOF ends cleanly

    def test_help(self):
        out = run_repl(":help\n:quit\n")
        assert ":transform" in out

    def test_unknown_transform_target(self):
        out = run_repl(":transform nosuch\n:quit\n")
        assert "no such function" in out


class TestUpdateSyntax:
    def test_shallow(self):
        p = compile_program("fun f(v) = (v; [2]: 99)")
        assert p.run_all("f", [[1, 2, 3]]) == [1, 99, 3]

    def test_deep_two_levels(self):
        p = compile_program("fun f(m: seq(seq(int))) = (m; [1][2]: 99)")
        assert p.run_all("f", [[[1, 2], [3]]]) == [[1, 99], [3]]

    def test_deep_three_levels(self):
        p = compile_program(
            "fun f(m: seq(seq(seq(int)))) = (m; [2][1][1]: 0)")
        assert p.run_all("f", [[[[5]], [[6], [7, 8]]]]) == [[[5]], [[0], [7, 8]]]

    def test_inside_iterator(self):
        p = compile_program("fun f(vv: seq(seq(int))) = [v <- vv: (v; [1]: 0)]")
        assert p.run_all("f", [[[1, 2], [3]]]) == [[0, 2], [0]]

    def test_source_evaluated_once(self):
        # the deep desugaring binds the source; a nested index expression
        # with an effect-free but observable cost still behaves correctly
        p = compile_program(
            "fun f(m: seq(seq(int)), i) = (m; [i][i]: 7)")
        assert p.run_all("f", [[[1, 2], [3, 4]], 2]) == [[1, 2], [3, 7]]

    def test_update_index_errors(self):
        from repro import ReproError
        p = compile_program("fun f(v) = (v; [9]: 0)")
        with pytest.raises(ReproError):
            p.run("f", [[1]])

    def test_paper_notation_roundtrip(self):
        # mixing update syntax with other postfix forms parses cleanly
        p = compile_program(
            "fun f(v) = (v; [1]: v[2] + 1)")
        assert p.run_all("f", [[10, 20]]) == [21, 20]
