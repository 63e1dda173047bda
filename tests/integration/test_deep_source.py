"""Deeply nested *source*: the front end recurses once per nesting level
(parser, canonicalization, type checking, transformation), so it runs
under the same scoped recursion limit as execution does.  A 1,000-binding
``let`` chain and 1,000 nested parentheses compile and answer on every
back end, and at the command line."""

import sys

import pytest

from repro import compile_program
from repro.fuzz.differ import ALL_BACKENDS, lane_call
from repro.cli import main
from repro.guard import runtime as guard_runtime

N = 1000

LET_CHAIN = ("fun f(x) = "
             + " ".join(f"let a{i} = {f'a{i - 1}' if i else 'x'} + 1 in"
                        for i in range(N))
             + f" a{N - 1}\n")
PARENS = "fun f(x) = " + "(" * N + "x" + " + 1)" * N + "\n"


@pytest.mark.parametrize("src", [LET_CHAIN, PARENS], ids=["let", "parens"])
def test_deep_source_answers_on_every_backend(src):
    prog = compile_program(src)
    for lane in ALL_BACKENDS:
        backend, threads = lane_call(lane)
        assert prog.run("f", [1], backend=backend,
                        threads=threads) == N + 1, lane


@pytest.mark.parametrize("src", [LET_CHAIN, PARENS], ids=["let", "parens"])
def test_cli_runs_deep_source(tmp_path, capsys, src):
    path = tmp_path / "deep.p"
    path.write_text(src)
    assert main(["run", str(path), "-e", "f", "-a", "1"]) == 0
    assert capsys.readouterr().out.strip() == str(N + 1)


def test_limit_is_restored_and_warm_bind_takes_no_scope(monkeypatch):
    base = sys.getrecursionlimit()
    prog = compile_program(LET_CHAIN)
    assert sys.getrecursionlimit() == base
    scopes = []
    real = guard_runtime.scoped_recursion_limit

    def counting(limit):
        scopes.append(limit)
        return real(limit)

    monkeypatch.setattr(guard_runtime, "scoped_recursion_limit", counting)
    prog.predict("f", [1])          # cold: certificate under the scope
    assert scopes
    scopes.clear()
    prog.predict("f", [1])          # warm: one lookup, no scope
    assert scopes == []
    assert sys.getrecursionlimit() == base
