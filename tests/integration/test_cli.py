"""Tests for the command-line interface (in-process via repro.cli.main)."""

import pytest

from repro.api import BACKENDS
from repro.cli import main

DEMO = """
fun sqs(n) = [j <- [1..n]: j * j]
fun main(k) = [i <- [1..k]: sqs(i)]
"""


@pytest.fixture()
def demo(tmp_path):
    p = tmp_path / "demo.p"
    p.write_text(DEMO)
    return str(p)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


class TestRun:
    def test_run_default_backend(self, demo, capsys):
        rc, out = run_cli(capsys, "run", demo, "-a", "3")
        assert rc == 0
        assert out.strip() == "[[1], [1, 4], [1, 4, 9]]"

    @pytest.mark.parametrize("backend", list(BACKENDS))
    def test_run_backends(self, demo, capsys, backend):
        rc, out = run_cli(capsys, "run", demo, "-a", "2", "--backend", backend)
        assert rc == 0 and out.strip() == "[[1], [1, 4]]"

    def test_run_named_entry(self, demo, capsys):
        rc, out = run_cli(capsys, "run", demo, "-e", "sqs", "-a", "4")
        assert rc == 0 and out.strip() == "[1, 4, 9, 16]"

    def test_run_list_argument(self, tmp_path, capsys):
        f = tmp_path / "s.p"
        f.write_text("fun main(v) = sort(v)")
        rc, out = run_cli(capsys, "run", str(f), "-a", "[3, 1, 2]")
        assert rc == 0 and out.strip() == "[1, 2, 3]"

    def test_run_with_types(self, tmp_path, capsys):
        f = tmp_path / "s.p"
        f.write_text("fun main(v) = #v")
        rc, out = run_cli(capsys, "run", str(f), "-a", "[]", "-t", "seq(bool)")
        assert rc == 0 and out.strip() == "0"

    def test_bad_literal(self, demo):
        with pytest.raises(SystemExit):
            main(["run", demo, "-a", "not a literal ["])

    def test_missing_file(self):
        with pytest.raises(SystemExit):
            main(["run", "/nonexistent.p", "-a", "1"])

    def test_runtime_error_returns_1(self, tmp_path, capsys):
        f = tmp_path / "e.p"
        f.write_text("fun main(v) = v[99]")
        rc = main(["run", str(f), "-a", "[1]"])
        assert rc == 1


class TestEval:
    def test_eval(self, capsys):
        rc, out = run_cli(capsys, "eval", "sum([1 .. 10])")
        assert rc == 0 and out.strip() == "55"

    def test_eval_interp(self, capsys):
        rc, out = run_cli(capsys, "eval", "reduce(max2, [3, 9, 4])",
                          "--backend", "interp")
        assert rc == 0 and out.strip() == "9"


class TestInspection:
    def test_transform_by_types(self, demo, capsys):
        rc, out = run_cli(capsys, "transform", demo, "-t", "int")
        assert rc == 0
        assert "sqs^1" in out and "range1" in out

    def test_transform_by_args(self, demo, capsys):
        rc, out = run_cli(capsys, "transform", demo, "-a", "3")
        assert rc == 0 and "sqs^1" in out

    def test_emit_c(self, demo, capsys):
        rc, out = run_cli(capsys, "emit-c", demo, "-t", "int")
        assert rc == 0 and '#include "cvl.h"' in out

    def test_trace(self, demo, capsys):
        rc, out = run_cli(capsys, "trace", demo, "-t", "int")
        assert rc == 0 and "R2c" in out

    def test_vcode(self, demo, capsys):
        rc, out = run_cli(capsys, "vcode", demo, "-t", "int")
        assert rc == 0 and "function main" in out and "ret" in out


class TestSimulateAndMeasure:
    def test_simulate(self, demo, capsys):
        rc, out = run_cli(capsys, "simulate", demo, "-a", "10", "-p", "1,8")
        assert rc == 0
        assert "P=1" in out and "P=8" in out and "result:" in out

    def test_measure(self, demo, capsys):
        rc, out = run_cli(capsys, "measure", demo, "-a", "5")
        assert rc == 0
        assert "work=" in out and "span=" in out
