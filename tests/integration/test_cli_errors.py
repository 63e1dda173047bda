"""Unified CLI error handling: one-line diagnostics, documented exit
codes, never a raw traceback (docs/RELIABILITY.md)."""

import pytest

import repro.cli as cli
from repro.cli import (
    EXIT_DISAGREE, EXIT_ERROR, EXIT_INVARIANT, EXIT_OK, EXIT_RESOURCE, main,
)
from repro.errors import EvalError, InvariantError, ResourceLimitError

SRC = """
fun qsort(v) =
  if #v <= 1 then v
  else let p = v[1 + #v / 2] in
    concat(concat(qsort([x <- v | x < p: x]),
                  [x <- v | x == p: x]),
           qsort([x <- v | x > p: x]))
fun main(n) = qsort([i <- [1..n]: (i * i) mod 19])
fun loop(v) = if #v == 0 then v else loop(v)
fun hang(n) = loop([1..n])
"""


@pytest.fixture()
def demo(tmp_path):
    p = tmp_path / "demo.p"
    p.write_text(SRC)
    return str(p)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


class TestExitCodes:
    def test_success(self, demo, capsys):
        rc, out, err = run_cli(capsys, "run", demo, "-a", "8")
        assert rc == EXIT_OK and err == ""

    def test_runtime_error_is_one_line(self, demo, capsys):
        rc, out, err = run_cli(capsys, "run", demo, "-e", "nosuch", "-a", "1")
        assert rc == EXIT_ERROR
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_resource_limit_exit_3(self, demo, capsys):
        rc, out, err = run_cli(capsys, "run", demo, "-e", "hang", "-a", "5",
                               "--max-depth", "50")
        assert rc == EXIT_RESOURCE
        assert err.startswith("resource limit:")
        assert "non-shrinking" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ("--passes", "canonical,frobnicate"),
        ("--print-ir-after", "bogus"),
        ("--passes", "canonical,eliminate", "--print-ir-after", "fuse"),
    ], ids=["unknown-pass", "dump-unknown-pass", "dump-unlisted-pass"])
    def test_bad_pipeline_flags_exit_1(self, demo, capsys, flags):
        with pytest.raises(SystemExit) as ei:
            main(["run", demo, "-a", "8", *flags])
        msg = ei.value.code   # a message: the interpreter exits 1
        assert isinstance(msg, str) and msg.startswith("error:")
        assert len(msg.splitlines()) == 1
        assert capsys.readouterr().out == ""

    def test_usage_error_exit_2(self, demo, capsys):
        """A back end ``backend_row`` refuses (the retired ``vcode`` and
        ``parallel`` too) exits 2 with the one line ``run()`` raises."""
        from repro.api import backend_row
        for name in ("bogus", "vcode", "parallel"):
            with pytest.raises(ValueError) as want:
                backend_row(name)
            with pytest.raises(SystemExit) as ei:
                main(["run", demo, "--backend", name])
            assert ei.value.code == 2
            assert capsys.readouterr().err == f"error: {want.value}\n"

    def test_invariant_maps_to_exit_4(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_dispatch", lambda ns: (_ for _ in ()).throw(
            InvariantError("kernel:concat", "boom")))
        rc, out, err = run_cli(capsys, "eval", "1")
        assert rc == EXIT_INVARIANT
        assert err.startswith("invariant violation:")
        assert "kernel:concat" in err

    def test_resource_error_order_beats_reproerror(self, monkeypatch, capsys):
        # ResourceLimitError is a ReproError; the reporter must still
        # classify it as exit 3, not the generic 1
        monkeypatch.setattr(cli, "_dispatch", lambda ns: (_ for _ in ()).throw(
            ResourceLimitError("steps", 11, 10, stage="vm:f")))
        rc, _out, err = run_cli(capsys, "eval", "1")
        assert rc == EXIT_RESOURCE

    def test_recursionerror_reported_not_raised(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_dispatch",
                            lambda ns: (_ for _ in ()).throw(RecursionError()))
        rc, _out, err = run_cli(capsys, "eval", "1")
        assert rc == EXIT_ERROR
        assert "--max-depth" in err

    def test_plain_reproerror_exit_1(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_dispatch", lambda ns: (_ for _ in ()).throw(
            EvalError("division by zero")))
        rc, _out, err = run_cli(capsys, "eval", "1 / 0")
        assert rc == EXIT_ERROR


class TestCheckCommand:
    def test_agreement_exit_0(self, demo, capsys):
        rc, out, err = run_cli(capsys, "check", demo, "-a", "10")
        assert rc == EXIT_OK
        assert "back ends agree" in out

    def test_disagreement_exit_5(self, demo, capsys, monkeypatch):
        from repro.api import CompiledProgram
        real = CompiledProgram.run

        def skew(self, fname, args, backend="vector", *a, **kw):
            v = real(self, fname, args, backend, *a, **kw)
            return v + [0] if backend == "native" else v
        monkeypatch.setattr(CompiledProgram, "run", skew)
        rc, out, err = run_cli(capsys, "check", demo, "-a", "4")
        assert rc == EXIT_DISAGREE
        assert "DISAGREE" in err


class TestGuardFlags:
    def test_check_flag_runs_clean(self, demo, capsys):
        rc, out, _ = run_cli(capsys, "run", demo, "-a", "6", "--check")
        assert rc == EXIT_OK

    def test_eval_with_budget(self, capsys):
        rc, _out, err = run_cli(capsys, "eval",
                                "sum([i <- [1..4000]: i])", "--max-elements",
                                "100")
        assert rc == EXIT_RESOURCE

    def test_simulate_with_check(self, demo, capsys):
        rc, out, _ = run_cli(capsys, "simulate", demo, "-a", "6",
                             "--check", "-p", "4")
        assert rc == EXIT_OK

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["--help"])
        assert ei.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes:" in out
        assert "back ends disagree" in out


class TestFuzzCommand:
    def test_fuzz_smoke_exit_0(self, capsys):
        rc, out, err = run_cli(capsys, "fuzz", "--seed", "0", "--count", "5",
                               "--quiet")
        assert rc == EXIT_OK
        assert "5 programs, 5 agreed" in out
