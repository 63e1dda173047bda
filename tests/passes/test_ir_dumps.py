"""Golden-file tests for ``--print-ir-after-all``.

The dumps embed generated names (``t%N`` etc.) whose numbering comes from
a process-global counter, so each case runs the CLI in a *fresh
subprocess* — that makes the output deterministic and also exercises the
real user surface (``repro run ... --print-ir-after-all`` writing labeled
dumps to stderr while the result goes to stdout).

Regenerate after an intentional pipeline change with::

    REGEN_IR_GOLDENS=1 PYTHONPATH=src python -m pytest tests/passes/test_ir_dumps.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.passes.manager import dump_header
from repro.transform.pipeline import DEFAULT_PASSES

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]

CASES = [
    # (golden stem, cli args, expected stdout)
    ("sqs", ["run", str(HERE / "data" / "sqs.p"), "-e", "main", "-a", "3"],
     "[[1], [1, 4], [1, 4, 9]]"),
    ("dotp", ["run", str(HERE / "data" / "dotp.p"), "-e", "dotp",
              "-a", "[1,2,3]", "-a", "[4,5,6]"],
     "32"),
    ("filtered", ["run", str(HERE / "data" / "filtered.p"), "-e", "f",
                  "-a", "[1,5,9]", "-a", "[2,4,6]"],
     "[[7, 9, 11], [11, 13, 15]]"),
]


def run_cli(args):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", *args, "--print-ir-after-all"],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=120)


@pytest.mark.parametrize("stem,args,expect_out",
                         [c for c in CASES], ids=[c[0] for c in CASES])
def test_ir_dump_golden(stem, args, expect_out):
    proc = run_cli(args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expect_out
    golden = HERE / "golden" / f"{stem}.ir-dumps.txt"
    if os.environ.get("REGEN_IR_GOLDENS"):
        golden.write_text(proc.stderr)
    assert golden.exists(), f"missing golden {golden}; regenerate with " \
                            "REGEN_IR_GOLDENS=1"
    assert proc.stderr == golden.read_text()


def test_one_dump_per_registered_pass():
    """--print-ir-after-all emits exactly one labeled dump per pass of
    the pipeline, in pipeline order (the acceptance criterion)."""
    proc = run_cli(CASES[0][1])
    headers = [ln for ln in proc.stderr.splitlines()
               if ln.startswith("// -----//")]
    assert headers == [dump_header(name) for name in DEFAULT_PASSES]


def test_print_ir_after_single_pass():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *CASES[0][1],
         "--print-ir-after", "simplify"],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=120)
    assert proc.returncode == 0, proc.stderr
    headers = [ln for ln in proc.stderr.splitlines()
               if ln.startswith("// -----//")]
    assert headers == [dump_header("simplify")]
