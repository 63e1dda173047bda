"""The ``repro profile`` subcommand, ``--profile`` flags, and the
profile.json schema contract (in-process via repro.cli.main)."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import SCHEMA_VERSION, validate_profile

REPO_ROOT = Path(__file__).resolve().parents[2]

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


class TestProfileCommand:
    def test_profile_prints_table_and_writes_json(self, demo, capsys,
                                                  tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, out = run_cli(capsys, "profile", demo, "-e", "main", "-a", "4")
        assert rc == 0
        assert "result: [[1], [1, 4], [1, 4, 9], [1, 4, 9, 16]]" in out
        assert "vector-model kernels" in out
        assert "phases:" in out
        assert "totals:" in out
        assert "wrote profile.json" in out
        doc = json.loads((tmp_path / "profile.json").read_text())
        assert validate_profile(doc) == []

    def test_profile_json_contents(self, demo, capsys, tmp_path):
        out_path = tmp_path / "p.json"
        rc, _ = run_cli(capsys, "profile", demo, "-e", "main", "-a", "4",
                        "-o", str(out_path))
        assert rc == 0
        doc = json.loads(out_path.read_text())
        assert doc["version"] == SCHEMA_VERSION
        assert doc["meta"]["entry"] == "main"
        assert doc["meta"]["backend"] == "vector"
        span_names = [s["name"] for s in doc["spans"]]
        assert "parse" in span_names and "transform" in span_names
        kernel = [c for c in doc["counters"] if c["layer"] == "kernel"]
        assert doc["totals"]["vector_ops"] == sum(c["calls"] for c in kernel)

    def test_no_write_flag(self, demo, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, out = run_cli(capsys, "profile", demo, "-e", "main", "-a", "3",
                          "--no-write")
        assert rc == 0
        assert "wrote" not in out
        assert not (tmp_path / "profile.json").exists()

    def test_vcode_backend(self, demo, capsys):
        """The VCODE VM's table comes from the traced run, ``repro
        simulate --profile``; ``vcode`` is no back end to profile."""
        rc, out = run_cli(capsys, "simulate", demo, "-e", "main", "-a", "3",
                          "-p", "4", "--profile")
        assert rc == 0
        assert "VCODE VM" in out
        with pytest.raises(SystemExit) as ei:
            main(["profile", demo, "-a", "3", "--backend", "vcode",
                  "--no-write"])
        assert ei.value.code == 2

    def test_default_entry_is_main(self, demo, capsys):
        rc, out = run_cli(capsys, "profile", demo, "-a", "3", "--no-write")
        assert rc == 0
        assert "entry=main" in out


class TestExampleDrivers:
    """``repro profile examples/<name>.py`` — the SOURCE/PROFILE_* path."""

    def test_quicksort_example(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, out = run_cli(
            capsys, "profile", str(REPO_ROOT / "examples" / "quicksort.py"))
        assert rc == 0
        assert "entry=qsort" in out
        assert "vector-model kernels" in out
        # every iterator of the recursion ranges over a sequence, so each
        # one opens with a view: the §4.5 gathers (and the iotas that fed
        # them) run as no kernel at all
        assert "seq_index_segshared" not in out
        assert "range1" not in out
        assert "restrict" in out and "concat" in out
        doc = json.loads((tmp_path / "profile.json").read_text())
        assert validate_profile(doc) == []

    def test_every_example_declares_profile_defaults(self):
        import ast
        for py in sorted((REPO_ROOT / "examples").glob("*.py")):
            names = {t.targets[0].id
                     for t in ast.parse(py.read_text()).body
                     if isinstance(t, ast.Assign) and len(t.targets) == 1
                     and isinstance(t.targets[0], ast.Name)}
            assert {"SOURCE", "PROFILE_ENTRY", "PROFILE_ARGS"} <= names, \
                f"{py.name} missing profile defaults"

    def test_py_file_without_source_rejected(self, tmp_path):
        f = tmp_path / "noprofile.py"
        f.write_text("x = 1\n")
        with pytest.raises(SystemExit):
            main(["profile", str(f)])


class TestProfileFlags:
    def test_run_profile_flag(self, demo, capsys):
        rc, out = run_cli(capsys, "run", demo, "-a", "3", "--profile")
        assert rc == 0
        assert out.startswith("[[1], [1, 4], [1, 4, 9]]")
        assert "vector-model kernels" in out

    def test_run_without_flag_has_no_table(self, demo, capsys):
        rc, out = run_cli(capsys, "run", demo, "-a", "3")
        assert rc == 0
        assert "vector-model kernels" not in out

    def test_simulate_profile_flag(self, demo, capsys):
        rc, out = run_cli(capsys, "simulate", demo, "-a", "3", "--profile")
        assert rc == 0
        assert "VCODE VM" in out


class TestValidator:
    def _valid_doc(self, demo_src=DEMO):
        from repro import compile_program
        _r, rep = compile_program(demo_src).profile("main", [3])
        return json.loads(rep.to_json())

    def test_valid_document_passes(self):
        assert validate_profile(self._valid_doc()) == []

    def test_rejects_wrong_version(self):
        doc = self._valid_doc()
        doc["version"] = 99
        assert any("version" in e for e in validate_profile(doc))

    def test_rejects_inconsistent_totals(self):
        doc = self._valid_doc()
        doc["totals"]["vector_ops"] += 1
        assert any("vector_ops" in e for e in validate_profile(doc))

    def test_rejects_unknown_layer(self):
        doc = self._valid_doc()
        doc["counters"][0]["layer"] = "mystery"
        assert any("layer" in e for e in validate_profile(doc))

    def test_rejects_non_object(self):
        assert validate_profile([1, 2]) != []
