"""`repro analyze` end to end: the aggregate report, its JSON schema,
the fault-site classification, and the CLI exit codes."""

import json

import pytest

from repro.analysis.report import (
    ANALYSIS_SCHEMA_VERSION, analyze_source, classify_fault_sites,
)
from repro.cli import EXIT_ANALYSIS, EXIT_OK, main
from repro.errors import AnalysisError
from repro.guard import faults as F

SRC = ("fun fact(n) = if n <= 1 then 1 else n * fact(n - 1)\n"
       "fun main(n) = [i <- [1..n]: fact(i)]")


def test_analyze_source_report():
    rep = analyze_source(SRC, "main", [5], file="t.p")
    assert rep.file == "t.p" and rep.entry == "main"
    phases = [p["phase"] for p in rep.phases]
    assert phases[0] == "verify:canonicalize"
    assert "verify:eliminate" in phases
    assert rep.vlint.errors == []
    assert rep.vlint_functions >= 2  # main + fact^1 at least
    assert rep.vlint_instructions > 0


def test_json_schema_and_round_trip(tmp_path):
    rep = analyze_source(SRC, "main", [5])
    out = tmp_path / "analysis.json"
    rep.save(str(out))
    data = json.loads(out.read_text())
    assert data["version"] == ANALYSIS_SCHEMA_VERSION
    assert data["shapes"]["static_sites"] + data["shapes"]["runtime_sites"] \
        == sum(len(d["sites"]) for d in data["shapes"]["defs"].values())
    assert sorted(data["shapes"]["discharged"]) == data["shapes"]["discharged"]
    assert data["vlint"]["errors"] == []
    assert set(data["fault_sites"]) == set(F.FAULT_SITES)


def test_every_fault_site_is_classified():
    """Acceptance criterion: all fault-injection sites are either caught
    statically or explicitly flagged runtime-only."""
    sites = classify_fault_sites()
    assert set(sites) == set(F.FAULT_SITES)
    static = {s for s, v in sites.items()
              if v["classification"] == "static"}
    runtime = {s for s, v in sites.items()
               if v["classification"] == "runtime-only"}
    assert static == {"transform.R2d.drop-guard", "transform.R2c.depth-bump"}
    assert len(runtime) == 14
    for v in sites.values():
        assert v["caught_by"]


def test_render_mentions_all_three_passes():
    text = analyze_source(SRC, "main", [5]).render()
    assert "verifier:" in text
    assert "shapes:" in text
    assert "vlint:" in text
    assert "fault sites:" in text


def test_analyze_source_propagates_verifier_failure():
    with F.injecting("transform.R2c.depth-bump", seed=0):
        with pytest.raises(AnalysisError):
            analyze_source(SRC, "main", [5])


def test_cli_analyze_writes_json(tmp_path, capsys):
    src_file = tmp_path / "p.p"
    src_file.write_text(SRC)
    out = tmp_path / "analysis.json"
    rc = main(["analyze", str(src_file), "-e", "main", "-a", "5",
               "-o", str(out)])
    captured = capsys.readouterr()
    assert rc == EXIT_OK
    assert "verifier:" in captured.out
    assert json.loads(out.read_text())["entry"] == "main"


def test_cli_analyze_no_write(tmp_path, capsys):
    src_file = tmp_path / "p.p"
    src_file.write_text(SRC)
    rc = main(["analyze", str(src_file), "-a", "3", "--no-write"])
    capsys.readouterr()
    assert rc == EXIT_OK
    assert not (tmp_path / "analysis.json").exists()


def test_cli_analyze_defaults_from_example_script(tmp_path, capsys):
    rc = main(["analyze", "examples/quicksort.py", "--no-write"])
    captured = capsys.readouterr()
    assert rc == EXIT_OK
    assert "entry qsort" in captured.out


def test_cli_exit_code_six_on_analysis_error(tmp_path, capsys):
    src_file = tmp_path / "p.p"
    src_file.write_text(SRC)
    with F.injecting("transform.R2d.drop-guard", seed=0):
        rc = main(["analyze", str(src_file), "-a", "4", "--no-write"])
    captured = capsys.readouterr()
    assert rc == EXIT_ANALYSIS
    assert "analysis error" in captured.err
    assert "verify:eliminate" in captured.err
