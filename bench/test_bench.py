"""Tests of the benchmark itself.  Run as ``python -m pytest bench -q``;
tier-1 (``testpaths = ["tests"]``) does not collect this file."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REGISTRY = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in REGISTRY["end_to_end"]}
PER_LAYER = {m["name"] for m in REGISTRY["per_layer"]}
WORKLOADS = [w["name"] for w in REGISTRY["workloads"]]
EXACT = ("vexec.kernel_calls", "vexec.bytes_moved", "transform.ir_defs",
         "transform.ir_chars", "vcode.instructions")

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


@pytest.fixture(scope="module")
def isolated(tmp_path_factory):
    """The run hygiene of ``run.main`` for tests that call the layers in
    this process."""
    scratch = tmp_path_factory.mktemp("bench") / "scratch"
    run.isolate(scratch)
    run.fresh_native_cache(scratch, "tests")
    return scratch


def test_registry_names_are_legal_and_unique():
    names = [m["name"] for m in REGISTRY["end_to_end"] + REGISTRY["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names + WORKLOADS)
    assert len(WORKLOADS) == 6 and "setup_s" in END_TO_END


def test_smoke_run_emits_every_declared_metric_once_per_workload(tmp_path):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seconds", "1",
         "--out", str(out)], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(out.read_text())
    assert list(doc["results"]) == WORKLOADS
    for name, r in doc["results"].items():
        # the probes are the same for every workload and stored once
        assert not set(r["metrics"]) & set(doc["layers"])
        assert set(r["metrics"]) | set(doc["layers"]) == END_TO_END | PER_LAYER
        assert r["correct"] and r["failed_share"] == 0 and r["attempted"] >= 1
        assert set(r["wall"]) >= {"op_ms_p50", "op_ms_p90", "ops_per_s"}
        assert (BENCH / "out" / f"trace-{name}.jsonl").stat().st_size > 0
    # one JSON line per workload closes the output, in the driver's shape
    tail = [json.loads(line)
            for line in proc.stdout.splitlines()[-len(WORKLOADS):]]
    assert all(set(t) == {"correct", "attempted", "failed", "metrics"}
               and set(t["metrics"]) == END_TO_END | PER_LAYER for t in tail)


def test_wrong_oracle_counts_as_failed_and_exits_nonzero(isolated, monkeypatch,
                                                         capsys):
    import workloads
    monkeypatch.setattr(workloads, "chain_formula", lambda x: x + 1)
    status = run.main(["--workload", "api_roundtrip", "--seconds", "1",
                       "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_exact_counts_repeat_for_a_seed_and_keep_their_names(isolated):
    import layers

    def counts(seed):
        got = {**layers.probe_frontend(seed), **layers.probe_vexec(seed)}
        return {k: got[k] for k in EXACT}, set(got)

    first, names = counts(7)
    again, _ = counts(7)
    other, other_names = counts(8)
    assert first == again
    assert other_names == names
    assert other != first           # other programs and keys, same metrics


def test_compare_flags_failed_ops_slow_medians_and_missing_rows(tmp_path, capsys):
    import compare

    def result(name, failed=0, **changed):
        metrics = {m["name"]: {"value": changed.get(m["name"], 10.0)}
                   for m in REGISTRY["end_to_end"]}
        doc = {"results": {"nested_dc": {"attempted": 100, "failed": failed,
                                         "metrics": metrics}}}
        (tmp_path / name).write_text(json.dumps(doc))
        return str(tmp_path / name)

    base = result("base.json")
    assert compare.main([base, result("same.json")]) == 0
    assert compare.main([base, result("slow.json", op_ms_p50=11.5)]) == 1
    assert compare.main([base, result("wrong.json", failed=1)]) == 1
    assert "failed_share" in capsys.readouterr().out
    gone = json.loads(Path(base).read_text())
    del gone["results"]["nested_dc"]["metrics"]["ops_per_s"]
    (tmp_path / "gone.json").write_text(json.dumps(gone))
    assert compare.main([base, str(tmp_path / "gone.json")]) == 2
    gone["results"] = {"flat_kernels": gone["results"]["nested_dc"]}
    (tmp_path / "gone.json").write_text(json.dumps(gone))
    assert compare.main([base, str(tmp_path / "gone.json")]) == 2
