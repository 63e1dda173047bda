"""The ``repro serve`` JSONL protocol, driven in-process through
injectable streams (no subprocess needed, except where the test is about
when a response reaches a client that is still holding stdin open)."""

import io
import json
import os
import queue
import subprocess
import sys
import threading

import pytest

from repro.cli import EXIT_CRASH, EXIT_ERROR, EXIT_OK, EXIT_USAGE, main, serve
from repro.errors import WorkerCrashError

SRC = "fun main(n) = [i <- [1..n]: i * i]"


def run_serve(requests, default_source=None, **kw):
    lines = "\n".join(json.dumps(r) if isinstance(r, dict) else r
                      for r in requests)
    out, err = io.StringIO(), io.StringIO()
    rc = serve(default_source=default_source,
               stdin=io.StringIO(lines + "\n"), stdout=out, stderr=err, **kw)
    responses = [json.loads(line) for line in out.getvalue().splitlines()]
    return rc, responses, err.getvalue()


class TestProtocol:
    def test_single_request(self):
        rc, resp, _ = run_serve(
            [{"id": 1, "source": SRC, "fname": "main", "args": [3]}])
        assert rc == EXIT_OK
        assert resp == [{"id": 1, "ok": True, "result": [1, 4, 9]}]

    def test_responses_in_request_order(self):
        reqs = [{"id": k, "source": SRC, "args": [k]} for k in range(1, 9)]
        rc, resp, _ = run_serve(reqs)
        assert rc == EXIT_OK
        assert [r["id"] for r in resp] == list(range(1, 9))
        assert resp[-1]["result"] == [k * k for k in range(1, 9)]

    def test_default_source_from_file_argument(self):
        rc, resp, _ = run_serve([{"id": 0, "args": [2]}], default_source=SRC)
        assert rc == EXIT_OK and resp[0]["result"] == [1, 4]

    def test_missing_source_is_a_request_error(self):
        rc, resp, _ = run_serve([{"id": 0, "args": [2]}])
        assert rc == EXIT_ERROR
        assert resp[0]["ok"] is False and resp[0]["kind"] == "error"
        assert "source" in resp[0]["error"]

    def test_unknown_backend_is_a_request_error_and_serving_goes_on(self):
        from repro.api import backend_row
        rc, resp, _ = run_serve(
            [{"id": 1, "source": SRC, "args": [2], "backend": "bogus"},
             {"id": 2, "source": SRC, "args": [2], "backend": "parallel"},
             {"id": 3, "source": SRC, "args": [2], "backend": "native"}])
        assert rc == EXIT_ERROR
        assert resp[0]["ok"] is False and resp[0]["kind"] == "error"
        assert "unknown backend 'bogus'" in resp[0]["error"]
        with pytest.raises(ValueError) as want:   # naming its replacement
            backend_row("parallel")
        assert (resp[1]["ok"], resp[1]["error"]) == (False, str(want.value))
        assert resp[2] == {"id": 3, "ok": True, "result": [1, 4]}

    def test_bad_json_line_is_a_request_error(self):
        rc, resp, _ = run_serve(["{not json"])
        assert rc == EXIT_ERROR
        assert resp[0]["id"] is None and resp[0]["ok"] is False

    def test_blank_lines_ignored(self):
        rc, resp, _ = run_serve(
            ["", json.dumps({"id": 7, "source": SRC, "args": [1]}), "   "])
        assert rc == EXIT_OK and len(resp) == 1 and resp[0]["id"] == 7

    def test_per_request_backend_and_types(self):
        src = "fun main(s) = sum(s)"
        rc, resp, _ = run_serve(
            [{"id": 0, "source": src, "args": [[]],
              "types": ["seq(int)"], "backend": "interp"},
             {"id": 1, "source": src, "args": [[2, 3]],
              "types": ["seq(int)"], "backend": "native"}])
        assert rc == EXIT_OK
        assert [r["result"] for r in resp] == [0, 5]


class TestErrorKinds:
    def test_compile_error_kind(self):
        rc, resp, _ = run_serve(
            [{"id": 0, "source": "fun main( = broken", "args": []}])
        assert rc == EXIT_ERROR
        assert resp[0]["kind"] == "error"

    def test_resource_kind_and_isolation(self):
        """A budgeted request breaches alone; its neighbours succeed and
        the exit code still reports the failure."""
        reqs = [{"id": 0, "source": SRC, "args": [3]},
                {"id": 1, "source": SRC, "args": [500], "max_steps": 1},
                {"id": 2, "source": SRC, "args": [2]}]
        rc, resp, _ = run_serve(reqs)
        assert rc == EXIT_ERROR
        assert resp[0]["ok"] and resp[0]["result"] == [1, 4, 9]
        assert not resp[1]["ok"] and resp[1]["kind"] == "resource"
        assert resp[2]["ok"] and resp[2]["result"] == [1, 4]

    def test_deadline_expired_kind(self):
        rc, resp, _ = run_serve(
            [{"id": 0, "source": SRC, "args": [3], "deadline_s": -1}])
        assert rc == EXIT_ERROR
        assert resp[0]["kind"] == "resource"
        assert "timeout" in resp[0]["error"]


class TestStatsAndBatching:
    def test_stats_line_reports_batching_and_hit_rate(self):
        reqs = [{"id": k, "source": SRC, "args": [k + 1]} for k in range(20)]
        rc, resp, err = run_serve(reqs, stats=True)
        assert rc == EXIT_OK and len(resp) == 20
        assert "serve: 20 requests" in err
        assert "cache hit-rate" in err

    def test_tuple_results_render_as_json_arrays(self):
        src = "fun main(n) = (n, n + 1)"
        rc, resp, _ = run_serve([{"id": 0, "source": src, "args": [4]}])
        assert rc == EXIT_OK and resp[0]["result"] == [4, 5]

    def test_tuple_args_coerced_via_types(self):
        """JSON has no tuples; a declared tuple type turns the incoming
        list into one before it reaches the pipeline."""
        rc, resp, _ = run_serve(
            [{"id": 0, "source": "fun main(p) = p", "args": [[3, 4]],
              "types": ["(int, int)"]}])
        assert rc == EXIT_OK and resp[0]["result"] == [3, 4]


class TestPoolServe:
    """``--pool N``: the same JSONL protocol served by worker processes."""

    def test_pool_happy_path_and_stats_line(self):
        reqs = [{"id": k, "source": SRC, "args": [k + 1]} for k in range(8)]
        rc, resp, err = run_serve(reqs, pool=2, stats=True)
        assert rc == EXIT_OK
        assert [r["result"] for r in resp] == \
            [[i * i for i in range(1, k + 2)] for k in range(8)]
        assert "serve: 8 requests" in err
        assert "healthy" in err and "worker restarts" in err

    def test_pool_chaos_abort_is_crash_kind(self):
        # rate=1 with no retry: the worker dies on the request and the
        # client sees a typed crash, not a hung or dead server
        reqs = [{"id": "victim", "source": SRC, "args": [2]}]
        rc, resp, _ = run_serve(reqs, pool=2, retry=0,
                                chaos="abort:rate=1.0")
        assert rc == EXIT_ERROR
        assert resp[0]["ok"] is False and resp[0]["kind"] == "crash"
        assert "victim" in resp[0]["error"]

    def test_pool_resource_kind_passes_through(self):
        reqs = [{"id": 0, "source": SRC, "args": [500], "max_steps": 1},
                {"id": 1, "source": SRC, "args": [2]}]
        rc, resp, _ = run_serve(reqs, pool=2)
        assert not resp[0]["ok"] and resp[0]["kind"] == "resource"
        assert resp[1]["ok"] and resp[1]["result"] == [1, 4]

    def test_bad_chaos_spec_is_usage_error(self):
        rc, _, err = run_serve([], pool=2, chaos="no-such-site")
        assert rc == EXIT_USAGE and "chaos" in err

    def test_worker_crash_error_maps_to_exit_8(self, monkeypatch, capsys):
        def boom(ns):
            raise WorkerCrashError("exit", worker="w0",
                                   request_ids=("r1",))
        monkeypatch.setattr("repro.cli._dispatch", boom)
        assert main(["passes"]) == EXIT_CRASH
        assert "worker crash" in capsys.readouterr().err


class TestLockStepClient:
    """A client that waits for each response before sending its next
    request: the server must answer while stdin is open and silent."""

    def test_each_response_arrives_before_the_next_request(self):
        src_dir = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (os.path.abspath(src_dir),
                        os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve"], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        lines: queue.Queue = queue.Queue()
        reader = threading.Thread(
            target=lambda: [lines.put(ln) for ln in proc.stdout], daemon=True)
        reader.start()
        try:
            for k in (3, 2, 4):
                proc.stdin.write(json.dumps(
                    {"id": k, "source": SRC, "args": [k]}) + "\n")
                proc.stdin.flush()
                # times out (queue.Empty) on a server that answers only
                # when it reads its next line
                resp = json.loads(lines.get(timeout=60))
                assert resp == {"id": k, "ok": True,
                                "result": [i * i for i in range(1, k + 1)]}
            proc.stdin.close()
            assert proc.wait(timeout=60) == EXIT_OK
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)
            reader.join(timeout=60)
        assert not reader.is_alive() and lines.empty()


class TestMainDispatch:
    def test_serve_subcommand_via_main(self, tmp_path, capsys, monkeypatch):
        f = tmp_path / "p.p"
        f.write_text(SRC)
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps({"id": 1, "args": [3]}) + "\n"))
        rc = main(["serve", str(f)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert json.loads(out.splitlines()[-1])["result"] == [1, 4, 9]
