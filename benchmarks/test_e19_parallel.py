"""E19 (extension) — true multicore execution of flat vector code.

Acceptance battery for the ``repro.parallel`` backend benchmark:

* results bit-identical to the serial back ends at every measured
  thread count (asserted on every machine — determinism does not need
  cores);
* >= 1.7x wall-time speedup at 4 threads over the fastest serial path
  on the >= 1M-element segmented-reduction workload (asserted only on
  machines with >= 4 CPUs; recorded as an honest skip otherwise);
* the machine-readable ``benchmarks/BENCH_E19.json`` record (archived
  by the CI ``parallel-smoke`` job) is complete either way.
"""

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

CPUS = os.cpu_count() or 1


@pytest.fixture(scope="module")
def record():
    from make_report import e19
    return e19()


def test_bit_identical_everywhere(record):
    """Determinism is asserted unconditionally — a 1-CPU machine still
    runs all four thread counts, just without speedup."""
    assert record["bit_identical"] is True
    for threads, lane in record["threads"].items():
        assert lane["bit_identical"], f"{threads} threads diverged"


def test_record_is_complete(record):
    assert record["experiment"] == "E19"
    assert record["elements"] >= 1_000_000
    assert set(record["threads"]) == {1, 2, 4, 8}
    for lane in record["threads"].values():
        assert lane["ms"] > 0 and lane["speedup"] > 0
        assert lane["predicted_speedup"] > 0
    path = Path(__file__).resolve().parent / "BENCH_E19.json"
    assert path.is_file()


def test_honest_skip_on_small_machines(record):
    """Below 4 CPUs the speedup target is recorded as skipped — never as
    met or missed."""
    if CPUS >= 4:
        assert record["skipped_reason"] is None
    else:
        assert record["met"] is None
        assert record["skipped_reason"]


@pytest.mark.skipif(CPUS < 4, reason=f"need >= 4 CPUs, have {CPUS}")
def test_speedup_at_least_1_7x_at_4_threads(record):
    lane = record["threads"][4]
    assert lane["speedup"] >= 1.7, \
        f"4-thread speedup {lane['speedup']:.2f}x < 1.7x " \
        f"(serial {record['serial_ms']}ms, parallel {lane['ms']}ms)"


@pytest.mark.skipif(CPUS < 2, reason=f"need >= 2 CPUs, have {CPUS}")
def test_two_threads_beat_one(record):
    """With real cores, 2 threads must not be slower than the 1-thread
    lane — the serial native engine — by more than measurement noise."""
    t1 = record["threads"][1]["ms"]
    t2 = record["threads"][2]["ms"]
    assert t2 <= t1 * 1.10, f"2 threads ({t2}ms) slower than 1 ({t1}ms)"
