"""Pool workers share the CPUs: each caps its kernel calls at its share
(``default_threads() // workers``), so a pool of N never runs N teams of
every-CPU threads.  An in-process executor's dispatchers are threads of
one process and keep the process's cap."""

import multiprocessing as mp
import os
import pickle
import threading

import pytest

from repro.native import engine as NE
from repro.serve import BatchExecutor, PoolConfig, ServeConfig
from repro.serve.pool import _worker_main


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.delenv("REPRO_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    NE.set_default_threads(None)
    yield
    NE.set_default_threads(None)


def test_a_two_worker_pools_worker_caps_at_one_of_two_cpus(two_cpus):
    """``_worker_main`` driven over a pipe in this process: it answers
    ``ready``, and a stop frame ends it, by which time its cap is set."""
    assert NE.default_threads() == 2
    parent, child = mp.Pipe()
    worker = threading.Thread(target=_worker_main,
                              args=(0, 0, child, PoolConfig(workers=2)))
    worker.start()
    try:
        assert pickle.loads(parent.recv_bytes())[0] == "ready"
        assert NE.default_threads() == 1
    finally:
        parent.send_bytes(b"")          # the empty frame is stop
        worker.join(timeout=30)
    assert not worker.is_alive()


def test_in_process_dispatchers_keep_every_cpu(two_cpus):
    with BatchExecutor(ServeConfig(workers=2)) as ex:
        assert ex.submit("fun main(n) = n + 1", "main", [1]).result(30) == 2
        assert NE.default_threads() == 2
