"""What a request through the pool costs, as counts rather than times:
how many threads route it, how many messages carry a group across the
process boundary, whom a ``submit`` wakes, and what ``cache_key`` copies.
Each number is one the pool used to get wrong (eight routing threads, a
message per request, every dispatcher woken twice per request, a deep
copy of the default options per key)."""

import os
import threading
import time

import pytest

from repro.guard import ChaosSpec
from repro.serve import PoolConfig, WorkerPool
from repro.serve.cache import cache_key
from repro.serve.policy import HashRing
from repro.transform.pipeline import TransformOptions

SRC = "fun main(x) = x * x + 1;"


def test_threads_of_a_two_worker_pool():
    before = set(threading.enumerate())
    with WorkerPool(PoolConfig(workers=2, native_after=0)) as pool:
        assert pool.run_many(SRC, "main", [[k] for k in range(8)]) == \
            [k * k + 1 for k in range(8)]
        names = sorted(t.name for t in set(threading.enumerate()) - before)
        assert names == ["repro-pool-dispatch-0", "repro-pool-dispatch-1",
                         "repro-pool-read-0.1", "repro-pool-read-1.1",
                         "repro-pool-supervisor"]
        for h in pool.handles:              # main thread and heartbeat
            tasks = f"/proc/{h.proc.pid}/task"
            if os.path.isdir(tasks):
                assert len(os.listdir(tasks)) == 2
    assert set(threading.enumerate()) <= before


def test_a_group_crosses_the_boundary_as_two_frames(monkeypatch):
    # the worker sleeps 0.2 s before the leader's group, so whoever was
    # not in it waits on the shard meanwhile and leaves as one group
    chaos = ChaosSpec(sites=("pool.worker.slow-compile",), rate=0.5,
                      slow_s=0.2)
    fires = [chaos.fires("pool.worker.slow-compile", f"q{i}")
             for i in range(1000)]
    lead = f"q{fires.index(True)}"
    rest = [f"q{i}" for i, f in enumerate(fires) if not f][:5]
    with WorkerPool(PoolConfig(workers=1, native_after=0,
                               chaos=chaos)) as pool:
        h = pool.handles[0]
        jobs, dones = [], []
        conn, handle_message = h.conn, pool._handle_message

        class Conn:
            """``h.conn`` with the frames the dispatcher writes counted."""

            def send_bytes(self, blob):
                jobs.append(blob)
                conn.send_bytes(blob)

        def spy(msg):
            if msg[0] == "done":
                dones.append(msg)
            handle_message(msg)

        monkeypatch.setattr(h, "conn", Conn())
        monkeypatch.setattr(pool, "_handle_message", spy)
        futs = [pool.submit(SRC, "main", [k], request_id=rid)
                for k, rid in enumerate([lead, *rest])]
        assert [f.result(timeout=60) for f in futs] == \
            [k * k + 1 for k in range(6)]
        # the leader left alone or with whoever had arrived; the rest in
        # one more group: a frame each way per group, whatever its size
        sizes = [len(d[3]) for d in dones]
        assert len(jobs) == len(dones) <= 2
        assert sum(sizes) == 6 and max(sizes) >= 3
        assert [d[4][0] for d in dones] == sizes
        assert [a[0] for d in dones for a in d[3]] == [lead, *rest]
        s = pool.stats
        assert sum(s.batch_sizes.values()) + s.singles == len(jobs)


def test_submit_wakes_only_its_own_shard(monkeypatch):
    returned: dict = {}
    real_wait = threading.Condition.wait

    def wait(self, timeout=None):
        try:
            return real_wait(self, timeout)
        finally:
            returned[self] = returned.get(self, 0) + 1

    def asleep(handle) -> bool:
        """Its dispatcher is in ``wait`` and nobody has notified it."""
        with pool._lock:
            return len(handle.wake._waiters) == 1

    monkeypatch.setattr(threading.Condition, "wait", wait)
    key = (cache_key(SRC, None, True), "main", None, "vector", False)
    with WorkerPool(PoolConfig(workers=2, native_after=0)) as pool:
        mine = pool.handles[HashRing(2).lookup(key)]
        other = pool.handles[1 - mine.wid]
        deadline = time.monotonic() + 10    # start-up's wake-ups settle
        while not asleep(other) and time.monotonic() < deadline:
            time.sleep(0.01)
        woken = returned.get(other.wake, 0)
        futs = [pool.submit(SRC, "main", [k]) for k in range(200)]
        assert [f.result(timeout=60) for f in futs] == \
            [k * k + 1 for k in range(200)]
        assert returned.get(mine.wake, 0) > 0
        assert asleep(other) and returned.get(other.wake, 0) == woken


def test_default_options_key_is_not_rebuilt(monkeypatch):
    def astuple(obj):
        pytest.fail("cache_key deep-copied the default options")

    with monkeypatch.context() as m:
        m.setattr("repro.serve.cache.astuple", astuple)
        key = cache_key(SRC, None)
    assert key == cache_key(SRC, TransformOptions())
    assert key != cache_key(SRC, TransformOptions(fuse=True))
