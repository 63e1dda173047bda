"""What a request through the pool costs, as counts rather than times:
how many threads route it, how many messages carry a group across the
process boundary, whom a ``submit`` wakes, and what ``cache_key`` copies.
Each number is one the pool used to get wrong (eight routing threads, a
message per request, every dispatcher woken twice per request, a deep
copy of the default options per key)."""

import os
import pickle
import threading
import time

import pytest

from repro import Profiler, profiling
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
    assert key != cache_key(SRC, TransformOptions(fuse=False))


def slowed_lead():
    """``(chaos, lead, calm)``: a spec under which a worker sleeps 0.2 s
    before the group ``lead`` leads — whatever is submitted once it is in
    flight waits on the shard and leaves as one frame — and ids it does
    not fire for."""
    chaos = ChaosSpec(sites=("pool.worker.slow-compile",), rate=0.5,
                      slow_s=0.2)
    fires = [chaos.fires("pool.worker.slow-compile", f"q{i}")
             for i in range(1000)]
    return (chaos, f"q{fires.index(True)}",
            [f"q{i}" for i, f in enumerate(fires) if not f])


def in_flight(handle, rid) -> None:
    deadline = time.monotonic() + 10
    while rid not in handle.inflight and time.monotonic() < deadline:
        time.sleep(0.005)
    assert rid in handle.inflight


def test_a_frame_carries_every_group_that_was_waiting(monkeypatch):
    # behind the slowed lead wait twelve requests on four other keys:
    # they leave as ONE job frame of four groups, answered by four `done`s
    # (a message per group each way would be five and five)
    chaos, lead, calm = slowed_lead()
    rest = calm[:12]
    keys = [f"fun main(x) = x + {k};" for k in range(4)]
    prof = Profiler()
    with profiling(prof), \
            WorkerPool(PoolConfig(workers=1, native_after=0,
                                  chaos=chaos)) as pool:
        h = pool.handles[0]
        jobs, dones = [], []
        conn, handle_message = h.conn, pool._handle_message

        class Conn:
            """``h.conn`` with the frames the dispatcher writes kept."""

            def send_bytes(self, blob):
                jobs.append(pickle.loads(blob))
                conn.send_bytes(blob)

        def spy(msg):
            if msg[0] == "done":
                dones.append([a[0] for a in msg[3]])
            handle_message(msg)

        monkeypatch.setattr(h, "conn", Conn())
        monkeypatch.setattr(pool, "_handle_message", spy)
        futs = [pool.submit(SRC, "main", [0], request_id=lead)]
        in_flight(h, lead)
        futs += [pool.submit(keys[i % 4], "main", [i], request_id=rid)
                 for i, rid in enumerate(rest)]
        assert [f.result(timeout=60) for f in futs] == \
            [1] + [i + i % 4 for i in range(12)]
        groups = [rest[k::4] for k in range(4)]
        assert [[[rid for rid, _ in job["items"]] for job in frame]
                for frame in jobs] == [[[lead]], groups]
        assert dones == [[lead], *groups]
        s = pool.stats.snapshot()
        assert s["frames"] == 2 and s["batches"] == 4 and s["singles"] == 1
    cell = prof.counters[("serve", "frame")]
    assert (cell.calls, cell.elements, cell.max_frame_len) == (2, 5, 4)


def test_placement_is_hashed_once_per_batch_key(monkeypatch):
    from repro.guard import Budget
    from repro.serve import policy
    hashed = []
    stable_hash = policy.stable_hash

    def counting(key):
        hashed.append(key)
        return stable_hash(key)

    with WorkerPool(PoolConfig(workers=2, native_after=0)) as pool:
        monkeypatch.setattr(policy, "stable_hash", counting)
        futs = [pool.submit(SRC, "main", [k]) for k in range(200)]
        key = (cache_key(SRC, None, True), "main", None, "vector", False)
        assert hashed == [key]               # the source text, hashed once
        budgeted = [pool.submit(SRC, "main", [k], request_id=f"b{k}",
                                budget=Budget(max_elements=10 ** 6))
                    for k in range(5)]
        assert hashed == [key]          # a budget does not change the key
        assert [f.result(timeout=60) for f in futs + budgeted] == \
            [k * k + 1 for k in [*range(200), *range(5)]]


def test_deadline_sweep_is_one_pass_per_queue():
    # 1,000 requests expire on a shard whose worker sits in backoff: one
    # tick fails them all without a single O(n) `deque.remove`, and the
    # requests that have time left keep their order
    from collections import deque

    from repro.errors import ResourceLimitError

    class Pending(deque):
        removes = 0

        def remove(self, value):
            Pending.removes += 1
            super().remove(value)

    key = (cache_key(SRC, None, True), "main", None, "vector", False)
    with WorkerPool(PoolConfig(workers=2, native_after=0, max_queue=2048,
                               supervise_s=60.0)) as pool:
        h = pool.handles[HashRing(2).lookup(key)]
        with pool._lock:
            h.pending = Pending()
        h.proc.kill()                        # EOF: its reader buries it
        deadline = time.monotonic() + 10
        while h.state != "backoff" and time.monotonic() < deadline:
            time.sleep(0.01)
        assert h.state == "backoff"          # and no tick will respawn it
        doomed, kept = [], []
        for k in range(1100):
            if k % 11 == 10:
                kept.append(pool.submit(SRC, "main", [k],
                                        request_id=f"k{k}"))
            else:
                doomed.append(pool.submit(SRC, "main", [k], deadline_s=0.0,
                                          request_id=f"d{k}"))
        pool._supervisor.tick()              # one sweep
        assert all(f.done() for f in doomed) and len(doomed) == 1000
        for f in doomed[::97]:
            e = f.exception(0)
            assert isinstance(e, ResourceLimitError)
            assert e.limit == "timeout" and e.stage == "serve:queue"
        assert Pending.removes == 0 and pool.stats.expired == 1000
        with pool._lock:                     # a worker is 0.1 s from up
            assert [r.rid for r in h.pending] == \
                [f"k{k}" for k in range(10, 1100, 11)]
        time.sleep(0.1)                      # past the respawn backoff
        pool._supervisor.tick()
        assert [f.result(timeout=60) for f in kept] == \
            [k * k + 1 for k in range(10, 1100, 11)]


def test_an_argument_that_cannot_cross_fails_its_own_group_only():
    # a frame is pickled whole; when that fails, group by group
    chaos, lead, calm = slowed_lead()
    with WorkerPool(PoolConfig(workers=1, native_after=0,
                               chaos=chaos)) as pool:
        h = pool.handles[0]
        first = pool.submit(SRC, "main", [0], request_id=lead)
        in_flight(h, lead)
        good = [pool.submit(SRC, "main", [k], request_id=calm[k])
                for k in range(3)]
        bad = [pool.submit("fun main(f) = 1;", "main", [lambda: k],
                           request_id=calm[3 + k]) for k in range(2)]
        more = pool.submit("fun main(x) = x - 1;", "main", [5],
                           request_id=calm[5])
        assert first.result(timeout=60) == 1
        assert [f.result(timeout=60) for f in good] == [1, 2, 5]
        assert more.result(timeout=60) == 4
        for f in bad:
            assert "pickle" in str(f.exception(timeout=60)).lower()
        s = pool.stats.snapshot()
        assert (s["responses"], s["errors"], s["restarts"]) == (5, 2, 0)
        assert s["frames"] == 3              # the lead, and the two that cross
