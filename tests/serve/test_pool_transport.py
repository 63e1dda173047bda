"""The pool's transport — one pipe per worker generation, one reader
thread blocked on it — against real processes and no chaos spec: a
worker's death is end-of-file on its pipe (noticed at once, not at the
supervisor's next tick), bytes that are no message are a worker failure
and never an exception in the reader, frames bigger than any pipe buffer
pass in both directions, and what arrives late on a dead generation's
connection changes nothing.  The seeded form of a death mid-frame is the
``pool.worker.torn-response`` site (tests/guard/test_process_faults.py)."""

import multiprocessing as mp
import os
import pickle
import signal
import time
import zlib

from repro.errors import WorkerCrashError
from repro.serve import PoolConfig, WorkerPool

SRC = "fun main(x) = x * x + 1;"
#: seconds of scalar recursion: in flight for as long as a test needs
FIB = ("fun fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2)\n"
       "fun main(n) = fib(n)")


def quick(**kw) -> PoolConfig:
    kw.setdefault("workers", 1)
    kw.setdefault("native_after", 0)
    kw.setdefault("retry", None)
    kw.setdefault("respawn_backoff_s", 0.05)
    return PoolConfig(**kw)


def wait_up(pool, timeout=20.0) -> bool:
    deadline = time.monotonic() + timeout
    while pool.healthy_workers() < len(pool.handles):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


def test_sigkill_is_noticed_by_eof_not_by_the_tick():
    # the supervisor sleeps five seconds between looks: whatever fails
    # the victim inside two was the reader seeing the pipe close
    with WorkerPool(quick(supervise_s=5.0)) as pool:
        h = pool.handles[0]
        fut = pool.submit(FIB, "main", [27], request_id="victim")
        deadline = time.monotonic() + 10
        while not h.inflight and time.monotonic() < deadline:
            time.sleep(0.01)
        assert "victim" in h.inflight
        t0 = time.monotonic()
        os.kill(h.proc.pid, signal.SIGKILL)
        e = fut.exception(timeout=10)
        assert time.monotonic() - t0 < 2.0
        assert isinstance(e, WorkerCrashError) and e.reason == "exit"
        assert e.request_ids == ("victim",)
        assert f"exit code {-signal.SIGKILL}" in e.detail
        assert pool.stats.crashes == {"exit": 1}
        time.sleep(0.1)                     # past the respawn backoff
        pool._supervisor.tick()             # not waiting five seconds for it
        assert wait_up(pool)
        assert pool.submit(SRC, "main", [3]).result(timeout=60) == 10


def test_garbage_on_the_pipe_is_one_worker_failure():
    with WorkerPool(quick()) as pool:
        h = pool.handles[0]
        ours, theirs = mp.Pipe()
        with theirs:        # stays open: the garbage ends the reader, not EOF
            theirs.send_bytes(b"\x80\x05 not a pickle of anything")
            pool._read(h, h.generation, ours)       # returns, does not raise
        assert ours.closed
        assert pool.stats.restarts == 1
        assert pool.stats.crashes == {"exit": 1}
        assert wait_up(pool)
        # the slot's real reader then met EOF on a handle already buried:
        # the incident was counted once
        assert pool.stats.restarts == 1
        assert pool.submit(SRC, "main", [3]).result(timeout=60) == 10


def test_frames_bigger_than_the_pipe_buffer_round_trip():
    s = list(range(600_000))
    assert len(pickle.dumps(s)) > 2 << 20
    with WorkerPool(quick()) as pool:
        got = pool.submit("fun main(s) = [x <- s: x + 1]", "main", [s],
                          types=("seq(int)",)).result(timeout=120)
        assert got == [x + 1 for x in s]
        assert pool.stats.restarts == 0


def test_late_frame_on_a_dead_generations_pipe_changes_nothing():
    with WorkerPool(quick()) as pool:
        h = pool.handles[0]
        old = h.generation
        os.kill(h.proc.pid, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while pool.stats.restarts == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert wait_up(pool) and h.generation == old + 1
        fut = pool.submit(FIB, "main", [19], request_id="live")   # ~0.7 s
        while not h.inflight and time.monotonic() < deadline:
            time.sleep(0.01)
        before = pool.stats.snapshot()
        payload = pickle.dumps(42)
        ours, theirs = mp.Pipe()
        with theirs:
            theirs.send_bytes(pickle.dumps(
                ("done", h.wid, old,
                 [("live", True, payload, zlib.adler32(payload))], (1, {}))))
            theirs.send_bytes(pickle.dumps(("bye", h.wid, old)))
        pool._read(h, old, ours)            # two stale messages, then EOF
        assert pool.stats.snapshot() == before
        assert "live" in h.inflight and not fut.done()
        assert h.state == "up" and h.generation == old + 1
        assert fut.result(timeout=60) == 4181
