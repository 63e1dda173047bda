"""One frame splitter.  The pool splits what a shard has waiting with
``_partition``; the in-process executor runs the first group it forms.
Both equal what the old one-group-at-a-time splitter (kept here as the
reference, ``coalesce``) returns — same members, same order — and
``_partition`` asks each request its key once."""

import random
import threading
from collections import deque

import pytest

from repro.guard import Budget
from repro.serve import ServeConfig
from repro.serve.batcher import BatchExecutor, _partition, _Request

ALONE = Budget(timeout_s=5.0)        # a wall-clock budget runs alone
RIDES = Budget(max_steps=10 ** 6)    # any other budget rides in the batch


def request(i: int, key, budget=None) -> _Request:
    """A queued request as the splitters see it: an id, a batch key and
    a budget."""
    r = _Request.__new__(_Request)
    r.rid, r.batch_key, r.budget = f"r{i}", key, budget
    return r


def random_queue(rng: random.Random) -> list:
    """0-59 requests over 1-9 keys, 15% of them under a ``timeout_s``
    budget and 10% under a step budget."""
    keys = [("k", k) for k in range(rng.randint(1, 9))]
    return [request(i, rng.choice(keys),
                    rng.choices((ALONE, RIDES, None), (15, 10, 75))[0])
            for i in range(rng.randint(0, 59))]


def coalesce(queue: deque, max_batch: int) -> list:
    """The reference: pop the oldest request plus every queued one with
    the same key, up to ``max_batch`` (a request without a key comes out
    alone); the rest keep their order."""
    head = queue.popleft()
    group = [head]
    key = head.key()
    if key is not None and queue:
        kept = []
        while queue and len(group) < max_batch:
            r = queue.popleft()
            (group if r.key() == key else kept).append(r)
        queue.extendleft(reversed(kept))
    return group


def coalesced(queue: list, max_batch: int) -> list:
    """``coalesce`` popped until the queue is empty."""
    q, groups = deque(queue), []
    while q:
        groups.append(coalesce(q, max_batch))
    return groups


def ids(groups) -> list:
    return [[r.rid for r in g] for g in groups]


@pytest.mark.parametrize("block", range(4))
def test_partition_is_coalesce_until_empty(block):
    rng = random.Random(block)
    for _ in range(5_000):
        queue = random_queue(rng)
        max_batch = rng.randint(1, 7)
        pending = deque(queue)
        got = _partition(pending, max_batch)
        assert ids(got) == ids(coalesced(queue, max_batch))
        assert list(pending) == queue


def idle_executor(queue: list, max_batch: int) -> BatchExecutor:
    """The in-process executor's queue, with no dispatcher draining it."""
    ex = BatchExecutor.__new__(BatchExecutor)
    ex.config = ServeConfig(max_batch=max_batch)
    ex._queue = deque(queue)
    ex._work = threading.Condition()
    ex._closed = False
    return ex


@pytest.mark.parametrize("block", range(2))
def test_take_frame_is_the_old_coalesce(block):
    """Each take is the reference's next group, and leaves the queue the
    reference leaves: exactly that group's members are gone."""
    rng = random.Random(100 + block)
    for _ in range(1_000):
        queue = random_queue(rng)
        max_batch = rng.randint(1, 8)
        ex, ref = idle_executor(queue, max_batch), deque(queue)
        while ref:
            want = coalesce(ref, max_batch)
            assert ids(ex._take_frame(None)) == ids([want])
            assert list(ex._queue) == list(ref)


def test_only_a_wall_clock_budget_runs_alone():
    queue = [request(0, "k"), request(1, "k", RIDES), request(2, "k", ALONE),
             request(3, "k", Budget(max_elements=9, timeout_s=1.0)),
             request(4, "k", RIDES), request(5, "k")]
    assert ids(_partition(deque(queue), 8)) == \
        [["r0", "r1", "r4", "r5"], ["r2"], ["r3"]]


def test_each_request_is_asked_its_key_once(monkeypatch):
    asked = []
    key = _Request.key
    monkeypatch.setattr(_Request, "key",
                        lambda self: asked.append(self.rid) or key(self))
    queue = [request(i, ("k", i % 8), ALONE if i % 10 == 0 else None)
             for i in range(1024)]
    groups = _partition(deque(queue), 32)
    assert sorted(asked) == sorted(r.rid for r in queue)
    assert sum(map(len, groups)) == 1024
