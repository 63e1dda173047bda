"""The pool splits what a shard has waiting in one pass: ``_partition``
returns exactly the groups that popping ``_coalesce`` until the queue is
empty returns — same members, same order — and asks each request its key
once."""

import random
from collections import deque

import pytest

from repro.serve.batcher import _coalesce, _partition, _Request


def request(i: int, key) -> _Request:
    """A queued request as the splitters see it: an id and a batch key
    (None when it carries a budget)."""
    r = _Request.__new__(_Request)
    r.rid, r.batch_key = f"r{i}", key
    return r


def random_queue(rng: random.Random) -> list:
    """0-59 requests over 1-9 keys, 15% of them budgeted."""
    keys = [("k", k) for k in range(rng.randint(1, 9))]
    return [request(i, None if rng.random() < 0.15 else rng.choice(keys))
            for i in range(rng.randint(0, 59))]


def coalesced(queue: list, max_batch: int) -> list:
    """The reference: ``_coalesce`` popped until the queue is empty."""
    q, groups = deque(queue), []
    while q:
        groups.append(_coalesce(q, max_batch))
    return groups


@pytest.mark.parametrize("block", range(4))
def test_partition_is_coalesce_until_empty(block):
    rng = random.Random(block)
    for _ in range(5_000):
        queue = random_queue(rng)
        max_batch = rng.randint(1, 7)
        want = [[r.rid for r in g] for g in coalesced(queue, max_batch)]
        pending = deque(queue)
        got = _partition(pending, max_batch)
        assert [[r.rid for r in g] for g in got] == want
        assert list(pending) == queue


def test_each_request_is_asked_its_key_once(monkeypatch):
    asked = []
    key = _Request.key
    monkeypatch.setattr(_Request, "key",
                        lambda self: asked.append(self.rid) or key(self))
    queue = [request(i, None if i % 10 == 0 else ("k", i % 8))
             for i in range(1024)]
    groups = _partition(deque(queue), 32)
    assert sorted(asked) == sorted(r.rid for r in queue)
    assert sum(map(len, groups)) == 1024
