"""Unit battery for the pure serving policies (repro.serve.policy):
retry backoff arithmetic, the circuit-breaker automaton (with an
injected clock — no sleeps), and stable shard placement."""

import random

import pytest

from repro.serve.policy import (
    CircuitBreaker, HashRing, RetryPolicy, shard_of, stable_hash,
)


# -- RetryPolicy ----------------------------------------------------------

def test_retry_allows_bounded():
    p = RetryPolicy(max_retries=2)
    assert p.allows(1) and p.allows(2)
    assert not p.allows(3)
    assert not RetryPolicy(max_retries=0).allows(1)


def test_backoff_exponential_and_capped():
    p = RetryPolicy(base_backoff_s=0.1, multiplier=2.0, max_backoff_s=0.5,
                    jitter=0.0)
    assert p.backoff_s(1) == pytest.approx(0.1)
    assert p.backoff_s(2) == pytest.approx(0.2)
    assert p.backoff_s(3) == pytest.approx(0.4)
    assert p.backoff_s(4) == pytest.approx(0.5)     # capped
    assert p.backoff_s(10) == pytest.approx(0.5)


def test_backoff_jitter_bounds():
    p = RetryPolicy(base_backoff_s=1.0, multiplier=1.0, max_backoff_s=1.0,
                    jitter=0.5)
    rng = random.Random(7)
    delays = [p.backoff_s(1, rng) for _ in range(200)]
    assert all(0.5 <= d <= 1.5 for d in delays)
    assert max(delays) - min(delays) > 0.1          # actually jittered


# -- CircuitBreaker -------------------------------------------------------

class Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_breaker_opens_after_k_consecutive():
    b = CircuitBreaker(failures=3, cooldown_s=5.0, clock=Clock())
    assert b.record_failure() is False
    assert b.record_failure() is False
    assert b.record_failure() is True       # the trip is reported once
    assert b.state == "open"
    assert not b.allow()
    assert b.opens == 1


def test_breaker_success_resets_consecutive_count():
    b = CircuitBreaker(failures=2, cooldown_s=5.0, clock=Clock())
    b.record_failure()
    b.record_success()
    assert b.record_failure() is False      # streak restarted
    assert b.state == "closed"


def test_breaker_half_open_probe_closes_on_success():
    clock = Clock()
    b = CircuitBreaker(failures=1, cooldown_s=5.0, clock=clock)
    b.record_failure()
    assert b.state == "open" and not b.allow()
    clock.t = 5.1
    assert b.allow()                        # exactly one probe admitted
    assert b.state == "half-open"
    assert not b.allow()                    # second caller still blocked
    assert b.probes == 1
    b.record_success()
    assert b.state == "closed" and b.allow()


def test_breaker_failed_probe_escalates_cooldown():
    clock = Clock()
    b = CircuitBreaker(failures=1, cooldown_s=2.0, escalation=2.0,
                       max_cooldown_s=6.0, clock=clock)
    b.record_failure()
    clock.t = 2.1
    assert b.allow()
    assert b.record_failure() is True       # failed probe re-opens
    assert b.state == "open" and b.opens == 2
    clock.t = 4.5                           # 2.4s later: cooldown now 4s
    assert not b.allow()
    clock.t = 6.2
    assert b.allow()
    b.record_failure()                      # escalates again, capped at 6
    clock.t = 12.5
    assert b.allow()
    b.record_success()
    b.record_failure()                      # cooldown back to the base 2s
    clock.t = 14.6
    assert b.allow()


def test_breaker_rejects_bad_threshold():
    with pytest.raises(ValueError):
        CircuitBreaker(failures=0)


# -- sharding -------------------------------------------------------------

def test_stable_hash_is_process_stable():
    # pinned values: Python's salted hash() would break these across runs
    assert stable_hash(("k", 1)) == stable_hash(("k", 1))
    assert stable_hash("a") != stable_hash("b")


def test_shard_of_in_range_and_deterministic():
    keys = [("src", i, "f") for i in range(100)]
    shards = [shard_of(k, 4) for k in keys]
    assert all(0 <= s < 4 for s in shards)
    assert shards == [shard_of(k, 4) for k in keys]
    assert len(set(shards)) > 1             # not everything on one worker


def test_hash_ring_lookup_stable_and_balanced():
    ring = HashRing(4)
    keys = [f"key-{i}" for i in range(400)]
    owners = [ring.lookup(k) for k in keys]
    assert owners == [ring.lookup(k) for k in keys]
    counts = [owners.count(s) for s in range(4)]
    assert all(c > 0 for c in counts)


def test_hash_ring_minimal_movement_on_growth():
    # the consistent-hashing property: adding a slot moves only a
    # fraction of the keys
    small, big = HashRing(4), HashRing(5)
    keys = [f"key-{i}" for i in range(500)]
    moved = sum(1 for k in keys if small.lookup(k) != big.lookup(k))
    assert moved < len(keys) * 0.6


def test_hash_ring_rejects_zero_slots():
    with pytest.raises(ValueError):
        HashRing(0)


# -- TierPolicy -----------------------------------------------------------

def _tier(monkeypatch, toolchain=True, **kw):
    from repro.serve.policy import TierPolicy
    monkeypatch.setattr("repro.native.toolchain.available",
                        lambda: toolchain)
    kw = {"native_after": 3, "breaker_failures": 1,
          "breaker_cooldown_s": 5.0, **kw}
    return TierPolicy(**kw)


def _w(n):
    return lambda: n


def test_tier_promotes_once_the_weight_passes_native_after(monkeypatch):
    tier = _tier(monkeypatch)
    assert tier.choose("k", "vector", _w(2)) == ("vector", False)   # tally 2
    assert tier.choose("k", "vector", _w(1)) == ("vector", False)   # 3: not past
    assert tier.choose("k", "vector", _w(1)) == ("native", True)    # tally 4
    assert tier.choose("k", "vector", _w(1)) == ("native", False)   # told once
    assert tier.choose("other", "vector", _w(1)) == ("vector", False)  # per key
    assert tier.choose("heavy", "vector", _w(10)) == ("native", True)


def test_tier_stops_weighing_a_promoted_key(monkeypatch):
    """The weight is a cost prediction per batch member: it is asked for
    only while it can still change the answer."""
    tier = _tier(monkeypatch, native_after=1)
    asked = []

    def weight():
        asked.append(1)
        return 2

    assert tier.choose("k", "vector", weight) == ("native", True)
    for _ in range(5):
        assert tier.choose("k", "vector", weight) == ("native", False)
    assert len(asked) == 1
    tier.choose(None, "vector", weight)          # ineligible: never asked
    tier.choose("k", "interp", weight)
    assert len(asked) == 1


def test_tier_leaves_everything_but_eligible_vector_requests(monkeypatch):
    tier = _tier(monkeypatch, native_after=1)
    for requested in ("interp", "native"):
        assert not tier.eligible("k", requested)
        assert tier.choose("k", requested, _w(100)) == (requested, False)
    # budgeted: no key
    assert tier.choose(None, "vector", _w(100)) == ("vector", False)
    off = _tier(monkeypatch, native_after=0)      # tiering disabled
    assert off.choose("k", "vector", _w(100)) == ("vector", False)
    bare = _tier(monkeypatch, toolchain=False, native_after=1)  # no compiler
    assert bare.choose("k", "vector", _w(100)) == ("vector", False)


def test_tier_breaker_open_half_open_close(monkeypatch):
    from functools import partial
    clock = Clock()
    monkeypatch.setattr("repro.serve.policy.CircuitBreaker",
                        partial(CircuitBreaker, clock=clock))
    tier = _tier(monkeypatch, native_after=1, breaker_failures=2)
    assert tier.choose("k", "vector", _w(2)) == ("native", True)
    assert tier.failed("k") is False                      # 1 of 2: still closed
    assert tier.choose("k", "vector", _w(1))[0] == "native"
    assert tier.failed("k") is True                       # trips the breaker
    assert tier.choose("k", "vector", _w(1))[0] == "vector"  # open: as requested
    assert tier.snapshot() == {"keys": 1, "open": 1, "opens": 1, "probes": 0}
    clock.t = 5.0
    assert tier.choose("k", "vector", _w(1))[0] == "native"  # the one probe
    assert tier.choose("k", "vector", _w(1))[0] == "vector"  # probe in flight
    tier.succeeded("k")                                   # probe closes it
    assert tier.choose("k", "vector", _w(1)) == ("native", False)
    assert tier.snapshot()["open"] == 0
    tier.succeeded("never-failed")                        # a no-op
