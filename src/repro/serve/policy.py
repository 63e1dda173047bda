"""Degradation policies for the serving tier: retries, circuit breaking,
and shard placement.

These are the pure decision pieces of the serve core
(:mod:`repro.serve.batcher`) and its process pool
(:mod:`repro.serve.pool`) — no processes, no queues, no clocks
of their own, so every policy is unit-testable in isolation
(``tests/serve/test_policy.py``):

* :class:`RetryPolicy` — bounded per-request retries with exponential,
  jittered backoff.  Retries are for *idempotent* work only: a request
  carrying a :class:`~repro.guard.Budget` is never retried, because a
  second run would charge the same budget twice (the pool enforces
  this, see docs/RELIABILITY.md).
* :class:`CircuitBreaker` — the closed → open → half-open automaton
  that makes native-tier demotion recoverable: after ``failures``
  consecutive failures the breaker *opens* (callers stop trying), after
  ``cooldown_s`` it lets exactly one *probe* through (half-open), and
  the probe's outcome either closes it again or re-opens it with an
  escalated cooldown.
* :class:`TierPolicy` — which back end a served group actually runs
  on: ``vector`` until its batch key proves hot, then ``native``, with
  one :class:`CircuitBreaker` per key guarding the native tier.  It
  lives beside the compile cache, wherever
  :func:`~repro.serve.batcher.run_group` runs.
* :func:`shard_of` / :class:`HashRing` — stable (non-salted) consistent
  hashing of batch keys onto worker slots, so one program key always
  lands on the same worker and its compile caches stay hot.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Hashable, Optional

__all__ = ["RetryPolicy", "CircuitBreaker", "TierPolicy", "HashRing",
           "shard_of", "stable_hash"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential, jittered backoff.

    ``max_retries`` is the number of *re*-executions allowed after the
    first attempt (0 disables retrying).  The ``attempt``-th retry backs
    off ``base_backoff_s * multiplier**(attempt-1)`` seconds, capped at
    ``max_backoff_s``, with a uniform ±``jitter`` fraction applied so a
    burst of victims of one crash does not re-arrive in lockstep.
    """

    max_retries: int = 1
    base_backoff_s: float = 0.05
    max_backoff_s: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5

    def allows(self, attempts: int) -> bool:
        """May a request that has already run ``attempts`` times run
        again?"""
        return attempts <= self.max_retries

    def backoff_s(self, attempt: int,
                  rng: Optional[random.Random] = None) -> float:
        """Delay before the ``attempt``-th retry (1-based)."""
        base = min(self.base_backoff_s * self.multiplier ** max(0, attempt - 1),
                   self.max_backoff_s)
        if self.jitter <= 0:
            return base
        r = (rng or random).random()
        return base * (1.0 + self.jitter * (2.0 * r - 1.0))


class CircuitBreaker:
    """Closed → open → half-open breaker over one failure domain.

    Thread-safe.  The clock is injectable for tests (``clock`` must be a
    monotonic ``() -> float``).

    * **closed** — traffic flows; ``failures`` *consecutive* failures
      trip the breaker.
    * **open** — :meth:`allow` answers False until ``cooldown_s`` has
      elapsed.
    * **half-open** — after the cooldown exactly one caller is let
      through as a probe; its success closes the breaker, its failure
      re-opens it with the cooldown scaled by ``escalation`` (capped at
      ``max_cooldown_s``).
    """

    def __init__(self, failures: int = 3,
                 cooldown_s: float = 5.0,
                 escalation: float = 2.0,
                 max_cooldown_s: float = 60.0,
                 clock=time.monotonic):
        if failures < 1:
            raise ValueError("failures must be >= 1")
        self.failures = failures
        self.cooldown_s = cooldown_s
        self.escalation = escalation
        self.max_cooldown_s = max_cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive = 0
        self._opened_at = 0.0
        self._current_cooldown = cooldown_s
        self.opens = 0          #: transitions into the open state
        self.probes = 0         #: half-open probes admitted

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May a call proceed right now?  An open breaker whose cooldown
        elapsed transitions to half-open and admits exactly one probe."""
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "half-open":
                return False                 # one probe already in flight
            if self._clock() - self._opened_at >= self._current_cooldown:
                self._state = "half-open"
                self.probes += 1
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = "closed"
            self._consecutive = 0
            self._current_cooldown = self.cooldown_s

    def record_failure(self) -> bool:
        """Record one failure; returns True when this failure *opened*
        the breaker (so callers can count demotions / emit the
        ``serve.breaker_open`` counter exactly once per trip)."""
        with self._lock:
            if self._state == "half-open":   # failed probe: re-open, escalate
                self._state = "open"
                self._opened_at = self._clock()
                self._current_cooldown = min(
                    self._current_cooldown * self.escalation,
                    self.max_cooldown_s)
                self.opens += 1
                return True
            self._consecutive += 1
            if self._state == "closed" and self._consecutive >= self.failures:
                self._state = "open"
                self._opened_at = self._clock()
                self.opens += 1
                return True
            return False

    def snapshot(self) -> dict:
        with self._lock:
            return {"state": self._state, "opens": self.opens,
                    "probes": self.probes,
                    "consecutive_failures": self._consecutive}


class TierPolicy:
    """Tiered compilation beside one compile cache.  A batch key starts
    on the ``vector`` (NumPy) back end and is *promoted* to ``native``
    (docs/NATIVE.md) once it has served ``native_after`` weight units.
    Native failures feed the key's :class:`CircuitBreaker`: the one that
    trips it *demotes* the key to the requested back end until a
    half-open probe succeeds.

    Only ``vector`` requests tier, only when a C toolchain exists, and
    only under a batch key (budgeted requests have one too).  Promotions
    and breaker trips are *returned* to the caller, who owns the
    statistics.  Thread-safe.
    """

    def __init__(self, native_after: int, breaker_failures: int,
                 breaker_cooldown_s: float):
        self.native_after = native_after
        self.breaker_failures = breaker_failures
        self.breaker_cooldown_s = breaker_cooldown_s
        self._lock = threading.Lock()
        self._tally: dict = {}              # batch key -> weight served
        self._breakers: dict = {}           # batch key -> CircuitBreaker

    def eligible(self, key: Optional[Hashable], requested: str) -> bool:
        """Can this request tier at all?"""
        if requested != "vector" or self.native_after <= 0 or key is None:
            return False
        from repro.native import toolchain
        return toolchain.available()

    def choose(self, key: Optional[Hashable], requested: str,
               weight: Callable[[], int]) -> tuple[str, bool]:
        """``(back end this dispatch runs on, promoted by it?)``:
        ``native`` once the key's tally has passed ``native_after`` and
        its breaker allows it.  ``weight()`` — this dispatch's share of
        the tally, costly to predict — is asked only while the key is
        still unpromoted."""
        if not self.eligible(key, requested):
            return requested, False
        promoted = False
        if self._tally.get(key, 0) <= self.native_after:
            w = weight()
            with self._lock:
                before = self._tally.get(key, 0)
                self._tally[key] = before + w
            if before + w <= self.native_after:
                return requested, False
            promoted = before <= self.native_after   # crossed on this dispatch
        # an open breaker keeps the key on the requested tier until its
        # cooldown admits a half-open probe (docs/RELIABILITY.md)
        breaker = self._breakers.get(key)
        if breaker is not None and not breaker.allow():
            return requested, promoted
        return "native", promoted

    def failed(self, key: Hashable) -> bool:
        """One native-tier failure for ``key``; True when it tripped the
        key's breaker (a demotion)."""
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = self._breakers[key] = CircuitBreaker(
                    failures=self.breaker_failures,
                    cooldown_s=self.breaker_cooldown_s)
        return breaker.record_failure()

    def succeeded(self, key: Hashable) -> None:
        """One native-tier success for ``key`` (closes its breaker)."""
        breaker = self._breakers.get(key)
        if breaker is not None:
            breaker.record_success()

    def snapshot(self) -> dict:
        """Circuit-breaker state over all keys (for stats reporting)."""
        with self._lock:
            breakers = list(self._breakers.values())
        return {"keys": len(breakers),
                "open": sum(1 for b in breakers if b.state != "closed"),
                "opens": sum(b.opens for b in breakers),
                "probes": sum(b.probes for b in breakers)}


def stable_hash(key) -> int:
    """A process-stable 64-bit hash of a (possibly nested) key.  Python's
    builtin ``hash`` is salted per process, which would scatter one
    program key across different shards in parent and tests — so shard
    placement uses SHA-256 over the ``repr`` instead."""
    digest = hashlib.sha256(repr(key).encode()).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent hashing of keys onto ``slots`` worker indices.

    Each slot owns ``replicas`` points on a 64-bit ring; a key maps to
    the first point clockwise from its hash.  With a fixed slot count
    this is just a stable sharding function; the ring form keeps the
    mapping stable under future slot addition/removal (only ~1/N of keys
    move), which plain modulo would not.
    """

    def __init__(self, slots: int, replicas: int = 32):
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.slots = slots
        points = []
        for slot in range(slots):
            for r in range(replicas):
                points.append((stable_hash(("ring", slot, r)), slot))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [s for _, s in points]

    def lookup(self, key) -> int:
        h = stable_hash(key)
        i = bisect.bisect_right(self._hashes, h)
        if i == len(self._hashes):
            i = 0
        return self._owners[i]


def shard_of(key, slots: int) -> int:
    """One-shot stable shard assignment (modulo a stable hash) — used
    where a full ring is overkill."""
    return stable_hash(key) % slots
