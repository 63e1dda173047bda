"""Thread-safe LRU compile cache keyed on ``(source, TransformOptions)``.

Serving traffic means the same program text arrives over and over; the
front half of the pipeline (parse -> canonicalize -> typecheck) and the
per-entry transform caches hanging off a :class:`~repro.api.CompiledProgram`
are pure functions of the source and its :class:`TransformOptions`, so one
compiled object can be shared by every request that names the same text.

Concurrency contract (tested by ``tests/serve/test_cache.py``):

* a hit never blocks behind a miss for a *different* key;
* concurrent misses on the **same** key compile **once** — the first
  caller owns the compile, the rest wait on the in-flight entry and share
  the result (no duplicate compiles, the thundering-herd guarantee);
* a failed compile is delivered to every waiter but **not** cached, so a
  transient failure does not poison the key;
* eviction is LRU over completed entries, bounded by ``capacity``.

Statistics (hits / misses / evictions) are kept under the same lock and,
when a profiler is active, mirrored as ``serve``-layer counters
(``cache_hit`` / ``cache_miss``) under the zero-overhead-when-off contract
of :mod:`repro.obs.runtime`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import astuple
from typing import Callable, Optional

from repro.api import CompiledProgram, compile_program
from repro.obs import runtime as _obs
from repro.transform.pipeline import TransformOptions

__all__ = ["CompileCache", "cache_key"]


#: ``astuple`` deep-copies; the default options' tuple is built once.
_DEFAULT_OPTIONS = astuple(TransformOptions())


def cache_key(source: str, options: Optional[TransformOptions],
              use_prelude: bool = True) -> tuple:
    """The cache key: source text plus every transform switch."""
    return (source, use_prelude,
            _DEFAULT_OPTIONS if options is None else astuple(options))


class _Entry:
    """One cache slot; ``event`` is set once the compile finished."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Optional[CompiledProgram] = None
        self.error: Optional[BaseException] = None


class CompileCache:
    """A bounded, thread-safe, LRU compile cache.

    ``compile_fn`` is injectable for tests that count real compiles; it
    must accept ``(source, use_prelude, options)`` like
    :func:`repro.api.compile_program`.
    """

    def __init__(self, capacity: int = 128,
                 compile_fn: Optional[Callable] = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._compile = compile_fn or (
            lambda source, use_prelude, options:
            compile_program(source, use_prelude=use_prelude, options=options))
        self._lock = threading.Lock()
        self._map: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._map)

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up yet)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def get(self, source: str, options: Optional[TransformOptions] = None,
            use_prelude: bool = True, lookups: int = 1) -> CompiledProgram:
        """The compiled program for ``source`` — compiled at most once per
        key no matter how many threads ask concurrently.  ``lookups`` is
        how many requests this one call serves (a coalesced group asks
        once for all its members), so the hit-rate stays per request."""
        key = cache_key(source, options, use_prelude)
        with self._lock:
            entry = self._map.get(key)
            owner = entry is None
            if owner:
                entry = self._map[key] = _Entry()
                self.misses += 1
                self._observe("cache_miss")
                lookups -= 1
            self.hits += lookups
            for _ in range(lookups):
                self._observe("cache_hit")
            if entry.event.is_set():
                self._map.move_to_end(key)
                return entry.value
        if not owner:
            entry.event.wait()
            if entry.error is not None:
                raise entry.error
            return entry.value
        try:
            value = self._compile(source, use_prelude, options)
        except BaseException as e:
            with self._lock:
                # deliver to waiters, but never cache a failure
                entry.error = e
                if self._map.get(key) is entry:
                    del self._map[key]
            entry.event.set()
            raise
        with self._lock:
            entry.value = value
            entry.event.set()
            self._map.move_to_end(key)
            self._evict_locked()
        return value

    def _evict_locked(self) -> None:
        while len(self._map) > self.capacity:
            for key, entry in self._map.items():
                if entry.event.is_set():        # never evict an in-flight slot
                    del self._map[key]
                    self.evictions += 1
                    break
            else:
                return

    def clear(self) -> None:
        with self._lock:
            self._map.clear()

    def stats(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions, "entries": len(self._map),
                    "capacity": self.capacity}

    @staticmethod
    def _observe(op: str) -> None:
        p = _obs.PROFILER
        if p is not None:
            p.count("serve", op, 0, 0, 0)
