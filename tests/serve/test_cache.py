"""The thread-safe LRU compile cache: hit/miss accounting, LRU eviction,
options keying, in-flight deduplication, and failure non-caching."""

import threading
import time

import pytest

from repro.api import compile_program
from repro.errors import ParseError, ReproError
from repro.serve import CompileCache, cache_key
from repro.transform.pipeline import TransformOptions

SRC = "fun main(n) = [i <- [1..n]: i * i]"


def counting_cache(capacity=8, delay=0.0):
    """A cache whose compile function counts invocations (thread-safely)."""
    lock = threading.Lock()
    calls = {"n": 0, "sources": []}

    def compile_fn(source, use_prelude, options):
        with lock:
            calls["n"] += 1
            calls["sources"].append(source)
        if delay:
            time.sleep(delay)
        return compile_program(source, use_prelude=use_prelude,
                               options=options)

    return CompileCache(capacity, compile_fn=compile_fn), calls


class TestBasics:
    def test_hit_returns_same_object(self):
        cache = CompileCache(4)
        a = cache.get(SRC)
        b = cache.get(SRC)
        assert a is b
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_distinct_sources_distinct_entries(self):
        cache, calls = counting_cache()
        cache.get(SRC)
        cache.get(SRC + "\nfun g(n) = n")
        assert calls["n"] == 2 and len(cache) == 2

    def test_options_are_part_of_the_key(self):
        cache, calls = counting_cache()
        a = cache.get(SRC)
        b = cache.get(SRC, options=TransformOptions(fuse=False))
        assert a is not b and calls["n"] == 2
        assert cache.get(SRC) is a          # still cached

    def test_list_and_tuple_pass_lists_are_one_key(self):
        """A pass list spelled as a list, a tuple or a comma string is
        one key (and hashable): the second spelling is a cache hit."""
        names = ["canonical", "eliminate", "optimize"]
        spellings = [TransformOptions(passes=names),
                     TransformOptions(passes=tuple(names)),
                     TransformOptions(passes=",".join(names))]
        keys = {cache_key(SRC, o) for o in spellings}
        assert len(keys) == 1
        assert keys != {cache_key(SRC, TransformOptions())}
        cache, calls = counting_cache()
        progs = {id(cache.get(SRC, options=o)) for o in spellings}
        assert len(progs) == 1 and calls["n"] == 1
        after = {cache_key(SRC, TransformOptions(print_ir_after=a))
                 for a in (["simplify"], ("simplify",))}
        assert len(after) == 1

    def test_key_function_is_stable(self):
        assert cache_key(SRC, None) == cache_key(SRC, TransformOptions())
        assert cache_key(SRC, TransformOptions(fuse=False)) != \
            cache_key(SRC, TransformOptions())

    def test_compiled_program_actually_runs(self):
        cache = CompileCache(2)
        assert cache.get(SRC).run("main", [4]) == [1, 4, 9, 16]


class TestLRU:
    def test_eviction_order_is_least_recently_used(self):
        cache, calls = counting_cache(capacity=2)
        s1, s2, s3 = SRC, SRC + " fun a(n) = n", SRC + " fun b(n) = n"
        cache.get(s1)
        cache.get(s2)
        cache.get(s1)            # refresh s1: s2 is now the LRU entry
        cache.get(s3)            # evicts s2
        assert cache.evictions == 1
        cache.get(s1)            # hit
        cache.get(s2)            # recompile
        assert calls["sources"].count(s2) == 2
        assert calls["sources"].count(s1) == 1

    def test_capacity_one(self):
        cache, calls = counting_cache(capacity=1)
        cache.get(SRC)
        cache.get(SRC + " fun a(n) = n")
        cache.get(SRC)
        assert calls["n"] == 3 and len(cache) == 1


class TestFailures:
    def test_compile_error_propagates_and_is_not_cached(self):
        cache = CompileCache(4)
        with pytest.raises(ReproError):
            cache.get("fun main( = broken")
        assert len(cache) == 0
        with pytest.raises(ParseError):
            cache.get("fun main( = broken")   # retried, not poisoned
        assert cache.misses == 2

    def test_failure_then_success_on_same_cache(self):
        cache = CompileCache(4)
        with pytest.raises(ReproError):
            cache.get("fun main( = broken")
        assert cache.get(SRC).run("main", [2]) == [1, 4]


class TestConcurrency:
    def test_concurrent_identical_keys_compile_once(self):
        """The thundering-herd guarantee: 12 threads, one compile."""
        cache, calls = counting_cache(capacity=8, delay=0.05)
        results = [None] * 12
        barrier = threading.Barrier(12)

        def worker(i):
            barrier.wait()
            results[i] = cache.get(SRC)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert calls["n"] == 1
        assert all(r is results[0] for r in results)
        assert cache.misses == 1 and cache.hits == 11

    def test_concurrent_mixed_keys(self):
        cache, calls = counting_cache(capacity=32, delay=0.01)
        sources = [f"fun main(n) = n + {k}" for k in range(4)]
        barrier = threading.Barrier(8)

        def worker(i):
            barrier.wait()
            for k in range(4):
                cache.get(sources[(i + k) % 4])

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert calls["n"] == 4               # one compile per distinct source
        assert cache.hits + cache.misses == 32

    def test_concurrent_failure_delivered_to_all_waiters(self):
        cache, _calls = counting_cache(capacity=4, delay=0.05)
        errors = []
        barrier = threading.Barrier(6)

        def worker():
            barrier.wait()
            try:
                cache.get("fun main( = broken")
            except ReproError as e:
                errors.append(e)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert len(errors) == 6
        assert len(cache) == 0
