"""repro.serve — the segment-batched serving layer.

The paper's translation T1 realizes every depth-d application through the
depth-1 kernel alone (``f^d(e) = insert(f^1(extract(e, d)), e, d)``), so N
independent requests to the same function can be packed as **one extra
descriptor level** and executed in a *single* vector pass — the
request-coalescing trick modern inference stacks use, falling straight out
of the flattening machinery.  This package turns that observation into a
serving subsystem:

* :class:`CompileCache` — thread-safe LRU deduplication of compilation,
  keyed on ``(source, TransformOptions)``;
* :class:`BatchExecutor` — the serve core: bounded request queue,
  predicted-budget admission, same-function coalescing into
  segment-batched calls, per-request budget/deadline isolation,
  breaker-guarded native tiering, batch/cache/queue statistics;
* :class:`WorkerPool` — that executor with each coalesced group run in
  a supervised worker *process*: crash isolation, heartbeat/deadline
  kills with exponential-backoff respawn, bounded retries, load
  shedding, and deterministic chaos injection (see
  docs/RELIABILITY.md);
* the ``repro serve`` CLI subcommand — a JSONL stdio server on top of
  either executor (see docs/SERVING.md for the protocol).

Batching is proven semantics-preserving by the test battery in
``tests/serve/``: results are element-wise identical to independent
``run()`` calls across all back ends, under strict checking, and under
concurrent load.
"""

from repro.serve.batcher import (
    BatchExecutor, ServeConfig, ServeFuture, ServeStats,
)
from repro.serve.cache import CompileCache, cache_key
from repro.serve.policy import CircuitBreaker, HashRing, RetryPolicy
from repro.serve.pool import PoolConfig, PoolStats, WorkerPool

__all__ = ["BatchExecutor", "ServeConfig", "ServeFuture", "ServeStats",
           "CompileCache", "cache_key",
           "WorkerPool", "PoolConfig", "PoolStats",
           "RetryPolicy", "CircuitBreaker", "HashRing"]
