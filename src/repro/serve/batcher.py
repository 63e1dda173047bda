"""The request queue and segment-batching executor behind ``repro serve``.

A :class:`BatchExecutor` accepts concurrent ``(source, fname, args)``
requests, deduplicates compilation through a shared
:class:`~repro.serve.cache.CompileCache`, and coalesces same-function
requests into one segment-batched call: N argument sets are packed as one
extra descriptor level and the batch runs as a *single* vector pass of the
synthesized depth-1 extension ``f^1``
(:meth:`repro.api.CompiledProgram.run_batched`).  Results are unpacked and
delivered per request, element-wise identical to N independent ``run()``
calls — a property enforced by the batching test battery
(``tests/serve/test_batch_equivalence.py``).

Coalescing rules (see docs/SERVING.md):

* requests group by :meth:`_Request.key` — same source, options, entry,
  argument-type signature, back end, and ``check`` flag;
* requests carrying a :class:`~repro.guard.Budget` are **never**
  coalesced: budgets are per-request ceilings, and one guard scope cannot
  attribute a breach to a single member of a batch.  They execute
  individually, so a slow request under a tight budget raises
  :class:`~repro.errors.ResourceLimitError` for that request *only*;
* if a batched call fails for any reason, the group is decomposed and
  re-run request-by-request so errors land on exactly the requests that
  caused them — a failing request never poisons its batchmates;
* zero-argument and function-valued-argument entries fall back to the
  per-request path (no frame to enumerate / per-request dispatch tables).

Tiered compilation: a batch key starts on the cheap ``vector`` (NumPy)
back end; once it has served ``ServeConfig.native_after`` weight units of
*predicted work* (quantized by ``tier_unit_work``; raw request counting
when prediction is unavailable) it is *promoted* to the ``native`` back
end (compiled fused C kernels, docs/NATIVE.md), and a key whose native
run fails to compile is *demoted* back for good.
``ServeStats.promotions`` / ``demotions`` and the
``serve.tier_promotion`` observability counter track the tier moves.

Predicted-budget admission (``ServeConfig.predict_admission``): a
budgeted request whose statically predicted cost
(:class:`repro.analysis.cost.CostCertificate`) already exceeds its
budget is rejected by ``submit`` with
``ResourceLimitError("predicted-steps" / "predicted-elements" /
"predicted-bytes", ...)`` before it is queued or executed; unbounded or
unpredictable programs are always admitted, and the runtime guard
remains the enforcement backstop either way.

Backpressure and deadlines reuse the guard layer's error type: a full
queue rejects ``submit`` with ``ResourceLimitError("queue-depth", ...)``,
and a request whose ``deadline_s`` elapses before execution fails with
``ResourceLimitError("timeout", ...)`` without running at all.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.api import backend_row
from repro.errors import NativeCompileError, ReproError, ResourceLimitError
from repro.guard.runtime import Budget
from repro.obs import runtime as _obs
from repro.serve.cache import CompileCache, cache_key
from repro.serve.policy import TierPolicy
from repro.transform.pipeline import TransformOptions

__all__ = ["ServeConfig", "ServeFuture", "ServeStats", "BatchExecutor"]


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for one :class:`BatchExecutor`."""

    max_batch: int = 64          #: largest coalesced group per vector pass
    max_queue: int = 1024        #: bounded queue depth (backpressure limit)
    workers: int = 1             #: dispatcher threads draining the queue
    backend: str = "vector"      #: default back end for requests
    check: bool = False          #: default strict-checking flag
    cache_capacity: int = 128    #: LRU slots in the compile cache
    #: fallback heartbeat interval for an idle dispatcher.  Wake-ups are
    #: event-driven (``submit``/``close`` notify a condition), so this is
    #: a belt against lost notifications, not a polling period — an idle
    #: pool burns no CPU between heartbeats.
    poll_s: float = 1.0
    #: tiered compilation: after this many requests served for one batch
    #: key on the ``vector`` back end, later requests for the key run on
    #: the ``native`` back end (when a C toolchain exists).  ``0``
    #: disables tiering.  A key whose native run raises
    #: :class:`~repro.errors.NativeCompileError` is demoted back to
    #: ``vector`` permanently (for this executor).  See docs/NATIVE.md.
    native_after: int = 3
    #: circuit breaker guarding the native tier: this many *consecutive*
    #: native failures open the breaker (demotion).  1 keeps the PR-7
    #: behavior of demoting on the first failure.
    breaker_failures: int = 1
    #: how long an open breaker waits before letting one half-open probe
    #: re-try the native tier.  ``None`` (the default) never re-probes —
    #: the legacy *permanent* demotion.  See docs/RELIABILITY.md.
    breaker_cooldown_s: Optional[float] = None
    #: predicted-budget admission control: when a budgeted request's
    #: *statically predicted* cost (docs/ANALYSIS.md cost model) already
    #: exceeds its budget, ``submit`` rejects it with
    #: ``ResourceLimitError("predicted-...")`` before it is queued or
    #: executed.  Prediction failures (or unbounded programs) always
    #: admit — the runtime guard stays as the enforcement backstop.
    predict_admission: bool = True
    #: tier promotion counts predicted *work served* instead of raw
    #: request hits: each request weighs ``ceil(predicted_work /
    #: tier_unit_work)`` (1 when unbounded or unpredictable), so a few
    #: heavy requests promote a key as fast as many light ones.  ``0``
    #: restores pure request counting.
    tier_unit_work: int = 4096


class ServeFuture:
    """The pending result of one submitted request."""

    __slots__ = ("_event", "_value", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value: Any = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until the request finished; re-raises its error."""
        if not self._event.wait(timeout):
            raise TimeoutError("request still pending")
        if self._error is not None:
            raise self._error
        return self._value

    def exception(self, timeout: Optional[float] = None
                  ) -> Optional[BaseException]:
        if not self._event.wait(timeout):
            raise TimeoutError("request still pending")
        return self._error

    # -- producer side (executor only) ----------------------------------

    def _set_value(self, value: Any) -> None:
        self._value = value
        self._event.set()

    def _set_error(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


@dataclass
class ServeStats:
    """Always-on serving statistics (cheap integer updates under a lock)."""

    requests: int = 0            #: accepted submissions
    responses: int = 0           #: futures completed with a value
    errors: int = 0              #: futures completed with an error
    rejected: int = 0            #: submissions refused (queue full)
    predicted_rejections: int = 0  #: refused by predicted-budget admission
    expired: int = 0             #: requests whose deadline passed in queue
    batches: int = 0             #: coalesced vector passes executed
    batched_requests: int = 0    #: requests served by those passes
    singles: int = 0             #: requests served individually
    fallbacks: int = 0           #: batches decomposed after a failure
    max_batch: int = 0           #: largest batch executed
    max_queue_depth: int = 0     #: high-water mark of the queue
    promotions: int = 0          #: batch keys promoted to the native tier
    demotions: int = 0           #: promoted keys demoted after a failure
    batch_sizes: dict = field(default_factory=dict)  #: size -> batch count

    def snapshot(self) -> dict:
        d = {k: getattr(self, k) for k in (
            "requests", "responses", "errors", "rejected",
            "predicted_rejections", "expired",
            "batches", "batched_requests", "singles", "fallbacks",
            "max_batch", "max_queue_depth", "promotions", "demotions")}
        d["batch_sizes"] = dict(self.batch_sizes)
        return d


def _name_request(e: ResourceLimitError, rid: str) -> ResourceLimitError:
    """The same breach, re-raised with the originating request named —
    errors escaping a decomposed batch stay attributable."""
    if e.request:
        return e
    return ResourceLimitError(e.limit, e.used, e.budget, stage=e.stage,
                              function=e.function,
                              frame_sizes=e.frame_sizes, request=rid)


class _Request:
    """One unit of work, as both executors queue it."""

    __slots__ = ("rid", "source", "fname", "args", "types", "backend",
                 "check", "budget", "options", "use_prelude", "deadline",
                 "future", "batch_key")

    def __init__(self, rid, config, source, fname, args, types, backend,
                 check, budget, options, use_prelude, deadline_s):
        self.backend = backend if backend is not None else config.backend
        backend_row(self.backend)    # an unknown name fails before any work
        self.rid = rid
        self.source = source
        self.fname = fname
        self.args = list(args)
        self.types = tuple(types) if types is not None else None
        self.check = check if check is not None else config.check
        self.budget = budget
        self.options = options
        self.use_prelude = use_prelude
        self.deadline = (time.monotonic() + deadline_s
                         if deadline_s is not None else None)
        self.future = ServeFuture()
        self.batch_key: Optional[tuple] = None

    def key(self) -> Optional[tuple]:
        """The coalescing key, or None when the request must run alone
        (it carries a budget)."""
        if self.budget is not None and self.budget.any_set():
            return None
        if self.batch_key is None:
            self.batch_key = (cache_key(self.source, self.options,
                                        self.use_prelude),
                              self.fname, self.types, self.backend,
                              self.check)
        return self.batch_key


def _coalesce(queue: deque, max_batch: int) -> list:
    """Pop the oldest request plus every queued one with the same key, up
    to ``max_batch`` (a budgeted request comes out alone); the rest keep
    their order.  The caller holds the lock that guards ``queue``."""
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


class BatchExecutor:
    """Queue + compile cache + coalescing dispatcher; the programmatic
    face of ``repro serve``.

    Use as a context manager, or call :meth:`close` when done::

        with BatchExecutor() as ex:
            futs = [ex.submit(SRC, "main", [k]) for k in range(100)]
            results = [f.result() for f in futs]
    """

    def __init__(self, config: Optional[ServeConfig] = None,
                 cache: Optional[CompileCache] = None):
        self.config = config or ServeConfig()
        if self.config.max_batch < 1 or self.config.max_queue < 1 \
                or self.config.workers < 1:
            raise ValueError("max_batch, max_queue and workers must be >= 1")
        # `cache or ...` would discard an *empty* injected cache (len == 0
        # makes it falsy), so test against None explicitly
        self.cache = (cache if cache is not None
                      else CompileCache(self.config.cache_capacity))
        self.stats = ServeStats()
        self._rid = itertools.count(1)         # fallback request-id source
        self._lock = threading.Lock()          # queue + stats
        self._work = threading.Condition(self._lock)   # queue not empty / closed
        self.tier = TierPolicy(self.config.native_after,
                               self.config.breaker_failures,
                               self.config.breaker_cooldown_s, self.stats)
        self._queue: deque[_Request] = deque()
        self._idle_wakeups = 0                 # fallback-heartbeat timeouts
        self._closed = False
        self._threads = [
            threading.Thread(target=self._worker, name=f"repro-serve-{i}",
                             daemon=True)
            for i in range(self.config.workers)]
        for t in self._threads:
            t.start()

    # -- public API ------------------------------------------------------

    def submit(self, source: str, fname: str, args: Sequence[Any], *,
               types: Optional[Sequence] = None,
               backend: Optional[str] = None,
               check: Optional[bool] = None,
               budget: Optional[Budget] = None,
               options: Optional[TransformOptions] = None,
               use_prelude: bool = True,
               deadline_s: Optional[float] = None,
               request_id: Optional[str] = None) -> ServeFuture:
        """Enqueue one request; returns its :class:`ServeFuture`.

        Raises ``ResourceLimitError("queue-depth", ...)`` when the bounded
        queue is full — the caller sheds load instead of the server
        accumulating unbounded work — and ``ValueError`` for a back end
        :data:`repro.api.BACKENDS` does not list.

        ``request_id`` names the request in every budget/deadline/
        backpressure :class:`~repro.errors.ResourceLimitError` it can
        provoke, so a breach inside a coalesced batch is attributable to
        the request that caused it.  Auto-assigned (``r1``, ``r2``, ...)
        when not given.
        """
        req = _Request(
            request_id if request_id is not None else f"r{next(self._rid)}",
            self.config, source, fname, args, types, backend, check, budget,
            options, use_prelude, deadline_s)
        if (self.config.predict_admission and budget is not None
                and budget.any_set()):
            self._admit(req)     # may raise ResourceLimitError("predicted-…")
        with self._lock:
            if self._closed:
                raise RuntimeError("BatchExecutor is closed")
            depth = len(self._queue)
            if depth >= self.config.max_queue:
                self.stats.rejected += 1
                raise ResourceLimitError("queue-depth", depth + 1,
                                         self.config.max_queue,
                                         stage="serve:submit",
                                         request=req.rid)
            self._queue.append(req)
            depth += 1
            self.stats.requests += 1
            if depth > self.stats.max_queue_depth:
                self.stats.max_queue_depth = depth
            self._work.notify()
        p = _obs.PROFILER
        if p is not None:
            p.count("serve", "queue_depth", depth, 0, 0)
        return req.future

    def run_many(self, source: str, fname: str,
                 argsets: Sequence[Sequence[Any]], **kw) -> list:
        """Submit every argument set, wait for all, return results in
        order (re-raising the first error encountered)."""
        futures = [self.submit(source, fname, args, **kw) for args in argsets]
        return [f.result() for f in futures]

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting work, drain the queue, join the workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._work.notify_all()
        for t in self._threads:
            t.join(timeout)

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- dispatcher ------------------------------------------------------

    def _worker(self) -> None:
        while True:
            group = self._take_group()
            if group is None:
                return
            if not group:
                continue
            try:
                self._execute_group(group)
            except BaseException as e:  # never kill the worker loop
                for req in group:
                    if not req.future.done():
                        self._finish(req, error=e)

    def _take_group(self) -> Optional[list[_Request]]:
        """The next coalescible group of requests (:func:`_coalesce`),
        or None at shutdown.

        Idle dispatchers sleep on a condition notified by ``submit`` and
        ``close`` — no polling; ``poll_s`` is only a fallback heartbeat
        (``self._idle_wakeups`` counts its timeouts, pinned near zero by
        ``tests/serve/test_wakeup.py``).
        """
        with self._work:
            while True:
                if self._queue:
                    return _coalesce(self._queue, self.config.max_batch)
                if self._closed:
                    return None
                if not self._work.wait(self.config.poll_s):
                    self._idle_wakeups += 1

    # -- predicted-budget admission (docs/ANALYSIS.md, docs/SERVING.md) --

    def _predict(self, req: _Request) -> Optional[dict]:
        """The request's statically predicted cost, or ``None`` when the
        program is unbounded / prediction fails for any reason."""
        try:
            prog = self.cache.get(req.source, req.options, req.use_prelude)
            cert = prog.cost_certificate(
                req.fname, *prog.resolve_entry(req.fname, req.args, req.types))
            p = cert.predict(req.args)
        except Exception:
            return None
        return p if p["bounded"] else None

    def _admit(self, req: _Request) -> None:
        """Reject a budgeted request whose *predicted* cost already
        exceeds its budget — before it is queued or executed.  The
        mapping mirrors the interpreter guard's accounting (``work``
        steps and elements, ``8 * work`` bytes per
        ``interp/interpreter.py``); anything unpredictable is admitted
        and left to the runtime guard (the enforcement backstop)."""
        pred = self._predict(req)
        if pred is None:
            return
        b = req.budget
        assert b is not None
        for limit, used, cap in (
                ("predicted-steps", pred["work"], b.max_steps),
                ("predicted-elements", pred["work"], b.max_elements),
                ("predicted-bytes", 8 * pred["work"], b.max_bytes)):
            if cap is not None and used > cap:
                with self._lock:
                    self.stats.predicted_rejections += 1
                p = _obs.PROFILER
                if p is not None:
                    p.count("serve", "predicted_reject", 1, 0, 0)
                raise ResourceLimitError(limit, used, cap,
                                         stage="serve:submit",
                                         function=req.fname,
                                         request=req.rid)

    # -- tiered compilation ----------------------------------------------

    def _group_weight(self, members: list) -> int:
        """Tier-promotion weight of a request group: predicted work
        served, quantized to ``tier_unit_work`` units (each member at
        least 1, so unpredictable keys degrade to request counting)."""
        if self.config.tier_unit_work <= 0:
            return len(members)
        total = 0
        for r in members:
            pred = self._predict(r)
            if pred is None:
                total += 1
            else:
                total += max(1, -(-pred["work"]
                                  // self.config.tier_unit_work))
        return total

    def _tiered_run(self, prog, req: _Request,
                    group: Optional[list] = None):
        """Run one request (or its coalesced group, every member
        weighed) on the back end ``self.tier`` selects; a native-tier
        compile failure is reported to it and retried on the requested
        back end, so tiering never surfaces an error the requested back
        end would not have raised."""
        key = req.key()
        backend = req.backend
        if self.tier.eligible(key, backend):
            backend = self.tier.choose(
                key, backend, self._group_weight(group or [req]))

        def go(b: str):
            if group is not None:
                return prog.run_batched(req.fname,
                                        [r.args for r in group],
                                        backend=b, types=req.types,
                                        check=req.check)
            return prog.run(req.fname, req.args, backend=b,
                            types=req.types, check=req.check,
                            budget=req.budget)

        if backend == req.backend:
            return go(backend)
        try:
            result = go(backend)
        except NativeCompileError:
            self.tier.failed(key)
            return go(req.backend)
        self.tier.succeeded(key)
        return result

    # -- execution -------------------------------------------------------

    def _execute_group(self, group: list[_Request]) -> None:
        group = [r for r in group if not self._expired(r)]
        if not group:
            return
        if len(group) == 1:
            self._execute_single(group[0])
            return
        req = group[0]
        try:
            prog = self.cache.get(req.source, req.options, req.use_prelude)
            # every batch member is one served request: record its lookup
            # too, so the hit-rate measures request-level deduplication
            # rather than group-level (the entry is ready — each extra
            # get is a dict access under the lock)
            for _ in group[1:]:
                self.cache.get(req.source, req.options, req.use_prelude)
            results = self._tiered_run(prog, req, group)
        except ReproError:
            # decompose: attribute failures to the requests that caused
            # them, never to innocent batchmates
            with self._lock:
                self.stats.fallbacks += 1
            for r in group:
                self._execute_single(r)
            return
        self._note_batch(len(group))
        for r, value in zip(group, results):
            self._finish(r, value=value)

    def _execute_single(self, req: _Request) -> None:
        if self._expired(req):
            return
        try:
            prog = self.cache.get(req.source, req.options, req.use_prelude)
            value = self._tiered_run(prog, req)
        except ResourceLimitError as e:
            self._finish(req, error=_name_request(e, req.rid))
            return
        except BaseException as e:
            self._finish(req, error=e)
            return
        with self._lock:
            self.stats.singles += 1
        self._finish(req, value=value)

    def _expired(self, req: _Request) -> bool:
        if req.deadline is not None and time.monotonic() > req.deadline:
            with self._lock:
                self.stats.expired += 1
            self._finish(req, error=ResourceLimitError(
                "timeout", "deadline passed in queue",
                f"{req.deadline:.2f}", stage="serve:queue",
                request=req.rid))
            return True
        return False

    def _note_batch(self, n: int) -> None:
        with self._lock:
            self.stats.batches += 1
            self.stats.batched_requests += n
            if n > self.stats.max_batch:
                self.stats.max_batch = n
            self.stats.batch_sizes[n] = self.stats.batch_sizes.get(n, 0) + 1
        p = _obs.PROFILER
        if p is not None:
            # the batch-size histogram: calls per size live in batch_sizes;
            # the aggregate cell tracks count / total size / largest batch
            p.count("serve", "batch", n, n, 0)
            p.count("serve", f"batch[{n}]", n, n, 0)

    def _finish(self, req: _Request, value: Any = None,
                error: Optional[BaseException] = None) -> None:
        with self._lock:
            if error is not None:
                self.stats.errors += 1
            else:
                self.stats.responses += 1
        if error is not None:
            req.future._set_error(error)
        else:
            req.future._set_value(value)
