"""The serve core: one request record, one ``submit``/admission path, and
one function that executes a coalesced group.

A :class:`BatchExecutor` accepts concurrent ``(source, fname, args)``
requests, deduplicates compilation through a shared
:class:`~repro.serve.cache.CompileCache`, and coalesces same-function
requests into one segment-batched call: N argument sets are packed as one
extra descriptor level and the batch runs as a *single* vector pass of the
synthesized depth-1 extension ``f^1``
(:meth:`repro.api.CompiledProgram.run_batched`).  Results are unpacked and
delivered per request, element-wise identical to N independent ``run()``
calls (``tests/serve/test_batch_equivalence.py``).

:func:`run_group` is the only code in this package that runs a program.
The executor's dispatcher threads call it directly;
:class:`~repro.serve.pool.WorkerPool` — this class with *where a request
waits* and *where a group runs* overridden — calls it, unchanged, in a
supervised worker process.  Everything in front of it (request building,
predicted admission, queue-depth accounting, deadline expiry, completion)
is this class's and is inherited, so the two executors cannot drift
(``tests/serve/test_equivalence.py``).

Coalescing rules (see docs/SERVING.md):

* requests group by :meth:`_Request.key` — same source, options, entry,
  argument-type signature, back end, and ``check`` flag;
* a :class:`~repro.guard.Budget` rides in the batch: a group holding any
  budget runs as one call of ``f^1`` (a lone budgeted request as a frame
  of one) under one guard whose ceilings are the per-field minimum of its
  members' budgets.  ``f^1`` on a frame uses at least what it uses on any
  sub-frame, so a group that passes passes every member, and one that
  breaches is decomposed below — a request's verdict never depends on its
  batchmates.  Only a budget that sets ``timeout_s`` runs alone: wall
  time is not frame-monotone;
* if a batched call fails for any reason, the group is decomposed and
  re-run request-by-request, each under its own budget, so errors land
  on exactly the requests that caused them — a failing request never
  poisons its batchmates;
* zero-argument and function-valued-argument entries fall back to the
  per-request path (no frame to enumerate / per-request dispatch tables).

Tiered compilation (:class:`~repro.serve.policy.TierPolicy`): a batch key
starts on the cheap ``vector`` (NumPy) back end; once it has served
``ServeConfig.native_after`` weight units of *predicted work* (one unit
per :data:`TIER_UNIT_WORK`, at least one per request) it is *promoted* to
the ``native`` back end (compiled fused C kernels, docs/NATIVE.md).
Native compile failures feed the key's circuit breaker, which *demotes*
it until a cooldown probe succeeds (docs/RELIABILITY.md).

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
from dataclasses import dataclass, field, fields
from typing import Any, Optional, Sequence

from repro.api import backend_row
from repro.errors import NativeCompileError, ReproError, ResourceLimitError
from repro.guard.runtime import Budget
from repro.obs import runtime as _obs
from repro.serve.cache import CompileCache, cache_key
from repro.serve.policy import TierPolicy
from repro.transform.pipeline import TransformOptions

__all__ = ["ServeConfig", "ServeFuture", "ServeStats", "BatchExecutor",
           "run_group", "TIER_UNIT_WORK"]

#: Predicted work per tier-promotion weight unit: a request weighs
#: ``max(1, ceil(predicted_work / TIER_UNIT_WORK))``, so a few heavy
#: requests promote a key as fast as many light ones.
TIER_UNIT_WORK = 4096


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of the serve core (docs/SERVING.md lists every field)."""

    max_batch: int = 64          #: largest coalesced group per vector pass
    max_queue: int = 1024        #: bounded queue depth (backpressure limit)
    workers: int = 1             #: dispatcher threads draining the queue
    backend: str = "vector"      #: default back end for requests
    check: bool = False          #: default strict-checking flag
    cache_capacity: int = 128    #: LRU slots in each compile cache
    #: tiered compilation: after this many weight units served for one
    #: batch key on the ``vector`` back end, later requests for the key
    #: run on ``native`` (when a C toolchain exists).  ``0`` disables
    #: tiering.  See docs/NATIVE.md.
    native_after: int = 3
    #: this many *consecutive* native compile failures open a key's
    #: circuit breaker (demotion to the requested back end) ...
    breaker_failures: int = 3
    #: ... until, this long after, one half-open probe re-tries the
    #: native tier.  See docs/RELIABILITY.md.
    breaker_cooldown_s: float = 5.0
    #: predicted-budget admission control: when a budgeted request's
    #: *statically predicted* cost (docs/ANALYSIS.md cost model) already
    #: exceeds its budget, ``submit`` rejects it with
    #: ``ResourceLimitError("predicted-...")`` before it is queued or
    #: executed.  Prediction failures (or unbounded programs) always
    #: admit — the runtime guard stays as the enforcement backstop.
    predict_admission: bool = True


class ServeFuture:
    """The pending result of one submitted request.

    A one-shot latch: a lock taken at construction, which the executor
    releases — once, under its own lock, with the outcome in place.  A
    waiter takes the latch, with its timeout, and puts it straight back,
    so every other waiter passes too."""

    __slots__ = ("_latch", "_outcome")

    def __init__(self) -> None:
        self._latch = threading.Lock()
        self._latch.acquire()
        #: None while pending, then ``(ok, value-or-error)``
        self._outcome: Optional[tuple] = None

    def done(self) -> bool:
        return self._outcome is not None

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until the request finished; re-raises its error."""
        ok, body = self._wait(timeout)
        if ok:
            return body
        raise body

    def exception(self, timeout: Optional[float] = None
                  ) -> Optional[BaseException]:
        ok, body = self._wait(timeout)
        return None if ok else body

    def _wait(self, timeout: Optional[float]) -> tuple:
        if self._outcome is None:
            if not self._latch.acquire(
                    timeout=-1 if timeout is None else max(timeout, 0)):
                raise TimeoutError("request still pending")
            self._latch.release()
        return self._outcome

    def _complete(self, ok: bool, body: Any) -> bool:
        """Producer side, the executor's lock held: set the outcome
        unless there is one already (a crash or a deadline got there
        first); True when this call set it."""
        if self._outcome is not None:
            return False
        self._outcome = (ok, body)
        self._latch.release()
        return True


@dataclass
class ServeStats:
    """Always-on serving statistics (cheap integer updates under a lock)."""

    requests: int = 0            #: accepted submissions
    responses: int = 0           #: futures completed with a value
    errors: int = 0              #: futures completed with an error
    rejected: int = 0            #: submissions refused (queue full)
    predicted_rejections: int = 0  #: refused by predicted-budget admission
    expired: int = 0             #: requests whose deadline passed
    batches: int = 0             #: coalesced vector passes executed
    batched_requests: int = 0    #: requests served by those passes
    singles: int = 0             #: requests run individually
    budgeted_batched: int = 0    #: budgeted requests served by batches
    fallbacks: int = 0           #: batches decomposed after a failure
    max_batch: int = 0           #: largest batch executed
    max_queue_depth: int = 0     #: high-water mark of the queue
    promotions: int = 0          #: batch keys promoted to the native tier
    demotions: int = 0           #: breaker trips demoting a promoted key
    batch_sizes: dict = field(default_factory=dict)  #: size -> batch count

    def snapshot(self) -> dict:
        """Every field by name (dict-valued ones copied)."""
        return {f.name: dict(v) if isinstance(v := getattr(self, f.name), dict)
                else v for f in fields(self)}


class _Request:
    """One unit of work, as it is queued."""

    __slots__ = ("rid", "source", "fname", "args", "types", "backend",
                 "check", "budget", "options", "use_prelude", "deadline",
                 "future", "batch_key", "attempts")

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
        self.budget = budget if budget and budget.any_set() else None
        self.options = options
        self.use_prelude = use_prelude
        self.deadline = (time.monotonic() + deadline_s
                         if deadline_s is not None else None)
        self.future = ServeFuture()
        #: what it coalesces, tiers and shards on, budgeted or not
        self.batch_key: tuple = (
            cache_key(source, options, use_prelude), fname, self.types,
            self.backend, self.check)
        self.attempts = 0            #: runs a worker incident cut short

    def key(self) -> Optional[tuple]:
        """The coalescing key, or None when the request must run alone
        (its budget sets ``timeout_s``)."""
        b = self.budget
        return self.batch_key if b is None or b.timeout_s is None else None


def _partition(queue: deque, max_batch: int) -> list:
    """Every request of ``queue`` in its coalescible groups, in one pass.
    A request without a key is a group of one; any other joins its key's
    open group while that group is below ``max_batch``, and otherwise
    opens a new group at its own position.  Groups come in the order of
    their first members; ``queue`` is left as it was."""
    groups: list = []
    open_groups: dict = {}
    for r in queue:
        key = r.key()
        group = open_groups.get(key) if key is not None else None
        if group is not None and len(group) < max_batch:
            group.append(r)
            continue
        group = [r]
        groups.append(group)
        if key is not None:
            open_groups[key] = group
    return groups


def _job(group: list) -> dict:
    """What :func:`run_group` needs of a coalesced group — plain
    picklable data, so the same job runs in this process or a worker."""
    lead = group[0]
    return {"source": lead.source, "options": lead.options,
            "use_prelude": lead.use_prelude, "fname": lead.fname,
            "types": lead.types, "check": lead.check,
            "backend": lead.backend, "key": lead.batch_key,
            "items": [(r.rid, r.args) for r in group],
            "budgets": [r.budget for r in group]}


def _tightest(budgets: list) -> Optional[Budget]:
    """One guard for a group: each ceiling the least its members set
    (None when no member carries a budget)."""
    budgets = [b for b in budgets if b is not None]
    if len(budgets) < 2:
        return budgets[0] if budgets else None
    return Budget(*(min((v for v in vals if v is not None), default=None)
                    for vals in zip(*(vars(b).values() for b in budgets))))


def _predict(prog, fname: str, args: list, types) -> Optional[dict]:
    """The statically predicted cost of one call, or ``None`` when the
    program is unbounded / prediction fails for any reason."""
    try:
        p = prog.predict(fname, args, types)
    except Exception:
        return None
    return p if p["bounded"] else None


def _name_request(e: BaseException, rid: str) -> BaseException:
    """A :class:`ResourceLimitError` re-made with the originating request
    named (any other error as is) — a breach escaping a decomposed batch
    stays attributable."""
    if not isinstance(e, ResourceLimitError) or e.request:
        return e
    return ResourceLimitError(e.limit, e.used, e.budget, stage=e.stage,
                              function=e.function,
                              frame_sizes=e.frame_sizes, request=rid)


def run_group(cache: CompileCache, tier: TierPolicy,
              job: dict) -> tuple[list, dict]:
    """Execute one coalesced group (:func:`_job`): ``(outcomes, flags)``
    with one ``(ok, value-or-error)`` per item, in order.

    One batched pass on the back end ``tier`` selects, under the
    :func:`_tightest` of the members' budgets (a lone unbudgeted request
    runs unbatched, as ``f``; a budget is always charged on ``f^1``); a
    native-tier compile failure is reported to ``tier`` and retried on
    the requested back end, so tiering never surfaces an error the
    requested back end would not have raised; any other
    :class:`ReproError` decomposes a batch into per-request runs, each
    under its own budget, every :class:`ResourceLimitError`
    request-named.  ``flags`` marks what the caller accounts:
    ``promoted``, ``demoted``, ``fallback`` (decomposed), ``budgeted``
    (members with a budget, when the batch passed).
    """
    items, budgets = job["items"], job["budgets"]
    flags: dict = {}
    try:
        # every batch member is one served request, so the hit-rate
        # measures request-level deduplication
        prog = cache.get(job["source"], job["options"], job["use_prelude"],
                         lookups=len(items))
    except Exception as e:
        return [(False, e)] * len(items), flags
    fname, types, check = job["fname"], job["types"], job["check"]
    requested, key = job["backend"], job["key"]

    def one(args: list, backend: str, budget: Optional[Budget]):
        if budget is None:
            return prog.run(fname, args, backend=backend, types=types,
                            check=check)
        return prog.run_batched(fname, [args], backend=backend, types=types,
                                check=check, budget=budget)[0]

    def whole(backend: str) -> list:
        if len(items) == 1:
            return [one(items[0][1], backend, budgets[0])]
        return prog.run_batched(fname, [args for _, args in items],
                                backend=backend, types=types, check=check,
                                budget=_tightest(budgets))

    def weight() -> int:
        total = 0
        for _, args in items:
            pred = _predict(prog, fname, args, types)
            total += 1 if pred is None else \
                max(1, -(-pred["work"] // TIER_UNIT_WORK))
        return total

    backend, promoted = tier.choose(key, requested, weight)
    if promoted:
        flags["promoted"] = True
    try:
        try:
            values = whole(backend)
        except NativeCompileError:
            if backend == requested:
                raise
            if tier.failed(key):
                flags["demoted"] = True
            values = whole(requested)
        else:
            if backend != requested:
                tier.succeeded(key)
        if len(items) > 1 and (n := sum(b is not None for b in budgets)):
            flags["budgeted"] = n
        return [(True, v) for v in values], flags
    except ReproError as e:
        if len(items) == 1:
            return [(False, _name_request(e, items[0][0]))], flags
        flags["fallback"] = True
    except Exception as e:
        return [(False, e)] * len(items), flags
    outcomes = []
    for (rid, args), budget in zip(items, budgets):
        try:
            outcomes.append((True, one(args, requested, budget)))
        except Exception as e:
            outcomes.append((False, _name_request(e, rid)))
    return outcomes, flags


class BatchExecutor:
    """Queue + compile cache + coalescing dispatcher; the programmatic
    face of ``repro serve``.

    Use as a context manager, or call :meth:`close` when done::

        with BatchExecutor() as ex:
            futs = [ex.submit(SRC, "main", [k]) for k in range(100)]
            results = [f.result() for f in futs]
    """

    _Config = ServeConfig
    _Stats = ServeStats

    def __init__(self, config: Optional[ServeConfig] = None,
                 cache: Optional[CompileCache] = None):
        self.config = config or self._Config()
        if self.config.max_batch < 1 or self.config.max_queue < 1 \
                or self.config.workers < 1:
            raise ValueError("max_batch, max_queue and workers must be >= 1")
        # `cache or ...` would discard an *empty* injected cache (len == 0
        # makes it falsy), so test against None explicitly
        self.cache = (cache if cache is not None
                      else CompileCache(self.config.cache_capacity))
        self.stats = self._Stats()
        self._rid = itertools.count(1)         # fallback request-id source
        self._lock = threading.Lock()          # queues + stats
        self._work = threading.Condition(self._lock)   # any state change
        self._closed = False
        self._start()

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
        accumulating unbounded work —, ``ResourceLimitError
        ("predicted-...", ...)`` when a budgeted request's predicted cost
        already exceeds its budget, and ``ValueError`` for a back end
        :data:`repro.api.BACKENDS` does not list.

        ``request_id`` names the request in every budget/deadline/
        backpressure :class:`~repro.errors.ResourceLimitError` it can
        provoke, so a breach inside a coalesced batch is attributable to
        the request that caused it.  Auto-assigned (``r1``, ``r2``, ...)
        when not given.
        """
        cfg = self.config
        req = _Request(
            request_id if request_id is not None else f"r{next(self._rid)}",
            cfg, source, fname, args, types, backend, check, budget,
            options, use_prelude, deadline_s)
        if cfg.predict_admission and req.budget is not None:
            self._admit(req)     # may raise ResourceLimitError("predicted-…")
        with self._work:
            if self._closed:
                raise RuntimeError(f"{type(self).__name__} is closed")
            depth = self._depth()
            if depth >= cfg.max_queue:
                self.stats.rejected += 1
                raise ResourceLimitError("queue-depth", depth + 1,
                                         cfg.max_queue, stage="serve:submit",
                                         request=req.rid)
            self._enqueue(req)
            depth += 1
            self.stats.requests += 1
            if depth > self.stats.max_queue_depth:
                self.stats.max_queue_depth = depth
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
            return self._depth()

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting work, drain the queue, join the workers."""
        with self._work:
            if self._closed:
                return
            self._closed = True
            self._work.notify_all()
        for t in self._threads:
            t.join(timeout)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- where a request waits, where a group runs ------------------------
    # (the four methods WorkerPool overrides, plus its start and close)

    def _start(self) -> None:
        self.tier = TierPolicy(self.config.native_after,
                               self.config.breaker_failures,
                               self.config.breaker_cooldown_s)
        self._queue: deque[_Request] = deque()
        self._threads = self._spawn_dispatchers(
            [None] * self.config.workers, "repro-serve")

    def _depth(self) -> int:
        """Requests waiting (``self._lock`` held)."""
        return len(self._queue)

    def _enqueue(self, req: _Request) -> None:
        """Park an accepted request and wake what drains it
        (``self._lock`` held)."""
        self._queue.append(req)
        self._work.notify()

    def _take_frame(self, slot) -> Optional[list[list[_Request]]]:
        """The groups to run next, in order — here a frame of one, the
        first group :func:`_partition` forms, its members taken out of
        the queue — or None at shutdown.  An idle dispatcher sleeps on
        the condition ``submit`` and ``close`` notify — no timeout, no
        polling (``tests/serve/test_wakeup.py``)."""
        with self._work:
            while not self._queue:
                if self._closed:
                    return None
                self._work.wait()
            group = _partition(self._queue, self.config.max_batch)[0]
            taken = set(group)
            self._queue = deque(r for r in self._queue if r not in taken)
            return [group]

    def _run(self, slot, frame: list[list[_Request]]) -> None:
        for group in frame:
            outcomes, flags = run_group(self.cache, self.tier, _job(group))
            self._record(len(group), flags)
            self._complete([(req, ok, body)
                            for req, (ok, body) in zip(group, outcomes)])

    # -- dispatcher ------------------------------------------------------

    def _spawn_dispatchers(self, slots: list, name: str) -> list:
        threads = [threading.Thread(target=self._worker, args=(slot,),
                                    name=f"{name}-{i}", daemon=True)
                   for i, slot in enumerate(slots)]
        for t in threads:
            t.start()
        return threads

    def _worker(self, slot) -> None:
        while (frame := self._take_frame(slot)) is not None:
            frame = [[r for r in group if not self._expired(r)]
                     for group in frame]
            if not (frame := [group for group in frame if group]):
                continue
            try:
                self._run(slot, frame)
            except BaseException as e:  # never kill the dispatcher loop
                for group in frame:
                    for req in group:
                        self._finish(req, error=e)

    # -- predicted-budget admission (docs/ANALYSIS.md, docs/SERVING.md) --

    def _admit(self, req: _Request) -> None:
        """Reject a budgeted request whose *predicted* cost already
        exceeds its budget — before it is queued or executed.  The
        mapping mirrors the interpreter guard's accounting (``work``
        steps and elements, ``8 * work`` bytes per
        ``interp/interpreter.py``); anything unpredictable is admitted
        and left to the runtime guard (the enforcement backstop)."""
        try:
            prog = self.cache.get(req.source, req.options, req.use_prelude)
        except Exception:
            return                  # the compile error surfaces at execution
        pred = _predict(prog, req.fname, req.args, req.types)
        if pred is None:
            return
        b = req.budget
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

    # -- accounting and completion ----------------------------------------

    def _expired(self, req: _Request) -> bool:
        if req.deadline is None or time.monotonic() <= req.deadline:
            return False
        with self._lock:
            self.stats.expired += 1
        self._finish(req, error=ResourceLimitError(
            "timeout", "deadline passed in queue", f"{req.deadline:.2f}",
            stage="serve:queue", request=req.rid))
        return True

    def _record(self, n: int, flags: dict) -> None:
        """Account one executed group of ``n`` requests and what
        :func:`run_group` flagged about it."""
        batched = n > 1 and "fallback" not in flags
        s = self.stats
        with self._lock:
            s.promotions += flags.get("promoted", 0)
            s.demotions += flags.get("demoted", 0)
            s.fallbacks += flags.get("fallback", 0)
            if batched:
                s.batches += 1
                s.batched_requests += n
                s.budgeted_batched += flags.get("budgeted", 0)
                s.max_batch = max(s.max_batch, n)
                s.batch_sizes[n] = s.batch_sizes.get(n, 0) + 1
            else:
                s.singles += n
        p = _obs.PROFILER
        if p is None:
            return
        if "promoted" in flags:
            p.count("serve", "tier_promotion", 1, 0, 0)
        if "demoted" in flags:
            p.count("serve", "tier_demotion", 1, 0, 0)
            p.count("serve", "breaker_open", 1, 0, 0)
        if batched:
            # the batch-size histogram: calls per size live in batch_sizes;
            # the aggregate cell tracks count / total size / largest batch
            p.count("serve", "batch", n, n, 0)
            p.count("serve", f"batch[{n}]", n, n, 0)

    def _complete(self, outcomes: Sequence[tuple]) -> None:
        """Complete each ``(request, ok, value-or-error)``, and account
        it, under one lock acquisition.  A request completes once: one
        already failed by a crash or a deadline keeps that outcome."""
        s = self.stats
        with self._lock:
            for req, ok, body in outcomes:
                if req.future._complete(ok, body):
                    if ok:
                        s.responses += 1
                    else:
                        s.errors += 1

    def _finish(self, req: _Request, value: Any = None,
                error: Optional[BaseException] = None) -> None:
        self._complete([(req, error is None,
                         value if error is None else error)])
