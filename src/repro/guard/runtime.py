"""The guard switch: strict invariant checking and resource budgets.

This module follows the zero-overhead-when-off contract established by
:mod:`repro.obs.runtime`.  Every guarded hot path in the package reads
one module global and tests it against ``None``; only when some thread
has a scope open does it go on to the calling thread's own state::

    from repro.guard import runtime as _guard
    ...
    g = _guard.GUARD
    if g is not None and (g := g.state) is not None:
        g.after_kernel(name, n, result)

When guarding is off (the default) the cost of a guard site is one
module-attribute load and one ``is None`` test — no allocation, no size
computation, no clock read.  Activation is scoped::

    from repro.guard import Budget, GuardConfig, guarded

    with guarded(GuardConfig(check=True, budget=Budget(max_steps=10_000))):
        prog.run("main", [64])

``guarded`` saves and restores the previously active state, so scopes nest
(the innermost guard observes the work).  The active state is per thread:
a serve dispatcher running one request's budget never charges the kernels
another thread runs at the same time.

Two independent facilities live behind the switch:

* **strict invariant checking** (``check=True``) — every value crossing a
  kernel or backend boundary is re-validated against the descriptor
  invariant ``#V_{i+1} = sum(V_i)`` (see :mod:`repro.guard.invariants`);
  corruption raises a stage-named :class:`~repro.errors.InvariantError`;
  ``check="static"`` keeps only the re-checks that can fail on valid
  arguments (:class:`GuardConfig`).

* **resource budgets** (:class:`Budget`) — ceilings on elements moved,
  bytes moved, execution steps, wall-clock time, and user-function call
  depth.  A breach raises :class:`~repro.errors.ResourceLimitError`
  instead of hanging, exhausting memory, or blowing the Python stack; the
  call-depth diagnostic names the dominant recursive function and its
  recent frame sizes so a non-shrinking emptiness-guard recursion (the
  classic flattening non-termination mode, section 3) is recognizable at
  a glance.

The module also hosts :func:`scoped_recursion_limit`, the shared fix for
the recursion-limit leak: all three executors used to raise
``sys.setrecursionlimit`` globally and never restore it.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.errors import ResourceLimitError
from repro.lang.builtins import is_static_kernel

# Bound lazily on first strict check: repro.guard.invariants imports the
# vector package, whose modules import this module at load time.
_validate_value = None

__all__ = ["Budget", "GuardConfig", "GuardState", "guarded",
           "scoped_recursion_limit", "current"]


class _Scopes(threading.local):
    state: Optional["GuardState"] = None     # this thread's innermost scope


_SCOPES = _Scopes()
_open = 0                           # scopes open across all threads
_open_lock = threading.Lock()

#: None while no thread has a guard scope open, else the per-thread
#: holder whose ``state`` is the calling thread's active guard.  Guarded
#: code reads this exactly once per site.
GUARD: Optional[_Scopes] = None

#: How many of the innermost stack frames the call-depth diagnostic
#: inspects when attributing a depth breach to one function.
_DIAG_WINDOW = 32

#: Deadline checks happen every ``_CLOCK_MASK + 1`` steps so the budget
#: machinery stays cheap even under per-instruction ticking.
_CLOCK_MASK = 0x3F


@dataclass(frozen=True)
class Budget:
    """Resource ceilings for one guarded run; ``None`` disables a ceiling.

    ``max_elements``/``max_bytes`` bound the total leaf elements / bytes
    produced by vector kernels, ``max_steps`` bounds execution steps
    (vector-op invocations, interpreter applications),
    ``timeout_s`` bounds wall-clock seconds, and ``max_call_depth`` bounds
    user-function recursion depth across all backends.
    """

    max_elements: Optional[int] = None
    max_bytes: Optional[int] = None
    max_steps: Optional[int] = None
    timeout_s: Optional[float] = None
    max_call_depth: Optional[int] = None

    def any_set(self) -> bool:
        return any(v is not None for v in (
            self.max_elements, self.max_bytes, self.max_steps,
            self.timeout_s, self.max_call_depth))


@dataclass(frozen=True)
class GuardConfig:
    """What a guarded scope enforces: strict checking and/or budgets.

    ``check`` is ``False``, ``True`` (or ``"full"``: re-validate every
    value crossing a kernel or call boundary) or ``"static"``: skip the
    re-checks that prove nothing new, those of a kernel whose catalog
    shape class is static (:func:`repro.lang.builtins.shape_class`) and
    those of every call boundary, since a user function's result is made
    by kernels that were checked or need not be.  Budgets are enforced
    in every mode.
    """

    check: Union[bool, str] = False
    budget: Budget = field(default_factory=Budget)


class GuardState:
    """Mutable per-scope enforcement state (counters, deadline, call stack).

    Built by :func:`guarded`; guarded code calls the ``after_kernel`` /
    ``tick`` / ``enter_call`` / ``exit_call`` / ``check_value`` hooks.
    """

    __slots__ = ("config", "check", "static", "_track_data",
                 "track_frames", "_max_elements", "_max_bytes",
                 "_max_steps", "_max_depth", "_deadline", "_timeout",
                 "elements", "bytes_moved", "steps", "stack")

    def __init__(self, config: GuardConfig):
        self.config = config
        self.check = bool(config.check)
        self.static = config.check == "static"
        b = config.budget
        # Data-movement counters are only meaningful when a data ceiling is
        # set; skipping the per-kernel size computation otherwise keeps
        # check="static" runs close to check-off cost.
        self._track_data = (b.max_elements is not None
                            or b.max_bytes is not None)
        self._max_elements = b.max_elements
        self._max_bytes = b.max_bytes
        self._max_steps = b.max_steps
        self._max_depth = b.max_call_depth
        # Frame sizes only feed the depth-breach diagnostic; skip the
        # per-call size computation when no depth ceiling is set.
        self.track_frames = b.max_call_depth is not None
        self._timeout = b.timeout_s
        self._deadline = (time.perf_counter() + b.timeout_s
                          if b.timeout_s is not None else None)
        self.elements = 0
        self.bytes_moved = 0
        self.steps = 0
        #: (function name, total argument frame elements) per live call.
        self.stack: list[tuple[str, int]] = []

    # -- budget enforcement ------------------------------------------------

    def tick(self, stage: str) -> None:
        """Charge one execution step at ``stage``; enforces the step
        ceiling and (periodically) the wall-clock deadline."""
        self.steps += 1
        if self._max_steps is not None and self.steps > self._max_steps:
            raise ResourceLimitError("steps", self.steps, self._max_steps,
                                     stage=stage)
        if self._deadline is not None and (self.steps & _CLOCK_MASK) == 0:
            now = time.perf_counter()
            if now > self._deadline:
                raise self._timeout_error(now, stage)

    def charge(self, stage: str, elements: int, nbytes: int) -> None:
        """Charge data movement at ``stage`` and enforce ceilings."""
        self.elements += elements
        self.bytes_moved += nbytes
        if self._max_elements is not None and self.elements > self._max_elements:
            raise ResourceLimitError("elements", self.elements,
                                     self._max_elements, stage=stage)
        if self._max_bytes is not None and self.bytes_moved > self._max_bytes:
            raise ResourceLimitError("bytes", self.bytes_moved,
                                     self._max_bytes, stage=stage)

    def deadline_check(self, stage: str) -> None:
        """Unconditional wall-clock check (used at call boundaries)."""
        if self._deadline is not None:
            now = time.perf_counter()
            if now > self._deadline:
                raise self._timeout_error(now, stage)

    def _timeout_error(self, now: float, stage: str) -> ResourceLimitError:
        elapsed = self._timeout + (now - self._deadline)
        return ResourceLimitError("timeout", f"{elapsed:.2f}s",
                                  f"{self._timeout:g}s", stage=stage)

    # -- the flattened-recursion depth guard -------------------------------

    def enter_call(self, fname: str, frame_elems: int) -> None:
        """Push one user-function call; breach of the depth ceiling raises
        a diagnostic naming the dominant function and its frame sizes."""
        self.stack.append((fname, frame_elems))
        if self._max_depth is not None and len(self.stack) > self._max_depth:
            raise self._depth_breach()
        self.deadline_check(f"call:{fname}")

    def exit_call(self) -> None:
        self.stack.pop()

    def _depth_breach(self) -> ResourceLimitError:
        window = self.stack[-_DIAG_WINDOW:]
        by_name: dict[str, list[int]] = {}
        for name, size in window:
            by_name.setdefault(name, []).append(size)
        hot = max(by_name, key=lambda n: len(by_name[n]))
        return ResourceLimitError(
            "call-depth", len(self.stack), self._max_depth,
            stage=f"call:{self.stack[-1][0]}",
            function=hot, frame_sizes=by_name[hot][-8:])

    # -- strict checking ---------------------------------------------------

    def check_value(self, stage: str, value) -> None:
        """Validate the descriptor invariant on ``value`` (only in
        ``check`` mode; callers test :attr:`check` first on hot paths)."""
        if self.check:
            global _validate_value
            if _validate_value is None:
                from repro.guard.invariants import validate_value
                _validate_value = validate_value
            _validate_value(stage, value)

    def after_kernel(self, name: str, frame_len: int, result) -> None:
        """The kernel-boundary hook: validate the result (strict mode,
        unless ``check="static"`` and the kernel's shape class is static)
        and charge its size against the budgets."""
        stage = f"kernel:{name}"
        if self.check and not (self.static and is_static_kernel(name)):
            self.check_value(stage, result)
        self.tick(stage)
        if self._track_data:
            from repro.vector.ops import value_nbytes, value_size
            self.charge(stage, value_size(result), value_nbytes(result))


def current() -> Optional[GuardState]:
    """The calling thread's active guard state, or None."""
    return _SCOPES.state


@contextmanager
def guarded(config: Optional[GuardConfig] = None) -> Iterator[GuardState]:
    """Activate a :class:`GuardState` in this thread for the block,
    restoring the previous one afterwards (scopes nest)."""
    global GUARD, _open
    state = GuardState(config or GuardConfig(check=True))
    prev = _SCOPES.state
    with _open_lock:
        _open += 1
        GUARD = _SCOPES
    _SCOPES.state = state
    try:
        yield state
    finally:
        _SCOPES.state = prev
        with _open_lock:
            _open -= 1
            if not _open:
                GUARD = None


# The recursion limit is interpreter-wide, but scopes open and close from
# many threads once the serving layer runs executors on workers.  A plain
# save/restore pair is only correct for strictly nested (LIFO, same-thread)
# scopes: with two overlapping scopes the first to exit restores its saved
# limit underneath the survivor, which then blows RecursionError mid-run.
# So all scopes share one lock-protected multiset of active requests; the
# effective limit is the max over them, and the baseline is only restored
# when the last scope leaves.
_rec_lock = threading.Lock()
_rec_scopes: list[int] = []          # active requested limits (a multiset)
_rec_baseline: int = 0               # the limit before the first live scope
_rec_wrote: Optional[int] = None     # last value this module wrote, if any


@contextmanager
def scoped_recursion_limit(limit: int) -> Iterator[None]:
    """Raise the Python recursion limit to at least ``limit`` for the
    dynamic extent of the block, then restore the previous limit once the
    *outermost* scope leaves.

    This replaces the historical pattern of every executor calling
    ``sys.setrecursionlimit`` globally and never restoring it, which
    leaked a 200k recursion limit into the host process.  Scopes are
    re-entrant and thread-safe: overlapping (even non-LIFO, cross-thread)
    scopes keep the limit at the maximum any live scope requested, and the
    original limit comes back only when the last one exits.  Restoration
    is skipped if someone else changed the limit meanwhile (last writer
    wins, matching ``sys`` semantics for nested users).
    """
    global _rec_baseline, _rec_wrote
    with _rec_lock:
        if not _rec_scopes:
            _rec_baseline = sys.getrecursionlimit()
        _rec_scopes.append(limit)
        target = max(_rec_baseline, max(_rec_scopes))
        if target > sys.getrecursionlimit():
            sys.setrecursionlimit(target)
            _rec_wrote = target
    try:
        yield
    finally:
        with _rec_lock:
            _rec_scopes.remove(limit)
            cur = sys.getrecursionlimit()
            if _rec_wrote is not None and cur == _rec_wrote:
                # we own the current value; lower it to what is still needed
                target = (max(_rec_baseline, max(_rec_scopes))
                          if _rec_scopes else _rec_baseline)
                if target != cur:
                    sys.setrecursionlimit(target)
                    _rec_wrote = None if not _rec_scopes else target
