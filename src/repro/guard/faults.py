"""Deterministic fault injection for the vector pipeline.

The point of the strict checker is that it catches *real* corruption, so
this module provides a way to manufacture corruption on demand and prove
the checker sees it.  A fault **site** is a named point in the pipeline
(``segments.gather_subtrees.desc-bump``, ``vexec.call.desc-negate``, ...)
where, when an injector is armed for that site, a descriptor array of the
in-flight value is corrupted *in place* — beneath the ``NestedVector``
constructor's own validation, exactly like a buggy kernel writing through
an aliased array.  Sites follow the zero-overhead-when-off contract: one
module-global load and an ``is None`` test when injection is off.

Corruption is seeded and deterministic: the injector draws the target
index and perturbation from ``random.Random(seed)``, so a failing site
replays exactly.  Two modes exist:

* ``"corrupt"`` (default) — silently mutate a descriptor entry (bump by a
  positive delta, or negate to a negative count).  The run then continues
  until a checker boundary observes the damage and raises a stage-named
  :class:`~repro.errors.InvariantError`.
* ``"raise"`` — raise :class:`~repro.errors.FaultInjected` at the site
  itself, for testing that backend failures route through the unified
  CLI reporter.

Use :func:`injecting` (it also disables the constructor-level
``CHECK_INVARIANTS`` belt within its scope, so the boundary checker is
the *only* line of defense being exercised)::

    with injecting("segments.gather_subtrees.desc-bump", seed=3) as inj:
        with guarded(GuardConfig(check=True)):
            prog.run("main", [args])   # raises InvariantError
    assert inj.fired
"""

from __future__ import annotations

import hashlib
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.errors import FaultInjected

__all__ = ["FaultInjector", "injecting", "FAULT_SITES",
           "PROCESS_FAULT_SITES", "ChaosSpec"]

#: The armed injector, or None when fault injection is off.
INJECTOR: Optional["FaultInjector"] = None

#: Every fault site compiled into the pipeline, with the boundary expected
#: to catch it.  Tests iterate this registry so a new site cannot be added
#: without proving the checker catches it.
FAULT_SITES: dict[str, str] = {
    "segments.gather_subtrees.desc-bump":
        "descriptor level of a gathered forest bumped by +1",
    "segments.gather_subtrees.desc-negate":
        "descriptor level of a gathered forest made negative",
    "segments.compress_subtrees.desc-bump":
        "descriptor level of a compressed forest bumped by +1",
    "segments.compress_subtrees.desc-negate":
        "descriptor level of a compressed forest made negative",
    "segments.merge_subtrees.desc-bump":
        "descriptor level of a merged forest bumped by +1",
    "segments.merge_subtrees.desc-negate":
        "descriptor level of a merged forest made negative",
    "segments.concat_levels.desc-bump":
        "pooled descriptor level bumped by +1",
    "segments.concat_levels.desc-negate":
        "pooled descriptor level made negative",
    "extract_insert.extract.top-bump":
        "extract's synthesized singleton descriptor bumped by +1",
    "extract_insert.extract.desc-negate":
        "a retained lower descriptor of extract's result made negative",
    "extract_insert.insert.desc-bump":
        "a re-attached frame descriptor of insert's result bumped by +1",
    "extract_insert.insert.desc-negate":
        "a re-attached frame descriptor of insert's result made negative",
    "vexec.call.desc-bump":
        "descriptor of a user-function call's result bumped by +1",
    "vexec.call.desc-negate":
        "descriptor of a user-function call's result made negative",
    "transform.R2d.drop-guard":
        "R2d emptiness guard dropped from one branch (combine arm unguarded)",
    "transform.R2c.depth-bump":
        "depth of one transformed application bumped by +1 (arg depths stale)",
}

class FaultInjector:
    """Arms one fault site; fires on the ``fire_on``-th corruptible visit.

    ``fired`` records whether corruption (or the raise) actually happened;
    a site visit that offers no corruptible descriptor (e.g. every
    candidate array is empty) does not consume the countdown.
    """

    def __init__(self, site: str, seed: int = 0, mode: str = "corrupt",
                 fire_on: int = 1):
        if site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {site!r}; known: {sorted(FAULT_SITES)}")
        if mode not in ("corrupt", "raise"):
            raise ValueError(f"bad fault mode {mode!r}")
        self.site = site
        self.mode = mode
        self.rng = random.Random(seed)
        self.countdown = fire_on
        self.fired = False
        self.detail: str = ""

    # -- site-side API ------------------------------------------------------

    def visit(self, site: str, arrays: list) -> None:
        """Called by an instrumented site with its candidate descriptor
        arrays; corrupts one entry of one non-empty int array when armed
        for this site and the countdown elapses."""
        if self.fired or site != self.site:
            return
        candidates = [a for a in arrays
                      if isinstance(a, np.ndarray) and a.size
                      and np.issubdtype(a.dtype, np.integer)]
        if not candidates:
            return
        self.countdown -= 1
        if self.countdown > 0:
            return
        if self.mode == "raise":
            self.fired = True
            raise FaultInjected(site)
        a = candidates[self.rng.randrange(len(candidates))]
        i = self.rng.randrange(a.size)
        if site.endswith("-negate"):
            a[i] = -1 - int(abs(a[i]))
        else:
            a[i] += self.rng.randrange(1, 4)
        self.fired = True
        self.detail = f"{site}: entry {i} of a {a.size}-element descriptor"

    def visit_ir(self, site: str, corrupt) -> None:
        """Called by an instrumented *transform* site with a corruption
        callback ``corrupt(rng) -> str | None``: when armed for this site
        and the countdown elapses, the callback mutates the in-flight IR
        and returns a description (or ``None`` if this visit offered
        nothing corruptible, which does not consume the countdown)."""
        if self.fired or site != self.site:
            return
        self.countdown -= 1
        if self.countdown > 0:
            return
        if self.mode == "raise":
            self.fired = True
            raise FaultInjected(site)
        detail = corrupt(self.rng)
        if detail is None:
            self.countdown = 1  # nothing corruptible here; rearm
            return
        self.fired = True
        self.detail = detail


def visit(site: str, arrays: list) -> None:
    """Module-level site helper; callers must already have tested the
    ``INJECTOR is not None`` fast path."""
    inj = INJECTOR
    if inj is not None:
        inj.visit(site, arrays)


def visit_ir(site: str, corrupt) -> None:
    """Module-level IR-site helper; callers must already have tested the
    ``INJECTOR is not None`` fast path."""
    inj = INJECTOR
    if inj is not None:
        inj.visit_ir(site, corrupt)


# ---------------------------------------------------------------------------
# Process-level faults (the serving pool's chaos registry)
# ---------------------------------------------------------------------------

#: Fault sites that live *between* processes rather than inside the vector
#: pipeline: each one is a way a pool worker can betray its supervisor.
#: The registered containment contract names the typed error the parent
#: must surface (and to whom).  ``tests/guard/test_process_faults.py``
#: iterates this registry with a driver per site, so — like
#: :data:`FAULT_SITES` — a new site cannot be added without proving it is
#: contained.
PROCESS_FAULT_SITES: dict[str, str] = {
    "pool.worker.abort":
        "worker process exits nonzero mid-request; contained as "
        "WorkerCrashError(reason='exit') on exactly the in-flight requests "
        "(or a transparent retry), worker respawned",
    "pool.worker.heartbeat-stall":
        "worker heartbeat goes silent while the request keeps running; "
        "contained as WorkerCrashError(reason='lost-heartbeat') after the "
        "heartbeat timeout, worker killed and respawned",
    "pool.worker.slow-compile":
        "worker wedges (sleeps) before compiling; contained as "
        "ResourceLimitError('timeout') on requests whose deadline passes, "
        "worker killed and respawned",
    "pool.worker.poisoned-response":
        "worker replies with a corrupted payload; contained as "
        "WorkerCrashError(reason='poisoned-response') on that request "
        "(or a transparent retry), worker killed and respawned",
    "pool.worker.torn-response":
        "worker dies halfway through writing a response frame to its "
        "pipe; contained as WorkerCrashError(reason='exit') on exactly "
        "the in-flight requests (or a transparent retry), nothing from "
        "the torn frame delivered, worker respawned",
}

#: Short CLI aliases for ``--chaos`` specs.
_CHAOS_ALIASES = {
    "abort": "pool.worker.abort",
    "stall": "pool.worker.heartbeat-stall",
    "slow": "pool.worker.slow-compile",
    "poison": "pool.worker.poisoned-response",
    "torn": "pool.worker.torn-response",
}


@dataclass(frozen=True)
class ChaosSpec:
    """Seeded, deterministic process-fault injection for the worker pool.

    A spec travels (pickled) into every worker process of a
    :class:`~repro.serve.pool.WorkerPool`; at each instrumented site the
    worker asks :meth:`fires` whether to misbehave for this request.  The
    decision is a pure hash of ``(seed, site, request id)``, so a chaos
    run replays exactly — same seed, same victims — with no cross-process
    RNG state to share.  ``rate`` is the per-(site, request) firing
    probability; ``stall_s``/``slow_s`` size the heartbeat stall and the
    wedged compile.
    """

    sites: tuple[str, ...]
    seed: int = 0
    rate: float = 1.0
    stall_s: float = 10.0
    slow_s: float = 1.0

    def __post_init__(self) -> None:
        for site in self.sites:
            if site not in PROCESS_FAULT_SITES:
                raise ValueError(
                    f"unknown process fault site {site!r}; "
                    f"known: {sorted(PROCESS_FAULT_SITES)}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")

    def fires(self, site: str, rid: str) -> bool:
        """Deterministic: does ``site`` fire for request ``rid``?"""
        if site not in self.sites:
            return False
        h = hashlib.sha256(f"{self.seed}:{site}:{rid}".encode()).digest()
        return int.from_bytes(h[:8], "big") < self.rate * 2.0 ** 64

    @classmethod
    def parse(cls, text: str) -> "ChaosSpec":
        """A spec from its CLI form: comma-separated sites (full names or
        the aliases ``abort``/``stall``/``slow``/``poison``/``torn``, or
        ``all``),
        optionally followed by ``:key=value`` settings, e.g.
        ``"abort,poison:rate=0.1:seed=3"``."""
        head, *opts = text.split(":")
        names = [n.strip() for n in head.split(",") if n.strip()]
        if names == ["all"]:
            sites = tuple(PROCESS_FAULT_SITES)
        else:
            sites = tuple(_CHAOS_ALIASES.get(n, n) for n in names)
        kw: dict = {}
        for opt in opts:
            key, _, value = opt.partition("=")
            key = key.strip()
            if key not in ("seed", "rate", "stall_s", "slow_s") or not value:
                raise ValueError(f"bad chaos option {opt!r}")
            kw[key] = int(value) if key == "seed" else float(value)
        return cls(sites=sites, **kw)


@contextmanager
def injecting(site: str, seed: int = 0, mode: str = "corrupt",
              fire_on: int = 1) -> Iterator[FaultInjector]:
    """Arm a :class:`FaultInjector` for the dynamic extent of the block.

    Also switches off the ``NestedVector`` constructor's own validation
    (``repro.vector.nested.CHECK_INVARIANTS``) within the scope: injected
    corruption must be caught by the *boundary* checker, proving it
    stands on its own.
    """
    global INJECTOR
    from repro.vector import nested
    inj = FaultInjector(site, seed=seed, mode=mode, fire_on=fire_on)
    prev, prev_check = INJECTOR, nested.CHECK_INVARIANTS
    INJECTOR = inj
    nested.CHECK_INVARIANTS = False
    try:
        yield inj
    finally:
        INJECTOR = prev
        nested.CHECK_INVARIANTS = prev_check
