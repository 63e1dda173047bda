"""Exception hierarchy for the repro package.

Every user-facing failure raised by the pipeline derives from
:class:`ReproError`, so callers can catch a single type.  Each stage of the
pipeline (lexing, parsing, typing, transformation, execution) has its own
subclass carrying a source location when one is available.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro pipeline."""


class SourceError(ReproError):
    """An error attributable to a location in P source text."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.message = message
        self.line = line
        self.col = col
        where = f" at line {line}, column {col}" if line else ""
        super().__init__(f"{message}{where}")


class LexError(SourceError):
    """Invalid character or token while scanning P source."""


class ParseError(SourceError):
    """Syntactically invalid P source."""


class TypeCheckError(SourceError):
    """Static type error in a P program."""


class TransformError(ReproError):
    """The iterator-elimination transformation reached an invalid state."""


class AnalysisError(ReproError):
    """A static-analysis pass rejected the program.

    Raised by :mod:`repro.analysis` when a phase postcondition fails
    (IR verifier) or when the VCODE lint finds a hard error.  ``stage``
    names the pass
    and phase that failed (e.g. ``"verify:eliminate"``, ``"vlint:qsort__1"``);
    ``detail`` explains the violated rule; ``subterm`` optionally carries a
    pretty-printed minimal offending subterm.
    """

    def __init__(self, stage: str, detail: str, subterm: str = ""):
        self.stage = stage
        self.detail = detail
        self.subterm = subterm
        msg = f"analysis failed at {stage}: {detail}"
        if subterm:
            msg += f"\n  in: {subterm}"
        super().__init__(msg)


class EvalError(ReproError):
    """Runtime error in the reference interpreter (e.g. index out of range)."""


class VectorError(ReproError):
    """Invalid operation on the flat vector representation."""


class VMError(ReproError):
    """Runtime error in the VCODE virtual machine."""


class NativeCompileError(ReproError):
    """The native backend failed to compile or load a generated C kernel.

    Raised by :mod:`repro.native` when a C toolchain *is* present but a
    kernel could not be built (compiler error, unwritable cache directory,
    unloadable ``.so`` that survived one evict-and-retry).  A *missing*
    toolchain never raises — the engine falls back to the NumPy applier
    with a single warning (see docs/NATIVE.md).  ``stage`` names the step
    that failed (``"compile"``, ``"load"``, ``"cache"``); ``detail``
    carries the compiler diagnostics.
    """

    def __init__(self, stage: str, detail: str):
        self.stage = stage
        self.detail = detail
        super().__init__(f"native kernel {stage} failed: {detail}")


class GuardError(ReproError):
    """Base class for failures raised by the :mod:`repro.guard` runtime
    hardening layer (invariant checking, resource budgets, fault
    injection)."""


class InvariantError(GuardError):
    """The descriptor-vector representation invariant was violated.

    Raised by the strict-mode checker when a value crossing a kernel or
    backend boundary fails ``#V_{i+1} = sum(V_i)``, holds a negative
    count, or disagrees between descriptor and value-vector lengths.
    ``stage`` names the pipeline boundary that caught the corruption
    (e.g. ``"kernel:restrict"``, ``"extract"``, ``"vexec:qsort__1"``).
    """

    def __init__(self, stage: str, detail: str):
        self.stage = stage
        self.detail = detail
        super().__init__(f"invariant violated at {stage}: {detail}")


class ResourceLimitError(GuardError):
    """A resource budget was exceeded during guarded execution.

    ``limit`` names the exhausted budget (``"elements"``, ``"bytes"``,
    ``"steps"``, ``"timeout"`` or ``"call-depth"``); ``used``/``budget``
    give the measured and permitted amounts.  For the call-depth guard,
    ``function`` names the dominant recursive function and
    ``frame_sizes`` holds its most recent frame sizes (non-shrinking
    sizes indicate a flattened emptiness-guard recursion that will never
    terminate).
    """

    def __init__(self, limit: str, used, budget, stage: str = "",
                 function: str = "", frame_sizes=(), request: str = ""):
        self.limit = limit
        self.used = used
        self.budget = budget
        self.stage = stage
        self.function = function
        self.frame_sizes = tuple(frame_sizes)
        self.request = request
        msg = f"{limit} budget exceeded: {used} > {budget}"
        if stage:
            msg += f" at {stage}"
        if function:
            msg += f" (in {function}, recent frame sizes {list(self.frame_sizes)}"
            if len(self.frame_sizes) >= 2 and \
                    self.frame_sizes[-1] >= self.frame_sizes[0]:
                msg += " — non-shrinking recursion"
            msg += ")"
        if request:
            msg += f" [request {request}]"
        super().__init__(msg)


class WorkerCrashError(GuardError):
    """A serving-pool worker process died (or was killed) with requests
    in flight.

    Raised by :mod:`repro.serve.pool` for the requests a crashed worker
    could no longer answer, after the per-request retry budget is spent.
    ``reason`` classifies the death (``"exit"`` — nonzero exit status,
    ``"lost-heartbeat"`` — the worker stopped heartbeating,
    ``"poisoned-response"`` — the worker replied with a corrupt payload,
    ``"deadline"`` — the supervisor killed the worker for overrunning a
    request deadline, ``"shutdown"`` — the pool closed with work in
    flight); ``worker`` names the worker slot; ``request_ids`` carries
    every affected request id (PR-4 attribution: a crash is always
    attributable to the requests it took down, never to batchmates on
    other workers).
    """

    def __init__(self, reason: str, worker: str = "",
                 request_ids=(), detail: str = ""):
        self.reason = reason
        self.worker = worker
        self.request_ids = tuple(str(r) for r in request_ids)
        self.detail = detail
        msg = f"worker crashed ({reason})"
        if worker:
            msg += f" [{worker}]"
        if self.request_ids:
            msg += f" [requests {', '.join(self.request_ids)}]"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class FaultInjected(GuardError):
    """A deterministic fault-injection site fired in ``raise`` mode.

    Only ever raised by the testing harness (:mod:`repro.guard.faults`);
    carries the ``site`` name so error-routing tests can assert where the
    fault originated.
    """

    def __init__(self, site: str):
        self.site = site
        super().__init__(f"injected fault at {site}")
