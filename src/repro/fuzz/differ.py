"""One fuzz loop: seeded programs, a verdict per program, one shrinker.

:func:`fuzz` draws programs from :func:`~repro.fuzz.gen.gen_case` and
hands each to a :class:`Verdict`, which answers with a tally word or a
finding.  :class:`Differential` (``repro fuzz``) runs the program on
every selected lane — by default the reference interpreter (the paper's
section-2 semantics) and the vector evaluator, widened by ``backends=``
to ``native`` and ``native@t`` — and finds a :class:`Disagreement`;
:class:`CostSoundness` (``repro fuzz --cost``) finds a measured cost
above the static bound, a :class:`CostViolation`.  Every finding is
minimized by the one greedy shrinker, :func:`shrink_case`, which keeps a
smaller program only if the verdict still returns a finding with the
same ``signature``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional, Union

from repro import api
from repro.errors import ReproError
from repro.fuzz.gen import (
    ATOMS, FuzzCase, Node, gen_case, leaf, replace_at, subnodes,
)
from repro.guard.runtime import Budget

#: The lanes the differ can drive: every back end, and ``native@2`` —
#: ``run(..., backend="native", threads=2)``, the threaded kernels on
#: inputs far below the size that would pick them (``--backends`` takes
#: any ``native@t``).
ALL_BACKENDS = (*api.BACKENDS, "native@2")

#: the default lanes: the reference interpreter and the vector evaluator
BACKENDS = ALL_BACKENDS[:2]


def lane_call(lane: str) -> tuple[str, Optional[int]]:
    """``(backend, threads)`` for a lane: ``native@t`` is ``native`` at
    ``t`` threads, any other lane is its back end with ``threads=None``.
    An unknown lane is a ``ValueError``."""
    backend, at, count = lane.partition("@")
    threads = int(count) if count.isdigit() and int(count) > 0 else None
    row = api.BACKENDS.get(backend)
    if row is not None and (not at or (threads and row.threads)):
        return backend, threads
    raise ValueError(f"unknown fuzz back end: {lane!r}")


def skip_reason(lane: str) -> Optional[str]:
    """Why this machine cannot exercise a lane, or None when it can:
    ``native`` without a C toolchain is a redundant NumPy-fallback lane;
    ``native@t`` on one CPU adds nothing over the lanes it is supposed to
    disagree with, and once a threaded kernel failed to build (asked again
    after a run) it ran the serial kernels."""
    from repro.native import engine, toolchain
    backend, threads = lane_call(lane)
    if backend == "native" and not toolchain.available():
        return "no C toolchain"
    if (threads or 1) > 1 and engine.default_threads() < 2:
        return "single CPU"
    if (threads or 1) > 1 and toolchain.threads_known() is False:
        return "threaded kernels did not build"
    return None


def resolve_backends(spec: Optional[str]) -> tuple[str, ...]:
    """Lane list from a CLI spec: ``None`` → the default lanes, a leading
    ``+`` appends to them (``+native@2``), otherwise a comma-separated
    replacement list.  Unknown names raise ValueError."""
    if spec is None:
        return BACKENDS
    spec = spec.strip()
    if spec.startswith("+"):
        names = list(BACKENDS) + [s for s in spec[1:].split(",") if s]
    else:
        names = [s for s in spec.split(",") if s]
    out: list[str] = []
    for n in names:
        n = n.strip()
        lane_call(n)
        if n not in out:
            out.append(n)
    if len(out) < 2:
        raise ValueError("need at least two back ends to differentiate")
    return tuple(out)


#: Safety net so a fuzzer-found non-termination or blow-up fails fast
#: instead of hanging the run (generated programs are total by
#: construction; this guards against generator bugs).
DEFAULT_BUDGET = Budget(timeout_s=30.0, max_elements=50_000_000)

#: greedy shrinking stops after this many kept candidates
MAX_ROUNDS = 20


@dataclass(frozen=True)
class Outcome:
    """What one back end did with one program: a value or an error."""

    value: object = None
    error_type: Optional[str] = None
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error_type is not None

    def brief(self) -> str:
        if self.failed:
            return f"{self.error_type}: {self.error}"
        return repr(self.value)


def run_case(case: FuzzCase, check: bool = False,
             budget: Optional[Budget] = DEFAULT_BUDGET,
             backends: tuple[str, ...] = BACKENDS,
             pool=None) -> dict[str, Outcome]:
    """Run one case on every selected lane; never raises for
    per-backend failures (they become :class:`Outcome` errors).  Compile
    failures propagate — a generated program that does not compile is a
    generator bug, not a back-end disagreement.

    With ``pool`` (a :class:`repro.serve.WorkerPool`), the ``vector``
    lane is served *out of process* through the pool instead of run
    inline, so the differential harness also exercises the serving
    stack's argument/result/error marshalling: a value corrupted (or an
    error retyped) on the way through a worker shows up as an ordinary
    back-end disagreement."""
    prog = api.compile_program(case.source)
    out: dict[str, Outcome] = {}
    for lane in backends:
        backend, threads = lane_call(lane)
        try:
            if pool is not None and lane == "vector":
                v = pool.submit(case.source, case.entry, list(case.args),
                                types=list(case.types), check=check,
                                budget=budget).result(timeout=300.0)
            else:
                v = prog.run(case.entry, list(case.args), backend=backend,
                             types=list(case.types), check=check,
                             budget=budget, threads=threads)
            out[lane] = Outcome(value=v)
        except ReproError as e:
            out[lane] = Outcome(error_type=type(e).__name__, error=str(e))
        except RecursionError as e:
            out[lane] = Outcome(error_type="RecursionError", error=str(e))
        except Exception as e:  # raw leak: itself a robustness finding
            out[lane] = Outcome(error_type=f"!{type(e).__name__}",
                                error=str(e))
    return out


def compare_outcomes(outcomes: dict[str, Outcome]) -> bool:
    """True when the back ends agree: all equal values, or all failures
    of the same error class (messages may differ across back ends)."""
    vals = list(outcomes.values())
    if all(o.failed for o in vals):
        return len({o.error_type for o in vals}) == 1
    if any(o.failed for o in vals):
        return False
    first = vals[0].value
    return all(o.value == first for o in vals[1:])


# -- findings -----------------------------------------------------------------

@dataclass
class Disagreement:
    """A program on which the back ends do not agree."""

    case: FuzzCase
    outcomes: dict[str, Outcome]
    shrunk: Optional[FuzzCase] = None

    @property
    def signature(self) -> tuple:
        """Which lanes failed and with what error class — the shrinker
        preserves it, so it minimizes *the same* disagreement."""
        return tuple(o.error_type for o in self.outcomes.values())

    def describe(self) -> str:
        c = self.shrunk or self.case
        lines = [f"seed {self.case.seed}: back ends disagree on "
                 f"{c.entry}{tuple(c.args)!r}"]
        for b, o in self.outcomes.items():
            lines.append(f"  {b:8s} -> {o.brief()}")
        lines.append("program:")
        lines.extend("  " + ln for ln in c.source.splitlines())
        return "\n".join(lines)


@dataclass
class CostViolation:
    """A program whose *measured* interpreter work/span exceeded the
    static cost bound evaluated at the concrete input sizes — a
    soundness bug in :mod:`repro.analysis.cost`."""

    case: FuzzCase
    measured_work: int
    measured_span: int
    predicted_work: int
    predicted_span: int
    shrunk: Optional[FuzzCase] = None

    @property
    def signature(self) -> tuple[bool, bool]:
        """(work violated, span violated) — preserved by the shrinker."""
        return (self.measured_work > self.predicted_work,
                self.measured_span > self.predicted_span)

    def describe(self) -> str:
        c = self.shrunk or self.case
        lines = [f"seed {self.case.seed}: measured cost exceeds the "
                 f"static bound on {c.entry}{tuple(c.args)!r}",
                 f"  measured  work={self.measured_work} "
                 f"span={self.measured_span}",
                 f"  predicted work={self.predicted_work} "
                 f"span={self.predicted_span}",
                 "program:"]
        lines.extend("  " + ln for ln in c.source.splitlines())
        return "\n".join(lines)


Finding = Union[Disagreement, CostViolation]


# -- verdicts -----------------------------------------------------------------

class Verdict:
    """A fuzz lane: what one generated case is judged to be.

    :meth:`judge` returns one of ``words`` (counted in the report's
    tally) or a finding (``case``, ``shrunk``, ``describe()`` and the
    ``signature`` the shrinker preserves).  ``title`` and ``noun`` (what
    the summary line calls the findings) spell the report's summary."""

    title: str
    words: tuple[str, ...]
    noun: str

    def judge(self, case: FuzzCase) -> Union[str, Finding]:
        raise NotImplementedError

    def skipped(self) -> dict[str, str]:
        """Lanes this host does not exercise, and why."""
        return {}


class Differential(Verdict):
    """``repro fuzz``: the selected lanes agree, or disagree.

    Lanes the machine cannot exercise (:func:`skip_reason`) are dropped
    when the verdict is made; :meth:`skipped` names them, and, asked
    after a run, also the lanes that turned out not to have run what they
    name."""

    title = "fuzz"
    words = ("agreed",)
    noun = "disagreements"

    def __init__(self, check: bool = False,
                 backends: tuple[str, ...] = BACKENDS, pool=None):
        self.check, self.backends, self.pool = check, backends, pool
        self.lanes = tuple(b for b in backends if not skip_reason(b))

    def judge(self, case: FuzzCase) -> Union[str, Finding]:
        outcomes = run_case(case, check=self.check, backends=self.lanes,
                            pool=self.pool)
        if compare_outcomes(outcomes):
            return "agreed"
        return Disagreement(case=case, outcomes=outcomes)

    def skipped(self) -> dict[str, str]:
        return {b: why for b in self.backends if (why := skip_reason(b))}


class CostSoundness(Verdict):
    """``repro fuzz --cost``: the measured interpreter cost stays within
    the static bound (``sound``), the bound is declared ``unbounded``
    (trivially sound), or the run failed and the bound, which covers
    completed runs only, says nothing (``skipped``)."""

    title = "fuzz --cost"
    words = ("sound", "unbounded", "skipped")
    noun = "violations"

    def judge(self, case: FuzzCase) -> Union[str, Finding]:
        from repro.guard.runtime import GuardConfig, guarded

        prog = api.compile_program(case.source)
        arg_types = prog.entry_types(case.entry, list(case.args),
                                     list(case.types))
        pred = prog.cost_certificate(case.entry,
                                     arg_types).predict(list(case.args))
        if not pred["bounded"]:
            return "unbounded"
        try:
            with guarded(GuardConfig(budget=DEFAULT_BUDGET)):
                _val, rep = prog.measure(case.entry, list(case.args))
        except (ReproError, RecursionError):
            return "skipped"
        if rep.work > pred["work"] or rep.span > pred["span"]:
            return CostViolation(
                case=case, measured_work=rep.work, measured_span=rep.span,
                predicted_work=pred["work"], predicted_span=pred["span"])
        return "sound"


# -- the report, the shrinker and the loop -------------------------------------

@dataclass
class FuzzReport:
    """Aggregate result of one fuzzing run under one verdict."""

    verdict: Verdict
    count: int = 0
    tally: Counter = field(default_factory=Counter)
    findings: list = field(default_factory=list)
    invalid: list[tuple[int, str]] = field(default_factory=list)
    #: lane -> why it was not exercised (:func:`skip_reason`)
    skipped_backends: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.invalid

    def summary(self) -> str:
        v = self.verdict
        words = "".join(f"{self.tally[w]} {w}, " for w in v.words)
        out = (f"{v.title}: {self.count} programs, {words}"
               f"{len(self.findings)} {v.noun}, "
               f"{len(self.invalid)} invalid")
        if self.invalid:
            seeds = ", ".join(str(s) for s, _ in self.invalid[:5])
            out += f" (invalid seeds: {seeds}…)"
        if self.skipped_backends:
            noted = ", ".join(f"{b} ({why})"
                              for b, why in self.skipped_backends.items())
            out += f" [skipped: {noted}]"
        return out


def _smaller(c: FuzzCase) -> Iterator[FuzzCase]:
    """The shrinks of ``c`` the shrinker tries, in order: (1) a subtree of
    the body replaced by a same-typed atom or descendant, (2) the helpers
    the body no longer names dropped, (3) an argument zeroed, emptied or
    halved."""
    for path, node in sorted(subnodes(c.body), key=lambda pn: len(pn[0])):
        if node.size() <= 1:
            continue
        candidates: list[Node] = [leaf(node.t, ATOMS[node.t])]
        candidates += sorted(
            (n for p, n in subnodes(node) if p and n.t == node.t),
            key=Node.size)
        for cand in candidates:
            if cand.size() < node.size():
                yield replace(c, body=replace_at(c.body, path, cand))
    body = c.body.render()
    kept = tuple(h for h in c.helpers
                 if h.split("(")[0].split()[-1] in body)
    if kept != c.helpers:
        yield replace(c, helpers=kept)
    for i, (_name, t) in enumerate(c.params):
        v = c.args[i]
        options: list = []
        if t == "int" and v != 0:
            options = [0]
        elif isinstance(v, list) and v:
            options = [[], v[:len(v) // 2]]
        for nv in options:
            yield replace(c, args=(*c.args[:i], nv, *c.args[i + 1:]))


def shrink_case(verdict: Verdict, case: FuzzCase) -> Union[str, Finding]:
    """The verdict on ``case``, a finding greedily shrunk: the first
    smaller program (:func:`_smaller`) on which the verdict returns a
    finding with the same ``signature`` replaces the best so far, until
    none does.  The finding returned keeps ``case`` and holds the minimal
    program in ``shrunk``.  The verdict's errors on ``case`` itself
    propagate; a candidate that fails to compile is rejected."""
    found = verdict.judge(case)
    if isinstance(found, str):
        return found
    want = found.signature
    best = case
    for _ in range(MAX_ROUNDS):
        for trial in _smaller(best):
            try:
                got = verdict.judge(trial)
            except (ReproError, RecursionError):
                continue
            if not isinstance(got, str) and got.signature == want:
                best, found = trial, got
                break
        else:
            break
    found.case, found.shrunk = case, best
    return found


def fuzz(verdict: Verdict, seed: int, count: int, shrink: bool = True,
         progress: Optional[Callable[[int, FuzzReport], None]] = None
         ) -> FuzzReport:
    """Judge ``count`` generated programs starting at ``seed``: words are
    tallied, findings shrunk (unless ``shrink=False``) and collected, and
    a program whose verdict raises a :class:`~repro.errors.ReproError` is
    recorded as invalid (a generator or analyzer bug)."""
    report = FuzzReport(verdict, skipped_backends=verdict.skipped())
    for i in range(count):
        case = gen_case(seed + i)
        report.count += 1
        try:
            found = (shrink_case(verdict, case) if shrink
                     else verdict.judge(case))
        except ReproError as e:
            report.invalid.append((case.seed, f"{type(e).__name__}: {e}"))
            continue
        if isinstance(found, str):
            report.tally[found] += 1
        else:
            report.findings.append(found)
        if progress is not None:
            progress(i, report)
    report.skipped_backends.update(verdict.skipped())
    return report
