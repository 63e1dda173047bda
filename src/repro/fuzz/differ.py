"""Differential runner and shrinker for the fuzzer.

Each generated program runs on every selected lane — by default the
reference interpreter (the paper's section-2 semantics) and the vector
evaluator; ``backends=`` widens the set to ``native`` and to ``native@t``,
the native engine with every kernel call on ``t`` threads (a lane the
host cannot exercise is skipped with a note, :func:`skip_reason`).
The lanes *agree* when they all return equal values or all fail with
the same error class; anything else is a :class:`Disagreement`, which
the greedy shrinker then minimizes by structural replacement on the
generated expression tree (a candidate shrink is kept only if the
smaller program still disagrees the same way).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

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


#: Safety net so a fuzzer-found non-termination or blow-up fails fast
#: instead of hanging the run (generated programs are total by
#: construction; this guards against generator bugs).
DEFAULT_BUDGET = Budget(timeout_s=30.0, max_elements=50_000_000)


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


@dataclass
class Disagreement:
    """A program on which the back ends do not agree."""

    case: FuzzCase
    outcomes: dict[str, Outcome]
    shrunk: Optional[FuzzCase] = None

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
class FuzzReport:
    """Aggregate result of one fuzzing run."""

    count: int = 0
    agreed: int = 0
    invalid: list[tuple[int, str]] = field(default_factory=list)
    disagreements: list[Disagreement] = field(default_factory=list)
    #: lane -> why it was not exercised (:func:`skip_reason`)
    skipped_backends: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.disagreements and not self.invalid

    def summary(self) -> str:
        out = (f"fuzz: {self.count} programs, {self.agreed} agreed, "
               f"{len(self.disagreements)} disagreements, "
               f"{len(self.invalid)} invalid")
        if self.invalid:
            seeds = ", ".join(str(s) for s, _ in self.invalid[:5])
            out += f" (invalid seeds: {seeds}…)"
        if self.skipped_backends:
            noted = ", ".join(f"{b} ({why})"
                              for b, why in self.skipped_backends.items())
            out += f" [skipped: {noted}]"
        return out


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


def _signature(outcomes: dict[str, Outcome]) -> tuple:
    """Which back ends failed/succeeded — the shrinker preserves this so
    it minimizes *the same* disagreement, not a different one."""
    return tuple(o.error_type for o in outcomes.values())


def shrink_case(case: FuzzCase, check: bool = False,
                max_rounds: int = 20,
                backends: tuple[str, ...] = BACKENDS,
                pool=None) -> tuple[FuzzCase, dict[str, Outcome]]:
    """Greedy structural shrink: repeatedly replace subtrees of the main
    body with same-typed atoms or descendants, and shorten argument
    values, keeping a candidate only if the back ends still disagree with
    the same failure signature.  Returns the minimal case found and its
    outcomes."""
    outcomes = run_case(case, check=check, backends=backends, pool=pool)
    if compare_outcomes(outcomes):
        return case, outcomes
    want = _signature(outcomes)

    def still_fails(c: FuzzCase) -> Optional[dict[str, Outcome]]:
        try:
            o = run_case(c, check=check, backends=backends, pool=pool)
        except ReproError:
            return None            # candidate broke scoping/typing: reject
        if not compare_outcomes(o) and _signature(o) == want:
            return o
        return None

    best, best_out = case, outcomes
    for _ in range(max_rounds):
        improved = False
        # 1. replace any subtree with a same-typed atom or descendant
        for path, node in sorted(subnodes(best.body),
                                 key=lambda pn: len(pn[0])):
            if node.size() <= 1:
                continue
            candidates: list[Node] = [leaf(node.t, ATOMS[node.t])]
            candidates += sorted(
                (n for p, n in subnodes(node) if p and n.t == node.t),
                key=Node.size)
            for cand in candidates:
                if cand.size() >= node.size():
                    continue
                trial = replace(best,
                                body=replace_at(best.body, path, cand))
                o = still_fails(trial)
                if o is not None:
                    best, best_out, improved = trial, o, True
                    break
            if improved:
                break
        if improved:
            continue
        # 2. drop helper definitions no longer referenced
        body_src = best.body.render()
        kept = tuple(h for h in best.helpers
                     if h.split("(")[0].split()[-1] in body_src)
        if kept != best.helpers:
            trial = replace(best, helpers=kept)
            o = still_fails(trial)
            if o is not None:
                best, best_out, improved = trial, o, True
                continue
        # 3. shrink argument values
        for i, (name, t) in enumerate(best.params):
            v = best.args[i]
            options: list = []
            if t == "int" and v != 0:
                options = [0]
            elif isinstance(v, list) and v:
                options = [[], v[:len(v) // 2]]
            for nv in options:
                args = tuple(nv if j == i else a
                             for j, a in enumerate(best.args))
                trial = replace(best, args=args)
                o = still_fails(trial)
                if o is not None:
                    best, best_out, improved = trial, o, True
                    break
            if improved:
                break
        if not improved:
            break
    return best, best_out


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
    def kind(self) -> tuple[bool, bool]:
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


@dataclass
class CostFuzzReport:
    """Aggregate result of one ``fuzz --cost`` soundness run."""

    count: int = 0
    sound: int = 0       #: bounded and measured <= predicted
    unbounded: int = 0   #: declared unbounded (trivially sound)
    skipped: int = 0     #: interpreter run failed (e.g. division by zero)
    invalid: list[tuple[int, str]] = field(default_factory=list)
    violations: list[CostViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.invalid

    def summary(self) -> str:
        out = (f"fuzz --cost: {self.count} programs, {self.sound} sound, "
               f"{self.unbounded} unbounded, {self.skipped} skipped, "
               f"{len(self.violations)} violations, "
               f"{len(self.invalid)} invalid")
        if self.invalid:
            seeds = ", ".join(str(s) for s, _ in self.invalid[:5])
            out += f" (invalid seeds: {seeds}…)"
        return out


def _measure_cost(case: FuzzCase) -> tuple[str, Optional[CostViolation]]:
    """Check one case: static prediction vs measured interpreter cost.
    Returns a status tag plus the violation (when there is one).
    Compile/analysis crashes propagate — those are analyzer bugs, not
    soundness outcomes."""
    from repro.guard.runtime import GuardConfig, guarded

    prog = api.compile_program(case.source)
    arg_types = prog.entry_types(case.entry, list(case.args),
                                 list(case.types))
    cert = prog.cost_certificate(case.entry, arg_types)
    pred = cert.predict(list(case.args))
    if not pred["bounded"]:
        return "unbounded", None
    try:
        with guarded(GuardConfig(budget=DEFAULT_BUDGET)):
            _val, rep = prog.measure(case.entry, list(case.args))
    except (ReproError, RecursionError):
        return "skipped", None      # the bound only covers completed runs
    if rep.work > pred["work"] or rep.span > pred["span"]:
        return "violation", CostViolation(
            case=case, measured_work=rep.work, measured_span=rep.span,
            predicted_work=pred["work"], predicted_span=pred["span"])
    return "sound", None


def shrink_cost_case(v: CostViolation,
                     max_rounds: int = 20) -> CostViolation:
    """Greedy structural shrink of a soundness violation, mirroring
    :func:`shrink_case`: a candidate is kept only if it still violates
    the same bound(s) (work/span kind preserved)."""
    want = v.kind

    def still_violates(c: FuzzCase) -> Optional[CostViolation]:
        try:
            status, cand = _measure_cost(c)
        except (ReproError, RecursionError):
            return None          # candidate broke scoping/typing: reject
        if status == "violation" and cand is not None \
                and cand.kind == want:
            return cand
        return None

    best = v
    for _ in range(max_rounds):
        improved = False
        bc = best.shrunk or best.case
        # 1. replace any subtree with a same-typed atom or descendant
        for path, node in sorted(subnodes(bc.body),
                                 key=lambda pn: len(pn[0])):
            if node.size() <= 1:
                continue
            candidates: list[Node] = [leaf(node.t, ATOMS[node.t])]
            candidates += sorted(
                (n for p, n in subnodes(node) if p and n.t == node.t),
                key=Node.size)
            for cand in candidates:
                if cand.size() >= node.size():
                    continue
                trial = replace(bc, body=replace_at(bc.body, path, cand))
                got = still_violates(trial)
                if got is not None:
                    got.shrunk = trial
                    got.case = v.case
                    best, improved = got, True
                    break
            if improved:
                break
        if improved:
            continue
        # 2. shrink argument values
        for i, (_name, t) in enumerate(bc.params):
            av = bc.args[i]
            options: list = []
            if t == "int" and av != 0:
                options = [0]
            elif isinstance(av, list) and av:
                options = [[], av[:len(av) // 2]]
            for nv in options:
                args = tuple(nv if j == i else a
                             for j, a in enumerate(bc.args))
                trial = replace(bc, args=args)
                got = still_violates(trial)
                if got is not None:
                    got.shrunk = trial
                    got.case = v.case
                    best, improved = got, True
                    break
            if improved:
                break
        if not improved:
            break
    return best


def fuzz_cost(seed: int, count: int, shrink: bool = True,
              progress: Optional[Callable[[int, CostFuzzReport], None]]
              = None) -> CostFuzzReport:
    """The ``repro fuzz --cost`` soundness lane: for ``count`` generated
    programs, evaluate the static work/span bound at the concrete input
    sizes and check the measured interpreter cost never exceeds it.
    Violations are shrunk (like back-end disagreements) and collected."""
    report = CostFuzzReport()
    for i in range(count):
        case = gen_case(seed + i)
        report.count += 1
        try:
            status, violation = _measure_cost(case)
        except ReproError as e:
            report.invalid.append((case.seed, f"{type(e).__name__}: {e}"))
            continue
        if status == "sound":
            report.sound += 1
        elif status == "unbounded":
            report.unbounded += 1
        elif status == "skipped":
            report.skipped += 1
        elif violation is not None:
            if shrink:
                violation = shrink_cost_case(violation)
            report.violations.append(violation)
        if progress is not None:
            progress(i, report)
    return report


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


def fuzz(seed: int, count: int, check: bool = False, shrink: bool = True,
         progress: Optional[Callable[[int, FuzzReport], None]] = None,
         backends: tuple[str, ...] = BACKENDS, pool=None) -> FuzzReport:
    """Run ``count`` generated programs starting at ``seed``; differences
    are shrunk (unless ``shrink=False``) and collected in the report.

    ``backends`` selects the lanes to differentiate; lanes a machine
    cannot exercise (:func:`skip_reason`) are dropped up front, and lanes
    that turn out not to have run what they name are dropped after the
    run; both are recorded in ``report.skipped_backends``."""
    skipped = {b: why for b in backends if (why := skip_reason(b))}
    backends = tuple(b for b in backends if b not in skipped)
    report = FuzzReport(skipped_backends=skipped)
    for i in range(count):
        case = gen_case(seed + i)
        report.count += 1
        try:
            outcomes = run_case(case, check=check, backends=backends,
                                pool=pool)
        except ReproError as e:
            report.invalid.append((case.seed, f"{type(e).__name__}: {e}"))
            continue
        if compare_outcomes(outcomes):
            report.agreed += 1
        else:
            d = Disagreement(case=case, outcomes=outcomes)
            if shrink:
                d.shrunk, d.outcomes = shrink_case(case, check=check,
                                                   backends=backends,
                                                   pool=pool)
            report.disagreements.append(d)
        if progress is not None:
            progress(i, report)
    skipped.update((b, why) for b in backends if (why := skip_reason(b)))
    return report
