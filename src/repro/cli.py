"""Command-line interface.

Usage (also via ``python -m repro``):

    repro run FILE -e ENTRY -a ARG [-a ARG ...]
                   [--backend interp|vector|native]
                   [--threads N|auto]
                   [--profile] [--check] [--timeout S] [--max-steps N]
                   [--passes LIST] [--print-ir-after-all]
                   [--print-ir-after PASS] ...
    repro eval "EXPR"
    repro check FILE -e ENTRY -a ARG ...      (all back ends, strict checking)
    repro fuzz [--seed N] [--count N] [--check] [--backends LIST]
    repro fuzz --cost [--seed N] [--count N]
    repro native [--status] [FILE -e ENTRY -t TYPE ... [--threads N]]
    repro transform FILE -e ENTRY (-a ARG ... | -t TYPE ...)
                   [--passes LIST] [--print-ir-after-all]
    repro emit-c FILE -e ENTRY -t TYPE [-t TYPE ...]
    repro trace FILE -e ENTRY -t TYPE [-t TYPE ...]
    repro vcode FILE -e ENTRY -t TYPE [-t TYPE ...]
    repro simulate FILE -e ENTRY -a ARG ... [-p 1,4,16,64] [--latency N]
                   [--profile]
    repro measure FILE -e ENTRY -a ARG ...
    repro profile FILE [-e ENTRY] [-a ARG ...]
                  [--backend interp|vector|native] [--threads N|auto]
                  [-o profile.json]
    repro analyze FILE [-e ENTRY] [-a ARG ...] [-o analysis.json]

Failures are reported as one-line diagnostics, never raw tracebacks; the
exit code tells the classes apart (see ``repro --help`` or
docs/RELIABILITY.md).

Arguments (``-a``) are Python literals: ``5``, ``"[1, 2, 3]"``,
``"[[1],[2,3]]"``, ``"(1, True)"``.  Types (``-t``) use P type syntax:
``int``, ``seq(seq(int))``, ``"(int, int) -> int"``.

FILE is either P source, or a Python example script (``examples/*.py``)
embedding its P program in a module-level ``SOURCE`` string — the CLI
extracts it without executing the script.  ``repro profile`` additionally
honours the example's ``PROFILE_ENTRY``/``PROFILE_ARGS`` defaults, so
``repro profile examples/quicksort.py`` works with no further flags.
"""

from __future__ import annotations

import argparse
import ast as pyast
import sys
from contextlib import ExitStack
from typing import Optional

from repro.api import BACKENDS, backend_row, compile_program
from repro.errors import (
    AnalysisError, InvariantError, NativeCompileError, ReproError,
    ResourceLimitError, WorkerCrashError,
)
from repro.guard.runtime import Budget, GuardConfig, guarded
from repro.transform.pipeline import TransformOptions

# Exit codes (also in the --help epilog and docs/RELIABILITY.md).
EXIT_OK = 0            # success
EXIT_ERROR = 1         # compile or runtime error (any other ReproError)
EXIT_USAGE = 2         # bad command line (argparse)
EXIT_RESOURCE = 3      # a resource budget was exceeded
EXIT_INVARIANT = 4     # the descriptor invariant was violated
EXIT_DISAGREE = 5      # back ends disagree (repro check / repro fuzz)
EXIT_ANALYSIS = 6      # a static-analysis pass rejected the program
EXIT_NATIVE = 7        # native kernel compilation / cache failure
EXIT_CRASH = 8         # a pool worker process crashed with work in flight

_EXIT_EPILOG = """\
exit codes:
  0  success
  1  compile or runtime error
  2  usage error
  3  resource budget exceeded (--timeout/--max-steps/... breached)
  4  descriptor invariant violated (--check found corruption)
  5  back ends disagree (repro check / repro fuzz), or a measured cost
     exceeded its static bound (repro fuzz --cost)
  6  static analysis rejected the program (repro analyze, the phase
     verifier, or the VCODE lint)
  7  native kernel compilation or cache failure (--backend native;
     see docs/NATIVE.md)
  8  a serving-pool worker crashed with requests in flight
     (repro serve --pool; see docs/RELIABILITY.md)
"""


def _literal(s: str):
    try:
        return pyast.literal_eval(s)
    except (ValueError, SyntaxError) as e:
        raise SystemExit(f"bad argument literal {s!r}: {e}")


def _threads_arg(s: str):
    """``--threads`` value: a thread count, or ``auto`` to pick one from
    the statically predicted concurrency (docs/PARALLEL.md)."""
    if s == "auto":
        return "auto"
    try:
        return int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a thread count or 'auto', got {s!r}")


def _example_spec(text: str) -> dict:
    """Module-level ``SOURCE`` / ``PROFILE_ENTRY`` / ``PROFILE_ARGS``
    literal assignments of a Python example script, read via ``ast``
    (the script is never executed)."""
    spec: dict = {}
    try:
        tree = pyast.parse(text)
    except SyntaxError:
        return spec
    for node in tree.body:
        if not (isinstance(node, pyast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], pyast.Name)):
            continue
        name = node.targets[0].id
        if name in ("SOURCE", "PROFILE_ENTRY", "PROFILE_ARGS"):
            try:
                spec[name] = pyast.literal_eval(node.value)
            except ValueError:
                pass
    return spec


def _read_source(path: str) -> tuple[str, dict]:
    """P source text plus, for Python example scripts, the embedded
    profile defaults."""
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise SystemExit(f"cannot read {path}: {e}")
    if path.endswith(".py"):
        spec = _example_spec(text)
        if "SOURCE" not in spec:
            raise SystemExit(
                f"{path}: Python file has no module-level SOURCE string "
                "with an embedded P program")
        return spec["SOURCE"], spec
    return text, {}


def _compile(src: str, options=None):
    try:
        return compile_program(src, options=options)
    except ReproError as e:
        raise SystemExit(f"error: {e}")


def _load(path: str, options=None):
    src, _spec = _read_source(path)
    return _compile(src, options=options)


def _pass_flags(sp) -> None:
    g = sp.add_argument_group(
        "pipeline options", "pass-pipeline configuration and IR dumps "
        "(see docs/PASSES.md)")
    g.add_argument("--passes", metavar="LIST",
                   help="comma-separated pass list overriding the default "
                        "pipeline (e.g. \"canonical,eliminate,simplify\"); "
                        "orderings that violate declared pass invariants "
                        "are rejected before anything runs")
    g.add_argument("--print-ir-after-all", action="store_true",
                   help="dump pretty-printed IR to stderr after every "
                        "executed pass")
    g.add_argument("--print-ir-after", action="append", default=[],
                   metavar="PASS",
                   help="dump IR after this pass only (repeatable)")


def _pass_options(ns) -> Optional[TransformOptions]:
    """TransformOptions for the parsed pipeline flags, or None when all
    are at their defaults (so option-free invocations share the default
    pipeline)."""
    passes = getattr(ns, "passes", None)
    after = getattr(ns, "print_ir_after", ())
    all_ = bool(getattr(ns, "print_ir_after_all", False))
    if not passes and not after and not all_:
        return None
    return TransformOptions(
        passes=passes or None,
        print_ir_all=all_, print_ir_after=after)


def _backend_flags(sp, threads=None, threads_help=None) -> None:
    """``--backend`` (a key of :data:`repro.api.BACKENDS`, checked in
    :func:`main`) plus, when ``threads`` names its value parser,
    ``--threads``."""
    sp.add_argument("--backend", default="vector",
                    metavar="{" + ",".join(BACKENDS) + "}")
    if threads is not None:
        sp.add_argument("--threads", type=threads, default=None,
                        metavar="N|auto" if threads is _threads_arg else "N",
                        help=threads_help
                        or "threads for every kernel call of --backend "
                           "native: a count, or 'auto' (default: sized "
                           "per call; docs/PARALLEL.md)")


def _guard_flags(sp) -> None:
    g = sp.add_argument_group(
        "guard options", "strict checking and resource budgets "
        "(see docs/RELIABILITY.md)")
    g.add_argument("--check", nargs="?", const="full", default=None,
                   choices=["full", "static"], metavar="MODE",
                   help="validate the descriptor invariant at every kernel "
                        "and back-end boundary; '--check static' skips the "
                        "re-checks of kernels whose catalog shape class is "
                        "static and of every call boundary "
                        "(docs/ANALYSIS.md)")
    g.add_argument("--max-elements", type=int, metavar="N",
                   help="abort after N leaf elements moved")
    g.add_argument("--max-bytes", type=int, metavar="N",
                   help="abort after N bytes moved")
    g.add_argument("--max-steps", type=int, metavar="N",
                   help="abort after N execution steps")
    g.add_argument("--timeout", type=float, metavar="SECONDS",
                   help="abort after a wall-clock deadline")
    g.add_argument("--max-depth", type=int, metavar="N",
                   help="abort beyond N nested user-function calls")


def _report_flags(sp, output: str, what: str) -> None:
    """The target + JSON-report flags ``profile`` and ``analyze`` share:
    entry and arguments default to the example's ``PROFILE_*``."""
    sp.add_argument("file", help="P source file or examples/*.py script")
    sp.add_argument("-e", "--entry", default=None,
                    help="entry function (default: the example's "
                         "PROFILE_ENTRY, else main)")
    sp.add_argument("-a", "--arg", action="append", default=[],
                    help="argument as a Python literal (default: the "
                         "example's PROFILE_ARGS)")
    sp.add_argument("-t", "--type", action="append", default=[],
                    help="argument type in P syntax (repeatable)")
    sp.add_argument("-o", "--output", default=output,
                    help=f"where to write the JSON report (default: {output})")
    sp.add_argument("--no-write", action="store_true",
                    help=f"print the {what} only, write no JSON file")


def _report_target(ns) -> tuple[str, str, list]:
    """``(source, entry, args)`` of a ``profile``/``analyze`` command."""
    src, spec = _read_source(ns.file)
    entry = ns.entry or spec.get("PROFILE_ENTRY") or "main"
    if ns.arg:
        return src, entry, [_literal(a) for a in ns.arg]
    return src, entry, list(spec.get("PROFILE_ARGS", []))


def _save_report(report, ns) -> None:
    if not ns.no_write:
        try:
            report.save(ns.output)
        except OSError as e:
            raise SystemExit(f"cannot write {ns.output}: {e}")
        print(f"wrote {ns.output}")


def _budget(ns) -> Budget:
    return Budget(max_elements=getattr(ns, "max_elements", None),
                  max_bytes=getattr(ns, "max_bytes", None),
                  max_steps=getattr(ns, "max_steps", None),
                  timeout_s=getattr(ns, "timeout", None),
                  max_call_depth=getattr(ns, "max_depth", None))


def _guard_config(ns):
    """A GuardConfig for the parsed guard flags, or None when all off."""
    b = _budget(ns)
    if getattr(ns, "check", None) or b.any_set():
        return GuardConfig(check=getattr(ns, "check", None) or False,
                           budget=b)
    return None


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Proteus-subset flattening compiler (Prins & Palmer 1993)",
        epilog=_EXIT_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, types_ok=True, args_ok=True):
        sp.add_argument("file", help="P source file")
        sp.add_argument("-e", "--entry", default="main",
                        help="entry function (default: main)")
        if args_ok:
            sp.add_argument("-a", "--arg", action="append", default=[],
                            help="argument as a Python literal (repeatable)")
        if types_ok:
            sp.add_argument("-t", "--type", action="append", default=[],
                            help="argument type in P syntax (repeatable)")
        return sp

    sp = common(sub.add_parser("run", help="run an entry function"))
    _backend_flags(sp, _threads_arg,
                   "threads for every kernel call of --backend native: a "
                   "count, or 'auto' to size from the predicted "
                   "concurrency (work/span) of the static cost analysis "
                   "(default: each call sized by its elements; "
                   "docs/PARALLEL.md)")
    sp.add_argument("--profile", action="store_true",
                    help="print the observability report after the result")
    _pass_flags(sp)
    _guard_flags(sp)

    ev = sub.add_parser("eval", help="evaluate a standalone expression")
    ev.add_argument("expr")
    _backend_flags(ev, _threads_arg)
    _guard_flags(ev)

    ck = common(sub.add_parser(
        "check", help="run on every back end with strict invariant "
                      "checking and compare the results"))
    _guard_flags(ck)

    fz = sub.add_parser(
        "fuzz", help="differential fuzzing: random programs on several "
                     "lanes, disagreements shrunk to minimal programs")
    fz.add_argument("--seed", type=int, default=0,
                    help="first seed (default: 0)")
    fz.add_argument("--count", type=int, default=100,
                    help="number of programs (default: 100)")
    fz.add_argument("--check", action="store_true",
                    help="also enable strict invariant checking per run")
    fz.add_argument("--no-shrink", action="store_true",
                    help="report findings without minimizing them")
    fz.add_argument("--quiet", action="store_true",
                    help="no per-interval progress lines")
    fz.add_argument("--backends", metavar="LIST", default=None,
                    help="comma-separated lanes to compare (default: "
                         "interp,vector): a back end, or native@T for "
                         "native with every kernel call on T threads; a "
                         "leading '+' appends to the default, e.g. "
                         "'--backends +native,native@2'.  native lanes are "
                         "skipped cleanly when no C toolchain is "
                         "available, native@T also on single-CPU machines "
                         "and when the threaded kernels do not build")
    fz.add_argument("--serve-pool", action="store_true",
                    help="serve the vector lane through a 2-process "
                         "worker pool, so the differential also covers "
                         "the pool's argument/result/error marshalling")
    fz.add_argument("--cost", action="store_true",
                    help="cost-soundness lane instead of the backend "
                         "differential: check every program's measured "
                         "interp work/span stays <= the static cost "
                         "bound at the concrete input sizes; violations "
                         "are shrunk like disagreements; takes none of "
                         "--backends, --check, --serve-pool "
                         "(docs/ANALYSIS.md)")

    tr = common(sub.add_parser(
        "transform", help="print the iterator-free transformed program"))
    _pass_flags(tr)
    common(sub.add_parser("emit-c", help="print CVL-style C"), args_ok=False)
    common(sub.add_parser(
        "derive", help="print the full derivation document (markdown)"),
        args_ok=False)
    common(sub.add_parser("trace", help="print the rule-application trace"),
           args_ok=False)
    common(sub.add_parser("vcode", help="print the VCODE program"),
           args_ok=False)

    sm = common(sub.add_parser(
        "simulate", help="run and simulate on P-processor machines"))
    sm.add_argument("-p", "--processors", default="1,4,16,64")
    sm.add_argument("--latency", type=int, default=2)
    sm.add_argument("--stats", action="store_true",
                    help="print op-class mix and top ops by work")
    sm.add_argument("--comm", action="store_true",
                    help="use the communication-aware cost model")
    sm.add_argument("--profile", action="store_true",
                    help="print the observability report after the run")
    _guard_flags(sm)

    common(sub.add_parser(
        "measure", help="work/span on the reference interpreter"))

    pf = sub.add_parser(
        "profile",
        help="run under the observability layer: per-kernel counter "
             "tables, phase spans, and a profile.json")
    _report_flags(pf, "profile.json", "tables")
    _backend_flags(pf, _threads_arg)

    an = sub.add_parser(
        "analyze",
        help="static analysis: the phase-boundary IR verifier, the "
             "shape class of every primitive site (which guard checks "
             "--check static skips), and the VCODE lint (docs/ANALYSIS.md)")
    _report_flags(an, "analysis.json", "report")
    an.add_argument("--cost", action="store_true",
                    help="also run the symbolic work/span/memory cost "
                         "analysis: per-definition bounds in the output "
                         "and a versioned 'cost' section in the JSON "
                         "(docs/ANALYSIS.md)")

    sub.add_parser(
        "passes",
        help="list the registered pipeline passes with their stages and "
             "invariant contracts (docs/PASSES.md)")

    nt = sub.add_parser(
        "native",
        help="native kernel backend: toolchain/cache status, or the real "
             "C kernels emitted for an entry's fused regions "
             "(docs/NATIVE.md)")
    nt.add_argument("file", nargs="?", default=None,
                    help="P source file (omit with --status)")
    nt.add_argument("-e", "--entry", default="main",
                    help="entry function (default: main)")
    nt.add_argument("-t", "--type", action="append", default=[],
                    help="argument type in P syntax (repeatable)")
    nt.add_argument("--status", action="store_true",
                    help="print toolchain, kernel and cache statistics")
    nt.add_argument("--threads", type=int, default=None, metavar="N",
                    help="emit the threaded kernel variants, "
                         "which take the thread count as a call argument, "
                         "instead of the serial kernels (docs/PARALLEL.md)")

    rp = sub.add_parser("repl", help="interactive read-eval-print loop")
    _backend_flags(rp)

    sv = sub.add_parser(
        "serve",
        help="segment-batched JSONL server: coalesce requests from stdin "
             "into single vector passes (docs/SERVING.md)")
    sv.add_argument("file", nargs="?", default=None,
                    help="P source file used when a request has no "
                         "\"source\" field")
    _backend_flags(sv, int, "most threads one kernel call of --backend "
                            "native may use (default: all CPUs; "
                            "docs/PARALLEL.md)")
    sv.add_argument("--max-batch", type=int, default=64, metavar="N",
                    help="largest coalesced batch (default: 64)")
    sv.add_argument("--max-queue", type=int, default=1024, metavar="N",
                    help="queue bound before submissions are rejected")
    sv.add_argument("--workers", type=int, default=1, metavar="N",
                    help="dispatcher threads (default: 1)")
    sv.add_argument("--cache-capacity", type=int, default=128, metavar="N",
                    help="compile-cache LRU slots (default: 128)")
    sv.add_argument("--check", action="store_true",
                    help="strict descriptor-invariant checking per batch")
    sv.add_argument("--stats", action="store_true",
                    help="print serving statistics to stderr at EOF")
    sv.add_argument("--pool", type=int, default=0, metavar="N",
                    help="serve through a supervised pool of N worker "
                         "*processes* (crash isolation, retry, deadline "
                         "kills; docs/RELIABILITY.md) instead of "
                         "in-process threads")
    sv.add_argument("--retry", type=int, default=2, metavar="N",
                    help="with --pool: crash-retry budget per request, "
                         "0 disables (default: 2; budgeted requests "
                         "never retry)")
    sv.add_argument("--chaos", default=None, metavar="SPEC",
                    help="with --pool: seeded process-fault injection, "
                         "e.g. 'abort,poison:rate=0.1:seed=3' or 'all' "
                         "(sites: abort, stall, slow, poison, torn)")
    return p


def _entry_types(ns):
    return [t for t in ns.type] if getattr(ns, "type", None) else None


def main(argv: list[str] | None = None) -> int:
    """Parse and dispatch; every failure mode becomes a one-line
    diagnostic plus a documented exit code — never a raw traceback."""
    parser = _parser()
    ns = parser.parse_args(argv)
    try:
        backend_row(getattr(ns, "backend", "vector"))
    except ValueError as e:     # a usage error, in one line
        parser.exit(EXIT_USAGE, f"error: {e}\n")
    try:
        return _dispatch(ns)
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except InvariantError as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except AnalysisError as e:
        print(f"analysis error: {e}", file=sys.stderr)
        return EXIT_ANALYSIS
    except NativeCompileError as e:
        print(f"native backend error: {e}", file=sys.stderr)
        return EXIT_NATIVE
    except WorkerCrashError as e:
        print(f"worker crash: {e}", file=sys.stderr)
        return EXIT_CRASH
    except ReproError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        print("error: Python recursion limit exceeded "
              "(use --max-depth for a diagnosed failure)", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:  # output piped into e.g. `head`
        try:
            sys.stdout.close()
        except OSError:
            pass
        return EXIT_OK


def _dispatch(ns) -> int:
    if ns.cmd == "eval":
        prog = compile_program(f"fun main() = {ns.expr}")
        print(prog.run("main", [], backend=ns.backend,
                       check=ns.check or False, budget=_budget(ns),
                       threads=ns.threads))
        return 0

    if ns.cmd == "run":
        prog = _load(ns.file, options=_pass_options(ns))
        args = [_literal(a) for a in ns.arg]
        with ExitStack() as stack:
            prof = None
            if ns.profile:
                from repro.obs import profiling
                prof = stack.enter_context(profiling())
            print(prog.run(ns.entry, args, backend=ns.backend,
                           types=_entry_types(ns),
                           check=ns.check or False, budget=_budget(ns),
                           threads=ns.threads))
        if prof is not None:
            print(prof.report(entry=ns.entry, backend=ns.backend).table())
        return 0

    if ns.cmd == "check":
        prog = _load(ns.file)
        args = [_literal(a) for a in ns.arg]
        results = {}
        for backend in BACKENDS:
            results[backend] = prog.run(ns.entry, args, backend=backend,
                                        types=_entry_types(ns),
                                        check=True, budget=_budget(ns))
        vals = list(results.values())
        if all(v == vals[0] for v in vals[1:]):
            print(vals[0])
            print(f"back ends agree ({', '.join(BACKENDS)}); "
                  "invariants hold")
            return EXIT_OK
        print("back ends DISAGREE:", file=sys.stderr)
        for backend, v in results.items():
            print(f"  {backend:8s} -> {v!r}", file=sys.stderr)
        return EXIT_DISAGREE

    if ns.cmd == "fuzz":
        from repro.fuzz.differ import (
            CostSoundness, Differential, fuzz, resolve_backends,
        )
        interval = max(1, ns.count // 10)

        def progress(i: int, report) -> None:
            if not ns.quiet and (i + 1) % interval == 0:
                print(f"  {i + 1}/{ns.count}: {report.summary()}")

        with ExitStack() as stack:
            if ns.cost:
                lane_flags = [flag for flag, on in (
                    ("--backends", ns.backends is not None),
                    ("--check", ns.check), ("--serve-pool", ns.serve_pool))
                    if on]
                if lane_flags:
                    print(f"fuzz: --cost does not take "
                          f"{', '.join(lane_flags)}", file=sys.stderr)
                    return EXIT_USAGE
                verdict = CostSoundness()
            else:
                try:
                    backends = resolve_backends(ns.backends)
                except ValueError as e:
                    print(f"fuzz: {e}", file=sys.stderr)
                    return EXIT_USAGE
                pool = None
                if ns.serve_pool:
                    from repro.serve import PoolConfig, WorkerPool
                    pool = stack.enter_context(
                        WorkerPool(PoolConfig(workers=2, native_after=0)))
                    if not ns.quiet:
                        print("fuzz: vector lane served through a 2-process "
                              "worker pool")
                verdict = Differential(check=ns.check, backends=backends,
                                       pool=pool)
            report = fuzz(verdict, ns.seed, ns.count,
                          shrink=not ns.no_shrink, progress=progress)
        print(report.summary())
        for d in report.findings:
            print()
            print(d.describe())
        for seed, msg in report.invalid:
            print(f"invalid program (generator bug) at seed {seed}: {msg}",
                  file=sys.stderr)
        if report.findings:
            return EXIT_DISAGREE
        return EXIT_OK if report.ok else EXIT_ERROR

    if ns.cmd == "profile":
        from repro.obs import Profiler, profiling
        src, entry, args = _report_target(ns)
        prof = Profiler()
        with profiling(prof):
            prog = _compile(src)
            result = prog.run(entry, args, backend=ns.backend,
                              types=_entry_types(ns), threads=ns.threads)
        report = prof.report(entry=entry, backend=ns.backend, file=ns.file)
        print(f"result: {result}")
        print(report.table())
        _save_report(report, ns)
        return 0

    if ns.cmd == "analyze":
        from repro.analysis.report import analyze_source
        src, entry, args = _report_target(ns)
        report = analyze_source(src, entry, args, types=_entry_types(ns),
                                file=ns.file, cost=ns.cost)
        print(report.render())
        _save_report(report, ns)
        return 0

    if ns.cmd == "transform":
        prog = _load(ns.file, options=_pass_options(ns))
        if ns.type:
            print(prog.transformed_source(ns.entry, ns.type, by_types=True))
        else:
            args = [_literal(a) for a in ns.arg]
            print(prog.transformed_source(ns.entry, args))
        return 0

    if ns.cmd == "emit-c":
        prog = _load(ns.file)
        print(prog.emit_c(ns.entry, ns.type))
        return 0

    if ns.cmd == "derive":
        from repro.lang.types import parse_type
        from repro.transform.derivation import derivation_document
        prog = _load(ns.file, options=TransformOptions(trace=True))
        print(derivation_document(prog, ns.entry,
                                  [parse_type(t) for t in ns.type]))
        return 0

    if ns.cmd == "trace":
        prog = _load(ns.file, options=TransformOptions(trace=True))
        print(prog.trace_for(ns.entry, ns.type))
        return 0

    if ns.cmd == "vcode":
        prog = _load(ns.file)
        _mono, vp = prog.compile_vcode(ns.entry, ns.type)
        print(vp)
        return 0

    if ns.cmd == "simulate":
        prog = _load(ns.file)
        args = [_literal(a) for a in ns.arg]
        prof = None
        cfg = _guard_config(ns)
        with ExitStack() as stack:
            if ns.profile:
                from repro.obs import profiling
                prof = stack.enter_context(profiling())
            if cfg is not None:
                stack.enter_context(guarded(cfg))
            result, trace = prog.vector_trace(ns.entry, args,
                                              types=_entry_types(ns))
        print(f"result: {result}")
        from repro.machine import CommMachine, VectorMachine, classify_trace, top_ops
        # the registry of the program that ran: its fused regions' classes
        fusion = prog.prepare(ns.entry, *prog.resolve_entry(
            ns.entry, args, _entry_types(ns)))[1].fusion
        machine = CommMachine if ns.comm else VectorMachine
        for p in (int(x) for x in ns.processors.split(",")):
            m = machine(processors=p, latency=ns.latency)
            print(m.run_trace(trace, fusion) if ns.comm else
                  m.run_trace(trace))
        if ns.stats:
            print("\nop-class mix:")
            print(classify_trace(trace, fusion))
            print("\ntop ops by work:")
            for op, steps, work in top_ops(trace):
                print(f"  {op:>20}: steps={steps:>6} work={work:>10}")
        if prof is not None:
            print()
            print(prof.report(entry=ns.entry, backend="vector").table())
        return 0

    if ns.cmd == "passes":
        from repro.passes import registered_passes
        from repro.transform.pipeline import DEFAULT_PASSES
        print(f"{'pass':<14} {'stage':<7} {'requires':<28} "
              f"{'produces':<22} description")
        for name, cls in sorted(registered_passes().items()):
            req = ",".join(sorted(cls.requires)) or "-"
            pro = ",".join(sorted(cls.produces)) or "-"
            print(f"{name:<14} {cls.stage:<7} {req:<28} {pro:<22} "
                  f"{cls.description}")
        print(f"\ndefault pipeline: {','.join(DEFAULT_PASSES)} "
              "(every back end runs it; --passes runs another list)")
        return 0

    if ns.cmd == "native":
        if ns.status:
            from repro.native.engine import default_threads, get_engine
            engine = get_engine()
            if engine is None:
                print("toolchain:   none (no C compiler on PATH; native "
                      "backend falls back to NumPy)")
                print("available:   no")
                print("threads:     no")
                return 0
            st = engine.status()
            print(f"toolchain:   {st['toolchain']}")
            print(f"cflags:      {st['cflags']}")
            print(f"available:   {'yes' if st['available'] else 'no'}")
            print(f"threads:     up to {default_threads()} a call "
                  "(threaded kernels; docs/PARALLEL.md)")
            print(f"kernels:     {st['fused_kernels']} fused, "
                  f"{st['segmented_kernels']} segmented, "
                  f"{st['gather_kernels']} gather, "
                  f"{st['threaded_kernels']} threaded")
            c = st["cache"]
            print(f"cache:       {c['hits']} hits, {c['misses']} misses, "
                  f"{c['compiles']} compiles, {c['evictions']} evictions, "
                  f"{c['loaded']} loaded")
            print(f"cache dir:   {c['directory']}")
            return 0
        if ns.file is None:
            print("native: FILE required unless --status is given",
                  file=sys.stderr)
            return EXIT_USAGE
        prog = _load(ns.file)
        print(prog.emit_c(ns.entry, ns.type, native=True,
                          threads=ns.threads))
        return 0

    if ns.cmd == "repl":
        return repl(backend=ns.backend)

    if ns.cmd == "serve":
        if ns.threads is not None:
            from repro.native.engine import set_default_threads
            set_default_threads(ns.threads)
        default_source = None
        if ns.file is not None:
            default_source, _spec = _read_source(ns.file)
        return serve(default_source=default_source, backend=ns.backend,
                     max_batch=ns.max_batch, max_queue=ns.max_queue,
                     workers=ns.workers, cache_capacity=ns.cache_capacity,
                     check=ns.check, stats=ns.stats, pool=ns.pool,
                     retry=ns.retry, chaos=ns.chaos)

    if ns.cmd == "measure":
        prog = _load(ns.file)
        args = [_literal(a) for a in ns.arg]
        val, cost = prog.measure(ns.entry, args)
        print(f"result: {val}")
        print(cost)
        return 0

    raise SystemExit(f"unknown command {ns.cmd}")  # pragma: no cover


def _coerce_tuples(v, t):
    """JSON has no tuples; rebuild them where the P type says tuple."""
    from repro.lang import types as T
    if isinstance(t, T.TTuple) and isinstance(v, list):
        return tuple(_coerce_tuples(x, it) for x, it in zip(v, t.items))
    if isinstance(t, T.TSeq) and isinstance(v, list):
        return [_coerce_tuples(x, t.elem) for x in v]
    return v


def _error_kind(e: BaseException) -> str:
    if isinstance(e, WorkerCrashError):
        return "crash"
    if isinstance(e, ResourceLimitError):
        return "resource"
    if isinstance(e, InvariantError):
        return "invariant"
    return "error"


def serve(default_source=None, backend="vector", max_batch=64,
          max_queue=1024, workers=1, cache_capacity=128, check=False,
          stats=False, pool=0, retry=2, chaos=None,
          stdin=None, stdout=None, stderr=None) -> int:
    """The ``repro serve`` loop: JSONL requests on stdin, JSONL responses
    on stdout, in request order, each written as soon as it and every
    earlier one has finished (docs/SERVING.md documents the protocol).

    One request per line: ``{"id": .., "fname": "main", "args": [..]}``
    plus optional ``"source"`` (else the FILE argument's program),
    ``"types"``, ``"backend"``, ``"check"``, budget fields
    (``"timeout_s"``, ``"max_steps"``, ``"max_depth"``, ``"max_elements"``,
    ``"max_bytes"``) and ``"deadline_s"``.  Responses:
    ``{"id": .., "ok": true, "result": ..}`` or ``{"id": .., "ok": false,
    "kind": "crash"|"resource"|"invariant"|"error", "error": msg}``
    (tuples in results render as JSON arrays).  Exit code 0 iff every
    request succeeded.  ``stdin``/``stdout``/``stderr`` are injectable
    for tests.

    ``pool > 0`` swaps the in-process :class:`BatchExecutor` for a
    supervised :class:`~repro.serve.pool.WorkerPool` of that many worker
    *processes* — same protocol, plus crash isolation: a worker death
    surfaces as ``"kind": "crash"`` on exactly its in-flight requests
    (after ``retry`` transparent retries), never as a dead server.
    ``chaos`` arms seeded process-fault injection in the workers
    (:meth:`~repro.guard.faults.ChaosSpec.parse` syntax).
    """
    import json
    import queue
    import threading

    from repro.lang.types import parse_type
    from repro.serve import (
        BatchExecutor, PoolConfig, RetryPolicy, ServeConfig, WorkerPool,
    )

    inp = stdin or sys.stdin
    out = stdout or sys.stdout
    err = stderr or sys.stderr
    if pool:
        from repro.guard.faults import ChaosSpec
        try:
            spec = ChaosSpec.parse(chaos) if chaos else None
        except ValueError as e:
            print(f"serve: bad --chaos spec: {e}", file=err)
            return EXIT_USAGE
        config = PoolConfig(
            workers=pool, max_batch=max_batch, max_queue=max_queue,
            backend=backend, check=check, cache_capacity=cache_capacity,
            retry=RetryPolicy(max_retries=retry) if retry > 0 else None,
            chaos=spec)
    else:
        config = ServeConfig(max_batch=max_batch, max_queue=max_queue,
                             workers=workers, backend=backend, check=check,
                             cache_capacity=cache_capacity)
    # (id, future-or-error) in request order; None ends the stream
    pending: queue.Queue = queue.Queue()
    failures = 0

    def write_responses() -> None:
        """Answer each request as soon as it and all before it have
        finished — not when the next input line arrives, which a client
        waiting for its answer never sends."""
        nonlocal failures
        while (item := pending.get()) is not None:
            rid, fut = item
            try:
                if isinstance(fut, BaseException):
                    raise fut
                resp = {"id": rid, "ok": True, "result": fut.result()}
            except BaseException as e:
                failures += 1
                resp = {"id": rid, "ok": False,
                        "kind": _error_kind(e), "error": str(e)}
            print(json.dumps(resp, default=str), file=out, flush=True)

    executor = WorkerPool(config) if pool else BatchExecutor(config)
    writer = threading.Thread(target=write_responses, name="serve-writer")
    with executor as ex:
        writer.start()
        try:
            for line in inp:
                line = line.strip()
                if not line:
                    continue
                rid = None
                try:
                    msg = json.loads(line)
                    rid = msg.get("id")
                    source = msg.get("source", default_source)
                    if source is None:
                        raise ValueError(
                            "request has no \"source\" and no FILE was given")
                    types = msg.get("types")
                    args = msg.get("args", [])
                    if types is not None:
                        args = [_coerce_tuples(a, parse_type(t))
                                for a, t in zip(args, types)]
                    budget = Budget(
                        max_elements=msg.get("max_elements"),
                        max_bytes=msg.get("max_bytes"),
                        max_steps=msg.get("max_steps"),
                        timeout_s=msg.get("timeout_s"),
                        max_call_depth=msg.get("max_depth"))
                    fut = ex.submit(
                        source, msg.get("fname", "main"), args,
                        types=types, backend=msg.get("backend"),
                        check=msg.get("check"),
                        budget=budget if budget.any_set() else None,
                        deadline_s=msg.get("deadline_s"),
                        request_id=str(rid) if rid is not None else None)
                    pending.put((rid, fut))
                except BaseException as e:
                    pending.put((rid, e))
        finally:
            pending.put(None)
            writer.join()
        if stats:
            s = ex.stats.snapshot()
            mean_batch = (s["batched_requests"] / s["batches"]
                          if s["batches"] else 0.0)
            line = (f"serve: {s['requests']} requests, {s['batches']} "
                    f"batches (mean {mean_batch:.1f}, max {s['max_batch']}),"
                    f" {s['singles']} singles, {s['budgeted_batched']} "
                    f"budgeted batched, {s['fallbacks']} fallbacks, "
                    f"{s['errors']} errors")
            if pool:
                line += (f", {s['restarts']} worker restarts, "
                         f"{s['retries']} retries, {s['shed']} shed, "
                         f"{s['frames']} frames "
                         f"[{ex.healthy_workers()}/{pool} healthy]")
            else:
                c = ex.cache.stats()
                lookups = c["hits"] + c["misses"]
                hit_rate = c["hits"] / lookups if lookups else 0.0
                line += (f", cache hit-rate {hit_rate:.2f} "
                         f"({c['hits']}/{lookups}, {c['entries']} entries)")
            print(line, file=err)
    return EXIT_OK if failures == 0 else EXIT_ERROR


def repl(backend: str = "vector", stdin=None, stdout=None) -> int:
    """Interactive loop: ``fun`` lines add definitions, other lines evaluate
    as expressions.  Commands: :defs, :transform NAME, :backend NAME, :quit.

    ``stdin``/``stdout`` are injectable for tests.
    """
    inp = stdin or sys.stdin
    out = stdout or sys.stdout

    def say(msg: str = "") -> None:
        print(msg, file=out)

    defs: list[str] = []
    say(f"P repl ({backend} back end) — :help for commands")
    while True:
        print("P> ", end="", file=out, flush=True)
        line = inp.readline()
        if not line:
            return 0
        line = line.strip()
        if not line:
            continue
        if line in (":quit", ":q"):
            return 0
        if line == ":help":
            say("fun name(args) = body    add a definition")
            say("EXPR                     evaluate an expression")
            say(":defs                    list definitions")
            say(":transform NAME          show a function's flattened form")
            say(f":backend NAME            switch {'|'.join(BACKENDS)}")
            say(":quit                    leave")
            continue
        if line == ":defs":
            for d in defs:
                say(d.splitlines()[0] + (" ..." if "\n" in d else ""))
            continue
        if line.startswith(":backend"):
            cand = line.split(None, 1)[-1]
            try:
                backend_row(cand)
                backend = cand
                say(f"back end: {backend}")
            except ValueError as e:
                say(f"error: {e}")
            continue
        if line.startswith(":transform"):
            name = line.split(None, 1)[-1].strip()
            try:
                prog = compile_program("\n".join(defs))
                sig = prog.typed.schemes.get(name)
                if sig is None:
                    say(f"no such function {name!r}")
                    continue
                from repro.lang.types import Subst
                params = [Subst().default_unresolved(t) for t in sig.params]
                say(prog.transformed_source(name, params, by_types=True))
            except ReproError as e:
                say(f"error: {e}")
            continue
        try:
            if line.startswith("fun "):
                trial = "\n".join([*defs, line])
                compile_program(trial)  # validate before accepting
                defs.append(line)
                say("ok")
            else:
                src = "\n".join([*defs, f"fun it_repl_() = {line}"])
                prog = compile_program(src)
                say(repr(prog.run("it_repl_", [], backend=backend)))
        except ReproError as e:
            say(f"error: {e}")
        except RecursionError:
            say("error: recursion limit exceeded")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
