"""Public API: compile and run P programs on either back end.

Typical use::

    from repro import compile_program

    prog = compile_program('''
        fun sqs(n) = [i <- [1..n]: i*i]
        fun nested(k) = [i <- [1..k]: sqs(i)]
    ''')
    prog.run("nested", [3])                      # vector back end (default)
    prog.run("nested", [3], backend="interp")    # reference interpreter
    prog.transformed_source("nested", [3])       # the iterator-free program

The pipeline is: parse -> merge prelude -> canonicalize (R1 + filter
desugar) -> type inference -> monomorphize per entry -> eliminate iterators
(R2) -> section-4.5 optimizations -> fusion -> execute (vector
representation / reference interpreter).
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, ContextManager, NamedTuple, Optional,
    Sequence, Union,
)

from repro.errors import EvalError, TypeCheckError, VectorError
from repro.guard import runtime as _guard
from repro.guard.runtime import Budget, GuardConfig, GuardState
from repro.interp.cost import CostReport
from repro.interp.interpreter import Interpreter
from repro.interp.values import check_value, infer_value_type
from repro.lang import ast as A
from repro.lang import types as T
from repro.lang.parser import parse_program
from repro.lang.prelude import merge_with_prelude
from repro.lang.pretty import pretty_def
from repro.lang.typecheck import TypedProgram, typecheck_program
from repro.obs import runtime as _obs
from repro.transform.extensions import ext1_name
from repro.transform.pipeline import (
    DEFAULT_PASSES, TransformOptions, TransformedProgram, transform_program,
)
from repro.vector.convert import from_python, infer_from_python, to_python
from repro.vexec.evaluator import VectorEvaluator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.cost import CostCertificate
    from repro.obs import ProfileReport

#: accepted by ``run(threads=...)``: an explicit count, ``"auto"``
#: (pick from the cost certificate's predicted concurrency), or ``None``
#: (the machine default)
ThreadSpec = Union[int, str, None]

#: Transform options for the cost analysis: the certificate bounds the
#: reference interpreter's measure on the *canonical* program, which
#: retains bindings the default pipeline's simplify pass cleans away, so
#: the analyzed IR must retain them too.
_COST_OPTIONS = TransformOptions(passes=DEFAULT_PASSES[:3], verify=False)


#: The Python recursion limit the front end and the executors run under:
#: parsing, every pass, type checking and execution recurse once (or a
#: few frames) per nesting level of the program or of its recursion.
_RECURSION_LIMIT = 200_000


# -- the back-end table --------------------------------------------------------
#
# T1 realizes every f^d through f^1, so every back end runs the one
# transformed program of an entry; a back end is the object that executes
# it (``call(name, pyargs)`` / ``call_raw(name, vargs)``).  The engine
# import stays inside the builder: ``native`` costs nothing until it runs.

def _native_executor(tp: TransformedProgram, threads: Optional[int]) -> Any:
    from repro.native.engine import get_engine
    engine = get_engine()
    if engine is not None and threads is not None:
        engine = engine.at_threads(threads)
    return VectorEvaluator(tp, native=engine)


class Backend(NamedTuple):
    """One row of :data:`BACKENDS` (the table in docs/PIPELINE.md)."""

    #: ``(transformed program, thread count) -> executor``, built once per
    #: entry and shared by every call that names no count; ``None`` for the
    #: reference interpreter, which runs the canonical program instead
    executor: Optional[Callable[[TransformedProgram, Optional[int]], Any]]
    #: ``threads=`` reaches the engine: a count runs every kernel call on a
    #: team of that many (an executor built per call); other rows ignore it
    threads: bool = False


#: Every back end, by name: what ``run``/``run_batched`` accept, the CLI's
#: ``--backend`` choices, the fuzzer's lanes, the serving layer's ``submit``.
BACKENDS: dict[str, Backend] = {
    "interp": Backend(None),
    "vector": Backend(lambda tp, threads: VectorEvaluator(tp)),
    "native": Backend(_native_executor, threads=True),
}

#: Names that were back ends once, with what runs their programs now.
_RETIRED = {
    "vcode": "use 'vector' (trace it with `repro simulate` or vector_trace)",
    "parallel": "use 'native' with threads= (--threads N)",
}


def backend_row(backend: str) -> Backend:
    """The table row for ``backend``; an unknown name is a ``ValueError``
    listing the known ones (and, for a retired one, its replacement)."""
    try:
        return BACKENDS[backend]
    except KeyError:
        retired = _RETIRED.get(backend)
        raise ValueError(
            f"unknown backend {backend!r} (known: {', '.join(BACKENDS)})"
            + (f"; {backend!r} is retired: {retired}" if retired else "")
        ) from None


def _guard_scope(check: Union[bool, str], budget: Optional[Budget]
                 ) -> ContextManager[Optional[GuardState]]:
    """The guard scope of one ``run``/``run_batched`` call: a real one
    when checking or a budget is asked for, else nothing."""
    if check or (budget is not None and budget.any_set()):
        return _guard.guarded(GuardConfig(check=check,
                                          budget=budget or Budget()))
    return nullcontext()


TypeLike = Union[str, T.Type]


def _as_type(t: TypeLike) -> T.Type:
    return T.parse_type(t) if isinstance(t, str) else t


def _converted(values: Sequence[Any], types: Any) -> tuple[Any, Optional[list]]:
    """``(types, vectors)``: values given without types are typed by
    converting them (:func:`infer_from_python`).  ``(types, None)`` where
    types are given or a value declines: those are checked, then converted."""
    pairs = [infer_from_python(v) for v in values] if types is None else None
    if pairs is None or not all(pairs):
        return types, None
    return tuple(t for t, _ in pairs), [x for _, x in pairs]


@dataclass
class _Bound:
    """What a call of one entry needs that ``(fname, types as given, back
    end, batched)`` decides and its arguments do not — found by the first
    call, kept with the program (:meth:`CompiledProgram._bind`)."""

    arg_types: tuple[T.Type, ...]   #: parsed once (types are frozen)
    fun_entries: tuple[str, ...]    #: instances of functions passed by value
    mono: str
    tp: TransformedProgram
    target: str     #: what the executor runs: ``mono``, or its ``f^1``
    #: ``seq(t)`` per argument (a batch column is one value of that type),
    #: or None where the entry runs request by request
    cols: Optional[tuple[T.Type, ...]]
    ret_col: T.Type                 #: ``seq(result type)``
    executor: Any = None            #: the row's, once built (not of a thread count)
    cert: Optional["CostCertificate"] = None    #: under ``backend=None``


@dataclass
class CompiledProgram:
    """A P program carried through the full pipeline, lazily per entry.
    Nothing changes after :func:`compile_program`: the dictionaries only
    fill, and ``_bound`` is published idempotently like ``tp.plans`` (two
    threads racing a first call bind the same facts; either copy serves)."""

    raw: A.Program
    canonical: A.Program
    typed: TypedProgram
    options: TransformOptions = field(default_factory=TransformOptions)
    _transformed: dict[tuple, tuple[str, TransformedProgram]] = field(
        default_factory=dict)
    _bound: dict[tuple, _Bound] = field(default_factory=dict, repr=False,
                                        compare=False)
    _cost_certs: dict[tuple, "CostCertificate"] = field(
        default_factory=dict, repr=False, compare=False)
    # Serializes monomorphize + transform: TypedProgram.instance publishes
    # its _instances entry before mono_defs is populated, so a second
    # thread racing through prepare() would transform against a program
    # that does not contain the entry yet.  Execution stays parallel;
    # only the (cached) compilation side is serialized.
    _prep_lock: threading.RLock = field(default_factory=threading.RLock,
                                        repr=False, compare=False)

    # -- entry preparation ------------------------------------------------------

    def entry_types(self, fname: str, args: Sequence[Any],
                    types: Optional[Sequence[TypeLike]] = None) -> tuple[T.Type, ...]:
        """Concrete argument types for an entry call (inferred from the
        Python values unless given explicitly)."""
        if types is not None:
            out = tuple(_as_type(t) for t in types)
            if len(out) != len(args):
                raise TypeCheckError("types/args length mismatch")
            for v, t in zip(args, out):
                if not isinstance(t, T.TFun):
                    check_value(v, t, "argument")
            return out
        return tuple(infer_value_type(a) for a in args)

    def resolve_entry(self, fname: str, args: Sequence[Any],
                      types: Optional[Sequence[TypeLike]] = None
                      ) -> tuple[tuple[T.Type, ...], list[str]]:
        """``(arg_types, fun_entries)`` for an entry call — what
        :meth:`prepare` and :meth:`cost_certificate` are keyed on: the
        concrete argument types (:meth:`entry_types`) plus an instance of
        every user function passed *by value* among the arguments."""
        arg_types = self.entry_types(fname, args, types)
        fun_entries = []
        for v, t in zip(args, arg_types):
            if isinstance(t, T.TFun):
                name = v.name if hasattr(v, "name") else str(v)
                if name in self.typed.source.defs:
                    with self._prep_lock:
                        fun_entries.append(self.typed.instance(name, t.params))
        return arg_types, fun_entries

    def _bind(self, fname: str, args: Sequence[Any],
              types: Optional[Sequence[TypeLike]], backend: Optional[str],
              batched: bool = False, proved: bool = False) -> _Bound:
        """The bound entry for one call, ``args`` checked as
        :meth:`entry_types` checks them: when warm, one lookup on a key
        whose members keep their hashes (the caller's strings, not parsed
        types), then the value check (not of types ``proved`` by converting
        ``args``).  ``backend=None`` binds the cost analysis's program and
        certificate.  Function-typed arguments make the program depend on
        the values passed: bound per call."""
        given = (tuple(types) if types is not None
                 else self.entry_types(fname, args))
        key = (fname, given, backend, batched)
        b = self._bound.get(key)
        if b is not None:
            if types is not None and not proved:
                self.entry_types(fname, args, b.arg_types)
            return b
        arg_types, funs = self.resolve_entry(fname, args, given)
        by_value = any(isinstance(t, T.TFun) for t in arg_types)
        options = _COST_OPTIONS if backend is None else self.options
        # a batch enumerates a frame and shares one dispatch table
        batched = batched and bool(arg_types) and not by_value
        with _guard.scoped_recursion_limit(_RECURSION_LIMIT):
            cert = (self.cost_certificate(fname, arg_types, funs)
                    if backend is None else None)
            mono, tp = self._prepare(fname, arg_types, funs, options, batched)
        b = _Bound(arg_types, tuple(funs), mono, tp,
                   ext1_name(mono) if batched else mono,
                   tuple(T.TSeq(t) for t in arg_types) if batched else None,
                   T.TSeq(self.typed.result_type(mono)), cert=cert)
        if not by_value:
            self._bound[key] = b
        return b

    def _prepare(self, fname: str, arg_types: tuple[T.Type, ...],
                 fun_args: Sequence[str], options: TransformOptions,
                 batched: bool) -> tuple[str, TransformedProgram]:
        """Monomorphize + transform ``fname`` at the given argument types
        under ``options`` (``batched``: plus the entry's own ``f^1``),
        once: the cache is keyed on the option *values*, so every back end
        shares one transformed program."""
        key = (fname, arg_types, tuple(sorted(fun_args)), batched,
               *vars(options).values())
        hit = self._transformed.get(key)
        if hit is not None:
            return hit
        with self._prep_lock:
            hit = self._transformed.get(key)
            if hit is not None:
                return hit
            with _obs.span("monomorphize"):
                mono = self.typed.instance(fname, arg_types)
            exts = (mono, *fun_args) if batched else tuple(fun_args)
            with _obs.span("transform"):
                tp = transform_program(self.typed, [mono, *fun_args], options,
                                       ext_entries=exts)
            self._transformed[key] = (mono, tp)
            return mono, tp

    def prepare(self, fname: str, arg_types: tuple[T.Type, ...],
                fun_args: Sequence[str] = ()) -> tuple[str, TransformedProgram]:
        """Monomorphize + transform ``fname`` at the given argument types.

        ``fun_args`` names user functions passed *as values* into the entry
        call; their instances are transformed too so dynamic dispatch finds
        them.
        """
        return self._prepare(fname, arg_types, fun_args, self.options, False)

    #: every back end runs :meth:`prepare`'s program
    prepare_native = prepare

    def cost_certificate(self, fname: str, arg_types: tuple[T.Type, ...],
                         fun_args: Sequence[str] = ()) -> "CostCertificate":
        """Static cost certificate for ``fname`` at the given argument
        types: symbolic work/span/mem upper bounds evaluable at concrete
        sizes (see :mod:`repro.analysis.cost` and docs/ANALYSIS.md).

        The certificate bounds the *reference interpreter's* measured
        work/span on the canonical program, so the flattened IR it is
        derived from is transformed with fixed options
        (``canonical, eliminate, optimize``, no ``simplify``: the
        canonical program retains bindings the default pipeline would
        clean away, and the bound must cover them)."""
        from repro.analysis.cost import cost_certificate_for
        key = (fname, arg_types, tuple(sorted(fun_args)))
        with self._prep_lock:
            cert = self._cost_certs.get(key)
            if cert is None:
                mono, tp = self._prepare(fname, arg_types, fun_args,
                                         _COST_OPTIONS, False)
                with _obs.span("analyze:cost"):
                    cert = cost_certificate_for(tp, mono)
                self._cost_certs[key] = cert
            return cert

    def _resolve_threads(self, fname: str, args: Sequence[Any],
                         arg_types: tuple[T.Type, ...],
                         fun_entries: Sequence[str],
                         threads: ThreadSpec) -> Optional[int]:
        """Resolve ``threads="auto"`` from the cost certificate's
        predicted concurrency (work/span); anything else passes through.
        Unbounded entries (or any analysis failure) fall back to the
        machine default — auto never degrades a run to an error."""
        if threads != "auto":
            assert threads is None or isinstance(threads, int)
            return threads
        from repro.native.engine import default_threads
        from repro.parallel.engine import pick_threads
        try:
            cert = self.cost_certificate(fname, arg_types, fun_entries)
            p = cert.predict(list(args))
        except Exception:
            return default_threads()
        if not p["bounded"]:
            return default_threads()
        return pick_threads(p["work"], p["span"])

    # -- execution ---------------------------------------------------------------

    def _executor(self, row: Backend, b: _Bound, fname: str,
                  args: Sequence[Any], threads: ThreadSpec) -> Any:
        """The executor for one call of ``b``: the row's executor — the
        entry's own, built by its first call, unless the call fixes a
        thread count the row takes."""
        if threads is not None and row.threads:
            assert row.executor is not None
            return row.executor(b.tp, self._resolve_threads(
                fname, args, b.arg_types, b.fun_entries, threads))
        ex = b.executor
        if ex is None:
            assert row.executor is not None
            ex = b.executor = row.executor(b.tp, None)
        return ex

    def run(self, fname: str, args: Sequence[Any], backend: str = "vector",
            types: Optional[Sequence[TypeLike]] = None,
            check: Union[bool, str] = False,
            budget: Optional[Budget] = None,
            threads: ThreadSpec = None) -> Any:
        """Run ``fname(args)``; ``backend`` is a key of :data:`BACKENDS`
        (the capability table in docs/PIPELINE.md) — ``"vector"``,
        ``"native"`` or ``"interp"``; any other name is a ``ValueError``.

        ``"native"`` executes fused elementwise regions and segmented
        primitives as compiled C kernels (bit-identical to the NumPy
        path by contract; see docs/NATIVE.md), falling back to the NumPy
        applier — with one warning — when no C toolchain is available.
        With ``threads=None`` a kernel call over enough elements runs on
        several CPUs; a count runs every call on a team of that many
        threads (serially where the threaded kernels do not build), still
        bit-identical to serial — see docs/PARALLEL.md.
        ``threads="auto"`` picks the count from the cost certificate's
        predicted concurrency (docs/ANALYSIS.md).  The other back ends
        ignore ``threads``.

        ``check=True`` (or ``"full"``) enables strict descriptor-invariant
        checking at every kernel and backend boundary; ``check="static"``
        keeps only the checks that can fail on valid arguments, those of
        the kernels whose catalog shape class is runtime (see
        docs/ANALYSIS.md; the reference interpreter has no vector values
        to check).  ``budget`` imposes resource ceilings (see
        :mod:`repro.guard` and docs/RELIABILITY.md).  All are scoped to
        this call and cost nothing when unused.
        """
        with _guard_scope(check, budget):
            return self._run(fname, args, backend, types, threads)

    def _run(self, fname: str, args: Sequence[Any], backend: str,
             types: Optional[Sequence[TypeLike]],
             threads: ThreadSpec) -> Any:
        """:meth:`run` inside its guard scope (also each request of
        :meth:`run_batched`'s per-request fallback, inside the batch's)."""
        row = backend_row(backend)
        if row.executor is None:
            self.entry_types(fname, args, types)
            with _obs.span(f"execute:{backend}"):
                return Interpreter(self.canonical).call(fname, list(args))
        types, vargs = _converted(args, types)
        b = self._bind(fname, args, types, backend, proved=vargs is not None)
        ex = self._executor(row, b, fname, args, threads)
        if vargs is None:
            with _obs.span(f"execute:{backend}"):
                return ex.call(b.mono, list(args))
        with _guard.scoped_recursion_limit(_RECURSION_LIMIT), \
                _obs.span(f"execute:{backend}"), \
                _obs.span(f"{ex.span}:{b.mono}"):
            return to_python(ex.call_raw(b.mono, vargs), b.ret_col.elem)

    def predict(self, fname: str, args: Sequence[Any],
                types: Optional[Sequence[TypeLike]] = None) -> dict:
        """``cost_certificate(fname, *resolve_entry(fname, args,
        types)).predict(args)`` through the bound entry (serve admission)."""
        return self._bind(fname, args, types, None).cert.predict(list(args))

    # -- segment batching ------------------------------------------------------

    def run_batched(self, fname: str, argsets: Sequence[Sequence[Any]],
                    backend: str = "vector",
                    types: Optional[Sequence[TypeLike]] = None,
                    check: Union[bool, str] = False,
                    budget: Optional[Budget] = None,
                    threads: ThreadSpec = None) -> list:
        """Run ``fname`` over N independent argument sets as **one**
        segment-batched vector pass, returning the N results in order.

        A column of N requests' values for one argument is one value of
        type ``seq(t)``, so it crosses the boundary as ``from_python(column,
        seq(t))`` — request i becomes element i, one walk per level for
        the whole batch — and the batch executes as a single call of the
        synthesized depth-1 extension ``f^1``, exactly the T1 machinery
        that realizes every nested application in the paper;
        ``to_python(out, seq(ret))`` is the N results, element-wise
        identical to N independent :meth:`run` calls (a tested property;
        docs/SERVING.md says how a malformed request is named and how an
        untyped batch is typed: as one value, whoever leads).

        Batching applies to every back end with an executor — ``vector``
        and ``native``.  The
        reference interpreter has no vector representation to pack, so
        ``backend="interp"`` — like zero-argument or function-valued-
        argument entries — falls back to a per-request loop with the same
        results.  ``check``/``budget`` scope one guard around the whole
        batch: ``f^1`` on N requests uses at least what it uses on any of
        them, so :class:`repro.serve.BatchExecutor` runs a group under
        its members' tightest budget and re-runs each member under its
        own when the group breaches (docs/SERVING.md).
        """
        row = backend_row(backend)
        argsets = [list(a) for a in argsets]
        if not argsets:
            return []
        n, lead = len(argsets), argsets[0]
        k = len(lead)
        with _guard_scope(check, budget) as g:
            b = cols = None
            if row.executor is not None:
                for args in argsets:
                    if len(args) != k:
                        raise EvalError(f"{fname} expects {k} arguments, "
                                        f"got {len(args)}")
                if types is None and lead:
                    # a column is one value: sibling requests merge their
                    # element types, an empty sequence takes its siblings'
                    columns = [[a[j] for a in argsets] for j in range(k)]
                    seqs, cols = _converted(columns, None)
                    types = tuple(map(T.peel, seqs or map(infer_value_type,
                                                          columns)))
                b = self._bind(fname, lead, types, backend, batched=True,
                               proved=cols is not None)
            if b is None or b.cols is None:
                return [self._run(fname, args, backend, types, threads)
                        for args in argsets]
            ex = self._executor(row, b, fname, lead, threads)
            with _obs.span(f"batch:pack[{n}]"):
                if cols is None:
                    cols = [from_python([args[j] for args in argsets], t)
                            for j, t in enumerate(b.cols)]
                if g is not None and g.check:
                    for col in cols:
                        g.check_value("batch:pack", col)
            with _guard.scoped_recursion_limit(_RECURSION_LIMIT), \
                    _obs.span(f"execute:{backend}-batch[{n}]"):
                out = ex.call_raw(b.target, cols)
            with _obs.span(f"batch:unpack[{n}]"):
                if g is not None and g.check:
                    g.check_value("batch:unpack", out)
                results = to_python(out, b.ret_col)
                if len(results) != n:
                    raise VectorError(
                        f"batch of {len(results)}, expected {n}")
                return results

    # -- VCODE / machine model ------------------------------------------------------

    def compile_vcode(self, fname: str, arg_types: Sequence[TypeLike]):
        """Compile an entry to a VCODE program; returns (mono-name, VProgram)."""
        from repro.vcode.compile import compile_transformed
        ats = tuple(_as_type(t) for t in arg_types)
        mono, tp = self.prepare(fname, ats)
        return mono, compile_transformed(tp)

    def vcode_vm(self, fname: str, args: Sequence[Any],
                 types: Optional[Sequence[TypeLike]] = None):
        """A fresh VM for an entry — the vector evaluator over the linted
        VCODE program, recording the op-width trace; returns (vm, mono)."""
        from repro.vcode.compile import compile_transformed
        from repro.vcode.vm import VM
        mono, tp = self.prepare(fname, *self.resolve_entry(fname, args, types))
        with _guard.scoped_recursion_limit(_RECURSION_LIMIT):
            vp = compile_transformed(tp)
        return VM(vp, fusion=tp.fusion), mono

    def vector_trace(self, fname: str, args: Sequence[Any],
                     types: Optional[Sequence[TypeLike]] = None
                     ) -> tuple[Any, list[tuple[str, int]]]:
        """Run on the VCODE VM (:meth:`vcode_vm`) and return (result,
        op-width trace) — the input to the machine simulator; the result
        is ``run(..., backend="vector")``'s."""
        vm, mono = self.vcode_vm(fname, args, types)
        result = vm.call(mono, list(args))
        return result, vm.trace

    def emit_c(self, fname: str, arg_types: Sequence[TypeLike],
               native: bool = False,
               threads: Optional[int] = None) -> str:
        """CVL-style C translation unit for an entry (section-5 view).

        ``native=True`` appends the *real* C kernels the native engine
        compiles for each fused region (the same :mod:`repro.native.codegen`
        output that lands in the kernel cache; see docs/NATIVE.md).
        ``threads`` additionally switches those kernels to their
        threaded variants, whose thread count is a call argument
        (docs/PARALLEL.md)."""
        from repro.vcode.compile import compile_transformed
        from repro.vcode.emit_c import emit_program
        _mono, tp = self.prepare(fname, tuple(_as_type(t) for t in arg_types))
        vp = compile_transformed(tp)
        return emit_program(vp, fusion=tp.fusion if native else None,
                            threads=threads)

    def run_all(self, fname: str, args: Sequence[Any],
                types: Optional[Sequence[TypeLike]] = None,
                check: Union[bool, str] = False,
                budget: Optional[Budget] = None) -> Any:
        """Run on the reference interpreter and the vector evaluator and
        assert agreement (the paper's soundness property); returns the
        common value."""
        vec = self.run(fname, args, "vector", types, check=check, budget=budget)
        ref = self.run(fname, args, "interp", types, check=check, budget=budget)
        if vec != ref:
            raise AssertionError(
                f"back ends disagree on {fname}{tuple(args)!r}: "
                f"vector={vec!r} interp={ref!r}")
        return vec

    def profile(self, fname: str, args: Sequence[Any],
                backend: str = "vector",
                types: Optional[Sequence[TypeLike]] = None,
                threads: ThreadSpec = None,
                **meta: Any) -> tuple[Any, "ProfileReport"]:
        """Run ``fname(args)`` under the observability layer and return
        ``(result, ProfileReport)``.

        Counters cover the whole run; phase spans cover whatever work
        actually happens inside it — if this entry was already prepared,
        the transform spans were spent earlier and only execution spans
        appear (profile a fresh :func:`compile_program` to see compile
        phases).  See docs/OBSERVABILITY.md.
        """
        from repro.obs import profiling
        with profiling() as prof:
            result = self.run(fname, args, backend, types, threads=threads)
        return result, prof.report(entry=fname, backend=backend, **meta)

    def measure(self, fname: str, args: Sequence[Any]) -> tuple[Any, CostReport]:
        """Run on the reference interpreter with work/span accounting."""
        return Interpreter(self.canonical).run(fname, list(args))

    # -- inspection ----------------------------------------------------------------

    def transformed_source(self, fname: str, args_or_types: Sequence[Any],
                           by_types: bool = False) -> str:
        """Pretty-printed iterator-free program for an entry (section 5 view)."""
        if by_types:
            arg_types = tuple(_as_type(t) for t in args_or_types)
        else:
            arg_types = self.entry_types(fname, args_or_types)
        mono, tp = self.prepare(fname, arg_types)
        return "\n\n".join(pretty_def(d) for d in tp.defs.values())

    def trace_for(self, fname: str, arg_types: Sequence[TypeLike]):
        """Rule-application trace for an entry (requires options.trace)."""
        mono, tp = self.prepare(fname, tuple(_as_type(t) for t in arg_types))
        return tp.trace


def compile_program(source: str, use_prelude: bool = True,
                    options: Optional[TransformOptions] = None) -> CompiledProgram:
    """Front half of the pipeline: parse, run the source-stage passes
    (R1 canonicalization, with its postcondition and optional IR dump —
    see docs/PASSES.md), and type-check.

    With ``use_prelude`` the program is merged with the per-process
    prelude image (:mod:`repro.lang.prelude`), so each stage works on the
    user's definitions only — plus, in inference, the prelude definitions
    a user name shadows into; the first such call of a process builds the
    image (about 6 ms)."""
    from repro.passes.base import PassContext
    from repro.passes.manager import manager_for

    with _guard.scoped_recursion_limit(_RECURSION_LIMIT):
        with _obs.span("parse"):
            raw = parse_program(source)
            if use_prelude:
                raw = merge_with_prelude(raw)
        opts = options or TransformOptions()
        pm = manager_for(opts)  # validates the whole pipeline's ordering
        ctx = PassContext(options=opts, program=raw)
        pm.run_source(ctx)
        canonical = ctx.program
        with _obs.span("typecheck"):
            typed = typecheck_program(canonical)
    return CompiledProgram(raw=raw, canonical=canonical, typed=typed,
                           options=opts)


def run(source: str, fname: str, args: Sequence[Any],
        backend: str = "vector",
        types: Optional[Sequence[TypeLike]] = None) -> Any:
    """One-shot convenience: compile and run."""
    return compile_program(source).run(fname, args, backend, types)


def batch_executor(config=None, cache=None):
    """A serving :class:`~repro.serve.BatchExecutor`: bounded request
    queue, LRU compile cache, and same-function segment batching (one
    extra descriptor level, one vector pass per batch).  Lazy import so
    the serving layer costs nothing unless used; see docs/SERVING.md."""
    from repro.serve import BatchExecutor
    return BatchExecutor(config=config, cache=cache)
