"""The six workloads.  Each makes its inputs from the seed, computes its
oracle without the path under test, and exposes the closed-loop protocol
``harness.run_phase`` drives:

``setup(seed)``            build inputs, oracle and warm state (timed as set-up)
``issue(op, tr, root)``    start op number ``op``; returns a ticket
``finish(ticket, tr, root)`` wait for the ticket and verify it; True when correct
``close()``                release executors and pools

``tr`` is ``None`` in the timed phase, where an op is one call of the
public API.  In the traced pass it is a ``harness.Tracer`` and library
workloads make the same calls the public API makes, one layer at a time,
each inside a span.
"""

from __future__ import annotations

import ast
import itertools
import math
import os
import random
from pathlib import Path

import numpy as np

from repro import Budget, ReproError, compile_program
from repro.api import CompiledProgram
from repro.fuzz.gen import gen_case
from repro.guard.runtime import scoped_recursion_limit
from repro.lang.parser import parse_program
from repro.lang.prelude import merge_with_prelude
from repro.lang.typecheck import typecheck_program
from repro.native.engine import get_engine
from repro.passes.base import PassContext
from repro.passes.manager import manager_for
from repro.serve import BatchExecutor, PoolConfig, ServeConfig, WorkerPool
from repro.transform.pipeline import TransformOptions
from repro.vector.convert import from_python, to_python
from repro.vexec.evaluator import VectorEvaluator

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

#: Seeded fuzz programs in ``cold_compile``.  The issue asked for 16; the
#: median op is a property of the drawn population, and 16 draws move it
#: by more than the regression bound from one seed to the next.
N_FUZZ = 96


def traced_compile(src: str, tr, root) -> CompiledProgram:
    """``compile_program(src)``, one span per layer."""
    opts = TransformOptions()
    with tr.span("lang.parse", root):
        raw = merge_with_prelude(parse_program(src))
    with tr.span("passes.canonicalize", root):
        ctx = PassContext(options=opts, program=raw)
        manager_for(opts).run_source(ctx)
    with tr.span("lang.typecheck", root):
        typed = typecheck_program(ctx.program)
    return CompiledProgram(raw=raw, canonical=ctx.program, typed=typed,
                           options=opts)


def traced_run(prog: CompiledProgram, entry: str, args: list, types, tr, root):
    """``prog.run(entry, args, types=types)`` on the vector back end, one
    span per layer.  ``transform.prepare`` is monomorphize + flatten (with
    the analysis verifier inside it) on first use and a lookup after."""
    with tr.span("api.entry_types", root):
        at = prog.entry_types(entry, args, types)
    with tr.span("transform.prepare", root):
        mono, tp = prog.prepare(entry, at)
    with tr.span("vector.from_python", root):
        vargs = [from_python(a, t) for a, t in zip(args, at)]
    with tr.span("vexec.call_raw", root), scoped_recursion_limit(200_000):
        out = VectorEvaluator(tp).call_raw(mono, vargs)
    with tr.span("vector.to_python", root):
        return to_python(out, tp.defs[mono].ret_type)


class Library:
    """A single-threaded closed loop: one op in flight, done when issued."""

    outstanding = 1

    def issue(self, op, tr, root):
        return op, (self.op(op) if tr is None else self.op_traced(op, tr, root))

    def finish(self, ticket, tr, root):
        op, got = ticket
        if tr is None:
            return self.check(op, got)
        with tr.span("bench.verify", root):
            return self.check(op, got)

    def close(self):
        pass


class WarmRun(Library):
    """An op is ``prog.run(entry, args)`` on an already prepared program;
    subclasses set ``prog``, ``entry``, ``args`` and ``want`` in set-up."""

    def op(self, op):
        return self.prog.run(self.entry, self.args)

    def op_traced(self, op, tr, root):
        return traced_run(self.prog, self.entry, self.args, None, tr, root)

    def check(self, op, got):
        return got == self.want


# -- cold_compile ------------------------------------------------------------------

def example_programs() -> list[tuple]:
    """``(name, source, entry, args, types)`` of every example that
    declares SOURCE, PROFILE_ENTRY and PROFILE_ARGS, read without running
    the example."""
    out = []
    for path in sorted(EXAMPLES.glob("*.py")):
        spec = {}
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id in ("SOURCE", "PROFILE_ENTRY",
                                               "PROFILE_ARGS")):
                spec[node.targets[0].id] = ast.literal_eval(node.value)
        if len(spec) == 3:
            out.append((path.stem, spec["SOURCE"], spec["PROFILE_ENTRY"],
                        list(spec["PROFILE_ARGS"]), None))
    return out


class ColdCompile(Library):
    def setup(self, seed):
        self.programs, self.want = [], []
        examples = example_programs()
        fuzz = ((f"fuzz{c.seed}", c.source, c.entry, list(c.args), c.types)
                for c in map(gen_case, itertools.count(seed * 1000)))
        for p in itertools.chain(examples, fuzz):
            if len(self.programs) == len(examples) + N_FUZZ:
                break
            try:
                want = compile_program(p[1]).run(p[2], p[3], backend="interp",
                                                 types=p[4])
            except ReproError:      # a generator slip, not an input
                continue
            self.programs.append(p)
            self.want.append(want)
        self.cycle = len(self.programs)     # a measuring block is whole cycles

    def op(self, op):
        _n, src, entry, args, types = self.programs[op % len(self.programs)]
        return compile_program(src).run(entry, args, types=types)

    def op_traced(self, op, tr, root):
        _n, src, entry, args, types = self.programs[op % len(self.programs)]
        return traced_run(traced_compile(src, tr, root), entry, args, types,
                          tr, root)

    def check(self, op, got):
        return got == self.want[op % len(self.want)]


# -- flat_kernels --------------------------------------------------------------------

FLAT_SRC = ("fun f(v: seq(seq(float))) = "
            "[s <- v: sum([x <- s: (x * 0.5 + 1.0) * x - 0.25])]")


def flat_formula(seg: list) -> float:
    return sum((x * 0.5 + 1.0) * x - 0.25 for x in seg)


class FlatKernels(Library):
    segments, per = 4000, 256

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        arg = rng.uniform(-1.0, 1.0, size=self.segments * self.per) \
            .reshape(self.segments, self.per).tolist()
        self.prog = compile_program(FLAT_SRC)
        self.at = self.prog.entry_types("f", [arg])
        self.vec = from_python(arg, self.at[0])
        self.mono_np, self.tp_np = self.prog.prepare("f", self.at)
        self.mono, self.tp = self.prog.prepare_native("f", self.at)
        # None without a C toolchain: the evaluator then runs NumPy
        self.ev = VectorEvaluator(self.tp, native=get_engine())
        self.want = VectorEvaluator(self.tp_np).call_raw(self.mono_np,
                                                         [self.vec])
        ref = [flat_formula(seg) for seg in arg]
        got = to_python(self.want, self.tp_np.defs[self.mono_np].ret_type)
        if not all(math.isclose(g, r, rel_tol=1e-9, abs_tol=1e-12)
                   for g, r in zip(got, ref)):
            raise AssertionError("vector back end disagrees with the formula")
        self.ev.call_raw(self.mono, [self.vec])     # cc compile lands here

    def op(self, op):
        return self.ev.call_raw(self.mono, [self.vec])

    def op_traced(self, op, tr, root):
        with tr.span("native.call_raw", root):
            return self.ev.call_raw(self.mono, [self.vec])

    def check(self, op, got):
        return got == self.want         # bit for bit


# -- nested_dc ----------------------------------------------------------------------

QSORT_SRC = """
fun qsort(s) =
  if #s <= 1 then s
  else let p = s[(#s + 1) div 2],
           less = [x <- s | x < p: x],
           same = [x <- s | x == p: x],
           more = [x <- s | x > p: x],
           sorted = [part <- [less, more]: qsort(part)]
       in concat(concat(sorted[1], same), sorted[2])
fun qsort_all(vv) = [v <- vv: qsort(v)]
"""

#: Recursion depth of the deepest sequence in every ``nested_dc`` input.  A
#: flattened op runs a fixed number of kernels per recursion level whatever
#: the frame holds, so op time follows that depth; left to chance it ranges
#: over 19..25 between seeds, +-12% in kernel calls.
QSORT_DEPTH = 18


def qsort_depth(s: list) -> int:
    """Recursion depth of QSORT_SRC's qsort on ``s`` (same pivot rule)."""
    if len(s) <= 1:
        return 1
    p = s[(len(s) + 1) // 2 - 1]
    return 1 + max(qsort_depth([x for x in s if x < p]),
                   qsort_depth([x for x in s if x > p]))


def ragged_keys(seed: int) -> list:
    """150 key sequences of lengths 1..200 (every seed draws the same
    lengths in another order, so the key total is fixed).  A sequence is
    redrawn while it recurses deeper than QSORT_DEPTH, the longest until
    it reaches exactly that depth."""
    rng = random.Random(seed)
    sequences, longest = 150, 200
    lens = [1 + i * (longest - 1) // (sequences - 1) for i in range(sequences)]
    rng.shuffle(lens)
    out = []
    for n in lens:
        while True:
            s = [rng.randrange(1_000_000) for _ in range(n)]
            depth = qsort_depth(s)
            if depth == QSORT_DEPTH or (n < longest and depth < QSORT_DEPTH):
                out.append(s)
                break
    return out


class NestedDC(WarmRun):
    entry = "qsort_all"

    def setup(self, seed):
        self.args = [ragged_keys(seed)]
        self.want = [sorted(s) for s in self.args[0]]
        self.prog = compile_program(QSORT_SRC)
        self.prog.run(self.entry, self.args)


# -- api_roundtrip --------------------------------------------------------------------

CHAIN_SRC = "fun f(v) = [x <- v: ((x * 3 + 7) * x - 5) * (x + x * x)]"


def chain_formula(x: int) -> int:
    return ((x * 3 + 7) * x - 5) * (x + x * x)


class ApiRoundtrip(WarmRun):
    entry = "f"

    def setup(self, seed):
        rng = random.Random(seed)
        self.args = [[rng.randrange(1000) for _ in range(100_000)]]
        self.want = [chain_formula(x) for x in self.args[0]]
        self.prog = compile_program(CHAIN_SRC)
        self.prog.run(self.entry, self.args)


# -- serve_batch / serve_pool -----------------------------------------------------------

SERVE_KEYS = 8
SERVE_TYPES = ("seq(int)",)


def serve_source(k: int) -> str:
    return f"fun main(s) = sum([x <- s: x * x + {k}])"


def serve_requests(seed: int, count: int = 4096) -> list[tuple]:
    """``(key, args, budget, expected)`` per request: ragged int sequences
    of 1..40, a tenth of them budgeted (those are never coalesced and pass
    predicted-cost admission and the guard)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.randrange(SERVE_KEYS)
        s = [rng.randrange(-50, 50) for _ in range(rng.randrange(1, 41))]
        budget = Budget(max_steps=1_000_000) if rng.random() < 0.1 else None
        out.append((k, s, budget, sum(x * x + k for x in s)))
    return out


class Serve:
    """The request stream through ``BatchExecutor`` (in process) or
    ``WorkerPool``; shipped default configs, pool workers capped at the
    CPU count."""

    outstanding = 32        #: requests in flight

    def __init__(self, pooled: bool):
        self.pooled = pooled
        self.ex = None

    def setup(self, seed):
        self.sources = [serve_source(k) for k in range(SERVE_KEYS)]
        self.requests = serve_requests(seed)
        if self.pooled:
            self.ex = WorkerPool(PoolConfig(
                workers=min(2, os.cpu_count() or 1)))
        else:
            self.ex = BatchExecutor(ServeConfig())
        for k, src in enumerate(self.sources):      # fill the compile caches
            if self.ex.submit(src, "main", [[1, 2]],
                              types=SERVE_TYPES).result(60) != 5 + 2 * k:
                raise AssertionError(f"serve warm-up: key {k} is wrong")

    def issue(self, op, tr, root):
        k, s, budget, want = self.requests[op % len(self.requests)]
        if tr is None:
            return self.ex.submit(self.sources[k], "main", [s],
                                  types=SERVE_TYPES, budget=budget), want, None
        with tr.span("serve.submit", root):
            fut = self.ex.submit(self.sources[k], "main", [s],
                                 types=SERVE_TYPES, budget=budget)
        return fut, want, tr.begin("serve.wait", root)

    def finish(self, ticket, tr, root):
        fut, want, waiting = ticket
        got = fut.result(60)
        if tr is not None:
            tr.end(waiting)
        return got == want

    def close(self):
        if self.ex is not None:
            self.ex.close()
            self.ex = None


def make(name: str):
    return {"cold_compile": ColdCompile, "flat_kernels": FlatKernels,
            "nested_dc": NestedDC, "api_roundtrip": ApiRoundtrip,
            "serve_batch": lambda: Serve(pooled=False),
            "serve_pool": lambda: Serve(pooled=True)}[name]()
