"""Reference interpreter for P.

Evaluates the *original* (pre-transformation) program with the per-element
iterator semantics of section 2:

    for all k in 1..#d:   [x <- d: e][k]  ==  e[x := d[k]]

This is the semantic baseline every other back end is tested against, and
the "repeated evaluation of the iterator body" whose overhead the
transformation eliminates (section 6, *Implications for sequential
execution* — benchmark E7).

Evaluation also accumulates the work/span cost model of
:mod:`repro.interp.cost`: iterator bodies contribute their *maximum* span
(they run in parallel in the abstract semantics) but their *summed* work.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import EvalError
from repro.guard import runtime as _guard
from repro.guard.runtime import scoped_recursion_limit
from repro.interp.cost import CostReport, prim_work
from repro.interp.values import FunVal, check_value
from repro.lang import ast as A
from repro.lang import builtins as B

# ---------------------------------------------------------------------------
# Builtin implementations on Python values
# ---------------------------------------------------------------------------


import functools
import math


def _div(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("division by zero")
    return a // b


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        raise EvalError("division by zero")
    return a / b


def _sqrt(a: float) -> float:
    if a < 0:
        raise EvalError(f"sqrt of negative value {a}")
    return math.sqrt(a)


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("mod by zero")
    return a % b


def _index(v: list[Any], i: int) -> Any:
    if not 1 <= i <= len(v):
        raise EvalError(f"index {i} out of range 1..{len(v)}")
    return v[i - 1]


def _update(v: list[Any], i: int, x: Any) -> list[Any]:
    if not 1 <= i <= len(v):
        raise EvalError(f"update index {i} out of range 1..{len(v)}")
    out = list(v)
    out[i - 1] = x
    return out


def _restrict(v: list[Any], m: list[Any]) -> list[Any]:
    if len(v) != len(m):
        raise EvalError(f"restrict: lengths differ ({len(v)} vs {len(m)})")
    return [x for x, keep in zip(v, m) if keep]


def _combine(m: list[Any], v: list[Any], u: list[Any]) -> list[Any]:
    if len(m) != len(v) + len(u):
        raise EvalError(
            f"combine: #m ({len(m)}) != #v + #u ({len(v)} + {len(u)})")
    out = []
    iv = iu = 0
    for keep in m:
        if keep:
            out.append(v[iv])
            iv += 1
        else:
            out.append(u[iu])
            iu += 1
    return out


def _dist(c: Any, r: int) -> list[Any]:
    if r < 0:
        raise EvalError(f"dist: negative count {r}")
    return [c] * r


def _py_size(v: Any) -> int:
    """Shallow size of an interpreter value for frame-size diagnostics
    (top-level length of a sequence, 1 for scalars/tuples/functions)."""
    return len(v) if isinstance(v, list) else 1


def _nonempty(name: str, v: list[Any]) -> list[Any]:
    if not v:
        raise EvalError(f"{name}: empty sequence")
    return v


def _plus_scan(v: list[Any]) -> list[Any]:
    out = []
    acc = 0
    for x in v:
        out.append(acc)
        acc += x
    return out


def _max2(a: Any, b: Any) -> Any:
    """Python's ``max``, except that a NaN operand wins, as it does in
    NumPy's ``maximum`` and the C kernels (``max`` drops a NaN that comes
    second)."""
    return b if b != b else max(a, b)


def _min2(a: Any, b: Any) -> Any:
    """Python's ``min``, except that a NaN operand wins."""
    return b if b != b else min(a, b)


def _max_scan(v: list[Any]) -> list[Any]:
    out = []
    acc = None
    for x in v:
        acc = x if acc is None else _max2(acc, x)
        out.append(acc)
    return out


def _rank(v: list[Any]) -> list[int]:
    """1-origin ranks under a stable ascending sort (CVL's rank)."""
    order = sorted(range(len(v)), key=lambda i: (v[i], i))
    out = [0] * len(v)
    for pos, i in enumerate(order):
        out[i] = pos + 1
    return out


def _permute(v: list[Any], idx: list[int]) -> list[Any]:
    """Scatter: result[idx[k]] = v[k]; idx must be a permutation of 1..#v."""
    if len(v) != len(idx):
        raise EvalError("permute: lengths differ")
    out = [None] * len(v)
    for x, i in zip(v, idx):
        if not 1 <= i <= len(v):
            raise EvalError(f"permute: index {i} out of range 1..{len(v)}")
        if out[i - 1] is not None:
            raise EvalError(f"permute: duplicate target index {i}")
        out[i - 1] = x
    return out


def _flatten(v: list[list[Any]]) -> list[Any]:
    out = []
    for x in v:
        out.extend(x)
    return out


PRIM_IMPLS: dict[str, Callable[..., Any]] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": _div,
    "mod": _mod,
    "max2": _max2,
    "min2": _min2,
    "neg": lambda a: -a,
    "abs_": lambda a: abs(a),
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "and_": lambda a, b: a and b,
    "or_": lambda a, b: a or b,
    "not_": lambda a: not a,
    "length": lambda v: len(v),
    "range": lambda a, b: list(range(a, b + 1)),
    "range1": lambda n: list(range(1, n + 1)),
    "seq_index": _index,
    "seq_update": _update,
    "restrict": _restrict,
    "combine": _combine,
    "dist": _dist,
    "flatten": _flatten,
    "concat": lambda v, w: list(v) + list(w),
    "sum": lambda v: sum(v),
    "maxval": lambda v: functools.reduce(_max2, _nonempty("maxval", v)),
    "minval": lambda v: functools.reduce(_min2, _nonempty("minval", v)),
    "anytrue": lambda v: any(v),
    "alltrue": lambda v: all(v),
    "plus_scan": _plus_scan,
    "max_scan": _max_scan,
    "rank": _rank,
    "permute": _permute,
    "fdiv": _fdiv,
    "sqrt_": _sqrt,
    "real": lambda a: float(a),
    "trunc_": lambda a: math.trunc(a),
    "round_": lambda a: int(round(a)),  # round-half-even, like np.rint
    "floor_": lambda a: math.floor(a),
    "ceil_": lambda a: math.ceil(a),
}


class Interpreter:
    """Reference evaluator over a :class:`repro.lang.ast.Program`.

    The program may be the raw parse (the interpreter is type-agnostic) or a
    monomorphized one — both give identical results on well-typed inputs.
    """

    def __init__(self, program: A.Program, max_recursion: int = 200_000) -> None:
        self.program = program
        self.cost = CostReport()
        self._max_recursion = max_recursion

    # -- public API ----------------------------------------------------------

    def call(self, fname: str, args: list[Any]) -> Any:
        """Invoke top-level function ``fname`` on Python values."""
        with scoped_recursion_limit(self._max_recursion):
            val, _span = self._apply(FunVal(fname), list(args))
        return val

    def run(self, fname: str, args: list[Any]) -> tuple[Any, CostReport]:
        """Like :meth:`call` but returns a fresh cost report as well."""
        self.cost = CostReport()
        with scoped_recursion_limit(self._max_recursion):
            val, span = self._apply(FunVal(fname), list(args))
        self.cost.span = span
        return val, self.cost

    def eval_expression(self, e: A.Expr, env: dict[str, Any] | None = None) -> Any:
        """Evaluate a standalone expression (tests and the REPL-style API)."""
        val, _ = self._eval(e, env or {})
        return val

    # -- core evaluation (returns (value, span)) ------------------------------

    def _apply(self, f: FunVal, args: list[Any]) -> tuple[Any, int]:
        name = f.name
        g = _guard.GUARD
        if g is not None:
            g = g.state
        if name in self.program.defs:
            d = self.program[name]
            if len(args) != len(d.params):
                raise EvalError(
                    f"{name} expects {len(d.params)} arguments, got {len(args)}")
            if g is None:
                return self._eval(d.body, dict(zip(d.params, args)))
            g.tick(f"interp:{name}")
            g.enter_call(name, sum(_py_size(a) for a in args)
                         if g.track_frames else 0)
            try:
                return self._eval(d.body, dict(zip(d.params, args)))
            finally:
                g.exit_call()
        if name in PRIM_IMPLS:
            return self._prim(name, args)
        raise EvalError(f"unknown function {name!r}")

    def _prim(self, name: str, args: list[Any]) -> tuple[Any, int]:
        res = PRIM_IMPLS[name](*args)
        work = prim_work(name, args, res)
        self.cost.work += work
        g = _guard.GUARD
        if g is not None and (g := g.state) is not None:
            g.tick(f"interp:{name}")
            g.charge(f"interp:{name}", work, 8 * work)
        return res, 1

    def _eval(self, e: A.Expr, env: dict[str, Any]) -> tuple[Any, int]:
        if isinstance(e, (A.IntLit, A.BoolLit, A.FloatLit)):
            return e.value, 0
        if isinstance(e, A.Var):
            if e.name in env:
                return env[e.name], 0
            if e.name in self.program.defs or B.is_builtin(e.name):
                return FunVal(e.name), 0
            raise EvalError(f"unbound variable {e.name!r}")
        if isinstance(e, A.SeqLit):
            vals, spans = self._eval_many(e.items, env)
            self.cost.work += max(1, len(vals))
            return vals, spans + 1
        if isinstance(e, A.TupleLit):
            vals, spans = self._eval_many(e.items, env)
            self.cost.work += 1
            return tuple(vals), spans + 1
        if isinstance(e, A.TupleExtract):
            v, s = self._eval(e.tup, env)
            if not isinstance(v, tuple) or not 1 <= e.index <= len(v):
                raise EvalError(f"bad tuple projection .{e.index} on {v!r}")
            self.cost.work += 1
            return v[e.index - 1], s + 1
        if isinstance(e, A.Call):
            if e.fn.origin == A.BUILTIN:  # what R1 generates: never a def
                args, aspan = self._eval_many(e.args, env)
                rv, rspan = self._prim(e.fn.name, args)
                return rv, aspan + rspan
            fval, fspan = self._eval(e.fn, env)
            args, aspan = self._eval_many(e.args, env)
            if not isinstance(fval, FunVal):
                raise EvalError(f"attempt to call non-function {fval!r}")
            rv, rspan = self._apply(fval, args)
            return rv, fspan + aspan + rspan
        if isinstance(e, A.Lambda):
            # fully parameterized: lift on the fly under a unique name
            name = A.fresh_name("lam")
            self.program.defs[name] = A.FunDef(name, list(e.params), e.body)
            return FunVal(name), 0
        if isinstance(e, A.Let):
            bv, bs = self._eval(e.bound, env)
            env2 = dict(env)
            env2[e.var] = bv
            rv, rs = self._eval(e.body, env2)
            return rv, bs + rs
        if isinstance(e, A.If):
            cv, cs = self._eval(e.cond, env)
            if not isinstance(cv, bool):
                raise EvalError(f"if condition is not bool: {cv!r}")
            rv, rs = self._eval(e.then if cv else e.els, env)
            return rv, cs + rs
        if isinstance(e, A.Iter):
            return self._eval_iter(e, env)
        raise EvalError(f"cannot interpret node {type(e).__name__}")

    def _eval_many(self, es: list[A.Expr],
                   env: dict[str, Any]) -> tuple[list[Any], int]:
        vals = []
        span = 0
        for x in es:
            v, s = self._eval(x, env)
            vals.append(v)
            span += s
        return vals, span

    def _eval_iter(self, e: A.Iter, env: dict[str, Any]) -> tuple[Any, int]:
        dom, dspan = self._eval(e.domain, env)
        if not isinstance(dom, list):
            raise EvalError(f"iterator domain is not a sequence: {dom!r}")
        span = dspan
        elems = dom
        # filtered form: [x <- d | b: e] restricts the domain first (sec. 2)
        if e.filter is not None:
            fspan = 0
            kept = []
            for x in dom:
                env2 = dict(env)
                env2[e.var] = x
                keep, s = self._eval(e.filter, env2)
                fspan = max(fspan, s)
                if not isinstance(keep, bool):
                    raise EvalError("iterator filter is not bool")
                if keep:
                    kept.append(x)
            self.cost.work += max(1, len(dom))  # the restrict
            span += fspan + 1
            elems = kept
        out = []
        bspan = 0
        for x in elems:
            env2 = dict(env)
            env2[e.var] = x
            v, s = self._eval(e.body, env2)
            bspan = max(bspan, s)
            out.append(v)
        self.cost.work += max(1, len(elems))
        return out, span + bspan + 1
