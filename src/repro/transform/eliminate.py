"""Iterator elimination — the syntax-directed transformation tau(e, j) of
section 3.2 (rules R2a-R2f).

``tau`` walks a typed, monomorphic, canonical function body carrying the
current iteration depth ``j`` and rewrites every construct:

* identifiers and constants translate to themselves (R2a, R2b);
* applications become applications of the depth-``j`` parallel extension
  ``f^j`` (R2c for the function part, realized as :class:`ExtCall` /
  :class:`IndirectCall` nodes);
* an iterator ``[i <- [1..e1]: e2]`` becomes ``let ib = tau(e1); i =
  range1^j(ib); v = dist^j(v, ib) ... in tau(e2, j+1)`` with a ``dist``
  rebinding for every enclosing-iterator-bound variable occurring in the
  body (R2c in the paper's numbering);
* conditionals at depth >= 1 become ``restrict``/``combine`` with dynamic
  emptiness guards (R2d) — the guards are what make transformed *recursive*
  functions terminate;
* ``let`` distributes (R2e); function values reduce to named references
  (R2f; lambdas were already lifted by monomorphization).

Every in-scope variable has a *frame depth*: 0 for function parameters and
loop-invariant bindings, or exactly ``j`` for iterator-/let-bound frames
(the entry rebindings maintain this invariant).  Each application records
its arguments' frame depths so the evaluator can replicate depth-0 values
("we rely on parallel extensions of functions to replicate such single
values to the appropriate depth"), or avoid replicating them (section 4.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol

from repro.errors import TransformError
from repro.guard import faults as _flt
from repro.lang import ast as A
from repro.lang import builtins as B
from repro.lang import types as T
from repro.transform.trace import NullTrace, Trace


class ExtensionRegistry(Protocol):
    """What the eliminator needs from the pipeline driver."""

    def request_def(self, mono_name: str) -> None:
        """Ensure the depth-0 transformed body of ``mono_name`` will exist."""

    def request_ext1(self, mono_name: str) -> None:
        """Ensure the depth-1 parallel extension of ``mono_name`` will exist."""

    def is_user_function(self, name: str) -> bool:
        """True if ``name`` is a monomorphized top-level definition."""


@dataclass
class Env:
    """Scope information for one point of the walk."""

    fdepth: dict[str, int] = field(default_factory=dict)
    witness: Optional[str] = None  # a variable holding a full depth-j frame

    def child(self, binds: dict[str, int]) -> "Env":
        """The scope one iterator deeper: ``binds`` maps the iterator's
        bound variables to their frame depths (R2's depth bookkeeping)."""
        # binds is a plain dict: its keys are P identifiers, which must never
        # collide with Python parameter names (a user variable named "w" or
        # "self" is perfectly legal P)
        fd = dict(self.fdepth)
        fd.update(binds)
        return Env(fd, self.witness)

    def with_witness(self, witness_name: str, binds: dict[str, int]) -> "Env":
        """Like :meth:`child`, but also names the frame witness — the
        variable R2d's guard restriction re-expands results against."""
        fd = dict(self.fdepth)
        fd.update(binds)
        return Env(fd, witness_name)


def _var(name: str, t: T.Type | None = None) -> A.Var:
    v = A.Var(name)
    v.type = t
    return v


def _let(var: str, bound: A.Expr, body: A.Expr) -> A.Let:
    e = A.Let(var, bound, body)
    e.type = body.type
    return e


def _ext(fn: str, args: list[A.Expr], depth: int, arg_depths: list[int],
         t: T.Type | None = None) -> A.ExtCall:
    e = A.ExtCall(fn, args, depth, arg_depths)
    e.type = t
    return e


class Eliminator:
    """Applies tau to function bodies.  One instance per pipeline run."""

    def __init__(self, registry: ExtensionRegistry,
                 trace: Trace | None = None):
        self.registry = registry
        self.trace = trace or NullTrace()

    # -- public --------------------------------------------------------------

    def transform_body(self, fname: str, params: list[str], body: A.Expr,
                       param_depths: list[int] | None = None,
                       witness: Optional[str] = None,
                       start_depth: int = 0) -> A.Expr:
        """tau(body, start_depth) with parameters at the given frame depths
        (all 0 by default — the f^0 case).  Extension synthesis passes
        depth-1 parameters and a witness."""
        self.trace.set_context(fname)
        depths = param_depths or [0] * len(params)
        env = Env(dict(zip(params, depths)), witness)
        out, _fd = self.tau(body, start_depth, env)
        return out

    # -- the transformation ----------------------------------------------------

    def tau(self, e: A.Expr, j: int, env: Env) -> tuple[A.Expr, int]:
        """Returns (transformed expression, frame depth of its value)."""
        if isinstance(e, A.Var):
            # R2a — additionally, a Var reaching here is a *value* position
            # (call targets are handled in _tau_call), so a reference to a
            # top-level function is a function value that may be dispatched
            # at any depth later: make both its forms available.
            if e.name not in env.fdepth and self.registry.is_user_function(e.name):
                self.registry.request_def(e.name)
                self.registry.request_ext1(e.name)
            return e, env.fdepth.get(e.name, 0)
        if isinstance(e, (A.IntLit, A.BoolLit, A.FloatLit)):
            return e, 0  # R2b
        if isinstance(e, A.Lambda):
            raise TransformError(
                "lambda survived monomorphization; cannot transform")  # R2f
        if isinstance(e, A.SeqLit):
            return self._tau_seqlit(e, j, env)
        if isinstance(e, A.TupleLit):
            return self._tau_tuplelit(e, j, env)
        if isinstance(e, A.TupleExtract):
            return self._tau_tuple_extract(e, j, env)
        if isinstance(e, A.Call):
            return self._tau_call(e, j, env)
        if isinstance(e, A.Let):
            return self._tau_let(e, j, env)
        if isinstance(e, A.If):
            return self._tau_if(e, j, env)
        if isinstance(e, A.Iter):
            return self._tau_iter(e, j, env)
        raise TransformError(f"cannot transform node {type(e).__name__}")

    # -- leaves and structure ---------------------------------------------------

    def _tau_seqlit(self, e: A.SeqLit, j: int, env: Env) -> tuple[A.Expr, int]:
        items = [self.tau(x, j, env) for x in e.items]
        fds = [fd for _, fd in items]
        if not items or (j == 0 or all(fd == 0 for fd in fds)):
            out = A.SeqLit([x for x, _ in items])
            out.type = e.type
            return out, 0
        out = _ext("__seq_cons", [x for x, _ in items], j, fds, e.type)
        return out, j

    def _tau_tuplelit(self, e: A.TupleLit, j: int, env: Env) -> tuple[A.Expr, int]:
        items = [self.tau(x, j, env) for x in e.items]
        fds = [fd for _, fd in items]
        if j == 0 or all(fd == 0 for fd in fds):
            out = A.TupleLit([x for x, _ in items])
            out.type = e.type
            return out, 0
        out = _ext("__tuple_cons", [x for x, _ in items], j, fds, e.type)
        return out, j

    def _tau_tuple_extract(self, e: A.TupleExtract, j: int, env: Env) -> tuple[A.Expr, int]:
        tup, fd = self.tau(e.tup, j, env)
        if fd == 0:
            out = A.TupleExtract(tup, e.index)
            out.type = e.type
            return out, 0
        out = _ext(f"__tuple_extract_{e.index}", [tup], j, [fd], e.type)
        return out, j

    # -- application (R2c for function parts) -----------------------------------

    def _tau_call(self, e: A.Call, j: int, env: Env) -> tuple[A.Expr, int]:
        args = [self.tau(a, j, env) for a in e.args]
        fds = [fd for _, fd in args]
        arg_exprs = [x for x, _ in args]

        if not (e.fn.origin == A.BUILTIN or (
                isinstance(e.fn, A.Var) and e.fn.name not in env.fdepth
                and (self.registry.is_user_function(e.fn.name)
                     or B.is_builtin(e.fn.name)))):
            # higher-order: the function part is a local variable or an
            # arbitrary function-valued expression (e.g. a conditional
            # choosing between functions) — dynamic dispatch
            fn_expr, fun_fd = self.tau(e.fn, j, env)
            depth = j if (fun_fd > 0 or any(fd > 0 for fd in fds)) else 0
            out = A.IndirectCall(fn_expr, arg_exprs, depth, fun_fd, fds)
            out.type = e.type
            self.trace.record("R2c", e, out)
            return out, depth and j
        name = e.fn.name

        depth = j if any(fd > 0 for fd in fds) else 0
        if self.registry.is_user_function(name):
            if depth == 0:
                self.registry.request_def(name)
            else:
                self.registry.request_ext1(name)
        elif not B.is_builtin(name):
            raise TransformError(f"unknown function {name!r} in application")
        out = _ext(name, arg_exprs, depth, fds, e.type)
        if _flt.INJECTOR is not None and depth > 0:
            def _bump(_rng, _out=out, _name=name, _depth=depth):
                _out.depth = _depth + 1
                return f"bumped {_name}^{_depth} to depth {_depth + 1}"
            _flt.visit_ir("transform.R2c.depth-bump", _bump)
        self.trace.record("R2c", e, out)
        return out, depth

    # -- let (R2e) ----------------------------------------------------------------

    def _tau_let(self, e: A.Let, j: int, env: Env) -> tuple[A.Expr, int]:
        bound, bfd = self.tau(e.bound, j, env)
        body, fd = self.tau(e.body, j, env.child({e.var: bfd}))
        out = _let(e.var, bound, body)
        out.type = e.type
        self.trace.record("R2e", e, out)
        return out, fd

    # -- conditional (R2d) ----------------------------------------------------------

    def _tau_if(self, e: A.If, j: int, env: Env) -> tuple[A.Expr, int]:
        cond, cfd = self.tau(e.cond, j, env)

        if j == 0 or cfd == 0:
            # uniform condition: an ordinary (lazy) conditional
            then, tfd = self.tau(e.then, j, env)
            els, efd = self.tau(e.els, j, env)
            fd = max(tfd, efd)
            if fd > 0:
                then = self._lift(then, tfd, j, env, e.then.type)
                els = self._lift(els, efd, j, env, e.els.type)
            out = A.If(cond, then, els)
            out.type = e.type
            return out, fd

        # data-dependent condition at depth j >= 1: restrict/combine form
        m = A.fresh_name("M")
        notm = A.fresh_name("N")
        beta = e.type  # per-element result type

        r2 = self._branch(e.then, j, env, m, beta)
        r3 = self._branch(e.els, j, env, notm, beta)

        r2n, r3n = A.fresh_name("R2"), A.fresh_name("R3")
        comb = _ext("combine", [_var(m), _var(r2n), _var(r3n)],
                    j - 1, [j - 1, j - 1, j - 1], e.type)
        comb.origin = "R2d"
        if _flt.INJECTOR is not None:
            cell = [r2]

            def _drop(_rng, _cell=cell):
                guard_if = _cell[0]
                if not isinstance(guard_if, A.If):
                    return None
                _cell[0] = guard_if.then
                return "dropped the __any emptiness guard of an R2d branch"
            _flt.visit_ir("transform.R2d.drop-guard", _drop)
            r2 = cell[0]
        out = _let(m, cond,
                   _let(notm, _ext("not_", [_var(m)], j, [j], T.BOOL),
                        _let(r2n, r2, _let(r3n, r3, comb))))
        out.type = e.type
        self.trace.record("R2d", e, out)
        return out, j

    def _branch(self, branch: A.Expr, j: int, env: Env, mask_var: str,
                beta: T.Type) -> A.Expr:
        """One arm of R2d: restrict every depth-j variable occurring in the
        branch by the mask, evaluate at depth j, guarded by emptiness."""
        wit = A.fresh_name("W")
        free = A.free_vars(branch)
        restricted = sorted(v for v in free
                            if env.fdepth.get(v, 0) == j and v != mask_var)
        benv = env.with_witness(wit, {v: j for v in restricted})
        body, bfd = self.tau(branch, j, benv)
        body = self._lift(body, bfd, j, benv, beta)
        # bind the branch witness: the mask restricted by itself
        wrestrict = _ext("restrict", [_var(mask_var), _var(mask_var)],
                         j - 1, [j - 1, j - 1], T.BOOL)
        wrestrict.origin = "R2d-restrict"
        inner: A.Expr = _let(wit, wrestrict, body)
        for v in reversed(restricted):
            vrestrict = _ext("restrict", [_var(v), _var(mask_var)],
                             j - 1, [j - 1, j - 1])
            vrestrict.origin = "R2d-restrict"
            inner = _let(v, vrestrict, inner)
        guard = _ext("__any", [_var(mask_var)], 0, [j], T.BOOL)
        empty = _ext("__empty", [_var(mask_var)], j, [j], beta)
        out = A.If(guard, inner, empty)
        out.type = beta
        out.origin = "R2d-guard"
        return out

    def _lift(self, e: A.Expr, fd: int, j: int, env: Env,
              beta: T.Type | None) -> A.Expr:
        """Lift a depth-0 value to the current depth-j frame via __rep."""
        if fd == j or j == 0:
            return e
        if fd != 0:
            raise TransformError(f"unexpected frame depth {fd} at depth {j}")
        if env.witness is None:
            raise TransformError("no frame witness available for lifting")
        return _ext("__rep", [_var(env.witness), e], j, [j, 0], beta)

    # -- iterator (paper rule R2c for iterators) -----------------------------------

    def _tau_iter(self, e: A.Iter, j: int, env: Env) -> tuple[A.Expr, int]:
        if e.filter is not None:
            raise TransformError("filtered iterator survived canonicalization")
        dom = e.domain
        if not (isinstance(dom, A.Call) and isinstance(dom.fn, A.Var)
                and dom.fn.name == "range" and len(dom.args) == 2
                and isinstance(dom.args[0], A.IntLit) and dom.args[0].value == 1):
            raise TransformError("non-canonical iterator survived R1")
        bound_expr = dom.args[1]

        ib = A.fresh_name("ib")
        iw = A.fresh_name("iw")
        ibe, ibfd = self.tau(bound_expr, j, env)
        ibe = self._lift(ibe, ibfd, j, env, T.INT)

        # i = range1^j(ib)
        range_call = _ext("range1", [_var(ib, T.INT)], j, [j], T.TSeq(T.INT))

        # dist every enclosing-bound variable occurring in the body
        free = A.free_vars(e.body, frozenset([e.var]))
        to_dist = sorted(v for v in free if env.fdepth.get(v, 0) >= 1)
        for v in to_dist:
            if env.fdepth[v] != j:
                raise TransformError(
                    f"variable {v} has frame depth {env.fdepth[v]} at depth {j}")

        benv = env.with_witness(iw, {v: j + 1 for v in to_dist})
        benv.fdepth[e.var] = j + 1
        benv.fdepth[iw] = j + 1
        body, bfd = self.tau(e.body, j + 1, benv)
        body = self._lift(body, bfd, j + 1, benv, e.body.type)

        inner: A.Expr = _let(e.var, _var(iw, T.TSeq(T.INT)), body)
        for v in reversed(to_dist):
            inner = _let(
                v,
                _ext("dist", [_var(v), _var(ib, T.INT)], j, [j, j]),
                inner)
        out = _let(ib, ibe, _let(iw, range_call, inner))
        out.type = e.type
        self.trace.record("R2c", e, out)
        return out, j
