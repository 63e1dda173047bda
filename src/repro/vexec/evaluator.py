"""Evaluator for transformed (iterator-free) P programs on the vector
representation.

Application of a depth-``d`` parallel extension follows the paper exactly
(see :mod:`repro.vexec.apply`, shared with the VCODE VM):

* ``d == 0`` — ordinary scalar evaluation (depth-1 kernels on unit frames);
* ``d == 1`` — the native depth-1 kernel / the synthesized ``f^1``;
* ``d >= 2`` — rule T1: ``insert(f^1(extract(e, d)), e, d)``.

Arguments whose recorded frame depth is 0 are *replicated* to the flattened
frame before the kernel runs (section 3), except for the section-4.5 shared
fast paths (``__seq_index_shared``), which consume the depth-0 value
directly.  Higher-order application dispatches on the function value,
group-by-group for frames of function values.

A function body is not walked on every call.  Its first call *lowers* it to
a plan: a tree of closures over a flat frame of slots, in which parameters
and ``let`` binders are integer slots, a ``let`` chain is one loop over its
bindings, a conditional evaluates only the branch it takes, and every
application is already bound (:meth:`Applier.bind`) — what remains per node
at run time is one call.  Plans depend on the program and on the engine the
applications were bound against, not on the evaluator, so they are kept
with the :class:`TransformedProgram` (``program.plans``, per engine) and a
fresh evaluator on a warm program lowers nothing.  Publishing a plan is
idempotent — two threads racing a first call lower the same closures and
either copy serves — so the warm path takes no lock.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Optional

import numpy as np

from repro.errors import EvalError, VMError
from repro.guard import runtime as _guard
from repro.guard.runtime import scoped_recursion_limit
from repro.lang import ast as A
from repro.lang import builtins as B
from repro.obs import runtime as _obs
from repro.transform.pipeline import TransformedProgram
from repro.vector import ops as O
from repro.vector.convert import from_python, to_python
from repro.vector.nested import Value, VFun, VTuple, first_leaf
from repro.vexec.apply import Applier, projection, raising

#: a lowered expression: frame of slots -> value
Node = Callable[[list], Value]


def _const(v: Value) -> Node:
    return lambda fr: v


class _Lowered:
    """The functions of one :class:`TransformedProgram` lowered against one
    :class:`Applier` (one engine, one observer): ``plans[name]`` is
    ``(parameter count, padding for the let slots, body node)``."""

    def __init__(self, program: TransformedProgram, native,
                 observer: Optional[Callable[[str, int], None]]):
        self.program = program
        self.plans: dict[str, tuple[int, tuple, Node]] = {}
        self.applier = Applier(call_user=self.call_raw,
                               is_user=program.defs.__contains__,
                               observe=observer,
                               fusion=program.fusion,
                               native=native)

    def call_raw(self, name: str, vargs: list[Value]) -> Value:
        plan = self.plans.get(name)
        if plan is None:
            plan = self.lower(name)
        nparams, pad, body = plan
        if len(vargs) != nparams:
            raise EvalError(
                f"{name} expects {nparams} arguments, got {len(vargs)}")
        fr = [*vargs, *pad]
        g = _guard.GUARD
        if g is None:
            return body(fr)
        g.enter_call(name, sum(O.value_size(a) for a in vargs)
                     if g.track_frames else 0)
        try:
            result = body(fr)
        finally:
            g.exit_call()
        if g.check and not g.skip(f"call:{name}"):
            g.check_value(f"vexec:{name}", result)
        return result

    def definition(self, name: str) -> A.FunDef:
        try:
            return self.program.defs[name]
        except KeyError:
            raise VMError(f"no transformed definition for {name!r}") from None

    # -- lowering -----------------------------------------------------------------

    def lower(self, name: str) -> tuple[int, tuple, Node]:
        """Lower ``name``'s body and publish its plan."""
        d = self.definition(name)
        slots = [len(d.params)]     # next free slot
        body = self._node(d.body, {p: i for i, p in enumerate(d.params)},
                          slots)
        plan = (len(d.params), (None,) * (slots[0] - len(d.params)), body)
        self.plans[name] = plan
        return plan

    def _node(self, e: A.Expr, env: dict[str, int], slots: list[int]) -> Node:
        """Lower one expression; ``env`` maps the variables in scope to
        their slots, ``slots[0]`` is the function's next free slot."""
        if isinstance(e, (A.IntLit, A.BoolLit, A.FloatLit)):
            return _const(e.value)
        if isinstance(e, A.Var):
            if e.name in env:
                return itemgetter(env[e.name])
            if e.name in self.program.defs \
                    or e.name in self.program.typed.mono_defs \
                    or B.is_builtin(e.name):
                return _const(VFun(e.name))
            return raising(EvalError, f"unbound variable {e.name!r}")
        if isinstance(e, A.Let):
            steps = []
            while isinstance(e, A.Let):   # a chain of lets is one loop
                bound = self._node(e.bound, env, slots)
                steps.append((slots[0], bound))
                env = {**env, e.var: slots[0]}
                slots[0] += 1
                e = e.body
            body = self._node(e, env, slots)

            def let(fr: list) -> Value:
                for slot, bound in steps:
                    fr[slot] = bound(fr)
                return body(fr)
            return let
        if isinstance(e, A.If):
            cond, then, els = (self._node(x, env, slots)
                               for x in (e.cond, e.then, e.els))

            def branch(fr: list) -> Value:
                c = cond(fr)
                if not isinstance(c, (bool, np.bool_)):
                    raise EvalError(f"if condition is not a scalar bool: {c!r}")
                return then(fr) if c else els(fr)
            return branch
        if isinstance(e, A.SeqLit):
            items = [self._node(x, env, slots) for x in e.items]
            seen, width, typ = self.applier.observer, max(1, len(items)), e.type

            def seq(fr: list) -> Value:
                vals = [item(fr) for item in items]
                if seen is not None:
                    seen("seq_cons", width)
                return O.seq_cons0(vals, typ)
            return seq
        if isinstance(e, A.TupleLit):
            items = [self._node(x, env, slots) for x in e.items]
            return lambda fr: VTuple([item(fr) for item in items])
        if isinstance(e, A.TupleExtract):
            tup, project = self._node(e.tup, env, slots), projection(e.index)
            return lambda fr: project([tup(fr)])
        if isinstance(e, A.ExtCall):
            return self._ext(e, [self._node(a, env, slots) for a in e.args])
        if isinstance(e, A.IndirectCall):
            fun = self._node(e.fun, env, slots)
            args = [self._node(a, env, slots) for a in e.args]
            apply_dynamic = self.applier.apply_dynamic
            site = (tuple(e.arg_depths), e.depth, e.fun_depth, e.type)
            return lambda fr: apply_dynamic(
                fun(fr), [a(fr) for a in args], *site)
        return raising(VMError, f"cannot execute node {type(e).__name__} "
                                "(was the program transformed?)")

    def _ext(self, e: A.ExtCall, args: list[Node]) -> Node:
        if e.fn == "__any":
            mask, seen = args[0], self.applier.observer

            def any_(fr: list) -> Value:
                leaf = first_leaf(mask(fr))
                if seen is not None:
                    seen("any", max(1, int(leaf.values.size)))
                return bool(leaf.values.any())
            return any_
        if e.fn == "__empty":
            mask, depth, typ = args[0], e.depth, e.type
            return lambda fr: O.empty_frame_like(first_leaf(mask(fr)),
                                                 depth, typ)
        bound = self.applier.bind(e.fn, tuple(e.arg_depths), e.depth, e.type)
        return lambda fr: bound([a(fr) for a in args])


class VectorEvaluator:
    """Executes the functions of a :class:`TransformedProgram`."""

    span = "vexec"      #: the phase span of one entry call is ``vexec:<name>``

    def __init__(self, program: TransformedProgram, max_recursion: int = 200_000,
                 observer: Optional[Callable[[str, int], None]] = None,
                 native=None):
        self.program = program
        self._max_recursion = max_recursion
        if observer is not None:    # observed plans are this evaluator's own
            self._code = _Lowered(program, native, observer)
        else:
            code = program.plans.get(native)
            if code is None:
                code = program.plans.setdefault(
                    native, _Lowered(program, native, None))
            self._code = code
        self.applier = self._code.applier

    def call(self, mono_name: str, pyargs: list) -> Any:
        """Invoke a transformed function on Python values, returning Python
        values (the entry point used by the API and all tests)."""
        d = self._code.definition(mono_name)
        if len(pyargs) != len(d.params):
            raise EvalError(
                f"{mono_name} expects {len(d.params)} arguments, got {len(pyargs)}")
        with scoped_recursion_limit(self._max_recursion), \
                _obs.span(f"{self.span}:{mono_name}"):
            vargs = [from_python(a, t) for a, t in zip(pyargs, d.param_types)]
            out = self._code.call_raw(mono_name, vargs)
            return to_python(out, d.ret_type)

    def call_raw(self, name: str, vargs: list[Value]) -> Value:
        """Invoke a transformed function on vector values."""
        return self._code.call_raw(name, vargs)
