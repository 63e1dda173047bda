"""Evaluator for transformed (iterator-free) P programs on the vector
representation.

Application of a depth-``d`` parallel extension follows the paper exactly
(see :mod:`repro.vexec.apply`):

* ``d == 0`` — ordinary scalar evaluation (depth-1 kernels on unit frames;
  ``restrict`` and ``combine`` run at level 0 on the sequence itself);
* ``d == 1`` — the native depth-1 kernel / the synthesized ``f^1``;
* ``d >= 2`` — rule T1: ``insert(f^1(extract(e, d)), e, d)``.

An elementwise primitive reads no descriptor and skips T1: it is one op on
the value vectors at every depth, a depth-0 operand a 0-d array.  For
every other primitive, arguments whose recorded frame depth is 0 are
*replicated* to the flattened frame before the kernel runs (section 3),
except for the section-4.5 shared fast paths (``__seq_index_shared``),
which consume the depth-0 value directly.  Higher-order application dispatches on the function value,
group-by-group for frames of function values.

What runs is the function's VCODE (:mod:`repro.vcode`).  Its first call
*lowers* it to a plan: registers are the slots of a flat frame (parameters
first, constants filled in when the plan is built), every instruction is one
step that writes its register, every application is already bound
(:meth:`Applier.bind`), and a diamond is one branch step that runs only the
arm it takes — what remains per instruction at run time is one call.  Plans
depend on the program and on the engine the applications were bound
against, not on the evaluator, so they are kept with the
:class:`TransformedProgram` (``program.plans``, per engine) and a fresh
evaluator on a warm program lowers nothing.  Publishing a plan is
idempotent — two threads racing a first call lower the same closures and
either copy serves — so the warm path takes no lock.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

import numpy as np

from repro.errors import EvalError, VMError
from repro.guard import faults as _flt
from repro.guard import runtime as _guard
from repro.guard.runtime import scoped_recursion_limit
from repro.obs import runtime as _obs
from repro.transform.pipeline import TransformedProgram
from repro.vcode.compile import compile_function
from repro.vcode.instructions import (
    Call, CallInd, Const, Copy, Fail, FunConst, Instr, Jump, JumpIfNot,
    Label, Prim, Ret, VFunction,
)
from repro.vector import ops as O
from repro.vector.convert import from_python, to_python
from repro.vector.nested import NestedVector, Value, VFun, VTuple, first_leaf
from repro.vexec.apply import Applier, Bound, raising

#: one instruction of a plan: writes its register in the frame
Step = Callable[[list], None]


def _desc_arrays(v: Value) -> list:
    """Descriptor arrays of every NestedVector leaf of ``v`` (fault-site
    candidates; only reached when an injector is armed)."""
    if isinstance(v, VTuple):
        return [a for x in v.items for a in _desc_arrays(x)]
    return list(v.descs) if isinstance(v, NestedVector) else []


class _Lowered:
    """The functions of one program lowered against one :class:`Applier`
    (one engine, one observer): ``compile(name)`` is a function's VCODE
    (a ``KeyError`` for an unknown name), ``plans[name]`` is
    ``(parameter count, the frame's other registers, steps, result
    register)``."""

    def __init__(self, compile: Callable[[str], VFunction],
                 is_user: Callable[[str], bool], fusion, native,
                 observer: Optional[Callable[[str, int], None]]):
        self._compile = compile
        self.plans: dict[str, tuple[int, tuple, list[Step], int]] = {}
        self.applier = Applier(call_user=self.call_raw, is_user=is_user,
                               observe=observer, fusion=fusion,
                               native=native)

    def call_raw(self, name: str, vargs: list[Value]) -> Value:
        plan = self.plans.get(name)
        if plan is None:
            plan = self.lower(name)
        nparams, pad, steps, out = plan
        if len(vargs) != nparams:
            raise EvalError(
                f"{name} expects {nparams} arguments, got {len(vargs)}")
        fr = [*vargs, *pad]
        g = _guard.GUARD
        if g is not None:
            g = g.state
        if g is None and _flt.INJECTOR is None:
            for step in steps:
                step(fr)
            return fr[out]
        if g is not None:
            g.enter_call(name, sum(O.value_size(a) for a in vargs)
                         if g.track_frames else 0)
        try:
            for step in steps:
                step(fr)
        finally:
            if g is not None:
                g.exit_call()
        result = fr[out]
        if _flt.INJECTOR is not None:
            _flt.visit("vexec.call.desc-bump", _desc_arrays(result))
            _flt.visit("vexec.call.desc-negate", _desc_arrays(result))
        if g is not None and g.check and not g.static:
            g.check_value(f"vexec:{name}", result)
        return result

    def function(self, name: str) -> VFunction:
        try:
            return self._compile(name)
        except KeyError:
            raise VMError(f"no function {name!r} in the program") from None

    # -- lowering -----------------------------------------------------------------

    def lower(self, name: str) -> tuple[int, tuple, list[Step], int]:
        """Lower ``name``'s VCODE and publish its plan."""
        f = self.function(name)
        n = len(f.params)
        if f.params != list(range(n)):
            raise VMError(f"{name}: parameters are not the first registers")
        pad: list = [None] * (f.nregs - n)
        for i in f.instrs:
            if isinstance(i, Const):
                pad[i.dst - n] = i.value
            elif isinstance(i, FunConst):
                pad[i.dst - n] = VFun(i.name)
        steps, ret, _pc = self._block(f, 0)
        if not isinstance(ret, Ret):
            raise VMError(f"{name}: unsupported control flow at {ret}")
        plan = (n, tuple(pad), steps, ret.src)
        self.plans[name] = plan
        return plan

    def _block(self, f: VFunction, pc: int
               ) -> tuple[list[Step], Optional[Instr], int]:
        """The steps from ``pc`` up to the next ``Jump``, ``Label`` or
        ``Ret``, with that instruction (None past the end) and the index
        after it.  A diamond ``JumpIfNot c, L1; … Jump L2; L1: … L2:`` is
        one branch step; any other control flow is a ``VMError``."""
        steps: list[Step] = []
        instrs = f.instrs
        while pc < len(instrs):
            i = instrs[pc]
            pc += 1
            if isinstance(i, (Jump, Label, Ret)):
                return steps, i, pc
            if isinstance(i, JumpIfNot):
                then, jump, pc = self._block(f, pc)
                els, join = [], None
                if pc < len(instrs) and instrs[pc] == Label(i.label):
                    els, join, pc = self._block(f, pc + 1)
                if not (isinstance(jump, Jump) and join == Label(jump.label)):
                    raise VMError(f"{f.name}: unsupported control flow "
                                  f"after {i}")
                steps.append(_branch(i.cond, then, els))
            elif not isinstance(i, (Const, FunConst)):   # those are the pad
                steps.append(self._step(i))
        return steps, None, pc

    def _step(self, i: Instr) -> Step:
        if isinstance(i, Copy):
            dst, src = i.dst, i.src

            def copy(fr: list) -> None:
                fr[dst] = fr[src]
            return copy
        if isinstance(i, Fail):
            return raising(i.error, i.message)
        args = i.args
        if isinstance(i, Call):
            bound = partial(self.call_raw, i.fname)
        elif isinstance(i, CallInd):
            apply_dynamic, args = self.applier.apply_dynamic, (i.fun, *args)
            site = (i.arg_depths, i.depth, i.fun_depth, i.type)
            bound = lambda vals: apply_dynamic(vals[0], vals[1:], *site)
        elif isinstance(i, Prim):
            bound = self._prim(i)
        else:
            raise VMError(f"cannot execute instruction {i}")
        dst = i.dst

        def step(fr: list) -> None:
            fr[dst] = bound([fr[a] for a in args])
        return step

    def _prim(self, i: Prim) -> Bound:
        seen, depth, typ = self.applier.observer, i.depth, i.type
        if i.fn == "__any":
            def any_(vals: list) -> Value:
                leaf = first_leaf(vals[0])
                if seen is not None:
                    seen("any", max(1, int(leaf.values.size)))
                return bool(leaf.values.any())
            return any_
        if i.fn == "__empty":
            return lambda vals: O.empty_frame_like(first_leaf(vals[0]),
                                                   depth, typ)
        if i.fn == "__seq_cons" and depth == 0:
            width = max(1, len(i.args))

            def seq(vals: list) -> Value:
                if seen is not None:
                    seen("seq_cons", width)
                return O.seq_cons0(vals, typ)
            return seq
        return self.applier.bind(i.fn, i.arg_depths, depth, typ)


def _branch(cond: int, then: list[Step], els: list[Step]) -> Step:
    """The lazy ``if``: run the steps of the arm the condition takes."""
    def branch(fr: list) -> None:
        c = fr[cond]
        if not isinstance(c, (bool, np.bool_)):
            raise EvalError(f"if condition is not a scalar bool: {c!r}")
        for step in then if c else els:
            step(fr)
    return branch


class VectorEvaluator:
    """Executes the functions of a :class:`TransformedProgram`."""

    span = "vexec"      #: the phase span of one entry call is ``vexec:<name>``

    def __init__(self, program: TransformedProgram, max_recursion: int = 200_000,
                 observer: Optional[Callable[[str, int], None]] = None,
                 native=None):
        code = None if observer is not None else program.plans.get(native)
        if code is None:
            code = _Lowered(partial(compile_function, program),
                            program.defs.__contains__, program.fusion,
                            native, observer)
            if observer is None:    # observed plans are this evaluator's own
                code = program.plans.setdefault(native, code)
        self._start(program, code, max_recursion)

    def _start(self, program, code: _Lowered, max_recursion: int) -> None:
        self.program = program
        self._code = code
        self.applier = code.applier
        self._max_recursion = max_recursion

    def call(self, mono_name: str, pyargs: list) -> Any:
        """Invoke a transformed function on Python values, returning Python
        values (the entry point used by the API and all tests)."""
        f = self._code.function(mono_name)
        if len(pyargs) != len(f.params):
            raise EvalError(
                f"{mono_name} expects {len(f.params)} arguments, got {len(pyargs)}")
        with scoped_recursion_limit(self._max_recursion), \
                _obs.span(f"{self.span}:{mono_name}"):
            vargs = [from_python(a, t) for a, t in zip(pyargs, f.param_types)]
            out = self._code.call_raw(mono_name, vargs)
            return to_python(out, f.ret_type)

    def call_raw(self, name: str, vargs: list[Value]) -> Value:
        """Invoke a transformed function on vector values."""
        return self._code.call_raw(name, vargs)
