"""The VCODE virtual machine.

Executes :class:`VProgram` functions over vector values, recording an
op-width *trace*: one ``(opname, element_count)`` entry per executed vector
operation.  The trace is the input to the machine simulator
(:mod:`repro.machine`), which charges each length-n vector op
``ceil(n/P)`` cycles — the standard vector-model cost mapping.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.errors import EvalError, VMError
from repro.guard import faults as _flt
from repro.guard import runtime as _guard
from repro.guard.runtime import scoped_recursion_limit
from repro.obs import runtime as _obs
from repro.vcode.instructions import (
    Call, CallInd, Const, Copy, FunConst, Jump, JumpIfNot, Label, Prim, Ret,
    VFunction, VProgram,
)
from repro.vector import ops as O
from repro.vector.convert import from_python, to_python
from repro.vector.nested import Value, VFun, first_leaf
from repro.vexec.apply import Applier


def _desc_arrays(v: Value) -> list:
    """Descriptor arrays of every NestedVector leaf of ``v`` (fault-site
    candidates; only reached when an injector is armed)."""
    from repro.vector.nested import NestedVector, VTuple
    if isinstance(v, NestedVector):
        return list(v.descs)
    if isinstance(v, VTuple):
        out: list = []
        for x in v.items:
            out.extend(_desc_arrays(x))
        return out
    return []


class VM:
    """Executes VCODE programs."""

    span = "vcode-vm"   #: the phase span of one entry call is ``vcode-vm:<name>``

    def __init__(self, program: VProgram, record_trace: bool = True,
                 max_recursion: int = 200_000, fusion=None, native=None):
        self.program = program
        self.trace: list[tuple[str, int]] = []
        self._record = record_trace
        self._max_recursion = max_recursion
        self.applier = Applier(
            call_user=self.call_raw,
            is_user=lambda n: n in program.functions,
            observe=self._observe if record_trace else None,
            fusion=fusion,
            native=native)

    def _observe(self, op: str, n: int) -> None:
        self.trace.append((op, n))
        p = _obs.PROFILER
        if p is not None:
            # the width the machine model is charged for this op
            p.count("vm", op, n, n, 0)

    def reset_trace(self) -> None:
        self.trace = []

    # -- public ------------------------------------------------------------------

    def call(self, fname: str, pyargs: list) -> Any:
        """Run a function on Python values; returns Python values."""
        f = self._fn(fname)
        if len(pyargs) != len(f.params):
            raise EvalError(f"{fname} expects {len(f.params)} args")
        with scoped_recursion_limit(self._max_recursion), \
                _obs.span(f"{self.span}:{fname}"):
            vargs = [from_python(a, t) for a, t in zip(pyargs, f.param_types)]
            out = self.call_raw(fname, vargs)
            return to_python(out, f.ret_type)

    def call_raw(self, fname: str, vargs: list[Value]) -> Value:
        f = self._fn(fname)
        g = _guard.GUARD
        if g is None and _flt.INJECTOR is None:
            return self._run(f, vargs)
        if g is not None:
            g.enter_call(fname, sum(O.value_size(a) for a in vargs)
                         if g.track_frames else 0)
        try:
            result = self._run(f, vargs)
        finally:
            if g is not None:
                g.exit_call()
        if _flt.INJECTOR is not None:
            _flt.visit("vm.call.desc-bump", _desc_arrays(result))
            _flt.visit("vm.call.desc-negate", _desc_arrays(result))
        if g is not None and g.check and not g.skip(f"call:{fname}"):
            g.check_value(f"vm:call:{fname}", result)
        return result

    def _fn(self, name: str) -> VFunction:
        try:
            return self.program[name]
        except KeyError:
            raise VMError(f"no compiled function {name!r}") from None

    # -- the interpreter loop ---------------------------------------------------------

    def _run(self, f: VFunction, vargs: list[Value]) -> Value:
        regs: list[Any] = [None] * f.nregs
        for r, v in zip(f.params, vargs):
            regs[r] = v
        pc = 0
        instrs = f.instrs
        n = len(instrs)
        prof = _obs.PROFILER
        guard = _guard.GUARD
        while pc < n:
            i = instrs[pc]
            pc += 1
            if prof is not None:
                prof.count("vm", "instr:" + type(i).__name__)
            if guard is not None:
                guard.tick(f"vm:{f.name}")
            if isinstance(i, Const):
                regs[i.dst] = i.value
            elif isinstance(i, Copy):
                regs[i.dst] = regs[i.src]
            elif isinstance(i, FunConst):
                regs[i.dst] = VFun(i.name)
            elif isinstance(i, Prim):
                result = self._prim(i, regs)
                if _flt.INJECTOR is not None:
                    _flt.visit("vm.prim.desc-bump", _desc_arrays(result))
                    _flt.visit("vm.prim.desc-negate", _desc_arrays(result))
                if guard is not None and guard.check \
                        and not guard.skip(f"prim:{i.fn}"):
                    guard.check_value(f"vm:prim:{i.fn}", result)
                regs[i.dst] = result
            elif isinstance(i, Call):
                # fault sites + result check live in call_raw (shared with
                # applier-routed user calls)
                regs[i.dst] = self.call_raw(i.fname, [regs[a] for a in i.args])
            elif isinstance(i, CallInd):
                regs[i.dst] = self.applier.apply_dynamic(
                    regs[i.fun], [regs[a] for a in i.args],
                    i.arg_depths, i.depth, i.fun_depth, i.type)
            elif isinstance(i, JumpIfNot):
                c = regs[i.cond]
                if not isinstance(c, (bool, np.bool_)):
                    raise EvalError(f"branch condition is not a scalar bool: {c!r}")
                if not c:
                    pc = f.labels[i.label]
            elif isinstance(i, Jump):
                pc = f.labels[i.label]
            elif isinstance(i, Label):
                pass
            elif isinstance(i, Ret):
                return regs[i.src]
            else:  # pragma: no cover
                raise VMError(f"unknown instruction {i!r}")
        raise VMError(f"{f.name}: fell off the end without ret")

    def _prim(self, i: Prim, regs: list[Any]) -> Value:
        args = [regs[a] for a in i.args]
        if i.fn == "__any":
            leaf = first_leaf(args[0])
            if self._record:
                self._observe("any", max(1, int(leaf.values.size)))
            return bool(leaf.values.any())
        if i.fn == "__empty":
            return O.empty_frame_like(first_leaf(args[0]), i.depth, i.type)
        if i.fn == "__seq_cons" and i.depth == 0:
            if self._record:
                self._observe("seq_cons", max(1, len(args)))
            return O.seq_cons0(args, i.type)
        return self.applier.apply_named(i.fn, args, i.arg_depths,
                                        i.depth, i.type)
