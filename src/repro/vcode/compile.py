"""Compilation of transformed (iterator-free) P functions to VCODE.

Straightforward ANF-style linearization: every sub-expression lands in a
fresh virtual register.  Conditionals (depth-0 only, by construction)
become diamonds with a join register — keeping the laziness the R2d
emptiness guards rely on for recursion termination.
"""

from __future__ import annotations

import itertools

from repro.errors import EvalError, VMError
from repro.lang import ast as A
from repro.lang import builtins as B
from repro.transform.pipeline import TransformedProgram
from repro.vcode.instructions import (
    Call, CallInd, Const, Copy, Fail, FunConst, Instr, Jump, JumpIfNot,
    Label, Prim, Reg, Ret, VFunction, VProgram,
)


class _FnCompiler:
    def __init__(self, tp: TransformedProgram, name: str):
        self.tp = tp
        self.name = name
        self.instrs: list[Instr] = []
        self._reg = itertools.count()
        self._label = itertools.count()

    def fresh(self) -> Reg:
        return next(self._reg)

    def fresh_label(self, base: str) -> str:
        return f".{base}{next(self._label)}"

    def emit(self, i: Instr) -> None:
        self.instrs.append(i)

    def define(self, cls: type, *fields) -> Reg:
        """Emit ``cls(dst, *fields)`` into a fresh register ``dst``."""
        dst = self.fresh()
        self.emit(cls(dst, *fields))
        return dst

    def compile(self) -> VFunction:
        d = self.tp.defs[self.name]
        env = {p: self.fresh() for p in d.params}
        out = self.compile_expr(d.body, env)
        self.emit(Ret(out))
        fn = VFunction(
            name=self.name,
            params=[env[p] for p in d.params],
            param_types=list(d.param_types or []),
            ret_type=d.ret_type,
            instrs=self.instrs,
            nregs=next(self._reg),
        )
        fn.finalize()
        return fn

    # -- expressions -----------------------------------------------------------

    def compile_expr(self, e: A.Expr, env: dict[str, Reg]) -> Reg:
        if isinstance(e, (A.IntLit, A.BoolLit, A.FloatLit)):
            return self.define(Const, e.value)
        if isinstance(e, A.Var):
            if e.name in env:
                return env[e.name]
            if e.name in self.tp.defs or e.name in self.tp.typed.mono_defs \
                    or B.is_builtin(e.name):
                return self.define(FunConst, e.name)
            return self.define(Fail, EvalError,
                               f"unbound variable {e.name!r}")
        if isinstance(e, A.Let):
            r = self.compile_expr(e.bound, env)
            return self.compile_expr(e.body, {**env, e.var: r})
        if isinstance(e, A.If):
            rc = self.compile_expr(e.cond, env)
            dst = self.fresh()
            lelse = self.fresh_label("else")
            lend = self.fresh_label("end")
            self.emit(JumpIfNot(rc, lelse))
            rt = self.compile_expr(e.then, env)
            self.emit(Copy(dst, rt))
            self.emit(Jump(lend))
            self.emit(Label(lelse))
            re_ = self.compile_expr(e.els, env)
            self.emit(Copy(dst, re_))
            self.emit(Label(lend))
            return dst
        if isinstance(e, (A.SeqLit, A.TupleLit)):
            args = tuple(self.compile_expr(x, env) for x in e.items)
            fn = "__seq_cons" if isinstance(e, A.SeqLit) else "__tuple_cons"
            return self.define(Prim, fn, args, 0, (0,) * len(args), e.type)
        if isinstance(e, A.TupleExtract):
            src = self.compile_expr(e.tup, env)
            return self.define(Prim, f"__tuple_extract_{e.index}", (src,), 0,
                               (0,), e.type)
        if isinstance(e, A.ExtCall):
            args = tuple(self.compile_expr(x, env) for x in e.args)
            if e.depth == 0 and e.fn in self.tp.defs:
                return self.define(Call, e.fn, args)
            return self.define(Prim, e.fn, args, e.depth,
                               tuple(e.arg_depths), e.type)
        if isinstance(e, A.IndirectCall):
            fun = self.compile_expr(e.fun, env)
            args = tuple(self.compile_expr(x, env) for x in e.args)
            return self.define(CallInd, fun, args, e.depth, e.fun_depth,
                               tuple(e.arg_depths), e.type)
        return self.define(Fail, VMError,
                           f"cannot execute node {type(e).__name__} "
                           "(was the program transformed?)")


def compile_function(tp: TransformedProgram, name: str) -> VFunction:
    """Compile a single transformed function, once: the result is kept with
    the program (``tp.vcode_functions``) for whichever lane asks next.  An
    unknown name is a ``KeyError``."""
    fn = tp.vcode_functions.get(name)
    if fn is None:
        fn = tp.vcode_functions[name] = _FnCompiler(tp, name).compile()
    return fn


def compile_transformed(tp: TransformedProgram) -> VProgram:
    """Compile every function of a transformed program and lint the
    result (:mod:`repro.analysis.vlint`), once: the program and the lint's
    findings are kept with it (``tp.vcode``) for whoever asks next.

    A hard finding (register use before definition, a bad jump target, a
    missing return, a call-arity mismatch) raises a stage-named
    :class:`~repro.errors.AnalysisError`; warnings (dead vector results,
    unreferenced labels) are reported by ``repro analyze``.
    """
    if tp.vcode is None:
        from repro.analysis.vlint import check_program
        from repro.obs import runtime as _obs
        with _obs.span("vcode-compile"):
            vp = VProgram({name: compile_function(tp, name)
                           for name in tp.defs})
            with _obs.span("analyze:vlint"):
                tp.vcode = (vp, check_program(vp))
    return tp.vcode[0]
