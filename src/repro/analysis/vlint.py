"""VCODE lint: register discipline, control flow, and dead results.

The VCODE compiler linearizes transformed bodies into register code
(:mod:`repro.vcode.instructions`); this lint re-checks the properties
the executor assumes, per compiled function:

Hard errors (raise :class:`~repro.errors.AnalysisError` from
:func:`check_program`, stage ``vlint:<function>``):

* **use before definition** — a register read on some path before any
  instruction defines it (a forward *must*-dataflow over the CFG);
* **bad jump target / duplicate label** — control flow into nowhere;
* **fall-through off the end** — a path that never reaches ``Ret``;
* **call arity** — a ``Call`` whose argument count disagrees with the
  target function's parameters, or targets an unknown function;
* **prim arity** — a ``Prim`` whose ``args`` and ``arg_depths`` lengths
  disagree (the depth annotations drive the T1 machinery);
* **scalar at vector depth** — a register holding only literal
  constants consumed at argument depth >= 1 (the eliminator lifts
  depth-0 values via ``__rep``; a bare literal here means the depth
  bookkeeping broke);
* **register out of range** — an operand outside ``nregs``.

Warnings (collected, never raised):

* **dead vector result** — a ``Prim``/``Call``/``CallInd`` destination
  no instruction ever reads (pure, so safe — but wasted vector work);
* **unreferenced label** — a label no jump targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import AnalysisError
from repro.vcode.instructions import (
    Call, CallInd, Const, Copy, Fail, FunConst, Instr, Jump, JumpIfNot,
    Label, Prim, Ret, VFunction, VProgram,
)

__all__ = ["Finding", "LintResult", "lint_function", "lint_program",
           "check_program"]


@dataclass(frozen=True)
class Finding:
    """One lint finding, anchored to a function and an instruction."""

    function: str
    code: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.function}: {self.detail}"


@dataclass
class LintResult:
    """All findings over a function or program."""

    errors: list[Finding] = field(default_factory=list)
    warnings: list[Finding] = field(default_factory=list)

    def extend(self, other: "LintResult") -> None:
        self.errors.extend(other.errors)
        self.warnings.extend(other.warnings)


def _defs_uses(i: Instr) -> tuple[Optional[int], list[int]]:
    """(defined register, used registers) of one instruction."""
    if isinstance(i, (Const, FunConst, Fail)):
        return i.dst, []
    if isinstance(i, Copy):
        return i.dst, [i.src]
    if isinstance(i, Prim):
        return i.dst, list(i.args)
    if isinstance(i, Call):
        return i.dst, list(i.args)
    if isinstance(i, CallInd):
        return i.dst, [i.fun, *i.args]
    if isinstance(i, JumpIfNot):
        return None, [i.cond]
    if isinstance(i, Ret):
        return None, [i.src]
    return None, []  # Jump, Label


def lint_function(f: VFunction,
                  program: Optional[VProgram] = None) -> LintResult:
    """Lint one compiled function (``program`` enables call-arity checks)."""
    out = LintResult()

    def err(code: str, detail: str) -> None:
        out.errors.append(Finding(f.name, code, detail))

    def warn(code: str, detail: str) -> None:
        out.warnings.append(Finding(f.name, code, detail))

    instrs = f.instrs
    n = len(instrs)

    # labels and jump targets
    labels: dict[str, int] = {}
    for pc, i in enumerate(instrs):
        if isinstance(i, Label):
            if i.name in labels:
                err("duplicate-label", f"label {i.name} defined twice")
            labels[i.name] = pc
    targeted: set[str] = set()
    for i in instrs:
        if isinstance(i, (Jump, JumpIfNot)):
            targeted.add(i.label)
            if i.label not in labels:
                err("bad-jump", f"jump to undefined label {i.label}")
    for name in labels:
        if name not in targeted:
            warn("unreferenced-label", f"label {name} is never targeted")
    if out.errors:
        return out  # CFG construction needs sane targets

    # register-range + structural arity
    for i in instrs:
        d, uses = _defs_uses(i)
        for r in ([d] if d is not None else []) + uses:
            if not (0 <= r < f.nregs):
                err("register-range",
                    f"r{r} outside the declared {f.nregs} registers in "
                    f"`{i}`")
        if isinstance(i, Prim) and len(i.args) != len(i.arg_depths):
            err("prim-arity",
                f"`{i}` has {len(i.args)} args but {len(i.arg_depths)} "
                "argument depths")
        if isinstance(i, CallInd) and len(i.args) != len(i.arg_depths):
            err("prim-arity",
                f"`{i}` has {len(i.args)} args but {len(i.arg_depths)} "
                "argument depths")
        if isinstance(i, Call) and program is not None:
            if i.fname not in program:
                err("unknown-callee", f"`{i}` targets unknown function")
            elif len(i.args) != len(program[i.fname].params):
                err("call-arity",
                    f"`{i}` passes {len(i.args)} args; "
                    f"{i.fname} takes {len(program[i.fname].params)}")
    if out.errors:
        return out

    # basic blocks
    leaders = {0} | {labels[name] for name in labels}
    for pc, i in enumerate(instrs):
        if isinstance(i, (Jump, JumpIfNot, Ret)) and pc + 1 < n:
            leaders.add(pc + 1)
    starts = sorted(leaders)
    blocks: list[tuple[int, int]] = []
    for k, s in enumerate(starts):
        e = starts[k + 1] if k + 1 < len(starts) else n
        blocks.append((s, e))
    block_of = {s: k for k, (s, _e) in enumerate(blocks)}
    succs: list[list[int]] = []
    for s, e in blocks:
        last = instrs[e - 1] if e > s else None
        if isinstance(last, Ret):
            succs.append([])
        elif isinstance(last, Jump):
            succs.append([block_of[labels[last.label]]])
        elif isinstance(last, JumpIfNot):
            nxt = [block_of[labels[last.label]]]
            if e < n:
                nxt.append(block_of[e])
            else:
                err("missing-ret", "conditional fall-through off the end")
            succs.append(nxt)
        else:
            if e < n:
                succs.append([block_of[e]])
            else:
                err("missing-ret", "control falls off the end without Ret")
                succs.append([])
    if not instrs:
        err("missing-ret", "empty function body")

    # forward must-analysis: registers defined on every path in
    preds: list[list[int]] = [[] for _ in blocks]
    for b, ss in enumerate(succs):
        for s in ss:
            preds[s].append(b)
    entry_mask = 0
    for p in f.params:
        entry_mask |= 1 << p
    gen: list[int] = []
    for s, e in blocks:
        m = 0
        for i in instrs[s:e]:
            d, _u = _defs_uses(i)
            if d is not None:
                m |= 1 << d
        gen.append(m)
    all_mask = (1 << f.nregs) - 1 if f.nregs else 0
    inb = [all_mask] * len(blocks)
    inb[0] = entry_mask
    changed = True
    while changed:
        changed = False
        for b in range(len(blocks)):
            m = entry_mask if b == 0 else all_mask
            for p in preds[b]:
                m &= inb[p] | gen[p]
            if b == 0:
                m = entry_mask
            if m != inb[b]:
                inb[b] = m
                changed = True
    for b, (s, e) in enumerate(blocks):
        have = inb[b]
        for i in instrs[s:e]:
            d, uses = _defs_uses(i)
            for r in uses:
                if not (have >> r) & 1:
                    err("undefined-use",
                        f"r{r} used by `{i}` before any definition")
            if d is not None:
                have |= 1 << d

    # literal registers consumed at vector depth
    literal = set()
    for i in instrs:
        if isinstance(i, Const):
            literal.add(i.dst)
    for i in instrs:
        d, _u = _defs_uses(i)
        if d in literal and not isinstance(i, Const):
            literal.discard(d)
    for i in instrs:
        if isinstance(i, Prim):
            for r, ad in zip(i.args, i.arg_depths):
                if r in literal and ad >= 1:
                    err("scalar-at-vector-depth",
                        f"literal r{r} consumed at depth {ad} by `{i}`")

    # dead vector results
    used: set[int] = set()
    for i in instrs:
        _d, uses = _defs_uses(i)
        used.update(uses)
    for i in instrs:
        if isinstance(i, (Prim, Call, CallInd)) and i.dst not in used:
            warn("dead-result", f"result of `{i}` is never used")

    return out


def lint_program(vp: VProgram) -> LintResult:
    """Lint every function of a compiled program."""
    out = LintResult()
    for f in vp.functions.values():
        out.extend(lint_function(f, vp))
    return out


def check_program(vp: VProgram) -> LintResult:
    """Lint and raise :class:`AnalysisError` on the first hard error."""
    res = lint_program(vp)
    if res.errors:
        first = res.errors[0]
        raise AnalysisError(f"vlint:{first.function}",
                            f"[{first.code}] {first.detail}"
                            + (f" (+{len(res.errors) - 1} more)"
                               if len(res.errors) > 1 else ""))
    return res
