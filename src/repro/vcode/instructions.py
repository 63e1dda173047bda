"""The VCODE instruction set.

A function body is a linear list of instructions over virtual registers
``r0, r1, ...``.  All data-parallel behaviour lives in :class:`Prim` (one
vector operation — the depth annotation selects the T1 path exactly as in
the evaluator); control flow is depth-0 only, as guaranteed by the
transformation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.lang import types as T

Reg = int


@dataclass(frozen=True)
class Instr:
    """Base instruction."""


@dataclass(frozen=True)
class Const(Instr):
    """dst <- integer/boolean literal"""
    dst: Reg
    value: Any

    def __str__(self) -> str:
        return f"r{self.dst} = const {self.value}"


@dataclass(frozen=True)
class FunConst(Instr):
    """dst <- function value (by name)"""
    dst: Reg
    name: str

    def __str__(self) -> str:
        return f"r{self.dst} = fun {self.name}"


@dataclass(frozen=True)
class Fail(Instr):
    """dst <- raise ``error(message)``: a node that cannot run (an unbound
    variable, an untransformed node) fails when it is reached, not when
    its function is compiled — an untaken branch may hold one."""
    dst: Reg
    error: type
    message: str

    def __str__(self) -> str:
        return f"r{self.dst} = fail {self.message!r}"


@dataclass(frozen=True)
class Copy(Instr):
    dst: Reg
    src: Reg

    def __str__(self) -> str:
        return f"r{self.dst} = r{self.src}"


@dataclass(frozen=True)
class Prim(Instr):
    """dst <- fn^depth(args) — one vector-model operation.

    ``fn`` is a primitive name (including the internal ``__seq_cons``,
    ``__tuple_cons``, ``__tuple_extract_k``, ``__any``, ``__empty``,
    ``__rep`` and the 4.5 ``__seq_index_shared``).
    """
    dst: Reg
    fn: str
    args: tuple[Reg, ...]
    depth: int
    arg_depths: tuple[int, ...]
    type: Optional[T.Type] = None

    def __str__(self) -> str:
        a = ", ".join(f"r{x}" for x in self.args)
        sup = f"^{self.depth}" if self.depth else ""
        return f"r{self.dst} = {self.fn}{sup}({a})"


@dataclass(frozen=True)
class Call(Instr):
    """dst <- fname(args) at depth 0 (a compiled user function)."""
    dst: Reg
    fname: str
    args: tuple[Reg, ...]

    def __str__(self) -> str:
        a = ", ".join(f"r{x}" for x in self.args)
        return f"r{self.dst} = call {self.fname}({a})"


@dataclass(frozen=True)
class CallInd(Instr):
    """dst <- dynamic application of a function value / function frame."""
    dst: Reg
    fun: Reg
    args: tuple[Reg, ...]
    depth: int
    fun_depth: int
    arg_depths: tuple[int, ...]
    type: Optional[T.Type] = None

    def __str__(self) -> str:
        a = ", ".join(f"r{x}" for x in self.args)
        sup = f"^{self.depth}" if self.depth else ""
        return f"r{self.dst} = apply{sup} r{self.fun}({a})"


@dataclass(frozen=True)
class Jump(Instr):
    label: str

    def __str__(self) -> str:
        return f"jump {self.label}"


@dataclass(frozen=True)
class JumpIfNot(Instr):
    cond: Reg
    label: str

    def __str__(self) -> str:
        return f"ifnot r{self.cond} jump {self.label}"


@dataclass(frozen=True)
class Label(Instr):
    name: str

    def __str__(self) -> str:
        return f"{self.name}:"


@dataclass(frozen=True)
class Ret(Instr):
    src: Reg

    def __str__(self) -> str:
        return f"ret r{self.src}"


@dataclass
class VFunction:
    """One compiled function."""

    name: str
    params: list[Reg]
    param_types: list[T.Type]
    ret_type: T.Type
    instrs: list[Instr]
    nregs: int
    labels: dict[str, int] = field(default_factory=dict)

    def finalize(self) -> None:
        """Index label positions."""
        self.labels = {i.name: pc for pc, i in enumerate(self.instrs)
                       if isinstance(i, Label)}

    def __str__(self) -> str:
        ps = ", ".join(f"r{p}" for p in self.params)
        lines = [f"function {self.name}({ps})  ; {self.nregs} regs"]
        for i in self.instrs:
            pad = "" if isinstance(i, Label) else "  "
            lines.append(pad + str(i))
        return "\n".join(lines)


@dataclass
class VProgram:
    """A compiled VCODE program: all functions, entry by name."""

    functions: dict[str, VFunction]

    def __getitem__(self, name: str) -> VFunction:
        return self.functions[name]

    def __contains__(self, name: str) -> bool:
        return name in self.functions

    def __str__(self) -> str:
        return "\n\n".join(str(f) for f in self.functions.values())

    @property
    def instruction_count(self) -> int:
        return sum(len(f.instrs) for f in self.functions.values())
