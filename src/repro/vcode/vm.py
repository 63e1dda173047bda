"""The VCODE virtual machine: the vector evaluator over a :class:`VProgram`.

The instructions run as every vector lane runs them
(:mod:`repro.vexec.evaluator`); the VM adds the op-width *trace*: one
``(opname, element_count)`` entry per executed vector operation.  The trace
is the input to the machine simulator (:mod:`repro.machine`), which charges
each length-n vector op ``ceil(n/P)`` cycles — the standard vector-model
cost mapping.
"""

from __future__ import annotations

from repro.obs import runtime as _obs
from repro.vcode.instructions import VProgram
from repro.vexec.evaluator import VectorEvaluator, _Lowered


class VM(VectorEvaluator):
    """Executes VCODE programs, recording the op-width trace."""

    span = "vcode-vm"   #: the phase span of one entry call is ``vcode-vm:<name>``

    def __init__(self, program: VProgram, record_trace: bool = True,
                 max_recursion: int = 200_000, fusion=None, native=None):
        self.trace: list[tuple[str, int]] = []
        code = _Lowered(program.__getitem__, program.__contains__, fusion,
                        native, self._observe if record_trace else None)
        self._start(program, code, max_recursion)

    def _observe(self, op: str, n: int) -> None:
        self.trace.append((op, n))
        p = _obs.PROFILER
        if p is not None:
            # the width the machine model is charged for this op
            p.count("vm", op, n, n, 0)

    def reset_trace(self) -> None:
        self.trace = []
