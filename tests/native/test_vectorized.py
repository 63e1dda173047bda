"""The fold nest vectorizes, in order, at the engine's own flags — a
checked property, not a compiler accident.

Every kernel shape of ``test_fold._variants()``, plus the kernel the
``flat_kernels`` workload runs, is compiled with ``CFLAGS`` and GCC's
``-fopt-info-vec-optimized`` report, and the loops the report names are
compared with a pinned table (the one in docs/NATIVE.md).  The sums, the
``anytrue`` / ``alltrue`` folds and the float chain must vectorize their
lock-step loop on any GCC; the full table — which loops vectorize and
which rows stay scalar — is pinned where it was measured, GCC 12 on
x86-64, so an emitter change that de-vectorizes a loop, or a row that
starts vectorizing, fails until the table is updated.  The report is
GCC's own: another compiler skips the file.
"""

import platform
import re
import subprocess

import numpy as np
import pytest

from repro import compile_program
from repro.cli import main
from repro.native import toolchain
from repro.native.cache import CFLAGS, KernelCache
from repro.native.codegen import emit_fused_source
from repro.native.engine import NativeEngine
from repro.vector.nested import NestedVector
from repro.vector.segments import INT_DTYPE
from repro.vexec.evaluator import VectorEvaluator
from tests.native.test_fold import FLAT_SRC, TWO_PRIM, _variants


def gcc_major():
    """The major version of the toolchain when it is GCC, else None
    (clang defines ``__GNUC__`` too, and ``__clang__`` beside it)."""
    if not toolchain.available():
        return None
    macros = subprocess.run(
        [toolchain.find_cc(), "-dM", "-E", "-x", "c", "-"], input="",
        capture_output=True, text=True, timeout=60).stdout
    found = re.search(r"^#define __GNUC__ (\d+)$", macros, re.M)
    if found is None or "__clang__" in macros:
        return None
    return int(found.group(1))


GCC = gcc_major()
needs_gcc = pytest.mark.skipif(GCC is None,
                               reason="the vectorizer report is GCC's")

#: every loop of a fold nest: lock-step, the four tails, the leftovers
NEST = {"lock-step", "tail 0", "tail 1", "tail 2", "tail 3", "leftover"}
#: what vectorizes on GCC 12 / x86-64 (SSE2), per row; every other row
#: stays scalar — int multiply by a hoisted scalar (SSE2 has no 64-bit
#: multiply), maxval / minval and both scans (the step is a conditional
#: or a store), and ``sum/real`` (int64 -> double conversion)
VECTORIZED = {
    "map/float": {"unrolled", "remainder"},
    "sum/int": NEST, "sum/float": NEST, "sum/float/tree": NEST,
    "flat_kernels": NEST,
    "anytrue/bool": {"lock-step", "leftover"},
    "anytrue/cmp": {"lock-step", "leftover"},
    "alltrue/bool": {"lock-step", "leftover"},
    "alltrue/cmp": {"lock-step", "leftover"},
}


def flat_kernels_source(tmp_path) -> str:
    """The exact C the ``flat_kernels`` workload runs: E19's float chain
    under ``sum``, with the engine's own specialization and hoisting."""
    prog = compile_program(FLAT_SRC)
    mono, tp = prog.prepare("f", prog.entry_types("f", [[[0.5]]]))
    vec = NestedVector((np.array([2], dtype=INT_DTYPE),
                        np.array([3, 1], dtype=INT_DTYPE)),
                       np.array([0.5, 1.5, -2.0, 4.0]), "float")
    VectorEvaluator(tp, native=NativeEngine(KernelCache(tmp_path))) \
        .call_raw(mono, [vec])
    (c_path,) = tmp_path.glob("*.c")
    return c_path.read_text()


def loop_name(line: str, after_leftovers: bool) -> str:
    """What an emitted loop is, from its source line."""
    line = line.strip()
    if line.startswith("for (long long j = 0; j < m; j++)"):
        return "lock-step"
    if line.startswith("for (; i + 4 <= n; i += 4)"):
        return "unrolled"
    if line.startswith("for (; i < n; i++)"):
        return "remainder"
    tail = re.match(r"TAIL\(r(\d), p\d, c\d\)$", line)
    if tail:
        return "leftover" if after_leftovers else f"tail {tail.group(1)}"
    return line


def vectorized_loops(source: str) -> set:
    """The loops of ``source`` GCC reports vectorized at ``CFLAGS``."""
    proc = subprocess.run(
        [toolchain.find_cc(), *CFLAGS, "-fopt-info-vec-optimized",
         "-S", "-o", "/dev/null", "-x", "c", "-"],
        input=source, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = source.splitlines()
    leftovers = next((i for i, ln in enumerate(lines, 1)
                      if "leftovers, one by one" in ln), len(lines) + 1)
    return {loop_name(lines[int(n) - 1], int(n) > leftovers)
            for n in re.findall(r"^<stdin>:(\d+):\d+: optimized: "
                                r"loop vectorized", proc.stderr, re.M)}


#: the elementwise loop over floats, beside ``_variants()``'s int one
MAP_FLOAT = ("map/float", TWO_PRIM, ["float", "float"], [False, True])
ROWS = [(label, emit_fused_source(tree, kinds, hoisted))
        for label, tree, kinds, hoisted in [*_variants(), MAP_FLOAT]]


def check(label: str, got: set) -> None:
    want = VECTORIZED.get(label, set())
    if "lock-step" in want:
        assert "lock-step" in got, f"{label}: {sorted(got)}"
    if GCC == 12 and platform.machine() == "x86_64":
        assert got == want, f"{label}: {sorted(got)} (docs/NATIVE.md)"


@needs_gcc
@pytest.mark.parametrize("label,source", ROWS, ids=[r[0] for r in ROWS])
def test_every_variant_vectorizes_as_the_table_says(label, source):
    check(label, vectorized_loops(source))


@needs_gcc
def test_the_flat_kernels_fold_vectorizes(tmp_path):
    source = flat_kernels_source(tmp_path)
    assert "sum (sub (mul (add (mul a0 s1) s2) a3) s4)" in source
    check("flat_kernels", vectorized_loops(source))


@pytest.mark.skipif(not toolchain.available(), reason="no C toolchain")
def test_status_shows_the_flags(capsys, tmp_path):
    assert NativeEngine(KernelCache(tmp_path)).status()["cflags"] == \
        " ".join(CFLAGS)
    assert main(["native", "--status"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("toolchain:")
    assert out[1] == f"cflags:      {' '.join(CFLAGS)}"
