"""E17 (extension) — native fused C kernels vs the NumPy back end.

Acceptance battery for the ``repro.native`` backend:

* >= 5x wall-time speedup over the NumPy vector back end on the E14
  elementwise-chain workload (kernel-only timing: pre-converted vectors,
  warmed caches);
* bit-identical results between the two back ends on every runnable
  example program and on 200 fuzzer-generated programs.

Everything here skips cleanly on a machine without a C toolchain — the
fallback contract itself is tested in tests/native/test_fallback.py.
"""

import ast as pyast
from pathlib import Path

import pytest

from repro import ReproError, compile_program
from repro.native import toolchain

pytestmark = pytest.mark.skipif(not toolchain.available(),
                                reason="no C toolchain")

SRC = "fun f(v) = [x <- v: ((x * 3 + 7) * x - 5) * (x + x * x)]"
EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def test_speedup_at_least_5x():
    import time

    from repro.native.engine import get_engine
    from repro.vector.convert import from_python
    from repro.vexec.evaluator import VectorEvaluator

    n = 200_000
    v = list(range(n))
    prog = compile_program(SRC)
    at = prog.entry_types("f", [v])
    mono_np, tp_np = prog.prepare("f", tuple(at))
    mono_nat, tp_nat = prog.prepare("f", tuple(at))
    vec = from_python(v, at[0])
    ev_np = VectorEvaluator(tp_np)
    ev_nat = VectorEvaluator(tp_nat, native=get_engine())
    ev_nat.call_raw(mono_nat, [vec])        # compile + warm

    def best(fn, reps=7):
        t = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            t = min(t, time.perf_counter() - t0)
        return t

    t_np = best(lambda: ev_np.call_raw(mono_np, [vec]))
    t_nat = best(lambda: ev_nat.call_raw(mono_nat, [vec]))
    assert t_np / t_nat >= 5.0, \
        f"native {t_nat * 1e3:.3f}ms vs numpy {t_np * 1e3:.3f}ms: " \
        f"only {t_np / t_nat:.1f}x"


def _example_spec(path: Path) -> dict:
    spec = {}
    for node in pyast.parse(path.read_text()).body:
        if (isinstance(node, pyast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], pyast.Name)
                and node.targets[0].id in ("SOURCE", "PROFILE_ENTRY",
                                           "PROFILE_ARGS")):
            spec[node.targets[0].id] = pyast.literal_eval(node.value)
    return spec


EXAMPLE_FILES = sorted(p for p in EXAMPLES.glob("*.py")
                       if "SOURCE" in _example_spec(p)
                       and "PROFILE_ENTRY" in _example_spec(p))


@pytest.mark.parametrize("path", EXAMPLE_FILES,
                         ids=[p.stem for p in EXAMPLE_FILES])
def test_examples_bit_identical(path):
    spec = _example_spec(path)
    prog = compile_program(spec["SOURCE"])
    entry, args = spec["PROFILE_ENTRY"], list(spec["PROFILE_ARGS"])
    assert (prog.run(entry, args, backend="native")
            == prog.run(entry, args, backend="vector")), path.name


@pytest.mark.parametrize("chunk", range(4))
def test_fuzzed_programs_bit_identical(chunk):
    """200 generated programs, native vs numpy: equal values or the same
    error class (chunked so a failure names a 50-seed window)."""
    from repro.fuzz.differ import compare_outcomes, run_case
    from repro.fuzz.gen import gen_case
    for seed in range(chunk * 50, (chunk + 1) * 50):
        case = gen_case(seed)
        try:
            outcomes = run_case(case, backends=("vector", "native"))
        except ReproError:
            continue                  # generator bug, not a backend issue
        assert compare_outcomes(outcomes), \
            f"seed {seed}: {[o.brief() for o in outcomes.values()]}"
