"""The no-toolchain contract: with no C compiler, the native backend
falls back to the NumPy applier with exactly **one** process-wide warning
and zero behavioural differences; the fuzzer drops the ``native`` lane
with a note instead of failing."""

import warnings

import pytest

from repro import TransformOptions, compile_program
from repro.native import engine as engine_mod
from repro.native import toolchain

SRC = "fun f(v) = [x <- v: (x * 3 + 7) * x - 5]"
ARGS = [[1, 2, 3, 4]]


@pytest.fixture
def no_toolchain(monkeypatch, tmp_path):
    """Simulate a machine without a C compiler: $CC points at a binary
    that does not exist and the PATH holds no compiler at all."""
    monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
    monkeypatch.setenv("PATH", str(tmp_path))
    toolchain.reset()
    engine_mod.reset_engine()
    yield
    toolchain.reset()
    engine_mod.reset_engine()


def test_discovery_reports_unavailable(no_toolchain):
    assert toolchain.find_cc() is None
    assert not toolchain.available()
    assert toolchain.toolchain_id() == "none"
    assert engine_mod.get_engine() is None


def test_native_backend_falls_back_with_one_warning(no_toolchain):
    prog = compile_program(SRC)
    want = prog.run("f", ARGS)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        r1 = prog.run("f", ARGS, backend="native")
        r2 = prog.run("f", ARGS, backend="native")
    assert r1 == want and r2 == want
    native_warnings = [x for x in w if "no C toolchain" in str(x.message)]
    assert len(native_warnings) == 1
    assert native_warnings[0].category is RuntimeWarning


def test_fuzzer_skips_native_cleanly(no_toolchain):
    from repro.fuzz.differ import Differential, fuzz
    report = fuzz(Differential(backends=("interp", "vector", "native")),
                  seed=0, count=3)
    assert report.skipped_backends == {"native": "no C toolchain"}
    assert report.ok
    assert "skipped: native" in report.summary()


def test_serve_tiering_inert_without_toolchain(no_toolchain):
    """Tiering never promotes when no compiler exists — requests keep
    running on the vector back end with correct results."""
    from repro.serve import BatchExecutor, ServeConfig
    with BatchExecutor(ServeConfig(native_after=1)) as ex:
        want = compile_program(SRC).run("f", ARGS)
        for _ in range(4):
            assert ex.submit(SRC, "f", ARGS).result(30) == want
        assert ex.stats.promotions == 0


def test_emit_c_native_works_without_toolchain(no_toolchain):
    """Real-codegen emission is pure string work — it must not need cc."""
    prog = compile_program(SRC, options=TransformOptions(fuse=True))
    out = prog.emit_c("f", ["seq(int)"], native=True)
    assert "native fused kernels" in out
    assert "void run(" in out
