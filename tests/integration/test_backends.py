"""One conformance battery over ``repro.api.BACKENDS``: every lane of
the differ (every row of the table, and ``native`` at two threads) runs
every example to the interpreter's answer, batched and not, and every
row has exactly the capabilities its columns (and the table in
docs/PIPELINE.md) claim."""

from pathlib import Path

import pytest

from repro import compile_program
from repro.api import BACKENDS, backend_row
from repro.cli import _example_spec
from repro.fuzz.differ import ALL_BACKENDS, lane_call, skip_reason
from repro.guard import runtime as guard

REPO_ROOT = Path(__file__).resolve().parents[2]
SPECS = {p.stem: _example_spec(p.read_text())
         for p in sorted((REPO_ROOT / "examples").glob("*.py"))}
SRC = "fun sqs(v) = [x <- v: x * x]"


def _lane(name):
    why = skip_reason(name)
    return pytest.param(name, marks=pytest.mark.skipif(
        why is not None, reason=f"{name}: {why}"))


LANES = [_lane(name) for name in ALL_BACKENDS]
ROWS = [_lane(name) for name in BACKENDS]


@pytest.fixture(scope="module")
def programs():
    """Each example compiled once, with the interpreter's answer."""
    out = {}
    for stem, spec in SPECS.items():
        prog = compile_program(spec["SOURCE"])
        entry, args = spec["PROFILE_ENTRY"], list(spec["PROFILE_ARGS"])
        out[stem] = (prog, entry, args, prog.run(entry, args, "interp"))
    return out


def test_every_example_names_an_entry():
    assert len(SPECS) >= 9
    assert all("PROFILE_ENTRY" in s for s in SPECS.values())


@pytest.mark.parametrize("lane", LANES)
@pytest.mark.parametrize("stem", sorted(SPECS))
def test_run_equals_run_batched_equals_interp(programs, stem, lane):
    prog, entry, args, want = programs[stem]
    backend, threads = lane_call(lane)
    assert prog.run(entry, args, backend=backend, threads=threads) == want
    assert prog.run_batched(entry, [args, args], backend=backend,
                            threads=threads) == [want, want]


NEST_SRC = """
fun nest(n) = [i <- [1..n]: [j <- [1..i]: [k <- [1..j]: i*j + k]]]
fun nsum(n) = sum([i <- [1..n]: sum([j <- nest(i)[1 + i / 2]: sum(j)])])
"""


@pytest.mark.parametrize("lane", LANES)
def test_static_check_skips_exactly_the_static_kernels(monkeypatch, lane):
    """``check="static"`` re-validates no static-class kernel (``neg``
    applied by value in ``higher_order``'s ``shape`` included) and no
    call boundary, but every ``restrict``, ``combine``, ``dist``,
    ``seq_index``, ``extract`` and ``insert``; its results are those of
    ``check="full"`` and of an unchecked run."""
    stages: list = []
    real = guard.GuardState.check_value
    monkeypatch.setattr(guard.GuardState, "check_value", lambda self, st, v: (
        stages.append(st) if self.check else None, real(self, st, v))[1])
    backend, threads = lane_call(lane)
    ho = SPECS["higher_order"]
    seen = {}
    for src, entry, args in [
            (ho["SOURCE"], ho["PROFILE_ENTRY"], list(ho["PROFILE_ARGS"])),
            (NEST_SRC, "nsum", [6])]:
        prog = compile_program(src)
        want = prog.run(entry, args, backend=backend, threads=threads)
        for check in (True, "static"):
            del stages[:]
            assert prog.run(entry, args, backend=backend, threads=threads,
                            check=check) == want
            seen.setdefault(check, set()).update(stages)
    if backend == "interp":   # no vector values, so nothing to check
        assert seen == {True: set(), "static": set()}
        return
    kept = {"kernel:restrict", "kernel:combine", "kernel:dist",
            "kernel:seq_index", "extract", "insert"}
    assert seen["static"] == kept
    assert {"kernel:neg", "kernel:mul", "kernel:sum", "vexec:nsum",
            "vexec:shape^1"} | kept <= seen[True]


def _asking(monkeypatch, backend):
    """The thread counts ``backend``'s executor is built with, as a list
    that fills as the test runs."""
    asked: list = []
    row = BACKENDS[backend]
    if row.executor is not None:
        monkeypatch.setitem(BACKENDS, backend, row._replace(
            executor=lambda tp, threads: (asked.append(threads),
                                          row.executor(tp, threads))[1]))
    return asked


@pytest.mark.parametrize("backend", ROWS)
def test_threads_reach_the_engine_exactly_where_flagged(monkeypatch, backend):
    """A count reaches the executor of a row that takes threads, built
    for its call; ``threads=None`` builds the entry's shared one, once."""
    asked = _asking(monkeypatch, backend)
    prog = compile_program(SRC)
    for threads in (1, None, 1, None):
        assert prog.run("sqs", [[1, 2]], backend=backend,
                        threads=threads) == [1, 4]
    assert prog.run_batched("sqs", [[[1]], [[2]]], backend=backend,
                            threads=1) == [[1], [4]]
    row = BACKENDS[backend]
    assert asked == ([1, None, 1, 1] if row.threads
                     else [None, None] if row.executor else [])


def test_run_batched_fallback_passes_threads_like_run(monkeypatch):
    """Regression: the per-request fallback of ``run_batched`` (zero
    arguments, a function-valued argument, the interpreter) is the same
    call as ``run`` — it used to drop ``threads`` and ask the engine for
    the machine default."""
    from repro import FunVal
    asked = _asking(monkeypatch, "native")
    prog = compile_program("""
        fun z() = [i <- [1..3]: i * i]
        fun double(x) = 2 * x
        fun mapf(f, v) = [x <- v: f(x)]
    """)
    assert prog.run("z", [], backend="native", threads=1) == [1, 4, 9]
    assert asked == [1]
    del asked[:]
    assert prog.run_batched("z", [[], []], backend="native",
                            threads=1) == [[1, 4, 9]] * 2
    assert asked == [1, 1]
    del asked[:]
    types = ["(int) -> int", "seq(int)"]
    assert prog.run_batched(
        "mapf", [[FunVal("double"), [1]], [FunVal("double"), [2, 3]]],
        backend="native", types=types, threads=1) == [[2], [4, 6]]
    assert asked == [1, 1]
    del asked[:]
    assert prog.run_batched("z", [[], []], backend="interp",
                            threads=1) == [[1, 4, 9]] * 2
    assert asked == []


def test_unknown_backend_is_one_error_everywhere():
    """The retired ``vcode`` and ``parallel`` are no aliases: the same
    error, which also names what runs their programs now."""
    prog = compile_program(SRC)
    known = f"unknown backend {{!r}} (known: {', '.join(BACKENDS)})"
    for name, more in [
            ("bogus", ""),
            ("vcode", "; 'vcode' is retired: use 'vector' (trace it with "
                      "`repro simulate` or vector_trace)"),
            ("parallel", "; 'parallel' is retired: use 'native' with "
                         "threads= (--threads N)")]:
        with pytest.raises(ValueError) as e1:
            prog.run("sqs", [[1]], backend=name)
        with pytest.raises(ValueError) as e2:
            prog.run_batched("sqs", [[[1]]], backend=name)
        with pytest.raises(ValueError) as e3:
            backend_row(name)
        assert str(e1.value) == str(e2.value) == str(e3.value) \
            == known.format(name) + more


def test_docs_capability_table_lists_every_backend():
    """docs/PIPELINE.md's back-end table: one row per BACKENDS key, in
    order, with the columns the code has."""
    lines = (REPO_ROOT / "docs" / "PIPELINE.md").read_text().splitlines()
    start = next(i for i, ln in enumerate(lines)
                 if ln.startswith("| back end |"))
    rows = []
    for ln in lines[start + 2:]:
        if not ln.startswith("|"):
            break
        rows.append([c.strip().strip("`") for c in ln.strip("|").split("|")])
    assert [r[0] for r in rows] == list(BACKENDS)
    for name, _executor, threads, _cc in rows:
        assert threads == ("yes" if BACKENDS[name].threads else "no"), name


def _load_lint():
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "check_backend_literals",
        REPO_ROOT / "tools" / "check_backend_literals.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_backend_names_are_listed_once_in_src():
    lint = _load_lint()
    assert lint.backend_names(REPO_ROOT) == set(BACKENDS)
    assert lint.find_literals(REPO_ROOT) == []


def test_lint_detects_a_retyped_backend_list(tmp_path):
    lint = _load_lint()
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "api.py").write_text((REPO_ROOT / lint.TABLE).read_text())
    (pkg / "copy.py").write_text(
        'ONE = ("native",)\n'
        'PAIR = ["vector", "native"]\n'
        'def f(b):\n'
        '    return b in ("interp", "vector", "native")\n')
    assert lint.find_literals(tmp_path) == [
        ("src/repro/copy.py", 2, ["native", "vector"]),
        ("src/repro/copy.py", 4, ["interp", "native", "vector"])]


def test_primitive_names_are_listed_once_in_src():
    from repro.lang.builtins import all_builtins
    lint = _load_lint()
    assert lint.primitive_names(REPO_ROOT) == set(all_builtins())
    assert lint.find_primitive_literals(REPO_ROOT) == []


def test_lint_detects_a_retyped_primitive_class(tmp_path):
    lint = _load_lint()
    for table in (lint.TABLE, lint.CATALOG):
        (tmp_path / table).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / table).write_text((REPO_ROOT / table).read_text())
    (tmp_path / "src" / "repro" / "copy.py").write_text(
        'BOOL_OUT = {"eq", "ne", "lt", "le", "not_"}\n'
        'LANE = {"add": 1, "sub": 2, "mul": 3, "neg": 4}\n'
        'def f(op):\n'
        '    return op in ("sum", "maxval", "minval")\n')
    fuzz = tmp_path / "src" / "repro" / "fuzz"
    fuzz.mkdir()
    (fuzz / "gen.py").write_text(
        'def gen_seq(r):\n'
        '    return r.choice(["concat", "dist", "restrict", "permute"])\n')
    # a primitive-keyed dict is a lane's implementation, except in the
    # analyses and the guard, which read the catalog's classes
    for sub in ("analysis", "guard"):
        (tmp_path / "src" / "repro" / sub).mkdir()
        (tmp_path / "src" / "repro" / sub / "kinds.py").write_text(
            '_RUNTIME = {"seq_index": "gather", "restrict": "pack",\n'
            '            "combine": "merge", "dist": "replicate"}\n')
    assert lint.find_primitive_literals(tmp_path) == [
        ("src/repro/analysis/kinds.py", 1,
         ["combine", "dist", "restrict", "seq_index"]),
        ("src/repro/copy.py", 1, ["eq", "le", "lt", "ne", "not_"]),
        ("src/repro/guard/kinds.py", 1,
         ["combine", "dist", "restrict", "seq_index"])]
    assert lint.main(["lint", str(tmp_path)]) == 1


def test_every_vector_lane_runs_one_transformed_program():
    """T1 realizes every ``f^d`` through one ``f^1``, so an entry at one
    type is transformed once — fused — and every vector lane, at every
    thread count, and the traced run execute that one object."""
    prog = compile_program("fun f(v) = sum([x <- v: x * x + 1])")
    for lane in ALL_BACKENDS:
        backend, threads = lane_call(lane)
        if backend != "interp":
            assert prog.run("f", [[1, 2, 3]], backend=backend,
                            threads=threads) == 17
    assert prog.vector_trace("f", [[1, 2, 3]])[0] == 17
    tps = [b.tp for b in prog._bound.values()]
    assert len(tps) == 2 and all(tp is tps[0] for tp in tps)
    assert len(prog._transformed) == 1
    assert [t[:2] for t in tps[0].fusion.trees.values()] == [("fold", "sum")]
