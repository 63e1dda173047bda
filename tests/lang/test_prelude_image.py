"""The per-process prelude image against its oracle.

``merge_with_prelude`` hands every program the *same* parsed prelude
definitions, and the stages after it recognize those objects and reuse
what the image computed for them once.  A freshly parsed
``prelude_program()`` is never an image object, so a program built from it
takes the uncached path through every stage: that is the oracle.  Three
things are pinned here:

* shadowing — a user definition of any name the prelude uses, at another
  type, types (or fails to type) and runs exactly as under the oracle;
* immutability — nothing that compiles or runs programs writes to the
  image, and a fresh-name counter reset cannot make its names collide;
* concurrency — threads racing the first compile build one image.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import FunVal, compile_program
from repro.api import BACKENDS, CompiledProgram
from repro.errors import ReproError
from repro.fuzz.differ import (
    ALL_BACKENDS, compare_outcomes, lane_call, run_case, skip_reason,
)
from repro.fuzz.gen import gen_case
from repro.guard.runtime import Budget
from repro.lang import ast as A
from repro.lang import builtins as B
from repro.lang.parser import parse_program
from repro.lang.prelude import (
    merge_with_prelude, prelude_image, prelude_program,
)
from repro.lang.pretty import pretty_program
from repro.lang.tokens import KEYWORDS
from repro.lang.typecheck import typecheck_program
from repro.lang.types import type_str
from repro.transform.canonical import canonicalize_program
from repro.transform.pipeline import TransformOptions
from tests.passes.test_equivalence import EXAMPLE_FILES, _example_spec

REPO = Path(__file__).resolve().parents[2]
IMAGE = prelude_image()
PRELUDE_NAMES = list(IMAGE.raw.defs)
#: the builtins R1 calls: a user definition of one of these names must not
#: capture what R1 generates, so every probe runs under it
GENERATED = {"range", "length", "seq_index", "restrict"}
#: every builtin a canonical prelude body mentions, operators included
#: (``a + b`` is ``add(a, b)``), and those R1 calls in it; ``div`` and
#: ``mod`` are keywords, which no definition can be named
REFERENCED_BUILTINS = sorted(
    (set().union(*IMAGE.refs.values()) | GENERATED) - set(PRELUDE_NAMES)
    - KEYWORDS)
#: redefinition bodies, each of another type than any prelude function or
#: builtin of the same arity has
BODIES = ["0", "[true]", "a0", "(a0, a0)"]

#: (entry, args, types) for every prelude function -- a function argument
#: needs its type spelled out; a shadowing case runs the probes whose
#: entry the shadowed name reaches
_II_I, _I_B = "(int, int) -> int", "(int) -> bool"
PROBES = [
    ("distribute", [[1, 2], [2, 1]], None), ("concat_p", [[1], [2, 3]], None),
    ("reduce", [FunVal("add"), [1, 2, 3]], [_II_I, "seq(int)"]),
    ("reduce_with", [FunVal("max2"), 0, [1, 5, 2]],
     [_II_I, "int", "seq(int)"]),
    ("flatten_p", [[[1], [2, 3]]], None), ("zip2", [[1, 2], [3, 4]], None),
    ("append", [[1], 2], None), ("reverse", [[1, 2, 3]], None),
    ("take", [[1, 2, 3], 2], None), ("drop", [[1, 2, 3], 1], None),
    ("count", [[True, False, True]], None), ("sum_p", [[1, 2, 3]], None),
    ("maxval_p", [[1, 3, 2]], None), ("minval_p", [[2, 1, 3]], None),
    ("even", [4], None), ("odd", [4], None), ("sort", [[3, 1, 2]], None),
    ("sort_by", [[3, 1, 2], [7, 8, 9]], None), ("merge", [[1, 3], [2]], None),
    ("msort", [[3, 1, 2, 5]], None), ("unique", [[3, 1, 3]], None),
    ("member", [2, [1, 2]], None), ("index_of", [2, [1, 2]], None),
    ("dotp", [[1, 2], [3, 4]], None), ("enumerate2", [[5, 6]], None),
    ("map_p", [FunVal("even"), [1, 2]], [_I_B, "seq(int)"]),
    ("filter_p", [FunVal("odd"), [1, 2, 3]], [_I_B, "seq(int)"]),
]


def _arity(name: str) -> int:
    if name in IMAGE.raw:
        return len(IMAGE.raw[name].params)
    return len(B.get_builtin(name).fresh_type().params)


def _normal(text: str) -> str:
    """Type variables numbered by first appearance, generated names
    without their counter: both run on through a process."""
    seen: dict[str, int] = {}
    text = re.sub(r"\?(\d+)",
                  lambda m: f"?{seen.setdefault(m.group(1), len(seen))}", text)
    return re.sub(r"%\d+", "%", text)


def _front(user: A.Program, oracle: bool) -> CompiledProgram:
    """``compile_program``'s stages, one call each; the oracle merges a
    fresh parse of the prelude, which no stage recognizes."""
    if oracle:
        raw = A.Program({**prelude_program().defs, **user.defs})
    else:
        raw = merge_with_prelude(user)
    canonical = canonicalize_program(raw)
    return CompiledProgram(raw=raw, canonical=canonical,
                           typed=typecheck_program(canonical),
                           options=TransformOptions())


def _error(e: Exception) -> tuple:
    return (type(e).__name__, _normal(str(e)),
            getattr(e, "line", None), getattr(e, "col", None))


def _compile_outcome(user: A.Program, oracle: bool):
    try:
        prog = _front(user, oracle)
    except ReproError as e:
        return None, _error(e)
    return prog, {n: _normal(type_str(t))
                  for n, t in prog.typed.schemes.items()}


def _run_outcome(prog: CompiledProgram, entry: str, args, types,
                 backend: str):
    try:
        return prog.run(entry, args, backend=backend, types=types,
                        budget=Budget(timeout_s=20.0, max_call_depth=40))
    except (ReproError, RecursionError) as e:
        return _error(e)


def _shadow_source(name: str, body: str) -> str:
    params = ", ".join(f"a{i}" for i in range(_arity(name)))
    return f"fun {name}({params}) = {body}"


def test_the_builtins_the_issue_names_are_covered():
    assert {"concat", "sum", "rank", "permute", "dist", "anytrue", "range1",
            "add", "seq_index", "length", "range", "restrict"} \
        <= set(REFERENCED_BUILTINS)
    assert len(PRELUDE_NAMES) == 27
    assert {e for e, _, _ in PROBES} == set(PRELUDE_NAMES)


@pytest.mark.parametrize("name", PRELUDE_NAMES + REFERENCED_BUILTINS)
def test_shadowing_types_and_runs_like_the_oracle(name):
    """A user definition of ``name`` replaces it for the prelude's own
    callers too; whatever that does to them — another scheme, the same
    one, a type error — the image must not hide."""
    for body in BODIES:
        user = parse_program(_shadow_source(name, body))
        assert name in user
        got_prog, got = _compile_outcome(user, oracle=False)
        want_prog, want = _compile_outcome(user, oracle=True)
        assert got == want, (name, body)
        if got_prog is None:
            continue
        for entry, args, types in PROBES:
            if entry != name and name not in IMAGE.refs[entry] \
                    and name not in GENERATED:
                continue
            for backend in BACKENDS:
                assert (_run_outcome(got_prog, entry, args, types, backend)
                        == _run_outcome(want_prog, entry, args, types,
                                        backend)), (name, body, entry, backend)


def test_shadowing_cases_reach_both_sides():
    """The battery above is not vacuous: redefinitions change dependents'
    schemes in some cases and make them ill-typed in others."""
    base = {n: _normal(type_str(t)) for n, t in IMAGE.schemes.items()}
    retyped = failed = 0
    for name in PRELUDE_NAMES + REFERENCED_BUILTINS:
        for body in BODIES:
            prog, out = _compile_outcome(
                parse_program(_shadow_source(name, body)), oracle=False)
            if prog is None:
                failed += 1
                assert out[0] == "TypeCheckError"
            elif any(out[n] != base[n] for n in base if n != name):
                retyped += 1
    assert retyped >= 30 and failed >= 50


def test_ill_typed_dependent_reports_the_oracles_error():
    """``reduce`` calls ``concat``: a ``concat`` that returns an int makes
    it ill-typed, and the error is the one full inference raises."""
    user = parse_program("fun concat(v, w) = 0\nfun main(v) = sum_p(v)")
    with pytest.raises(ReproError) as got:
        _front(user, oracle=False)
    with pytest.raises(ReproError) as want:
        _front(user, oracle=True)
    assert _error(got.value) == _error(want.value)
    assert _error(got.value)[:2] == (
        "TypeCheckError",
        "type mismatch: seq(?0) vs int in call of reduce")
    with pytest.raises(type(want.value)):
        compile_program("fun concat(v, w) = 0\nfun main(v) = sum_p(v)")


def test_unshadowed_definitions_keep_the_images_schemes():
    """The reuse condition, positively: with ``sort`` redefined, exactly
    the definitions that reach ``sort`` are inferred again."""
    prog = compile_program("fun sort(v) = v")
    reach = {n for n, refs in IMAGE.refs.items() if "sort" in refs}
    assert reach == {"merge", "msort", "unique"}
    for n in PRELUDE_NAMES:
        if n == "sort":
            continue
        assert (prog.typed.schemes[n] is IMAGE.schemes[n]) == (n not in reach)
        assert prog.canonical[n] is IMAGE.canonical[n]


def test_fresh_parse_takes_the_uncached_path():
    """The identity rule: equal text is not the image."""
    fresh = canonicalize_program(prelude_program())
    typed = typecheck_program(fresh)
    for n in PRELUDE_NAMES:
        assert fresh[n] is not IMAGE.canonical[n]
        assert typed.schemes[n] is not IMAGE.schemes[n]
        assert (_normal(type_str(typed.schemes[n]))
                == _normal(type_str(IMAGE.schemes[n])))


# -- immutability ------------------------------------------------------------

def _snapshot():
    return [(pretty_program(p),
             [(type(n).__name__, n.type) for d in p for n in A.walk(d.body)])
            for p in (IMAGE.raw, IMAGE.canonical)]


def test_image_holds_only_def_local_generated_names():
    """Generated names in the image are let- and iterator-bound inside one
    definition; no definition is named by one or mentions one freely (no
    lifted ``lam%`` globals).  That is why a counter reset that makes a
    later program reuse ``v%0`` is harmless."""
    assert "%" in pretty_program(IMAGE.canonical)
    for d in IMAGE.canonical:
        assert "%" not in d.name and not any("%" in p for p in d.params)
        assert not any("%" in v for v in
                       A.free_vars(d.body, frozenset(d.params))), d.name
    assert "%" not in pretty_program(IMAGE.raw)


def test_counter_reset_cannot_collide_with_the_images_names():
    """After ``reset_fresh_names`` the transformation hands out numbers
    the image's bodies already hold.  Start the counter at each of them:
    the definitions with generated binders, run through R2 and through
    their ``f^1`` (one batched pass), still agree with the interpreter."""
    numbers = sorted({int(n) for n in re.findall(
        r"%(\d+)", pretty_program(IMAGE.canonical))})
    generated = [p for p in PROBES
                 if "%" in pretty_program(A.Program(
                     {p[0]: IMAGE.canonical[p[0]]}))]
    assert {p[0] for p in generated} == {
        "msort", "unique", "member", "index_of", "map_p", "filter_p"}
    for start in numbers:
        A.reset_fresh_names()
        for _ in range(start):
            A.fresh_name()
        prog = compile_program("")
        for entry, args, types in generated:
            want = prog.run(entry, args, backend="interp", types=types)
            assert prog.run(entry, args, types=types) == want
            assert prog.run_batched(entry, [args, args],
                                    types=types) == [want, want]


def test_compiling_and_running_leaves_the_image_untouched():
    before = _snapshot()
    lanes = tuple(b for b in ALL_BACKENDS if skip_reason(b) is None)
    assert len(EXAMPLE_FILES) >= 9
    for round_ in range(2):
        for path in EXAMPLE_FILES:
            spec = _example_spec(path)
            prog = compile_program(spec["SOURCE"])
            entry, args = spec["PROFILE_ENTRY"], list(spec["PROFILE_ARGS"])
            results = [prog.run(entry, args, backend=b, threads=t)
                       for b, t in map(lane_call, lanes)]
            assert all(r == results[0] for r in results), path.name
        for seed in range(round_ * 100, round_ * 100 + 100):
            case = gen_case(seed)
            assert compare_outcomes(run_case(case, backends=lanes)), seed
        # a shadowing compile re-infers prelude definitions: on copies
        compile_program("fun sort(v) = v\nfun rank(v) = v").run_all(
            "msort", [[2, 1]])
        A.reset_fresh_names()
    assert _snapshot() == before


# -- concurrency ------------------------------------------------------------

RACE_SCRIPT = r"""
import sys, threading
from repro.lang import parser
from repro.lang.prelude import PRELUDE_SOURCE

calls = []
real = parser.tokenize
def counting(source):
    if source == PRELUDE_SOURCE:
        calls.append(threading.get_ident())
    return real(source)
parser.tokenize = counting

from repro import compile_program
from repro.lang.prelude import prelude_image

N = 16
barrier = threading.Barrier(N)
out, errors = [None] * N, []
def work(i):
    try:
        barrier.wait(timeout=30)
        prog = compile_program(f"fun main(s) = sum([x <- s: x * x + {i}])")
        out[i] = (prog.run("main", [[1, 2, 3]]), prog.raw["sort"])
    except BaseException as e:
        errors.append(repr(e))
        raise
old = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=work, args=(i,)) for i in range(N)]
    for t in threads: t.start()
    for t in threads: t.join(timeout=60)
finally:
    sys.setswitchinterval(old)
assert not errors, errors
assert not any(t.is_alive() for t in threads)
assert [v for v, _ in out] == [14 + 3 * i for i in range(N)], out
assert all(d is prelude_image().raw["sort"] for _, d in out)
print("first", len(calls))
for i in range(10):
    compile_program(f"fun main(k) = reverse([1..k + {i}])").run("main", [2])
print("after", len(calls))
"""


def test_racing_first_compiles_build_one_image(tmp_path):
    """Sixteen threads whose first ``compile_program`` race in a fresh
    interpreter: the prelude source is tokenized once, every program holds
    the same image objects, and ten later compiles tokenize it never."""
    script = tmp_path / "race.py"
    script.write_text(RACE_SCRIPT)
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["first", "1", "after", "1"]
