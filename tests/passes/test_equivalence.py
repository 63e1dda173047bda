"""Pipeline-equivalence battery: the pass-manager pipeline must produce
*identical* IR — and identical run results — to the pre-refactor
hand-wired pipeline, on the 9 examples and 200 fuzzed programs, through
the phases whose output is meant never to change: R1 canonicalization
and R2 elimination.

``legacy_front`` below is a verbatim replica of the hand-wired driver's
first two phases (canonicalize, then the eliminate worklist — each a
direct function call).  The phases after them are *meant* to move — the
§4.5 ``optimize`` rules and the ``simplify`` cleanup grow with every
"improvement to the transformations" — so the replica stops at
``eliminate``: the pipeline under test runs whole, under each option
set, and its labeled IR dumps after ``canonical`` and ``eliminate`` must
equal the replica's.  That pins both that the front phases are
unchanged and that no option reaches back into them.  Equality is on
the pretty-printed definitions, which pin name choices, let structure,
depths, and argument order; what the later passes produce is pinned by
``tests/passes/golden/`` and the ``tests/transform`` suites, and that it
*means* the same by ``test_options.py`` and the fuzzers.
"""

import ast as pyast
import dataclasses
from pathlib import Path

import pytest

from repro import TransformOptions, compile_program
from repro.lang import ast as A
from repro.lang.parser import parse_program
from repro.lang.prelude import merge_with_prelude
from repro.lang.pretty import pretty_def, pretty_program
from repro.lang.typecheck import typecheck_program
from repro.lang.types import parse_type
from repro.passes.builtin import _Worklist
from repro.passes.manager import dump_header
from repro.transform.canonical import canonicalize_program
from repro.transform.trace import NullTrace

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def legacy_front(source, entry, arg_types):
    """The pre-pass-manager pipeline up to and including elimination,
    phase calls hand-wired in the original order; returns the printed
    canonical program and the printed iterator-free defs."""
    canonical = canonicalize_program(merge_with_prelude(parse_program(source)))
    typed = typecheck_program(canonical)
    wl = _Worklist(typed, NullTrace())
    wl.request_def(typed.instance(entry, tuple(arg_types)))
    wl.drain()
    return (pretty_program(canonical),
            "\n\n".join(pretty_def(d) for d in wl.out_defs.values()))


def assert_pipelines_agree(source: str, entry: str, arg_types,
                           opts: TransformOptions, label: str):
    """Transform one entry through both pipelines and require printed-IR
    equality after ``canonical`` and after ``eliminate``.  Generated
    names embed a process-global counter, so each pipeline gets its own
    compile off a reset counter — the two runs then see bit-identical
    counter states."""
    dumps: list[str] = []
    A.reset_fresh_names()
    prog = compile_program(source, options=dataclasses.replace(
        opts, print_ir_after=("canonical", "eliminate"),
        ir_sink=dumps.append))
    prog.prepare(entry, tuple(arg_types))
    A.reset_fresh_names()
    canonical, defs = legacy_front(source, entry, arg_types)
    assert dumps == [f"{dump_header('canonical')}\n{canonical}\n",
                     f"{dump_header('eliminate')}\n{defs}\n"], label


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
@pytest.mark.parametrize("opts", [
    TransformOptions(),
    TransformOptions(passes="canonical,eliminate,native-reduce,optimize,"
                            "simplify,fuse"),
], ids=["default", "fuse+native"])
def test_examples_identical_ir(path, opts):
    spec = _example_spec(path)
    prog = compile_program(spec["SOURCE"], options=opts)
    entry, args = spec["PROFILE_ENTRY"], list(spec["PROFILE_ARGS"])
    at = prog.entry_types(entry, args)
    assert_pipelines_agree(spec["SOURCE"], entry, at, opts, path.name)


@pytest.mark.parametrize("path", EXAMPLE_FILES,
                         ids=[p.stem for p in EXAMPLE_FILES])
def test_examples_identical_run_results(path):
    """Results through the pass-manager pipeline equal the reference
    interpreter's (the interpreter never ran the refactored phases, so
    this pins end-to-end behaviour, not just printed IR)."""
    spec = _example_spec(path)
    prog = compile_program(spec["SOURCE"])
    entry, args = spec["PROFILE_ENTRY"], list(spec["PROFILE_ARGS"])
    assert (prog.run(entry, args)
            == prog.run(entry, args, backend="interp")), path.name


@pytest.mark.parametrize("chunk", range(4))
def test_fuzzed_programs_identical_ir(chunk):
    """200 seeded fuzzer programs: new pipeline IR == legacy pipeline IR
    (chunked so failures name a 50-seed window)."""
    from repro.fuzz.gen import gen_case
    opts = TransformOptions()
    for seed in range(chunk * 50, (chunk + 1) * 50):
        case = gen_case(seed)
        types = tuple(parse_type(t) for t in case.types)
        assert_pipelines_agree(case.source, case.entry, types, opts,
                               f"seed {seed}")
