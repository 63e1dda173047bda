"""The AST node protocol: ``children``, ``map_children`` and ``walk``
visit a node through one row of ``repro.lang.ast.NODE_ROWS``.

Pinned here: every node kind has a row; ``children`` lists a node's
sub-expressions in evaluation order; ``map_children`` calls ``f`` in the
order that numbers fresh names (an ``Iter``'s domain, body, then filter);
a copy keeps the node's type, position and provenance and shares what it
does not replace; ``walk`` is the recursive pre-order on real IR; and the
front end never asks ``dataclasses`` for a node's fields.
"""

import ast as pyast
import dataclasses
import inspect
import sys
from pathlib import Path

import pytest

from repro import TransformOptions, compile_program
from repro.fuzz.gen import gen_case
from repro.lang import ast as A
from repro.lang.types import INT, parse_type
from repro.passes import manager

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

NODE_KINDS = sorted((c for c in vars(A).values()
                     if inspect.isclass(c) and issubclass(c, A.Expr)
                     and c is not A.Expr), key=lambda c: c.__name__)


def v(name):
    return A.Var(name)


#: one sample per node kind, its sub-expressions named after their fields
SAMPLES = {
    A.Var: lambda: A.Var("x"),
    A.IntLit: lambda: A.IntLit(1),
    A.BoolLit: lambda: A.BoolLit(True),
    A.FloatLit: lambda: A.FloatLit(0.5),
    A.SeqLit: lambda: A.SeqLit([v("items0"), v("items1")]),
    A.TupleLit: lambda: A.TupleLit([v("items0"), v("items1")]),
    A.TupleExtract: lambda: A.TupleExtract(v("tup"), 1),
    A.Call: lambda: A.Call(v("fn"), [v("args0"), v("args1")]),
    A.Lambda: lambda: A.Lambda(["p"], v("body")),
    A.Let: lambda: A.Let("x", v("bound"), v("body")),
    A.If: lambda: A.If(v("cond"), v("then"), v("els")),
    A.Iter: lambda: A.Iter("x", v("domain"), v("body"), v("filter")),
    A.ExtCall: lambda: A.ExtCall("add", [v("args0"), v("args1")], 1, [1, 0]),
    A.IndirectCall: lambda: A.IndirectCall(v("fun"), [v("args0")], 1, 0, [1]),
}

#: the documented order of ``children``, field by field
CHILDREN_ORDER = {
    A.SeqLit: ["items"], A.TupleLit: ["items"], A.TupleExtract: ["tup"],
    A.Call: ["fn", "args"], A.Lambda: ["body"], A.Let: ["bound", "body"],
    A.If: ["cond", "then", "els"], A.Iter: ["domain", "filter", "body"],
    A.ExtCall: ["args"], A.IndirectCall: ["fun", "args"],
}

#: ``map_children`` visits in ``children`` order except an Iter's filter
MAP_ORDER = {**CHILDREN_ORDER, A.Iter: ["domain", "body", "filter"]}


def expected_names(e, order):
    out = []
    for name in order.get(type(e), []):
        val = getattr(e, name)
        out.extend(c.name for c in (val if isinstance(val, list) else [val]))
    return out


def test_every_node_kind_has_a_row():
    assert set(A.NODE_ROWS) == set(NODE_KINDS)
    assert set(SAMPLES) == set(NODE_KINDS)


@pytest.mark.parametrize("cls", NODE_KINDS, ids=lambda c: c.__name__)
def test_order_lists_every_expression_field(cls):
    e = SAMPLES[cls]()
    holding = {f.name for f in dataclasses.fields(e)
               if isinstance(getattr(e, f.name), A.Expr)
               or (isinstance(getattr(e, f.name), list)
                   and any(isinstance(x, A.Expr) for x in getattr(e, f.name)))}
    assert set(CHILDREN_ORDER.get(cls, [])) == holding


@pytest.mark.parametrize("cls", NODE_KINDS, ids=lambda c: c.__name__)
def test_children_order(cls):
    e = SAMPLES[cls]()
    assert [c.name for c in A.children(e)] == expected_names(e, CHILDREN_ORDER)


def test_children_of_unfiltered_iter():
    e = A.Iter("x", v("domain"), v("body"))
    assert [c.name for c in A.children(e)] == ["domain", "body"]


@pytest.mark.parametrize("cls", NODE_KINDS, ids=lambda c: c.__name__)
def test_map_children_order(cls):
    e = SAMPLES[cls]()
    seen = []

    def record(c):
        seen.append(c.name)
        return A.Var(c.name + "'")

    out = A.map_children(e, record)
    assert seen == expected_names(e, MAP_ORDER)
    assert type(out) is cls
    assert [c.name for c in A.children(out)] == \
        [n + "'" for n in expected_names(e, CHILDREN_ORDER)]


def test_map_children_leaves_return_the_node():
    for cls in (A.Var, A.IntLit, A.BoolLit, A.FloatLit):
        e = SAMPLES[cls]()
        assert A.map_children(e, lambda c: pytest.fail("no children")) is e


@pytest.mark.parametrize("cls", [c for c in NODE_KINDS if c in CHILDREN_ORDER],
                         ids=lambda c: c.__name__)
def test_copy_carries_attributes_and_shares_fields(cls):
    e = SAMPLES[cls]().at(3, 7)
    e.type, e.origin = INT, "R2d"
    out = A.map_children(e, lambda c: c)
    assert out is not e and type(out) is cls
    assert (out.type, out.line, out.col, out.origin) == (INT, 3, 7, "R2d")
    for f in dataclasses.fields(e):
        val = getattr(e, f.name)
        if f.name in CHILDREN_ORDER[cls]:
            if isinstance(val, list):     # a new list of the mapped children
                assert getattr(out, f.name) is not val
        else:                             # unreplaced: the very same object
            assert getattr(out, f.name) is val


class Bogus(A.Expr):
    pass


def test_unknown_class_raises_type_error():
    with pytest.raises(TypeError, match="unknown expression node Bogus"):
        A.children(Bogus())
    with pytest.raises(TypeError, match="unknown expression node Bogus"):
        A.map_children(Bogus(), lambda c: c)
    with pytest.raises(TypeError):
        list(A.walk(A.SeqLit([Bogus()])))


def recursive_walk(e):
    yield e
    for c in A.children(e):
        yield from recursive_walk(c)


def test_walk_is_preorder_on_every_pass_ir(monkeypatch):
    """The IR of 200 fuzzed programs after every pass of the pipeline:
    ``walk`` visits exactly the nodes a recursive pre-order does."""
    checked = []

    def check(p, ctx):
        defs = ctx.program.defs if p.stage == "source" else ctx.defs
        for d in defs.values():
            got, want = list(A.walk(d.body)), list(recursive_walk(d.body))
            assert len(got) == len(want)
            assert all(g is w for g, w in zip(got, want)), (p.name, d.name)
        checked.append(p.name)
        return ""

    monkeypatch.setattr(manager, "_render_ir", check)
    opts = TransformOptions(print_ir_all=True, ir_sink=lambda text: None)
    for seed in range(200):
        case = gen_case(seed)
        prog = compile_program(case.source, options=opts)
        prog.prepare(case.entry, tuple(parse_type(t) for t in case.types))
    assert len(set(checked)) == len(opts.pipeline())


def _example_sources():
    for path in sorted(EXAMPLES.glob("*.py")):
        for node in pyast.parse(path.read_text()).body:
            if (isinstance(node, pyast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], pyast.Name)
                    and node.targets[0].id == "SOURCE"):
                yield pyast.literal_eval(node.value)


def test_compile_asks_dataclasses_for_no_fields(monkeypatch):
    calls = []
    real = dataclasses.fields

    def counting(obj):
        calls.append(type(obj).__name__)
        return real(obj)

    monkeypatch.setattr(dataclasses, "fields", counting)
    for mod in list(sys.modules.values()):     # `from dataclasses import fields`
        if (getattr(mod, "__name__", "").startswith("repro")
                and getattr(mod, "fields", None) is real):
            monkeypatch.setattr(mod, "fields", counting)
    sources = list(_example_sources())
    assert sources
    for src in sources:
        compile_program(src)
    assert calls == []
