"""Seeded random P-program generator for the differential fuzzer.

The generator is *type-directed* and *totality-preserving*: every program
it emits is well-typed and free of partial operations by construction —
division and modulus only take literal divisors, indexing is guarded by a
length test, ``dist`` counts are taken modulo a small constant, and
``restrict``/``permute`` arguments are built from the same sequence via a
``let`` binding.  Integer magnitudes are clamped (every value entering a
sequence is reduced ``mod 997``) so results stay far below 2^63 and the
reference interpreter's Python bigints cannot diverge from the vector
representation's ``int64``.

Programs are built as :class:`Node` trees (one node per expression) and
rendered to concrete syntax; the shrinker in :mod:`repro.fuzz.differ`
minimizes failing cases by structural replacement on the same trees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Sequence

from repro.lang import builtins as B

# Fuzzer type tags (a deliberately small slice of the type system).
INT, BOOL, SEQ, SEQ2, SEQ2P = "int", "bool", "seq", "seq2", "seq2p"

#: Concrete P type syntax per tag (passed as explicit entry types so empty
#: sequence arguments stay typeable).
TYPE_SYNTAX = {INT: "int", BOOL: "bool",
               SEQ: "seq(int)", SEQ2: "seq(seq(int))",
               SEQ2P: "seq(seq((int, float)))"}

#: Entry parameters every generated ``main`` receives, in order.
PARAMS: tuple[tuple[str, str], ...] = (
    ("a", INT), ("b", INT), ("s", SEQ), ("t", SEQ), ("ss", SEQ2))

#: Smallest closed expression of each type — the shrinker's terminal
#: replacement and the generator's depth-0 fallback.
ATOMS = {INT: "0", BOOL: "true", SEQ: "[0..(0 - 1)]",
         SEQ2: "[q__ <- [0..(0 - 1)]: [0..q__]]"}

#: Clamp modulus for values entering sequences (prime, so clamped values
#: still spread well).
_CLAMP = 997


@dataclass(frozen=True)
class Node:
    """One generated expression: a render format plus typed children.

    ``fmt`` contains ``{0}``, ``{1}``, ... placeholders for the rendered
    children; variable names are baked into ``fmt`` at generation time.
    """

    t: str
    fmt: str
    kids: tuple["Node", ...] = ()

    def render(self) -> str:
        return self.fmt.format(*(k.render() for k in self.kids))

    def size(self) -> int:
        return 1 + sum(k.size() for k in self.kids)


def leaf(t: str, text: str) -> Node:
    return Node(t, text)


def subnodes(root: Node) -> Iterator[tuple[tuple[int, ...], Node]]:
    """All nodes of the tree with their paths, preorder (root first)."""
    stack: list[tuple[tuple[int, ...], Node]] = [((), root)]
    while stack:
        path, n = stack.pop()
        yield path, n
        for i, k in enumerate(n.kids):
            stack.append((path + (i,), k))


def replace_at(root: Node, path: tuple[int, ...], new: Node) -> Node:
    """A copy of ``root`` with the node at ``path`` swapped for ``new``."""
    if not path:
        return new
    i = path[0]
    kids = list(root.kids)
    kids[i] = replace_at(kids[i], path[1:], new)
    return replace(root, kids=tuple(kids))


@dataclass(frozen=True)
class FuzzCase:
    """One generated program plus the inputs it is run on."""

    seed: int
    body: Node                       # main's body (shrinkable)
    helpers: tuple[str, ...]         # rendered helper definitions
    args: tuple                      # values for ``params``, in order
    entry: str = "main"
    params: tuple[tuple[str, str], ...] = PARAMS

    @property
    def types(self) -> tuple[str, ...]:
        return tuple(TYPE_SYNTAX[t] for _n, t in self.params)

    @property
    def source(self) -> str:
        params = ", ".join(n for n, _t in self.params)
        defs = list(self.helpers)
        defs.append(f"fun main({params}) =\n  {self.body.render()}")
        return "\n".join(defs)


class _Gen:
    """One generation run: an RNG, a scope, and the type-directed grammar."""

    def __init__(self, rng: random.Random, helpers: Sequence[str] = ()):
        self.rng = rng
        self.env: list[tuple[str, str]] = list(PARAMS)
        self.helpers = list(helpers)   # names of callable (int, seq) helpers
        self._fresh = 0

    # -- scope helpers -----------------------------------------------------

    def fresh(self, base: str = "v") -> str:
        self._fresh += 1
        return f"{base}{self._fresh}__"

    def vars_of(self, t: str) -> list[str]:
        return [n for n, vt in self.env if vt == t]

    def _scoped(self, name: str, t: str, make):
        self.env.append((name, t))
        try:
            return make()
        finally:
            self.env.pop()

    # -- dispatch ----------------------------------------------------------

    def gen(self, t: str, d: int) -> Node:
        return {INT: self.gen_int, BOOL: self.gen_bool,
                SEQ: self.gen_seq, SEQ2: self.gen_seq2}[t](d)

    def atom(self, t: str) -> Node:
        vs = self.vars_of(t)
        if t == INT:
            pool = [str(self.rng.randrange(10))] + vs
        elif t == BOOL:
            pool = ["true", "false"] + [f"({v} < {self.rng.randrange(5)})"
                                        for v in self.vars_of(INT)]
        else:
            pool = vs or [ATOMS[t]]
        return leaf(t, self.rng.choice(pool))

    def clamped_int(self, d: int) -> Node:
        """An int expression reduced mod a small prime — the only form
        allowed to flow into sequences, keeping magnitudes int64-safe."""
        return Node(INT, f"(({{0}}) mod {_CLAMP})", (self.gen_int(d),))

    # -- int ---------------------------------------------------------------

    def gen_int(self, d: int) -> Node:
        if d <= 0:
            return self.atom(INT)
        r = self.rng
        choice = r.choices(
            ["atom", "arith", "mul", "divmod", "len", "sum", "index",
             "minmax", "if", "let", "call", "flatsum"],
            weights=[3, 4, 2, 2, 2, 3, 2, 2, 2, 1,
                     2 if self.helpers else 0, 1])[0]
        if choice == "atom":
            return self.atom(INT)
        if choice == "arith":
            op = r.choice(["+", "-"])
            return Node(INT, f"(({{0}}) {op} ({{1}}))",
                        (self.gen_int(d - 1), self.gen_int(d - 1)))
        if choice == "mul":
            # atoms only: keeps products small (see module docstring)
            return Node(INT, "(({0}) * ({1}))",
                        (self.atom(INT), self.atom(INT)))
        if choice == "divmod":
            op = r.choice(["div", "mod"])
            k = r.randrange(2, 6)
            return Node(INT, f"(({{0}}) {op} {k})", (self.gen_int(d - 1),))
        if choice == "len":
            t = r.choice([SEQ, SEQ2])
            return Node(INT, "(#({0}))", (self.gen(t, d - 1),))
        if choice == "sum":
            return Node(INT, "sum({0})", (self.gen_seq(d - 1),))
        if choice == "flatsum":
            return Node(INT, "sum(flatten({0}))", (self.gen_seq2(d - 1),))
        if choice == "index":
            k = r.randrange(1, 5)
            return Node(
                INT, f"(if (#({{0}})) < {k} then ({{1}}) else ({{0}})[{k}])",
                (self.gen_seq(d - 1), self.gen_int(d - 1)))
        if choice == "minmax":
            fn = r.choice(["max2", "min2"])
            return Node(INT, f"{fn}(({{0}}), ({{1}}))",
                        (self.gen_int(d - 1), self.gen_int(d - 1)))
        if choice == "if":
            return Node(INT, "(if ({0}) then ({1}) else ({2}))",
                        (self.gen_bool(d - 1), self.gen_int(d - 1),
                         self.gen_int(d - 1)))
        if choice == "let":
            v = self.fresh("n")
            bound = self.gen_int(d - 1)
            body = self._scoped(v, INT, lambda: self.gen_int(d - 1))
            return Node(INT, f"(let {v} = ({{0}}) in ({{1}}))", (bound, body))
        # call: helper of signature (int, seq(int)) -> int
        h = r.choice(self.helpers)
        return Node(INT, f"{h}(({{0}}), ({{1}}))",
                    (self.gen_int(d - 1), self.gen_seq(d - 1)))

    # -- bool --------------------------------------------------------------

    def gen_bool(self, d: int) -> Node:
        if d <= 0:
            return self.atom(BOOL)
        r = self.rng
        choice = r.choices(["atom", "cmp", "logic", "not", "quant"],
                           weights=[2, 4, 2, 1, 2])[0]
        if choice == "atom":
            return self.atom(BOOL)
        if choice == "cmp":
            op = r.choice(["<", "<=", "==", "!=", ">", ">="])
            return Node(BOOL, f"(({{0}}) {op} ({{1}}))",
                        (self.gen_int(d - 1), self.gen_int(d - 1)))
        if choice == "logic":
            op = r.choice(["and", "or"])
            return Node(BOOL, f"(({{0}}) {op} ({{1}}))",
                        (self.gen_bool(d - 1), self.gen_bool(d - 1)))
        if choice == "not":
            return Node(BOOL, "(not ({0}))", (self.gen_bool(d - 1),))
        # quant: anytrue/alltrue over a per-element predicate
        fn = r.choice(["anytrue", "alltrue"])
        v = self.fresh("x")
        dom = self.gen_seq(d - 1)
        pred = self._scoped(v, INT, lambda: self.gen_bool(d - 1))
        return Node(BOOL, f"{fn}([{v} <- ({{0}}): ({{1}})])", (dom, pred))

    # -- seq(int) ----------------------------------------------------------

    def gen_seq(self, d: int) -> Node:
        if d <= 0:
            return self.atom(SEQ)
        r = self.rng
        choice = r.choices(
            ["atom", "range", "iter", "filter", "scan", "concat", "dist",
             "restrict", "permute", "lit", "flatpick"],
            weights=[3, 3, 4, 3, 2, 2, 2, 2, 1, 1, 1])[0]
        if choice == "atom":
            return self.atom(SEQ)
        if choice == "range":
            lo = r.randrange(0, 3)
            return Node(SEQ, f"[{lo}..(({{0}}) mod 8)]", (self.gen_int(d - 1),))
        if choice in ("iter", "filter"):
            v = self.fresh("x")
            dom = self.gen_seq(d - 1)
            body = self._scoped(v, INT, lambda: self.clamped_int(d - 1))
            if choice == "iter":
                return Node(SEQ, f"[{v} <- ({{0}}): {{1}}]", (dom, body))
            pred = self._scoped(v, INT, lambda: self.gen_bool(d - 1))
            return Node(SEQ, f"[{v} <- ({{0}}) | ({{1}}): {{2}}]",
                        (dom, pred, body))
        if choice == "scan":
            fn = r.choice(["plus_scan", "max_scan"])
            return Node(SEQ, f"{fn}({{0}})", (self.gen_seq(d - 1),))
        if choice == "concat":
            return Node(SEQ, "concat(({0}), ({1}))",
                        (self.gen_seq(d - 1), self.gen_seq(d - 1)))
        if choice == "dist":
            return Node(SEQ, "dist(({0}), (({1}) mod 5))",
                        (self.clamped_int(d - 1), self.gen_int(d - 1)))
        if choice == "restrict":
            v, x = self.fresh("r"), self.fresh("x")
            bound = self.gen_seq(d - 1)
            pred = self._scoped(x, INT, lambda: self.gen_bool(d - 1))
            return Node(SEQ,
                        f"(let {v} = ({{0}}) in "
                        f"restrict({v}, [{x} <- {v}: ({{1}})]))",
                        (bound, pred))
        if choice == "permute":
            v = self.fresh("r")
            return Node(SEQ,
                        f"(let {v} = ({{0}}) in permute({v}, rank({v})))",
                        (self.gen_seq(d - 1),))
        if choice == "lit":
            return Node(SEQ, "[({0}), ({1})]",
                        (self.clamped_int(d - 1), self.clamped_int(d - 1)))
        # flatpick: flatten a nested sequence
        return Node(SEQ, "flatten({0})", (self.gen_seq2(d - 1),))

    # -- seq(seq(int)) -----------------------------------------------------

    def gen_seq2(self, d: int) -> Node:
        if d <= 0:
            vs = self.vars_of(SEQ2)
            return leaf(SEQ2, self.rng.choice(vs) if vs else ATOMS[SEQ2])
        r = self.rng
        choice = r.choices(["atom", "iter", "over", "dist", "concat", "lit"],
                           weights=[3, 4, 2, 2, 2, 1])[0]
        if choice == "atom":
            return self.gen_seq2(0)
        if choice == "iter":
            v = self.fresh("x")
            dom = self.gen_seq(d - 1)
            body = self._scoped(v, INT, lambda: self.gen_seq(d - 1))
            return Node(SEQ2, f"[{v} <- ({{0}}): ({{1}})]", (dom, body))
        if choice == "over":
            # map over an existing nested sequence (row var in scope)
            v = self.fresh("row")
            dom = self.gen_seq2(d - 1)
            body = self._scoped(v, SEQ, lambda: self.gen_seq(d - 1))
            return Node(SEQ2, f"[{v} <- ({{0}}): ({{1}})]", (dom, body))
        if choice == "dist":
            return Node(SEQ2, "dist(({0}), (({1}) mod 4))",
                        (self.gen_seq(d - 1), self.gen_int(d - 1)))
        if choice == "concat":
            return Node(SEQ2, "concat(({0}), ({1}))",
                        (self.gen_seq2(d - 1), self.gen_seq2(d - 1)))
        return Node(SEQ2, "[({0}), ({1})]",
                    (self.gen_seq(d - 1), self.gen_seq(d - 1)))


def _gen_helper(rng: random.Random, name: str) -> str:
    """A non-recursive helper ``fun name(x, r) = <int expr>`` over an int
    and a seq(int) parameter; called from inside iterator bodies to
    exercise parallel-extension synthesis."""
    g = _Gen(rng)
    g.env = [("x", INT), ("r", SEQ)]
    body = g.gen_int(rng.randrange(1, 3))
    return f"fun {name}(x, r) = {body.render()}"


def _gen_args(rng: random.Random) -> tuple:
    def seq():
        return [rng.randrange(-9, 10) for _ in range(rng.randrange(0, 9))]
    out = []
    for _name, t in PARAMS:
        if t == INT:
            out.append(rng.randrange(-9, 10))
        elif t == SEQ:
            out.append(seq())
        else:
            out.append([seq()[:rng.randrange(0, 6)]
                        for _ in range(rng.randrange(0, 5))])
    return tuple(out)


def gen_case(seed: int, max_depth: int = 4) -> FuzzCase:
    """Deterministically generate one program + inputs from ``seed``."""
    rng = random.Random(seed)
    helpers = []
    names = []
    for i in range(rng.randrange(0, 3)):
        name = f"h{i}"
        helpers.append(_gen_helper(rng, name))
        names.append(name)
    g = _Gen(rng, helpers=names)
    root_t = rng.choice([INT, INT, SEQ, SEQ, BOOL, SEQ2])
    body = g.gen(root_t, rng.randrange(2, max_depth + 1))
    return FuzzCase(seed=seed, body=body, helpers=tuple(helpers),
                    args=_gen_args(rng))


#: the segmented folds, in catalog order
_FOLD_OPS = tuple(row for row in B.all_builtins().values() if row.fold)


def gen_fold_case(seed: int) -> FuzzCase:
    """Deterministically generate one ``red([x <- s: tree(x)])`` program +
    inputs from ``seed``: a segmented fold directly over a tree of
    unchecked elementwise primitives — the shape the ``fuse`` pass roots
    a region at, which :func:`gen_case` draws about once in 200 programs
    (its iterator bodies are clamped by ``mod``, a checked op and so a
    fusion barrier).  The fold sits at frame depth 0, 1 or 2, the tree
    reads the element, the entry's scalars and — at depth 2 — an outer
    iterator's variable, ints or (through ``real``) floats that every
    back end represents exactly; at most three factors multiply, so
    magnitudes stay int64-safe.  ``maxval``/``minval`` fold a domain
    with one element appended, so the program is total like
    :func:`gen_case`'s."""
    rng = random.Random(seed)
    row = rng.choice(_FOLD_OPS)
    red, boolean = row.name, row.arg_kinds == ("bool",)
    depth = rng.randrange(3)
    atoms = ["x", "x", "x", "a", "b"] + (["k"] if depth == 2 else [])

    def tree(d: int) -> str:
        if d <= 0:
            return rng.choice(atoms + [str(rng.randrange(-3, 4))])
        op = rng.choice(["+", "-", "*", "max2", "min2"])
        if op == "*":   # one factor is an atom: products stay small
            return f"(({tree(d - 1)}) * ({tree(0)}))"
        if op in ("max2", "min2"):
            return f"{op}(({tree(d - 1)}), ({tree(d - 1)}))"
        return f"(({tree(d - 1)}) {op} ({tree(d - 1)}))"

    body = tree(rng.randrange(1, 4))
    if not boolean and rng.random() < 0.3:
        body = f"(real({body}) * 0.5 + {rng.randrange(-2, 3)}.25)"
    if boolean:
        cmp = rng.choice(["<", "<=", "==", "!=", ">", ">="])
        body = f"(({body}) {cmp} ({tree(1)}))"
    dom = "concat(s, [a])" if row.strict else "s"
    fold = f"{red}([x <- {dom}: {body}])"
    text = [fold, f"[s <- ss: {fold}]",
            f"[s <- ss: [k <- t: {fold}]]"][depth]
    return FuzzCase(seed=seed, body=leaf(SEQ, text), helpers=(),
                    args=_gen_args(rng))


#: what a filter case's ``main`` receives
_FILTER_PARAMS = (("a", INT), ("ss", SEQ2), ("pp", SEQ2P))


def gen_filter_case(seed: int) -> FuzzCase:
    """Deterministically generate one program that is all pack and merge,
    + inputs, from ``seed``: per row of a ragged ``seq(seq(int))`` and of
    a ragged ``seq(seq((int, float)))`` (empty rows included), a tree of
    filtered iterators ``[x <- s | p(x): e]`` under data-dependent
    predicates, ``if`` under an iterator (R2d's ``restrict`` / ``combine``
    pair), ``concat``, two- and three-element sequence constructors, and
    ``seq_index`` by a constant and by a computed position — the
    order-preserving structural kernels, which :func:`gen_case` reaches
    only between clamps and folds.  Total like :func:`gen_case`'s: an
    index is guarded by a length test or taken modulo the length it reads,
    the only other divisors are literals, and magnitudes stay small (at
    most two factors; floats are small dyadic fractions)."""
    rng = random.Random(seed)
    fresh = map("v{}__".format, range(1, 1000))

    def const() -> int:
        return rng.randrange(-3, 4)

    def pred(x: str) -> str:
        return rng.choice([
            f"({x} < a)", f"({x} <= {const()})", f"(({x} mod 2) == 0)",
            f"(({x} * {x}) > (a + {const()}))", f"({x} != a)",
            f"(not ({x} < {const()}))", f"((({x} + a) mod 3) == 1)"])

    def elem(x: str) -> str:
        return rng.choice([x, f"({x} + a)", f"({x} * {const()})",
                           f"(a - {x})", f"({x} * {x})", f"({const()})"])

    def pair(p: str) -> str:
        return rng.choice([
            p, f"({p}.1 + a, {p}.2 * 0.5)", f"({p}.1 * {p}.1, {p}.2)",
            f"({const()}, {p}.2 + {const()}.25)", f"(a - {p}.1, 0.125)"])

    def ppred(p: str) -> str:
        return rng.choice([pred(f"{p}.1"), f"({p}.2 > 0.0)",
                           f"({p}.2 <= real({p}.1))",
                           f"({p}.2 * 0.5 < {const()}.5)"])

    def row(s: str, d: int, pred, elem, key) -> str:
        """A sequence of the row variable ``s``'s own type, computed from
        it: ``pred(x)`` and ``elem(x)`` render a predicate on and a new
        element from the element variable ``x``, ``key(x)`` its int."""
        x = next(fresh)
        form = rng.choice(["filter", "if"] if d <= 0 else
                          ["filter", "if", "concat", "cons2", "cons3",
                           "elems", "picked"])
        if form == "filter":
            return f"[{x} <- {s} | {pred(x)}: {elem(x)}]"
        if form == "if":
            return f"[{x} <- {s}: if {pred(x)} then {elem(x)} else {elem(x)}]"
        if form == "elems":     # constructors of elements under the filter
            items = ", ".join(elem(x) for _ in range(rng.randrange(2, 4)))
            return f"flatten([{x} <- {s} | {pred(x)}: [{items}]])"
        subs = [row(s, d - 1, pred, elem, key)
                for _ in range({"picked": 1, "cons3": 3}.get(form, 2))]
        if form == "concat":
            return f"concat({subs[0]}, {subs[1]})"
        if form == "cons2":     # a constant position in a two-row constructor
            return f"[{subs[0]}, {subs[1]}][{rng.randrange(1, 3)}]"
        if form == "cons3":     # a data position in a three-row constructor
            return f"[{', '.join(subs)}][1 + ((a * a + #{s}) mod 3)]"
        r = next(fresh)         # picked: seq_index against another pack
        if rng.random() < 0.5:
            k = rng.randrange(1, 4)
            got = f"if #{r} < {k} then {elem(x)} else {r}[{k}]"
        else:
            got = (f"if #{r} == 0 then {elem(x)} else "
                   f"{r}[1 + (({key(x)} * {key(x)} + a * a) mod #{r})]")
        return f"(let {r} = {subs[0]} in [{x} <- {s} | {pred(x)}: {got}])"

    ints = row("s", rng.randrange(1, 4), pred, elem, str)
    pairs = row("r", rng.randrange(1, 3), ppred, pair, "{}.1".format)
    helper = f"fun packed(r: seq((int, float)), a) =\n  {pairs}"
    body = f"([s <- ss: {ints}], [r <- pp: packed(r, a)])"

    def ragged(item) -> list:
        return [[item() for _ in range(rng.choice((0, 0, 1, 2, 3, 5, 8)))]
                for _ in range(rng.randrange(0, 6))]
    args = (rng.randrange(-9, 10),
            ragged(lambda: rng.randrange(-9, 10)),
            ragged(lambda: (rng.randrange(-9, 10),
                            rng.randrange(-16, 17) / 8)))
    return FuzzCase(seed=seed, body=leaf(SEQ2, body), helpers=(helper,),
                    args=args, params=_FILTER_PARAMS)
