"""Elementwise fusion (extension; the direction of section 6's
"improvements to the transformations that yield more efficient code").

A chain of elementwise operations at the same depth, e.g. the transformed
body ``add^1(mul^1(x, x), __rep^1(w, 1))``, executes as several full-width
vector ops.  On the vector model each op costs a latency plus a sweep, so
fusing the chain into *one* op reduces the step count (and, on the NumPy
substrate, intermediate materialization).

The pass collects maximal trees of same-depth elementwise ``ExtCall``s,
replaces each by ``ExtCall("__fused<k>", leaves, depth)``, and records the
op tree in a :class:`FusionRegistry` carried by the transformed program.
The shared ``Applier`` evaluates a fused op by running the tree directly on
the flat value arrays of the leaf frames.

Fusion boundary
---------------

Only genuinely elementwise primitives participate: the ``elementwise``
flag in the builtin table, **minus the checked ops** ``div``, ``mod``,
``fdiv`` and ``sqrt_`` (``_UNSAFE``, the builtin table's
``CHECKED_ELEMENTWISE``).  Those four raise
``PValueError`` on bad operands — division by zero, a negative square
root — and the report must carry the *original* source location and
operand value.  Inside a fused kernel the intermediate that feeds the
check never materializes, so a checked op fused into a tree would either
lose the faulting value or fire at a different program point.  They
therefore stay unfused and act as fusion *barriers*: a chain like
``mul → div → add`` fuses the segments on each side of the ``div`` but
never across it, and the error message of a failing ``div`` is
byte-identical whether fusion is enabled or not
(``tests/transform/test_fusion_boundary.py`` pins both properties).

The same boundary applies to the native backend: fused regions handed to
``repro.native`` contain only unchecked elementwise ops, so a compiled C
kernel can never mask or reorder a Python-level check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from repro.lang import ast as A
from repro.lang import builtins as B

#: the checked ops stay unfused (their error reporting must fire exactly as
#: unfused execution would — div/mod/fdiv and sqrt_ raise on bad operands);
#: membership is defined once, in the builtin table, and shared with the
#: simplifier's hoisting rule
_UNSAFE = B.CHECKED_ELEMENTWISE

#: elementwise primitives safe to fuse: every unchecked one
_fusable_prim = B.is_unchecked_elementwise


#: A fused op tree: ("arg", k) selects leaf k; ("prim", name, children)
#: applies an elementwise primitive.
Tree = Union[tuple]


_NUMPY_FN = {
    "add": np.add, "sub": np.subtract, "mul": np.multiply,
    "max2": np.maximum, "min2": np.minimum, "neg": np.negative,
    "abs_": np.abs, "eq": np.equal, "ne": np.not_equal, "lt": np.less,
    "le": np.less_equal, "gt": np.greater, "ge": np.greater_equal,
    "and_": np.logical_and, "or_": np.logical_or, "not_": np.logical_not,
    "real": lambda a: a.astype(np.float64),
    "trunc_": lambda a: np.trunc(a).astype(np.int64),
    "round_": lambda a: np.rint(a).astype(np.int64),
    "floor_": lambda a: np.floor(a).astype(np.int64),
    "ceil_": lambda a: np.ceil(a).astype(np.int64),
}


def eval_tree(tree: Tree, leaves: list[np.ndarray]) -> np.ndarray:
    """Evaluate a fused op tree over the leaf value arrays."""
    tag = tree[0]
    if tag == "arg":
        return leaves[tree[1]]
    _tag, name, children = tree
    if name == "__rep":
        # __rep(witness, value): the replicated value is the second child
        return eval_tree(children[1], leaves)
    return _NUMPY_FN[name](*(eval_tree(c, leaves) for c in children))


def result_kind(tree: Tree, leaf_kinds: list[str]) -> str:
    """Leaf kind of the tree's result (bool for comparisons/logic, else
    inherited)."""
    tag = tree[0]
    if tag == "arg":
        return leaf_kinds[tree[1]]
    _tag, name, children = tree
    if name in ("eq", "ne", "lt", "le", "gt", "ge", "and_", "or_", "not_"):
        return "bool"
    if name in ("real",):
        return "float"
    if name in ("trunc_", "round_", "floor_", "ceil_"):
        return "int"
    if name == "__rep":
        return result_kind(children[1], leaf_kinds)
    return result_kind(children[0], leaf_kinds)


@dataclass
class FusionRegistry:
    """Op trees for the ``__fused<k>`` primitives of one program."""

    trees: dict[str, Tree] = field(default_factory=dict)
    _counter: int = 0

    def register(self, tree: Tree) -> str:
        """Intern one fused op tree under a fresh ``__fused<k>`` name
        (the elementwise composition replacing a primitive chain)."""
        name = f"__fused{self._counter}"
        self._counter += 1
        self.trees[name] = tree
        return name

    def __contains__(self, name: str) -> bool:
        return name in self.trees

    def size(self, name: str) -> int:
        """Number of primitive applications fused into ``name``."""
        def count(t: Tree) -> int:
            if t[0] == "arg":
                return 0
            return 1 + sum(count(c) for c in t[2])
        return count(self.trees[name])


def fuse_expr(e: A.Expr, registry: FusionRegistry) -> A.Expr:
    """Bottom-up fusion over one transformed (iterator-free) body."""
    e = A.map_children(e, lambda c: fuse_expr(c, registry))

    if not (isinstance(e, A.ExtCall) and _is_fusable_root(e, registry)):
        return e

    leaves: list[A.Expr] = []
    depths: list[int] = []

    def build(node: A.Expr, fd: int) -> Tree:
        # the frame depth of every sub-argument is recorded on its parent
        # call's arg_depths, so thread it down instead of guessing
        if isinstance(node, A.ExtCall) and node.depth == e.depth:
            if _fusable_prim(node.fn) or node.fn == "__rep":
                return ("prim", node.fn,
                        tuple(build(a, f)
                              for a, f in zip(node.args, node.arg_depths)))
            if node.fn in registry:
                # inline an already-fused subtree (children fused first)
                return _remap(registry.trees[node.fn], node, build)
        k = len(leaves)
        leaves.append(node)
        depths.append(fd)
        return ("arg", k)

    tree = build(e, e.depth)
    # fusing a single prim buys nothing; require at least two
    if _prim_count(tree) < 2 or not leaves:
        return e
    if all(d == 0 for d in depths):
        return e  # would change the node's depth classification
    name = registry.register(tree)
    out = A.ExtCall(name, leaves, e.depth, depths)
    out.type = e.type
    out.line, out.col = e.line, e.col
    return out


def _is_fusable_root(e: A.ExtCall, registry: FusionRegistry) -> bool:
    if e.depth < 1 or not _fusable_prim(e.fn) or e.fn == "__rep":
        return False
    # only worth it if some argument is itself a fusable elementwise call
    # (or an already-fused op we can inline)
    return any(isinstance(a, A.ExtCall) and a.depth == e.depth
               and (_fusable_prim(a.fn) or a.fn == "__rep" or a.fn in registry)
               for a in e.args)


def _remap(sub: Tree, call: A.ExtCall, build) -> Tree:
    """Inline ``sub`` (the tree of an earlier fused op) at a call site:
    every ("arg", k) becomes the built form of the call's k-th argument."""
    if sub[0] == "arg":
        k = sub[1]
        return build(call.args[k], call.arg_depths[k])
    _tag, name, children = sub
    return ("prim", name, tuple(_remap(c, call, build) for c in children))


def _prim_count(tree: Tree) -> int:
    if tree[0] == "arg":
        return 0
    name = tree[1]
    n = 0 if name == "__rep" else 1
    return n + sum(_prim_count(c) for c in tree[2])
