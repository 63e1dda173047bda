"""Elementwise fusion (extension; the direction of section 6's
"improvements to the transformations that yield more efficient code").

A chain of elementwise operations at the same depth, e.g. the transformed
body ``add^1(mul^1(x, x), __rep^1(w, 1))``, executes as several full-width
vector ops.  On the vector model each op costs a latency plus a sweep, so
fusing the chain into *one* op reduces the step count (and, on the NumPy
substrate, intermediate materialization).

The pass collects maximal trees of same-depth elementwise ``ExtCall``s,
replaces each by ``ExtCall("__fused<k>", leaves, depth)``, and records the
op tree in a :class:`FusionRegistry` carried by the transformed program —
one tree per call site, and no tree nothing calls.  The shared ``Applier``
evaluates a fused op by running the tree directly on the flat value arrays
of the leaf frames.

A region may end in a segmented fold
-----------------------------------

When the argument expression of ``sum``, ``maxval``, ``minval``,
``anytrue``, ``alltrue``, ``plus_scan`` or ``max_scan`` at depth ``d`` is
itself such a tree at depth ``d+1`` (through the ``let`` bindings of that
argument, which float out), the fold is the tree's only reader and the
pair becomes one op: ``sum^d(add^(d+1)(mul^(d+1)(x, x), k))`` is
``__fused<k>^d(x, x, k)`` with the registry tree
``("fold", "sum", (("prim", "add", ...),))``.  The elements of an
unchecked elementwise tree are independent of one another, so each may be
computed where the fold consumes it: what the fold reads is never made.
At the call site the element streams (the leaves that were at depth
``d+1``) are consumed at frame depth ``d``, as a frame of sequences; what
the region replicated stays a per-call scalar.  At ``d = 0`` both read
depth 0, so :attr:`FusionRegistry.streams` records with the tree which
leaves are streams.  A ``let``-bound producer with two readers is not the
fold's argument expression and stays materialised.

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
from typing import Optional, Sequence, Union

import numpy as np

from repro.lang import ast as A
from repro.lang import builtins as B
from repro.vector.ops import UFUNCS

#: the checked ops stay unfused (their error reporting must fire exactly as
#: unfused execution would — div/mod/fdiv and sqrt_ raise on bad operands);
#: membership is defined once, in the builtin table, and shared with the
#: simplifier's hoisting rule
_UNSAFE = B.CHECKED_ELEMENTWISE

#: elementwise primitives safe to fuse: every unchecked one
_fusable_prim = B.is_unchecked_elementwise


#: A fused op tree: ("arg", k) selects leaf k; ("prim", name, children)
#: applies an elementwise primitive; ("fold", name, (tree,)), at the root
#: only, folds every segment of the tree's elements with segmented
#: primitive ``name``.
Tree = Union[tuple]


def eval_tree(tree: Tree, leaves: list[np.ndarray]) -> np.ndarray:
    """Evaluate a fused op tree over the leaf value arrays."""
    tag = tree[0]
    if tag == "arg":
        return leaves[tree[1]]
    _tag, name, children = tree
    if name == "__rep":
        # __rep(witness, value): the replicated value is the second child
        return eval_tree(children[1], leaves)
    return UFUNCS[name](*(eval_tree(c, leaves) for c in children))


def read_leaves(tree: Tree) -> tuple[int, ...]:
    """The leaves :func:`eval_tree` reads, in index order: every one but
    the witness of a ``__rep``."""
    out: set[int] = set()
    todo = [tree]
    while todo:
        t = todo.pop()
        if t[0] == "arg":
            out.add(t[1])
        else:
            todo.extend(t[2][1:] if t[1] == "__rep" else t[2])
    return tuple(sorted(out))


def tree_kind(tree: Tree, leaf_kinds: Sequence[Optional[str]]
              ) -> Optional[str]:
    """Leaf kind of the tree's result: each node's catalog row fixes it or
    names the operand it is inherited from (None when that leaf's kind is
    unknown).  A fold root reads its row like any other node."""
    while tree[0] != "arg":
        row = B.get_builtin(tree[1])
        if row.kind_from is None:
            return row.result_kind
        tree = tree[2][row.kind_from]
    return leaf_kinds[tree[1]]


@dataclass
class FusionRegistry:
    """Op trees for the ``__fused<k>`` primitives of one program: exactly
    the trees some ``ExtCall`` names."""

    trees: dict[str, Tree] = field(default_factory=dict)
    #: per fold-rooted tree, the leaves that are element streams (frames
    #: of sequences at the call depth); its other leaves are per-call
    #: scalars.  The call site cannot say: at depth 0 both read depth 0.
    streams: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def register(self, tree: Tree, streams: tuple[int, ...] = ()) -> str:
        """Intern one fused op tree under a fresh ``__fused<k>`` name
        (the composition replacing a primitive chain)."""
        name = f"__fused{len(self.trees)}"
        self.trees[name] = tree
        if tree[0] == "fold":
            self.streams[name] = streams
        return name

    def __contains__(self, name: str) -> bool:
        return name in self.trees

    def size(self, name: str) -> int:
        """Number of primitive applications fused into ``name`` (a fold
        root is one)."""
        def count(t: Tree) -> int:
            if t[0] == "arg":
                return 0
            return 1 + sum(count(c) for c in t[2])
        return count(self.trees[name])


def fuse_expr(e: A.Expr, registry: FusionRegistry) -> A.Expr:
    """Top-down fusion over one transformed (iterator-free) body: a call
    that can root a region takes the maximal tree below it, and fusion
    continues in the region's leaves."""
    if isinstance(e, A.ExtCall):
        row = B.lookup(e.fn)
        fold = row is not None and row.fold is not None and len(e.args) == 1
        top = e.args[0] if fold else e
        lets = []
        while fold and isinstance(top, A.Let):
            # fold(let x = b in t) is let x = b in fold(t): the bindings
            # of the fold's only argument float out of the region
            lets.append(top)
            top = top.body
        if isinstance(top, A.ExtCall) and top.depth == e.depth + fold \
                and top.depth >= 1 and _fusable_prim(top.fn):
            fused = _fuse_region(e, top, fold, registry)
            if fused is not None:
                for let in reversed(lets):
                    fused = A.Let(let.var, fuse_expr(let.bound, registry),
                                  fused)
                    fused.type = e.type
                return fused
    return A.map_children(e, lambda c: fuse_expr(c, registry))


def _fuse_region(e: A.ExtCall, top: A.ExtCall, fold: bool,
                 registry: FusionRegistry) -> Optional[A.ExtCall]:
    """The ``__fused<k>`` call replacing ``e``: the elementwise tree under
    ``top``, below the fold ``e`` when ``fold`` (``top`` is then its
    argument, one level deeper).  None when the region is not worth a
    kernel."""
    leaves: list[A.Expr] = []
    depths: list[int] = []

    def build(node: A.Expr, fd: int) -> Tree:
        # the frame depth of every sub-argument is recorded on its parent
        # call's arg_depths, so thread it down instead of guessing
        if isinstance(node, A.ExtCall) and node.depth == top.depth \
                and (_fusable_prim(node.fn) or node.fn == "__rep"):
            return ("prim", node.fn,
                    tuple(build(a, f)
                          for a, f in zip(node.args, node.arg_depths)))
        leaves.append(node)
        depths.append(fd)
        return ("arg", len(leaves) - 1)

    tree = build(top, top.depth)
    # fusing a single prim buys nothing; require two (a fold root is one)
    if _prim_count(tree) + fold < 2:
        return None
    if all(d == 0 for d in depths):
        return None  # would change the node's depth classification
    if fold:
        # the element streams are consumed at the fold's depth, as a frame
        # of sequences; what the region replicated stays a per-call scalar
        streams = tuple(k for k, d in enumerate(depths) if d == top.depth)
        depths = [e.depth if d == top.depth else d for d in depths]
        name = registry.register(("fold", e.fn, (tree,)), streams)
    else:
        name = registry.register(tree)
    out = A.ExtCall(name, [fuse_expr(leaf, registry) for leaf in leaves],
                    e.depth, depths)
    out.type = e.type
    out.line, out.col = e.line, e.col
    return out


def _prim_count(tree: Tree) -> int:
    if tree[0] == "arg":
        return 0
    name = tree[1]
    n = 0 if name == "__rep" else 1
    return n + sum(_prim_count(c) for c in tree[2])
