"""Shape classes of a transformed program's primitive sites.

The strict guard (``check=True``) re-validates the descriptor invariant
``#V_{i+1} = sum(V_i)`` on *every* value crossing a kernel or backend
boundary.  Much of that work is provably redundant, and which part is a
fact about each primitive, stated once in the catalog
(:func:`repro.lang.builtins.shape_class`):

* **static** — the result's descriptors are inherited, projected, or
  constructed-to-size from its arguments (elementwise ops, scans,
  reductions, ``length``, ``range``/``range1``, ``__rep``, tuple
  wrappers, fused chains): valid arguments give a valid result.

* **runtime** — the kernel *computes* new descriptors via pooled
  gather/scatter index arithmetic (``seq_index``, ``restrict``,
  ``combine``, ``dist``, ``flatten``, ``concat``, ``permute``, ...).
  These are exactly the sites where the runtime fault-injection sites
  live; their boundary check is load-bearing.

Arguments, literals and every runtime-class result (its retained check
establishes the invariant) are valid, so by induction every value is,
and so is every user function's result: a call-boundary re-check proves
nothing either.  ``run(..., check="static")`` therefore skips the
re-check of every static-class kernel and of every call boundary, and
keeps the rest; benchmark E16 measures the effect.  This module lists
the sites of one program for ``repro analyze``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.lang import ast as A
from repro.lang import builtins as B

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.transform.pipeline import TransformedProgram

__all__ = ["Site", "DefFacts", "ShapeAnalysis", "analyze_shapes"]


@dataclass(frozen=True)
class Site:
    """Classification of one primitive application site."""

    fn: str
    depth: int
    cls: str      # "static" | "runtime"
    reason: str


@dataclass
class DefFacts:
    """The primitive sites of one transformed definition, in evaluation
    order."""

    name: str
    sites: list[Site] = field(default_factory=list)


@dataclass
class ShapeAnalysis:
    """Whole-program result: per-def sites plus the check sites
    ``check="static"`` skips (``kernel:<name>`` of each static-class
    site, ``call:<def>`` of every definition)."""

    defs: dict[str, DefFacts]
    discharged: frozenset[str]

    def counts(self) -> tuple[int, int]:
        """(static sites, runtime sites) across all definitions."""
        st = sum(1 for d in self.defs.values()
                 for s in d.sites if s.cls == "static")
        rt = sum(1 for d in self.defs.values()
                 for s in d.sites if s.cls == "runtime")
        return st, rt


def _sites(tp: "TransformedProgram", e: A.Expr, out: list[Site]) -> None:
    """Append the sites of ``e`` in post-order: a node's arguments, in
    evaluation order, before the node."""
    for c in A.children(e):
        _sites(tp, c, out)
    if isinstance(e, A.ExtCall) and e.fn not in tp.typed.mono_defs:
        fold = None
        if tp.fusion is not None and e.fn in tp.fusion.trees:
            tree = tp.fusion.trees[e.fn]
            fold = B.get_builtin(tree[1]).fold if tree[0] == "fold" else None
        cls, reason = B.shape_class(e.fn, fold)
        out.append(Site(e.fn, e.depth, cls, reason))


def analyze_shapes(tp: "TransformedProgram") -> ShapeAnalysis:
    """List and classify the sites of a transformed program (memoized on
    the program object)."""
    cached = getattr(tp, "_shape_analysis", None)
    if cached is not None:
        return cached  # type: ignore[no-any-return]
    from repro.obs import runtime as _obs
    with _obs.span("analyze:shapes"):
        defs = {}
        for name, d in tp.defs.items():
            defs[name] = DefFacts(name)
            _sites(tp, d.body, defs[name].sites)
        discharged = frozenset(
            {f"kernel:{s.fn}" for f in defs.values() for s in f.sites
             if s.cls == "static"} | {f"call:{name}" for name in defs})
        out = ShapeAnalysis(defs, discharged)
    tp._shape_analysis = out  # type: ignore[attr-defined]
    return out
