"""Vector-level optimizations (paper section 4.5), as rewrite patterns.

1. **Shared arguments** (§4.5, :class:`SharedIndexPattern`) — "Consider
   the function seq_index.  If the source parameter is fixed relative to
   the surrounding iterators, there is no need to replicate it...  We can
   avoid such waste by not always replicating depth 0 argument frames."
   An ``ExtCall`` of ``seq_index`` at depth >= 1 whose source argument has
   frame depth 0 is rewritten to the internal ``__seq_index_shared``
   primitive, whose kernel indexes the single shared sequence directly.

2. **Native derived functions** (§4.5, :class:`NativeReducePattern`) —
   "it would be advantageous to increase the set of predefined functions
   in V": applications of the prelude ``reduce`` whose function argument
   is a known associative builtin are rewritten to the corresponding
   native segmented reduction (``sum``, ``maxval``, ``minval``).  (The
   native ``flatten``/``concat`` primitives themselves are always
   available; benchmark E11 compares them with the P-level
   ``flatten_p``/``concat_p``.)

3. **Segment-shared arguments** (generalized §4.5,
   :class:`SegSharedIndexPattern`) — eliminate the iterator-entry
   ``dist`` of a sequence the body only ever indexes, gathering from each
   element's own segment instead of replicating.

4. **Iteration is a view** (:func:`rewrite_identity_gather`) — the
   iterator-entry gather that rules 1 and 3 leave behind for ``[x <- v:
   ...]`` indexes ``v`` by ``range1(length(v))``: the identity.  It is
   rewritten to the zero-cost view ``__iter^j(v)``, at every depth.

Rules 1-3 are :class:`~repro.passes.pattern.RewritePattern` s, applied by
the ``optimize`` pass (:mod:`repro.passes.builtin`) as one bottom-up
sweep per rule; rule 4 needs the let bindings in scope, so it is one
scoped top-down sweep.  All are local and type-preserving, and each can
be toggled for the ablation benchmarks (E11).  The ``rewrite_*`` entry
points below apply one sweep of the corresponding rule.
"""

from __future__ import annotations

from typing import Optional

from repro.lang import ast as A
from repro.passes.pattern import RewritePattern

#: reduce's builtin function argument -> native segmented reduction (§4.5)
_NATIVE_REDUCTIONS = {"add": "sum", "max2": "maxval", "min2": "minval"}


def _base_name(mono: str) -> str:
    """Strip the monomorphization suffix: ``reduce$2`` -> ``reduce``
    (monomorphization mangles per instance; §4.5 matches the base)."""
    return mono.split("$", 1)[0]


class SharedIndexPattern(RewritePattern):
    """§4.5 pt. 1: ``seq_index^d`` (d >= 1) with a frame-depth-0 source
    becomes ``__seq_index_shared`` — index the one shared sequence
    instead of replicating it into the frame."""

    def match_and_rewrite(self, e: A.Expr) -> Optional[A.Expr]:
        """Fire on a depth->=1 ``seq_index`` whose source stayed at
        frame depth 0 (the paper's fixed-relative-to-the-iterators
        case)."""
        if (isinstance(e, A.ExtCall) and e.fn == "seq_index"
                and e.depth >= 1 and e.arg_depths and e.arg_depths[0] == 0
                and e.arg_depths[1] == e.depth):
            out = A.ExtCall("__seq_index_shared", e.args, e.depth,
                            list(e.arg_depths))
            return self.copy_meta(out, e)
        return None


class NativeReducePattern(RewritePattern):
    """§4.5 pt. 2: ``reduce(add|max2|min2, v)`` becomes the native
    segmented reduction (``sum``/``maxval``/``minval``)."""

    def match_and_rewrite(self, e: A.Expr) -> Optional[A.Expr]:
        """Fire on a ``reduce`` application whose function argument is a
        known associative builtin (§4.5's "increase the set of
        predefined functions in V")."""
        if (isinstance(e, A.ExtCall) and _base_name(e.fn) == "reduce"
                and len(e.args) == 2 and isinstance(e.args[0], A.Var)
                and e.args[0].name in _NATIVE_REDUCTIONS):
            out = A.ExtCall(_NATIVE_REDUCTIONS[e.args[0].name], [e.args[1]],
                            e.depth,
                            [e.arg_depths[1]] if e.arg_depths else [])
            return self.copy_meta(out, e)
        return None


class SegSharedIndexPattern(RewritePattern):
    """Generalized §4.5 no-replication: eliminate the iterator-entry
    ``dist`` of a variable that the body only ever *indexes*.

    The iterator rule (R2) rebinds every enclosing-bound variable to the
    frame depth: ``let v = dist^j(v, ib) in ... seq_index^{j+1}(v, i)
    ...``.  When the sequence is only indexed, replicating it costs
    O(sum(len_k^2)) elements; a segmented gather indexes each element's
    *own* segment directly.  Pattern: the let-bound dist over the
    same-named outer variable (exactly what the eliminator generates),
    with every use at ``seq_index`` source position at depth j+1.
    Rewrites the uses to the internal ``__seq_index_segshared`` (source
    one level shallower) and drops the dist.
    """

    def match_and_rewrite(self, e: A.Expr) -> Optional[A.Expr]:
        """Fire on the R2 iterator-entry rebinding ``let v = dist^j(v,
        ib) in body`` when ``body`` only indexes ``v``."""
        if not (isinstance(e, A.Let) and isinstance(e.bound, A.ExtCall)
                and e.bound.fn == "dist" and len(e.bound.args) == 2
                and isinstance(e.bound.args[0], A.Var)
                and e.bound.args[0].name == e.var  # the generated rebinding
                and e.bound.depth >= 1):
            return None
        j = e.bound.depth
        name = e.var
        ib = e.bound.args[1]
        ib_name = ib.name if isinstance(ib, A.Var) else None
        if not _only_indexed(e.body, name, j + 1,
                             allow_length=ib_name is not None):
            return None
        return _to_segshared(e.body, name, j, j + 1, ib_name)


# -- iteration is a view (§4.5 direction, rule 4) ----------------------------
#
# R2 opens every iterator over a sequence with ``let ib = length^j(v), iw =
# range1^j(ib), x = seq_index^{j+1}(v, iw)``, which rules 1 and 3 above turn
# into ``__seq_index_shared^1`` (j = 0) or ``__seq_index_segshared^{j+1}``
# (j >= 1): a full-size iota plus a full-size gather through the identity
# index vector.  Their result is *representation-identical* to ``v``: a
# sequence at frame depth j and the frame of its elements at depth j+1 are
# one ``NestedVector`` (same descriptor chain, same value pool).  The sweep
# below replaces the gather by the view ``__iter^j(v)``, whose execution is
# literally ``return v`` (``Applier.apply_named``); the ``ib``/``iw``
# bindings it leaves dead are removed by ``simplify``.

#: let-bound scaffolding the view rewrite chases through when resolving the
#: index operand back to ``range1^j(length^j(v))``
_TRANSPARENT = frozenset({"length", "range1"})


def rewrite_identity_gather(e: A.Expr) -> A.Expr:
    """Rewrite every identity iterator-entry gather to the view
    ``__iter^j(v)`` (§4.5 direction; see the comment above).  Sound for
    any element type: an identity gather returns its source's exact
    level structure, and ``range1(length(v))`` never indexes out of
    range, so no error is lost."""
    return _view(e, {})


def _view(e: A.Expr, env: dict[str, A.Expr]) -> A.Expr:
    if isinstance(e, A.Let):
        bound = _view(e.bound, env)
        # rebinding ``e.var`` invalidates every chased expression that
        # mentions it (shadowing would otherwise alias the wrong value)
        env2 = {k: v for k, v in env.items()
                if k != e.var and e.var not in A.free_vars(v)}
        if (isinstance(bound, A.Var) or (
                isinstance(bound, A.ExtCall) and bound.fn in _TRANSPARENT)) \
                and e.var not in A.free_vars(bound):
            env2[e.var] = bound
        out = A.Let(e.var, bound, _view(e.body, env2))
        out.type, out.line, out.col = e.type, e.line, e.col
        return out
    if isinstance(e, A.ExtCall) and _is_identity_gather(e, env):
        j = e.depth - 1
        out = A.ExtCall("__iter", [e.args[0]], j, [j])
        out.type, out.line, out.col = e.type, e.line, e.col
        return out
    return A.map_children(e, lambda c: _view(c, env))


def _resolve(e: A.Expr, env: dict[str, A.Expr]) -> A.Expr:
    """Chase a variable through the transparent let bindings in scope
    (bounded by the environment size, so alias cycles cannot loop)."""
    for _ in range(len(env) + 1):
        if isinstance(e, A.Var) and e.name in env:
            e = env[e.name]
        else:
            break
    return e


def _is_identity_gather(e: A.ExtCall, env: dict[str, A.Expr]) -> bool:
    """``__seq_index_shared^1(v, I)`` or ``__seq_index_segshared^{j+1}(v,
    I)`` whose index ``I`` resolves to ``range1^j(length^j(v))``."""
    j = e.depth - 1
    gather = "__seq_index_shared" if j == 0 else "__seq_index_segshared"
    if not (e.fn == gather and len(e.args) == 2
            and list(e.arg_depths) == [j, j + 1]):
        return False
    idx = _resolve(e.args[1], env)
    if not _is_unary(idx, "range1", j):
        return False
    ln = _resolve(idx.args[0], env)
    if not _is_unary(ln, "length", j):
        return False
    src, counted = _resolve(e.args[0], env), _resolve(ln.args[0], env)
    return isinstance(src, A.Var) and isinstance(counted, A.Var) \
        and src.name == counted.name


def _is_unary(e: A.Expr, fn: str, depth: int) -> bool:
    return isinstance(e, A.ExtCall) and e.fn == fn and e.depth == depth \
        and len(e.args) == 1 and list(e.arg_depths) == [depth]


def _only_indexed(e: A.Expr, name: str, depth: int,
                  allow_length: bool) -> bool:
    """True if every free occurrence of ``name`` in ``e`` is the source of a
    ``seq_index`` (or, when allowed, ``length``) at ``depth``, respecting
    shadowing — the side condition of the segment-shared §4.5 rewrite."""
    if isinstance(e, A.Var):
        return e.name != name  # a bare occurrence disqualifies
    if isinstance(e, A.ExtCall) and e.fn == "seq_index" and e.depth == depth \
            and isinstance(e.args[0], A.Var) and e.args[0].name == name:
        return all(_only_indexed(a, name, depth, allow_length)
                   for a in e.args[1:])
    if allow_length and isinstance(e, A.ExtCall) and e.fn == "length" \
            and e.depth == depth and isinstance(e.args[0], A.Var) \
            and e.args[0].name == name:
        return True
    if isinstance(e, A.Let):
        if not _only_indexed(e.bound, name, depth, allow_length):
            return False
        return True if e.var == name \
            else _only_indexed(e.body, name, depth, allow_length)
    if isinstance(e, A.Lambda):
        return True if name in e.params \
            else _only_indexed(e.body, name, depth, allow_length)
    if isinstance(e, A.Iter):  # pragma: no cover - post-transform ASTs only
        return False
    return all(_only_indexed(c, name, depth, allow_length)
               for c in A.children(e))


def _to_segshared(e: A.Expr, name: str, src_depth: int, depth: int,
                  ib_name) -> A.Expr:
    """Rewrite every indexing use of ``name`` to the segment-shared form
    (the replacement side of the generalized §4.5 rewrite)."""
    def rec(c: A.Expr) -> A.Expr:
        return _to_segshared(c, name, src_depth, depth, ib_name)
    if isinstance(e, A.ExtCall) and e.fn == "seq_index" and e.depth == depth \
            and isinstance(e.args[0], A.Var) and e.args[0].name == name:
        out = A.ExtCall("__seq_index_segshared",
                        [e.args[0], rec(e.args[1])],
                        depth, [src_depth, depth])
        out.type = e.type
        out.line, out.col = e.line, e.col
        return out
    if ib_name is not None and isinstance(e, A.ExtCall) and e.fn == "length" \
            and e.depth == depth and isinstance(e.args[0], A.Var) \
            and e.args[0].name == name:
        # length of the replicated sequences == the segment lengths,
        # distributed: dist^{src_depth}(length^{src_depth}(v), ib)
        from repro.lang.types import INT
        ln = A.ExtCall("length", [e.args[0]], src_depth, [src_depth])
        ln.type = INT
        ibv = A.Var(ib_name)
        out = A.ExtCall("dist", [ln, ibv], src_depth,
                        [src_depth, src_depth])
        out.type = e.type
        out.line, out.col = e.line, e.col
        return out
    if isinstance(e, A.Let) and e.var == name:
        # the bound expression still sees the outer binding; the body's
        # occurrences refer to the shadowing one and must stay
        e2 = A.Let(e.var, rec(e.bound), e.body)
        e2.type, e2.line, e2.col = e.type, e.line, e.col
        return e2
    if isinstance(e, A.Lambda) and name in e.params:
        return e
    return A.map_children(e, rec)
