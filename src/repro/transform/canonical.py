"""Iterator canonical form — the paper's rule R1 plus the filtered-iterator
desugaring of section 2.

R1 (section 3.1): an iterator is canonical when its domain is ``[1..e]``::

    [x <- e1: e2]  ==>  let v = e1 in [i <- [1..#v]: e2[x := v[i]]]

Filtered form (section 2)::

    [x <- d | b: e]  ==>  let T = restrict(d, [x <- d: b])
                          in [t <- T: e[x := t]]

Both are *source-to-source*: canonicalization runs on the untyped parse so
that the subsequent type check annotates the generated nodes like any other
code.  The functions they call (``range``, ``length``, ``seq_index``,
``restrict``) are :func:`~repro.lang.ast.builtin_ref` s: a program that
defines or binds one of those names does not capture them.  Domains that
are already literally ``[1..e]`` with a constant lower bound 1 are left
untouched, unless the program defines its own ``range`` (docs/LANGUAGE.md).
"""

from __future__ import annotations

from repro.lang import ast as A
from repro.lang.prelude import built_image
from repro.transform.trace import NullTrace, Trace


def is_canonical_domain(d: A.Expr, user_range: bool = False) -> bool:
    """True for a literal ``range(1, e)`` domain whose ``range`` is the
    builtin: always what R1 generates, and what the source wrote unless
    ``user_range`` (the program defines ``range``)."""
    return (isinstance(d, A.Call)
            and isinstance(d.fn, A.Var) and d.fn.name == "range"
            and (d.fn.origin == A.BUILTIN or not user_range)
            and len(d.args) == 2
            and isinstance(d.args[0], A.IntLit) and d.args[0].value == 1)


def _call(name: str, *args: A.Expr) -> A.Call:
    return A.Call(A.builtin_ref(name), list(args))


def canonicalize_expr(e: A.Expr, trace: Trace | None = None,
                      user_range: bool = False) -> A.Expr:
    """Recursively rewrite ``e`` so every iterator is canonical and
    filter-free (``user_range``: the program defines ``range``)."""
    trace = trace or NullTrace()
    e = A.map_children(e, lambda c: canonicalize_expr(c, trace, user_range))

    if not isinstance(e, A.Iter):
        return e

    # Step 1: desugar the filter (section 2); bind the domain once
    if e.filter is not None:
        dv = A.fresh_name("d")
        t = A.fresh_name("T")
        tv = A.fresh_name(e.var)
        mask = A.Iter(e.var, A.Var(dv), e.filter, None)
        restricted = _call("restrict", A.Var(dv), mask)
        body = A.substitute(e.body, {e.var: A.Var(tv)})
        new = A.Let(dv, e.domain,
                    A.Let(t, restricted, A.Iter(tv, A.Var(t), body, None)))
        new.line, new.col = e.line, e.col
        trace.record("filter", e, new)
        # the generated iterators may themselves need R1
        return canonicalize_expr(new, trace, user_range)

    # Step 2: R1 for non-range domains.  The paper substitutes v[i] for
    # every occurrence of x; binding it once (let x = v[i] in e2) is
    # equivalent in a pure language and avoids duplicating the indexing
    # when x occurs several times.
    if is_canonical_domain(e.domain, user_range):
        return e
    v = A.fresh_name("v")
    i = A.fresh_name("i")
    elem = _call("seq_index", A.Var(v), A.Var(i))
    body = A.Let(e.var, elem, e.body)
    domain = _call("range", A.IntLit(1), _call("length", A.Var(v)))
    new = A.Let(v, e.domain, A.Iter(i, domain, body, None))
    new.line, new.col = e.line, e.col
    trace.record("R1", e, new)
    return new


def canonicalize_def(d: A.FunDef, trace: Trace | None = None,
                     user_range: bool = False) -> A.FunDef:
    """Rewrite one definition's body to canonical iterator form (R1)."""
    return A.FunDef(name=d.name, params=list(d.params),
                    body=canonicalize_expr(d.body, trace, user_range),
                    param_types=d.param_types, ret_type=d.ret_type,
                    line=d.line, col=d.col)


def canonicalize_program(p: A.Program, trace: Trace | None = None) -> A.Program:
    """Canonicalize every definition of a program (pre-typecheck).  One of
    the prelude image's own parsed definitions maps to the image's
    canonical form of it (no rewrite, no trace entry), unless the program
    defines ``range``, which the image's ``[1..e]`` domains do not call;
    the rest are rewritten here."""
    user_range = "range" in p
    image = built_image()
    return A.Program({
        d.name: (not user_range and image.canonical_of(d))
        or canonicalize_def(d, trace, user_range)
        for d in p})
