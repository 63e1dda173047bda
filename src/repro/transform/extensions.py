"""Synthesis of depth-1 parallel extensions of user functions.

Section 3: "if g is defined as fun(x1,...,xn) = e, then g^d can be derived
from g by enclosing e within d iterators that enumerate the elements of the
arguments at depth d."  Section 4.3 then shows d = 1 suffices (rule T1
collapses d >= 2 onto f^1 via extract/insert), so we synthesize only f^1::

    fun f^1(V1, ..., Vn) =
      [i <- [1 .. #V1]: let x1 = V1[i], ..., xn = Vn[i] in body]

— exactly the paper's step {R0} in the section-5 example — and feed it back
through the eliminator.  The wrapper is built directly in typed form.
"""

from __future__ import annotations

from repro.errors import TransformError
from repro.lang import ast as A
from repro.lang import types as T


def ext1_name(mono_name: str) -> str:
    """Name of the depth-1 extension of ``mono_name`` (printed as in §5)."""
    return f"{mono_name}^1"


def synthesize_ext1(d: A.FunDef) -> A.FunDef:
    """Build the (typed, canonical, not yet iterator-free) wrapper for f^1."""
    if not d.params:
        raise TransformError(
            f"{d.name} has no parameters; a depth-1 extension has no frame "
            "to enumerate (zero-arg functions are dispatched at depth 0)")
    if d.param_types is None or d.ret_type is None:
        raise TransformError(f"{d.name} is not monomorphized")

    vs = [A.fresh_name("V") for _ in d.params]
    iv = A.fresh_name("i")

    def var(name: str, t: T.Type) -> A.Var:
        v = A.Var(name)
        v.type = t
        return v

    def builtin(name: str, t: T.Type) -> A.Var:
        v = A.builtin_ref(name)
        v.type = t
        return v

    # let x_k = V_k[i] in ... body
    inner: A.Expr = A.clone(d.body)
    for p, vname, pt in reversed(list(zip(d.params, vs, d.param_types))):
        ix = A.Call(builtin("seq_index", T.TFun((T.TSeq(pt), T.INT), pt)),
                    [var(vname, T.TSeq(pt)), var(iv, T.INT)])
        ix.type = pt
        let = A.Let(p, ix, inner)
        let.type = inner.type if inner.type is not None else d.ret_type
        inner = let

    # domain [1 .. #V1]
    seq0 = T.TSeq(d.param_types[0])
    length = A.Call(builtin("length", T.TFun((seq0,), T.INT)),
                    [var(vs[0], seq0)])
    length.type = T.INT
    one = A.IntLit(1)
    one.type = T.INT
    dom = A.Call(builtin("range", T.TFun((T.INT, T.INT), T.TSeq(T.INT))),
                 [one, length])
    dom.type = T.TSeq(T.INT)

    it = A.Iter(iv, dom, inner, None)
    it.type = T.TSeq(d.ret_type)

    return A.FunDef(
        name=ext1_name(d.name),
        params=vs,
        body=it,
        param_types=[T.TSeq(pt) for pt in d.param_types],
        ret_type=T.TSeq(d.ret_type),
        line=d.line, col=d.col)
