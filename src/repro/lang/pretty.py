"""Pretty printer for P expressions and programs.

Re-sugars the parser's desugarings (``add`` back to ``+``, ``length`` to
``#``, ``seq_index`` to ``v[i]``, ``range`` to ``[a .. b]``) so transformed
programs print in the notation of the paper; parallel extensions print as
``f^j(...)`` exactly as in section 5.
"""

from __future__ import annotations

from repro.lang import ast as A

_INFIX = {
    "add": ("+", 4), "sub": ("-", 4), "mul": ("*", 5), "div": ("div", 5),
    "mod": ("mod", 5), "eq": ("==", 3), "ne": ("!=", 3), "lt": ("<", 3),
    "le": ("<=", 3), "gt": (">", 3), "ge": (">=", 3), "and_": ("and", 2),
    "or_": ("or", 1),
}

_ATOM_PREC = 100
_UNARY_PREC = 6


def pretty(e: A.Expr, indent: int = 0) -> str:
    """Render ``e`` in P concrete syntax."""
    return _pp(e, 0, indent)


def pretty_def(d: A.FunDef) -> str:
    """Render a function definition."""
    params = ", ".join(d.params)
    body = _pp(d.body, 0, 1)
    return f"fun {d.name}({params}) =\n  {body}"


def pretty_program(p: A.Program) -> str:
    """Render every definition of ``p``, blank-line separated."""
    return "\n\n".join(pretty_def(d) for d in p)


def _paren(s: str, inner_prec: int, outer_prec: int) -> str:
    return f"({s})" if inner_prec < outer_prec else s


def _pp(e: A.Expr, prec: int, ind: int) -> str:
    pad = "  " * ind

    if isinstance(e, A.Var):
        return e.name
    if isinstance(e, A.IntLit):
        return str(e.value)
    if isinstance(e, A.BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, A.FloatLit):
        return repr(e.value)
    if isinstance(e, A.SeqLit):
        return "[" + ", ".join(_pp(x, 0, ind) for x in e.items) + "]"
    if isinstance(e, A.TupleLit):
        return "(" + ", ".join(_pp(x, 0, ind) for x in e.items) + ")"
    if isinstance(e, A.TupleExtract):
        return f"{_pp(e.tup, _ATOM_PREC, ind)}.{e.index}"
    if isinstance(e, A.Lambda):
        return _paren(f"fn({', '.join(e.params)}) => {_pp(e.body, 0, ind)}", 0, prec)
    if isinstance(e, A.Let):
        # collapse nested lets into one binding list, as the paper writes them
        binds = []
        cur: A.Expr = e
        while isinstance(cur, A.Let):
            binds.append((cur.var, cur.bound))
            cur = cur.body
        bs = (",\n" + pad + "    ").join(
            f"{v} = {_pp(b, 0, ind + 2)}" for v, b in binds)
        return _paren(
            f"let {bs}\n{pad}in {_pp(cur, 0, ind + 1)}", 0, prec)
    if isinstance(e, A.If):
        return _paren(
            f"if {_pp(e.cond, 0, ind)}\n{pad}  then {_pp(e.then, 0, ind + 1)}"
            f"\n{pad}  else {_pp(e.els, 0, ind + 1)}", 0, prec)
    if isinstance(e, A.Iter):
        dom = _pp(e.domain, 0, ind)
        flt = "" if e.filter is None else f" | {_pp(e.filter, 0, ind)}"
        return f"[{e.var} <- {dom}{flt}: {_pp(e.body, 0, ind)}]"
    if isinstance(e, A.Call):
        return _pp_call(e, prec, ind)
    if isinstance(e, A.ExtCall):
        sup = f"^{e.depth}" if e.depth else ""
        args = ", ".join(_pp(a, 0, ind) for a in e.args)
        return f"{_display_name(e.fn)}{sup}({args})"
    if isinstance(e, A.IndirectCall):
        sup = f"^{e.depth}" if e.depth else ""
        args = ", ".join(_pp(a, 0, ind) for a in e.args)
        return f"({_pp(e.fun, _ATOM_PREC, ind)}){sup}({args})"
    raise TypeError(f"cannot pretty-print {type(e).__name__}")


_DISPLAY = {"and_": "and", "or_": "or", "not_": "not", "abs_": "abs"}


def _display_name(n: str) -> str:
    return _DISPLAY.get(n, n)


def _pp_call(e: A.Call, prec: int, ind: int) -> str:
    if isinstance(e.fn, A.Var):
        name = e.fn.name
        if name in _INFIX and len(e.args) == 2:
            sym, p = _INFIX[name]
            lhs = _pp(e.args[0], p, ind)
            rhs = _pp(e.args[1], p + 1, ind)
            return _paren(f"{lhs} {sym} {rhs}", p, prec)
        if name == "neg" and len(e.args) == 1:
            return _paren(f"-{_pp(e.args[0], _UNARY_PREC, ind)}", _UNARY_PREC, prec)
        if name == "not_" and len(e.args) == 1:
            return _paren(f"not {_pp(e.args[0], _UNARY_PREC, ind)}", _UNARY_PREC, prec)
        if name == "length" and len(e.args) == 1:
            return _paren(f"#{_pp(e.args[0], _UNARY_PREC, ind)}", _UNARY_PREC, prec)
        if name == "seq_index" and len(e.args) == 2:
            return f"{_pp(e.args[0], _ATOM_PREC, ind)}[{_pp(e.args[1], 0, ind)}]"
        if name == "range" and len(e.args) == 2:
            return f"[{_pp(e.args[0], 0, ind)} .. {_pp(e.args[1], 0, ind)}]"
        args = ", ".join(_pp(a, 0, ind) for a in e.args)
        return f"{_display_name(name)}({args})"
    args = ", ".join(_pp(a, 0, ind) for a in e.args)
    return f"({_pp(e.fn, 0, ind)})({args})"
