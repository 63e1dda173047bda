"""Recursive-descent parser for P, the language of section 2.

Operator syntax desugars to calls of the Table-2 primitives:

====================  =========================
source                core AST
====================  =========================
``a + b``             ``Call(Var("add"), [a,b])``
``a mod b``           ``Call(Var("mod"), [a,b])``
``#e``                ``Call(Var("length"), [e])``
``v[i]``              ``Call(Var("seq_index"), [v,i])``
``[a .. b]``          ``Call(Var("range"), [a,b])``
``-e``                ``Call(Var("neg"), [e])``
====================  =========================

so the transformation and both back ends see a uniform application form, and
primitives remain *first-class*: ``reduce(add, v)`` passes the same ``add``.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ParseError
from repro.lang import ast as A
from repro.lang import types as T
from repro.lang.tokens import Token, tokenize

# binary operator token -> (builtin name, precedence); higher binds tighter
_BINOPS = {
    "or": ("or_", 1),
    "and": ("and_", 2),
    "==": ("eq", 3),
    "!=": ("ne", 3),
    "<": ("lt", 3),
    "<=": ("le", 3),
    ">": ("gt", 3),
    ">=": ("ge", 3),
    "+": ("add", 4),
    "-": ("sub", 4),
    "*": ("mul", 5),
    "/": ("div", 5),
    "div": ("div", 5),
    "mod": ("mod", 5),
}

_NONASSOC_PREC = {3}  # comparisons do not chain


class _Parser:
    def __init__(self, source: str):
        self.toks = tokenize(source)
        self.pos = 0

    # -- token helpers ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        if ahead:       # the eof token ends the list: clamp look-ahead only
            return self.toks[min(self.pos + ahead, len(self.toks) - 1)]
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        t = self.toks[self.pos]
        return t.text == text and t.kind in ("op", "kw")

    def accept(self, text: str) -> Optional[Token]:
        if self.at(text):
            return self.next()
        return None

    def expect(self, text: str, what: str = "") -> Token:
        if self.at(text):
            return self.next()
        t = self.peek()
        ctx = f" while parsing {what}" if what else ""
        raise ParseError(f"expected {text!r}, found {t.text!r}{ctx}", t.line, t.col)

    def expect_ident(self, what: str = "identifier") -> Token:
        t = self.peek()
        if t.kind != "ident":
            raise ParseError(f"expected {what}, found {t.text!r}", t.line, t.col)
        return self.next()

    # -- program ------------------------------------------------------------

    def parse_program(self) -> A.Program:
        defs: dict[str, A.FunDef] = {}
        while self.peek().kind != "eof":
            d = self.parse_def()
            if d.name in defs:
                raise ParseError(f"duplicate definition of {d.name!r}", d.line, d.col)
            defs[d.name] = d
        return A.Program(defs)

    def parse_def(self) -> A.FunDef:
        kw = self.expect("fun", "definition")
        name = self.expect_ident("function name").text
        self.expect("(", f"parameters of {name}")
        params: list[str] = []
        ptypes: list[Optional[T.Type]] = []
        if not self.at(")"):
            while True:
                p = self.expect_ident("parameter name")
                params.append(p.text)
                if self.accept(":"):
                    ptypes.append(self.parse_type())
                else:
                    ptypes.append(None)
                if not self.accept(","):
                    break
        self.expect(")", f"parameters of {name}")
        ret: Optional[T.Type] = None
        if self.accept(":"):
            ret = self.parse_type()
        self.expect("=", f"body of {name}")
        body = self.parse_expr()
        self.accept(";")
        has_ann = any(t is not None for t in ptypes)
        d = A.FunDef(
            name=name,
            params=params,
            body=body,
            param_types=ptypes if has_ann else None,
            ret_type=ret,
        )
        d.line, d.col = kw.line, kw.col
        return d

    # -- types ---------------------------------------------------------------

    def parse_type(self) -> T.Type:
        t = self.peek()
        if self.accept("int"):
            return T.INT
        if self.accept("bool"):
            return T.BOOL
        if self.accept("float"):
            return T.FLOAT
        if self.accept("seq"):
            self.expect("(", "seq type")
            inner = self.parse_type()
            self.expect(")", "seq type")
            return T.TSeq(inner)
        if self.accept("("):
            items: list[T.Type] = []
            if not self.at(")"):
                while True:
                    items.append(self.parse_type())
                    if not self.accept(","):
                        break
            self.expect(")", "type")
            if self.accept("->"):
                return T.TFun(tuple(items), self.parse_type())
            if len(items) == 1:
                return items[0]
            return T.TTuple(tuple(items))
        raise ParseError(f"expected a type, found {t.text!r}", t.line, t.col)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> A.Expr:
        if self.at("let"):
            return self.parse_let()
        if self.at("if"):
            return self.parse_if()
        if self.at("fn"):
            return self.parse_lambda()
        return self.parse_binary(1)

    def parse_let(self) -> A.Expr:
        kw = self.expect("let")
        bindings: list[tuple[str, A.Expr]] = []
        while True:
            name = self.expect_ident("let-bound variable").text
            self.expect("=", "let binding")
            bindings.append((name, self.parse_expr()))
            if not self.accept(","):
                break
        self.expect("in", "let expression")
        body = self.parse_expr()
        for name, bound in reversed(bindings):
            body = A.Let(name, bound, body).at(kw.line, kw.col)
        return body

    def parse_if(self) -> A.Expr:
        kw = self.expect("if")
        cond = self.parse_expr()
        self.expect("then", "conditional")
        then = self.parse_expr()
        self.expect("else", "conditional")
        els = self.parse_expr()
        return A.If(cond, then, els).at(kw.line, kw.col)

    def parse_lambda(self) -> A.Expr:
        kw = self.expect("fn")
        self.expect("(", "lambda parameters")
        params: list[str] = []
        if not self.at(")"):
            while True:
                params.append(self.expect_ident("lambda parameter").text)
                if not self.accept(","):
                    break
        self.expect(")", "lambda parameters")
        self.expect("=>", "lambda body")
        body = self.parse_expr()
        return A.Lambda(params, body).at(kw.line, kw.col)

    def parse_binary(self, min_prec: int) -> A.Expr:
        left = self.parse_unary()
        while True:
            t = self.peek()
            info = _BINOPS.get(t.text) if t.kind in ("op", "kw") else None
            if info is None or info[1] < min_prec:
                return left
            name, prec = info
            self.next()
            right = self.parse_binary(prec + 1)
            left = A.Call(A.Var(name).at(t.line, t.col), [left, right]).at(t.line, t.col)
            if prec in _NONASSOC_PREC:
                nxt = self.peek()
                ninfo = _BINOPS.get(nxt.text) if nxt.kind in ("op", "kw") else None
                if ninfo is not None and ninfo[1] == prec:
                    raise ParseError(
                        f"comparison operators do not chain; parenthesize around {nxt.text!r}",
                        nxt.line, nxt.col)

    def parse_unary(self) -> A.Expr:
        t = self.peek()
        if self.accept("-"):
            return A.Call(A.Var("neg").at(t.line, t.col), [self.parse_unary()]).at(t.line, t.col)
        if self.accept("#"):
            return A.Call(A.Var("length").at(t.line, t.col), [self.parse_unary()]).at(t.line, t.col)
        if self.accept("not"):
            return A.Call(A.Var("not_").at(t.line, t.col), [self.parse_unary()]).at(t.line, t.col)
        return self.parse_postfix()

    def parse_postfix(self) -> A.Expr:
        e = self.parse_atom()
        while True:
            t = self.peek()
            if self.at("["):
                self.next()
                idx = self.parse_expr()
                self.expect("]", "index")
                e = A.Call(A.Var("seq_index").at(t.line, t.col), [e, idx]).at(t.line, t.col)
            elif self.at("("):
                self.next()
                args: list[A.Expr] = []
                if not self.at(")"):
                    while True:
                        args.append(self.parse_expr())
                        if not self.accept(","):
                            break
                self.expect(")", "call arguments")
                e = A.Call(e, args).at(t.line, t.col)
            elif self.at(".") and self.peek(1).kind in ("int", "float"):
                self.next()
                idx = self.next()
                if idx.kind == "int":
                    e = A.TupleExtract(e, int(idx.text)).at(t.line, t.col)
                else:
                    # chained projection `p.1.2`: the lexer greedily read
                    # "1.2" as a float — split it back into two indices
                    parts = idx.text.split(".")
                    if len(parts) != 2 or not all(x.isdigit() for x in parts):
                        raise ParseError(
                            f"bad tuple projection .{idx.text}",
                            idx.line, idx.col)
                    e = A.TupleExtract(e, int(parts[0])).at(t.line, t.col)
                    e = A.TupleExtract(e, int(parts[1])).at(t.line, t.col)
            else:
                return e

    def parse_atom(self) -> A.Expr:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return A.IntLit(int(t.text)).at(t.line, t.col)
        if t.kind == "float":
            self.next()
            return A.FloatLit(float(t.text)).at(t.line, t.col)
        if self.accept("true"):
            return A.BoolLit(True).at(t.line, t.col)
        if self.accept("false"):
            return A.BoolLit(False).at(t.line, t.col)
        if t.kind == "ident":
            self.next()
            return A.Var(t.text).at(t.line, t.col)
        if self.at("("):
            self.next()
            first = self.parse_expr()
            if self.accept(","):
                items = [first]
                while True:
                    items.append(self.parse_expr())
                    if not self.accept(","):
                        break
                self.expect(")", "tuple")
                return A.TupleLit(items).at(t.line, t.col)
            if self.at(";"):
                # Table 2 seq_update syntax: (s; [i1][i2]...: v)
                self.next()
                idxs: list[A.Expr] = []
                while self.accept("["):
                    idxs.append(self.parse_expr())
                    self.expect("]", "update index")
                if not idxs:
                    raise ParseError("expected [index] in update expression",
                                     t.line, t.col)
                self.expect(":", "update expression")
                val = self.parse_expr()
                self.expect(")", "update expression")
                return _desugar_update(first, idxs, val).at(t.line, t.col)
            self.expect(")", "parenthesized expression")
            return first
        if self.at("["):
            return self.parse_bracket()
        raise ParseError(f"expected an expression, found {t.text!r}", t.line, t.col)

    def parse_bracket(self) -> A.Expr:
        """Disambiguate ``[]`` / ``[e, ...]`` / ``[a .. b]`` / ``[x <- d: e]``."""
        t = self.expect("[")
        if self.accept("]"):
            return A.SeqLit([]).at(t.line, t.col)
        # iterator: ident '<-' ...
        if self.peek().kind == "ident" and self.peek(1).text == "<-":
            var = self.next().text
            self.next()  # <-
            domain = self.parse_expr()
            filt: Optional[A.Expr] = None
            if self.accept("|"):
                filt = self.parse_expr()
            self.expect(":", "iterator")
            body = self.parse_expr()
            self.expect("]", "iterator")
            return A.Iter(var, domain, body, filt).at(t.line, t.col)
        first = self.parse_expr()
        if self.accept(".."):
            hi = self.parse_expr()
            self.expect("]", "range")
            return A.Call(A.Var("range").at(t.line, t.col), [first, hi]).at(t.line, t.col)
        items = [first]
        while self.accept(","):
            items.append(self.parse_expr())
        self.expect("]", "sequence literal")
        return A.SeqLit(items).at(t.line, t.col)


def _desugar_update(src: A.Expr, idxs: list[A.Expr], val: A.Expr) -> A.Expr:
    """Table 2's deep update ``(s; [i1]...[ik]: v)``:

        (s; [i]: v)     == seq_update(s, i, v)
        (s; [i]...: v)  == let s' = s, i' = i
                           in seq_update(s', i', (s'[i']; ...: v))
    """
    if len(idxs) == 1:
        return A.Call(A.Var("seq_update"), [src, idxs[0], val])
    sv, iv = A.fresh_name("s"), A.fresh_name("i")
    inner_src = A.Call(A.Var("seq_index"), [A.Var(sv), A.Var(iv)])
    inner = _desugar_update(inner_src, idxs[1:], val)
    upd = A.Call(A.Var("seq_update"), [A.Var(sv), A.Var(iv), inner])
    return A.Let(sv, src, A.Let(iv, idxs[0], upd))


def parse_program(source: str) -> A.Program:
    """Parse a whole P program (a sequence of ``fun`` definitions)."""
    p = _Parser(source)
    return p.parse_program()


def parse_expression(source: str) -> A.Expr:
    """Parse a single P expression (used by the REPL-style API and tests)."""
    p = _Parser(source)
    e = p.parse_expr()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input: {t.text!r}", t.line, t.col)
    return e
