"""Lexer for the P language (the Proteus expression subset of the paper).

The concrete syntax follows the paper's section 2 closely:

* iterators        ``[x <- d: e]`` and ``[x <- d | b: e]``
* ranges           ``[e1 .. e2]``
* sequence literal ``[e1, e2, e3]``
* length           ``#e``
* lambda           ``fn(x, y) => e``   (the paper writes ``fun (x,..) e``)
* let              ``let x = e1 in e2``  (multiple bindings separated by ``,``)
* conditionals     ``if b then e1 else e2``
* tuple extract    ``e.1`` (index origin 1, as everywhere in P)
* definitions      ``fun name(x, y) = body``

Tokens carry line/column information for error reporting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import LexError

# Token kinds ---------------------------------------------------------------

KEYWORDS = {
    "fun", "fn", "let", "in", "if", "then", "else",
    "and", "or", "not", "mod", "div",
    "true", "false",
    # type keywords (annotations are optional in source)
    "int", "bool", "float", "seq",
}

# Multi-character operators must be listed before their prefixes.
OPERATORS = [
    "<-", "=>", "->", "..", "==", "!=", "<=", ">=",
    "+", "-", "*", "/", "<", ">", "=", "#",
    "(", ")", "[", "]", "{", "}", ",", ":", ";", "|", ".",
]


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    ``kind`` is one of ``"int"``, ``"float"``, ``"ident"``, ``"kw"``,
    ``"op"``, ``"eof"``; ``text`` is the matched source text (for ``int``
    the digit string).
    """

    kind: str
    text: str
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


# One alternative per token class, tried in this order at every position:
# a float needs fractional digits (so ``1..5`` and ``p.1`` lex as integer /
# dot tokens, never as floats) and takes an exponent only when digits
# follow it; ``--`` opens a comment before ``-`` can be an operator.
_TOKEN = re.compile(
    r"(?P<float>\d+\.\d+(?:[eE][+-]?\d+)?)|(?P<int>\d+)"
    r"|(?P<ident>[^\W\d]\w*)"
    r"|(?P<skip>[ \t\r]+|--[^\n]*)|(?P<nl>\n)"
    r"|(?P<op>" + "|".join(map(re.escape, OPERATORS)) + r")"
    r"|(?P<bad>.)")


def tokenize(source: str) -> list[Token]:
    """Scan ``source`` into a list of tokens ending with an ``eof`` token.

    Comments run from ``--`` to end of line.  Raises :class:`LexError` on any
    character that cannot start a token.
    """
    toks: list[Token] = []
    line = 1
    line_start = 0  # offset of the first character of ``line``
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "skip":
            continue
        if kind == "nl":
            line += 1
            line_start = m.end()
            continue
        text = m.group()
        col = m.start() - line_start + 1
        if kind == "bad":
            raise LexError(f"unexpected character {text!r}", line, col)
        if kind == "ident" and text in KEYWORDS:
            kind = "kw"
        toks.append(Token(kind, text, line, col))
    toks.append(Token("eof", "", line, len(source) - line_start + 1))
    return toks
