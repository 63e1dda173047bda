"""Unit tests for the P lexer."""

import pytest

from repro.errors import LexError
from repro.lang.tokens import Token, tokenize


def kinds(src):
    return [(t.kind, t.text) for t in tokenize(src)[:-1]]


class TestBasicTokens:
    def test_integer(self):
        assert kinds("42") == [("int", "42")]

    def test_multi_digit_and_zero(self):
        assert kinds("0 007 123456789") == [
            ("int", "0"), ("int", "007"), ("int", "123456789")]

    def test_identifier(self):
        assert kinds("foo _bar x1 a_b") == [
            ("ident", "foo"), ("ident", "_bar"), ("ident", "x1"), ("ident", "a_b")]

    def test_keywords(self):
        for kw in ["fun", "fn", "let", "in", "if", "then", "else", "and",
                   "or", "not", "mod", "div", "true", "false", "int", "bool", "seq"]:
            assert kinds(kw) == [("kw", kw)]

    def test_keyword_prefix_is_identifier(self):
        assert kinds("lettuce functor iffy") == [
            ("ident", "lettuce"), ("ident", "functor"), ("ident", "iffy")]

    def test_eof_token(self):
        toks = tokenize("x")
        assert toks[-1].kind == "eof"


class TestOperators:
    def test_arrow_operators(self):
        assert kinds("<- => -> ..") == [
            ("op", "<-"), ("op", "=>"), ("op", "->"), ("op", "..")]

    def test_comparison_operators(self):
        assert kinds("== != <= >= < >") == [
            ("op", "=="), ("op", "!="), ("op", "<="), ("op", ">="),
            ("op", "<"), ("op", ">")]

    def test_arith_and_punct(self):
        assert kinds("+-*/#()[]{},:;|.") == [
            ("op", c) for c in ["+", "-", "*", "/", "#", "(", ")", "[", "]",
                                "{", "}", ",", ":", ";", "|", "."]]

    def test_maximal_munch_range_vs_dot(self):
        # "1..5" must lex as int, .., int (not int, ., ., int)
        assert kinds("1..5") == [("int", "1"), ("op", ".."), ("int", "5")]

    def test_arrow_vs_less_minus(self):
        assert kinds("x <- y") == [("ident", "x"), ("op", "<-"), ("ident", "y")]
        assert kinds("x < -y") == [
            ("ident", "x"), ("op", "<"), ("op", "-"), ("ident", "y")]


class TestCommentsAndWhitespace:
    def test_comment_to_eol(self):
        assert kinds("x -- this is a comment\ny") == [
            ("ident", "x"), ("ident", "y")]

    def test_comment_at_eof(self):
        assert kinds("x -- trailing") == [("ident", "x")]

    def test_double_minus_inside_expr_is_comment(self):
        # P uses "a - -b" for double negation; "--" always starts a comment
        assert kinds("a - b") == [("ident", "a"), ("op", "-"), ("ident", "b")]

    def test_whitespace_variants(self):
        assert kinds("a\tb\r\nc") == [
            ("ident", "a"), ("ident", "b"), ("ident", "c")]


class TestPositions:
    def test_line_and_column(self):
        toks = tokenize("ab\n  cd")
        assert (toks[0].line, toks[0].col) == (1, 1)
        assert (toks[1].line, toks[1].col) == (2, 3)

    def test_column_after_operator(self):
        toks = tokenize("a+b")
        assert [(t.text, t.col) for t in toks[:-1]] == [("a", 1), ("+", 2), ("b", 3)]


class TestErrors:
    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("a $ b")

    def test_error_position(self):
        with pytest.raises(LexError) as ei:
            tokenize("ab\n @")
        assert ei.value.line == 2
        assert ei.value.col == 2

    def test_iterator_snippet(self):
        src = "[x <- [1..n] | odd(x): x*x]"
        texts = [t.text for t in tokenize(src)[:-1]]
        assert texts == ["[", "x", "<-", "[", "1", "..", "n", "]", "|",
                         "odd", "(", "x", ")", ":", "x", "*", "x", "]"]


# The full (kind, text, line, col) stream of each edge case, eof included,
# as the per-character scanner this table was recorded from produced it:
# the master regex must not move a token, a column or an error.
PINNED = [
    ("1..5", [("int", "1", 1, 1), ("op", "..", 1, 2), ("int", "5", 1, 4),
              ("eof", "", 1, 5)]),
    ("p.1", [("ident", "p", 1, 1), ("op", ".", 1, 2), ("int", "1", 1, 3),
             ("eof", "", 1, 4)]),
    ("1.5e+3", [("float", "1.5e+3", 1, 1), ("eof", "", 1, 7)]),
    ("1.e3", [("int", "1", 1, 1), ("op", ".", 1, 2), ("ident", "e3", 1, 3),
              ("eof", "", 1, 5)]),
    ("2.5e", [("float", "2.5", 1, 1), ("ident", "e", 1, 4),
              ("eof", "", 1, 5)]),
    ("2.5e+", [("float", "2.5", 1, 1), ("ident", "e", 1, 4),
               ("op", "+", 1, 5), ("eof", "", 1, 6)]),
    ("1.5.2", [("float", "1.5", 1, 1), ("op", ".", 1, 4), ("int", "2", 1, 5),
               ("eof", "", 1, 6)]),
    ("12abc", [("int", "12", 1, 1), ("ident", "abc", 1, 3),
               ("eof", "", 1, 6)]),
    ("x<--1", [("ident", "x", 1, 1), ("op", "<-", 1, 2), ("op", "-", 1, 4),
               ("int", "1", 1, 5), ("eof", "", 1, 6)]),
    ("x -- c", [("ident", "x", 1, 1), ("eof", "", 1, 7)]),  # comment at EOF
    ("--", [("eof", "", 1, 3)]),
    ("a\tb", [("ident", "a", 1, 1), ("ident", "b", 1, 3),   # a tab is one
              ("eof", "", 1, 4)]),                          # column
    ("a\r\nb", [("ident", "a", 1, 1), ("ident", "b", 2, 1),  # CRLF
                ("eof", "", 2, 2)]),
    ("a\n\n  b -- c\n", [("ident", "a", 1, 1), ("ident", "b", 3, 3),
                         ("eof", "", 4, 1)]),
    ("_x1 é1", [("ident", "_x1", 1, 1), ("ident", "é1", 1, 5),
                ("eof", "", 1, 7)]),
    ("", [("eof", "", 1, 1)]),
    ("\n", [("eof", "", 2, 1)]),
]


@pytest.mark.parametrize("src,want", PINNED, ids=[repr(s) for s, _ in PINNED])
def test_pinned_stream(src, want):
    assert tokenize(src) == [Token(*t) for t in want]


@pytest.mark.parametrize("src,message,line,col", [
    ("fun f(x) =\n  x +\n  $ 1", "unexpected character '$'", 3, 3),
    ("a\r\n\t@", "unexpected character '@'", 2, 2),
    ("x -- ok $\n\f", "unexpected character '\\x0c'", 2, 1),
])
def test_pinned_lex_error(src, message, line, col):
    with pytest.raises(LexError) as ei:
        tokenize(src)
    assert str(ei.value) == f"{message} at line {line}, column {col}"
    assert (ei.value.line, ei.value.col) == (line, col)
