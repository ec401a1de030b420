"""Lexer unit tests."""

import re
import sys

import pytest

from repro.dsl.lexer import Lexer, tokenize
from repro.dsl.tokens import TokenType
from repro.errors import DslSyntaxError


def kinds(source):
    return [t.type for t in tokenize(source)]


def values(source):
    return [t.value for t in tokenize(source) if t.type is not TokenType.EOF]


class TestBasicTokens:
    def test_empty_source_yields_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF

    def test_identifiers_and_keywords(self):
        tokens = tokenize("select foo FROM input")
        assert tokens[0].type is TokenType.KEYWORD
        assert tokens[0].value == "SELECT"
        assert tokens[1].type is TokenType.IDENT
        assert tokens[1].value == "foo"
        assert tokens[2].value == "FROM"

    def test_keywords_case_insensitive(self):
        for variant in ("select", "SELECT", "SeLeCt"):
            token = tokenize(variant)[0]
            assert token.type is TokenType.KEYWORD
            assert token.value == "SELECT"

    def test_identifiers_case_sensitive(self):
        assert values("Foo foo FOO_bar") == ["Foo", "foo", "FOO_bar"]

    def test_underscore_identifier(self):
        token = tokenize("_internal")[0]
        assert token.type is TokenType.IDENT
        assert token.value == "_internal"


class TestNumbers:
    def test_integer(self):
        token = tokenize("42")[0]
        assert token.type is TokenType.INT
        assert token.value == "42"

    def test_float(self):
        token = tokenize("0.02")[0]
        assert token.type is TokenType.FLOAT
        assert token.value == "0.02"

    def test_scientific_notation(self):
        token = tokenize("1e6")[0]
        assert token.type is TokenType.FLOAT
        token = tokenize("2.5E-3")[0]
        assert token.type is TokenType.FLOAT
        assert token.value == "2.5E-3"

    def test_integer_then_dot_not_float(self):
        # "1.x" must lex as INT DOT IDENT (field access), not a float
        tokens = tokenize("input.payload")
        assert [t.type for t in tokens[:3]] == [
            TokenType.IDENT,
            TokenType.DOT,
            TokenType.IDENT,
        ]


class TestStrings:
    def test_single_quoted(self):
        token = tokenize("'usr1'")[0]
        assert token.type is TokenType.STRING
        assert token.value == "usr1"

    def test_double_quoted(self):
        token = tokenize('"hello"')[0]
        assert token.value == "hello"

    def test_escapes(self):
        token = tokenize(r"'a\nb\tc\\d'")[0]
        assert token.value == "a\nb\tc\\d"

    def test_escaped_quote(self):
        token = tokenize(r"'it\'s'")[0]
        assert token.value == "it's"

    def test_unterminated_string_raises(self):
        with pytest.raises(DslSyntaxError):
            tokenize("'oops")

    def test_unknown_escape_raises(self):
        with pytest.raises(DslSyntaxError):
            tokenize(r"'\q'")


class TestOperators:
    def test_two_char_operators(self):
        assert kinds("== != <= >= ->")[:-1] == [
            TokenType.EQEQ,
            TokenType.NEQ,
            TokenType.LTE,
            TokenType.GTE,
            TokenType.ARROW,
        ]

    def test_sql_style_not_equal(self):
        assert tokenize("<>")[0].type is TokenType.NEQ

    def test_single_char_operators(self):
        assert kinds("+ - * / % = < > ( ) { } , ; : .")[:-1] == [
            TokenType.PLUS,
            TokenType.MINUS,
            TokenType.STAR,
            TokenType.SLASH,
            TokenType.PERCENT,
            TokenType.EQ,
            TokenType.LT,
            TokenType.GT,
            TokenType.LPAREN,
            TokenType.RPAREN,
            TokenType.LBRACE,
            TokenType.RBRACE,
            TokenType.COMMA,
            TokenType.SEMICOLON,
            TokenType.COLON,
            TokenType.DOT,
        ]

    def test_unexpected_character(self):
        with pytest.raises(DslSyntaxError) as excinfo:
            tokenize("@")
        assert "unexpected character" in str(excinfo.value)


class TestCommentsAndPositions:
    def test_sql_comment_skipped(self):
        assert values("-- a comment\nfoo") == ["foo"]

    def test_hash_comment_skipped(self):
        assert values("# comment\nbar") == ["bar"]

    def test_minus_not_comment(self):
        assert values("a - b") == ["a", "-", "b"]

    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_error_carries_position(self):
        lexer = Lexer("ab\n @")
        lexer.next_token()
        with pytest.raises(DslSyntaxError) as excinfo:
            lexer.next_token()
        assert excinfo.value.line == 2
        assert excinfo.value.column == 2


class TestScannerClasses:
    def test_word_run_is_isalnum_or_underscore(self):
        # the lexer scans identifier runs with \w, so \w must match
        # exactly the characters str.isalnum() or "_" accepts
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        by_pattern = "".join(re.findall(r"\w", every))
        by_method = "".join(ch for ch in every if ch.isalnum() or ch == "_")
        assert by_pattern == by_method
