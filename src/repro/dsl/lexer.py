"""Lexer for the ADN DSL: compiled-regex scanning over the source text.

Comments run from ``--`` or ``#`` to end of line, matching the SQL style
used in the paper's Figure 4.

The scanner jumps over whole runs with compiled patterns instead of
stepping one character at a time, and stays exact about what a run is:

* trivia is ``' '``, ``\\t``, ``\\r``, ``\\n`` and comments, skipped by
  one pattern;
* an identifier run is ``\\w*``, because Python's ``\\w`` matches exactly
  the code points where ``str.isalnum()`` is true, plus ``_``;
* an identifier *starts* only where ``str.isalpha()`` is true or at
  ``_``, and number digits are ``str.isdigit()``, never ``\\d``: the two
  disagree on 128 code points (``²`` is a digit to ``isdigit`` only);
* a keyword is a word whose ``upper()`` is in ``KEYWORDS``, so ``ſelect``
  folds to ``SELECT``;
* line and column come from newline offsets, and a column counts every
  non-newline character as 1, ``\\t`` and ``\\r`` included.
"""

from __future__ import annotations

import re
from typing import Iterator, List

from ..errors import DslSyntaxError
from .tokens import KEYWORDS, Token, TokenType

_PUNCT_TWO = {
    "->": TokenType.ARROW,
    "==": TokenType.EQEQ,
    "!=": TokenType.NEQ,
    "<>": TokenType.NEQ,
    "<=": TokenType.LTE,
    ">=": TokenType.GTE,
}

_PUNCT_ONE = {
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    ",": TokenType.COMMA,
    ";": TokenType.SEMICOLON,
    ":": TokenType.COLON,
    ".": TokenType.DOT,
    "*": TokenType.STAR,
    "+": TokenType.PLUS,
    "-": TokenType.MINUS,
    "/": TokenType.SLASH,
    "%": TokenType.PERCENT,
    "=": TokenType.EQ,
    "<": TokenType.LT,
    ">": TokenType.GT,
}

_TRIVIA = re.compile(r"(?:[ \t\r\n]+|(?:#|--)[^\n]*)*")
_WORD = re.compile(r"\w*")
#: per quote character: the run of characters that end neither the
#: string nor start an escape
_STRING_RUN = {"'": re.compile(r"[^'\\]*"), '"': re.compile(r'[^"\\]*')}
_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\"}


def _digits_end(source: str, pos: int) -> int:
    """End of the run of ``str.isdigit`` characters starting at ``pos``."""
    end = len(source)
    while pos < end and source[pos].isdigit():
        pos += 1
    return pos


class Lexer:
    """Converts DSL source text into a token stream."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1
        #: offset of the first character of the current line
        self._line_start = 0

    @property
    def column(self) -> int:
        return self.pos - self._line_start + 1

    def _move(self, end: int) -> None:
        """Advance to offset ``end``, counting the newlines passed."""
        newlines = self.source.count("\n", self.pos, end)
        if newlines:
            self.line += newlines
            self._line_start = self.source.rindex("\n", self.pos, end) + 1
        self.pos = end

    def _lex_string(self, quote: str, line: int, column: int) -> Token:
        source = self.source
        run = _STRING_RUN[quote]
        parts: List[str] = []
        pos = self.pos + 1
        while True:
            end = run.match(source, pos).end()
            parts.append(source[pos:end])
            if end == len(source):
                raise DslSyntaxError("unterminated string literal", line, column)
            if source[end] == quote:
                self._move(end + 1)
                return Token(TokenType.STRING, "".join(parts), line, column)
            escape = source[end + 1 : end + 2]
            value = quote if escape == quote else _ESCAPES.get(escape)
            if value is None:
                self._move(end + 1)
                raise DslSyntaxError(
                    f"unknown escape '\\{escape}'", self.line, self.column
                )
            parts.append(value)
            pos = end + 2

    def _lex_number(self, line: int, column: int) -> Token:
        source = self.source
        start = self.pos
        end = _digits_end(source, start)
        is_float = False
        if source[end : end + 1] == "." and source[end + 1 : end + 2].isdigit():
            is_float = True
            end = _digits_end(source, end + 1)
        if source[end : end + 1] in ("e", "E"):
            digits = end + 2 if source[end + 1 : end + 2] in ("+", "-") else end + 1
            if source[digits : digits + 1].isdigit():
                is_float = True
                end = _digits_end(source, digits)
        self.pos = end
        kind = TokenType.FLOAT if is_float else TokenType.INT
        return Token(kind, source[start:end], line, column)

    def next_token(self) -> Token:
        """Return the next token, or an EOF token at end of input."""
        source = self.source
        pos = _TRIVIA.match(source, self.pos).end()
        if pos != self.pos:
            self._move(pos)
        line, column = self.line, pos - self._line_start + 1
        if pos == len(source):
            return Token(TokenType.EOF, "", line, column)
        ch = source[pos]
        if ch.isalpha() or ch == "_":
            end = _WORD.match(source, pos).end()
            self.pos = end
            text = source[pos:end]
            upper = text.upper()
            if upper in KEYWORDS:
                return Token(TokenType.KEYWORD, upper, line, column)
            return Token(TokenType.IDENT, text, line, column)
        if ch.isdigit():
            return self._lex_number(line, column)
        if ch == "'" or ch == '"':
            return self._lex_string(ch, line, column)
        text = source[pos : pos + 2]
        kind = _PUNCT_TWO.get(text)
        if kind is None:
            text = ch
            kind = _PUNCT_ONE.get(ch)
            if kind is None:
                raise DslSyntaxError(f"unexpected character {ch!r}", line, column)
        self.pos = pos + len(text)
        return Token(kind, text, line, column)

    def tokens(self) -> Iterator[Token]:
        """Yield all tokens including the trailing EOF."""
        while True:
            token = self.next_token()
            yield token
            if token.type is TokenType.EOF:
                return


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` fully; convenience wrapper used by the parser."""
    return list(Lexer(source).tokens())
