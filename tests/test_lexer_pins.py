"""Pinned lexer output: exact tokens, positions and errors.

The digests are sha256 over ``repr`` of the ``(type, value, line,
column)`` token stream of every stdlib source and every example DSL
file; the edge table pins the exact token list, or the exact error
message and position, of inputs where a scanner is easy to get subtly
wrong (escapes at EOF, multi-line strings, tab and CR columns, Unicode
digits and case folding, partial exponents, comments). Any change to
the lexer must keep every value here.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.dsl.lexer import tokenize
from repro.dsl.stdlib import STDLIB_SOURCES
from repro.errors import DslSyntaxError

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

STDLIB_DIGESTS = {
    "AccessControl": "15978d0e2ccdf218b2a55e9820feac88b8a446b622f6ea5eaa68cdf683c5b12b",
    "Acl": "ad063443b17e2a11d07c882fb9a95cbd10e5df6c579d5fad9d3e2c7b9c3d0369",
    "Admission": "48ab887df930a6977ee09a1c5f1eb5ebcdafc48993bf184e3b0141596bc86deb",
    "AdmissionControl": "7a4420ade2b90aa69b600d40e974e939a62157f024e9088427c6522d7a325828",
    "Cache": "6549d637e63ee82e1086a62bb20411ca53dd715c24164c74712a410e11e4ed1c",
    "CircuitBreaker": "5ce3e561cb1e7bf153579b55599a02a3221be34931a31e6d300fa21d0fc46142",
    "Compression": "c6e2f81a001b75a6df4fcf14cd3b94912d10968dab992b42313e239fb18ab6a9",
    "Decompression": "6c6c40e8cbf7911c98a3b86b6c79516452106f45b9784f823c6ab82b1d2f8b05",
    "Decryption": "459c4dac5f9881ea5dd8e36fbdd53cc214737839ca50fa77b3d4d2e86348d6a7",
    "Encryption": "bacd1fc3e7c798d6c0a27d693c415e24b9a0ea0e083574cee3c1771dd586756f",
    "Fault": "5f13fc3f2348e238a980aa32469818bc31c618c8ce36f73f16013793eca60d45",
    "GlobalQuota": "64b87e318f7fd541cc8d02180e09f81b92bd9be6d615833c9b3c4512f677cc3f",
    "LbKeyHash": "5b27435e6d46705b77c970f384beff31c5780016da98810f51619949337dadbe",
    "LbRoundRobin": "3447aed69789e74614a12981b8eecdf3b2afa22d709dee71cd922e73526646eb",
    "Logging": "4dd1d44920feeabc16904cb7a0926f3b8b333bd90b88c2d6a33d68054b28569d",
    "Metrics": "f1dfd898a676f1d8760537270b9bf2a048f35312ad5f72cb28b86c5fb07e67db",
    "Mirror": "a9688d7a824713e4de7f204a8fc24953c3b840ea699bed6bafec1eb9a6ff1583",
    "Pacer": "c9c52cfb410f2877f46f6fbadeabc647938786c89964e4f5a3b64d01e73e87ed",
    "RateLimit": "283a963bd185fd76080d7d52f1dba9088a6fe9bd50ce791db43a267982d0f76d",
    "Retry": "23bf4042dbe5396857ac5623d70b3a33133bebfb55a84985c80bf5cbf8a6683a",
    "Router": "ca24e2db36d67207d6b6a3ae945eb5b8523833c366a9c1cf8cb6330e3a473cb8",
    "SizeLimit": "1ce36fb3d3fda77c49030a1eaef6abc03ce23a071a26e43c4a8d8929c1747bfe",
    "Timeout": "182e1de4262d32218504bc1619349bf152cb97ccd8f918aa454861f42887ad7f",
}

EXAMPLE_DIGESTS = {
    "explain_demo.adn": "42b8df56f1199fc39bef92c42ce50569391fb00202bce6151a92eb9d403340aa",
    "lint_demo.adn": "ae63ba1702b53a271811df0f6b51485b97f2949746e6d04d2fb264170d485ced",
    "typecheck_demo.adn": "13fb2168a5ebfa5e80f26153ce7c3fe515db3f53e8bd88e86866660ddff73b28",
}

#: source -> its exact token stream, as (type name, value, line, column)
EDGE_TOKENS = {
    "'ab\ncd' x": [
        ("STRING", "ab\ncd", 1, 1), ("IDENT", "x", 2, 5), ("EOF", "", 2, 6),
    ],
    "a\tb\r\nc": [
        ("IDENT", "a", 1, 1), ("IDENT", "b", 1, 3), ("IDENT", "c", 2, 1),
        ("EOF", "", 2, 2),
    ],
    # '²' is a digit to str.isdigit but not to the regex \d
    "x²": [("IDENT", "x²", 1, 1), ("EOF", "", 1, 3)],
    "²": [("INT", "²", 1, 1), ("EOF", "", 1, 2)],
    "٣": [("INT", "٣", 1, 1), ("EOF", "", 1, 2)],
    "x٣": [("IDENT", "x٣", 1, 1), ("EOF", "", 1, 3)],
    # 'ſ' (long s) upper-cases to 'S', so this is the SELECT keyword
    "ſelect": [("KEYWORD", "SELECT", 1, 1), ("EOF", "", 1, 7)],
    # 'Ⅷ' is alphanumeric but not alphabetic: it continues a word only
    "aⅧ": [("IDENT", "aⅧ", 1, 1), ("EOF", "", 1, 3)],
    "1e+": [
        ("INT", "1", 1, 1), ("IDENT", "e", 1, 2), ("PLUS", "+", 1, 3),
        ("EOF", "", 1, 4),
    ],
    "1e": [("INT", "1", 1, 1), ("IDENT", "e", 1, 2), ("EOF", "", 1, 3)],
    "1e+5": [("FLOAT", "1e+5", 1, 1), ("EOF", "", 1, 5)],
    "1.": [("INT", "1", 1, 1), ("DOT", ".", 1, 2), ("EOF", "", 1, 3)],
    "1.5e": [("FLOAT", "1.5", 1, 1), ("IDENT", "e", 1, 4), ("EOF", "", 1, 5)],
    "1e5": [("FLOAT", "1e5", 1, 1), ("EOF", "", 1, 4)],
    "a--b": [("IDENT", "a", 1, 1), ("EOF", "", 1, 5)],
    "a - -b": [
        ("IDENT", "a", 1, 1), ("MINUS", "-", 1, 3), ("MINUS", "-", 1, 5),
        ("IDENT", "b", 1, 6), ("EOF", "", 1, 7),
    ],
    "<>": [("NEQ", "<>", 1, 1), ("EOF", "", 1, 3)],
    "->-": [("ARROW", "->", 1, 1), ("MINUS", "-", 1, 3), ("EOF", "", 1, 4)],
    "a # c": [("IDENT", "a", 1, 1), ("EOF", "", 1, 6)],
}

#: source -> (str(error), error.line, error.column)
EDGE_ERRORS = {
    "'\\q'": ("unknown escape '\\q' (line 1, column 3)", 1, 3),
    "'\\": ("unknown escape '\\' (line 1, column 3)", 1, 3),
    "'a\n\\q'": ("unknown escape '\\q' (line 2, column 2)", 2, 2),
    "'ab\ncd": ("unterminated string literal (line 1, column 1)", 1, 1),
    "\t\r@": ("unexpected character '@' (line 1, column 3)", 1, 3),
    "Ⅷ": ("unexpected character 'Ⅷ' (line 1, column 1)", 1, 1),
    "\xa0": ("unexpected character '\\xa0' (line 1, column 1)", 1, 1),
}


def _stream(source):
    return [(t.type.name, t.value, t.line, t.column) for t in tokenize(source)]


def _digest(source):
    return hashlib.sha256(repr(_stream(source)).encode()).hexdigest()


def test_every_stdlib_source_is_pinned():
    assert sorted(STDLIB_SOURCES) == sorted(STDLIB_DIGESTS)


@pytest.mark.parametrize("name", sorted(STDLIB_DIGESTS))
def test_stdlib_token_stream(name):
    assert _digest(STDLIB_SOURCES[name]) == STDLIB_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(EXAMPLE_DIGESTS))
def test_example_token_stream(name):
    source = (EXAMPLES_DIR / name).read_text()
    assert _digest(source) == EXAMPLE_DIGESTS[name]


@pytest.mark.parametrize("source", list(EDGE_TOKENS))
def test_edge_tokens(source):
    assert _stream(source) == EDGE_TOKENS[source]


@pytest.mark.parametrize("source", list(EDGE_ERRORS))
def test_edge_errors(source):
    with pytest.raises(DslSyntaxError) as excinfo:
        tokenize(source)
    error = excinfo.value
    assert (str(error), error.line, error.column) == EDGE_ERRORS[source]
