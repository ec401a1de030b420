"""Pinned CLI surface: help texts, usage lines and argument errors.

Each case calls ``repro.cli.main`` in process with an 80-column
terminal and records its stdout, its stderr and its exit code (the
``SystemExit`` code argparse raises, or ``main``'s return value). One
sha256 covers every case, so any change to a help text, a usage line,
an error message or an exit code of the argument parser moves it. The
cases cover the top-level parser (no arguments, ``-h``, an unknown
command, options after a command that the command does not take) and
every command's own parser (``--help``, a bad choice, a missing or
malformed argument).
"""

from __future__ import annotations

import hashlib
import json

from repro.cli import main

COMMANDS = (
    "check", "lint", "fmt", "compile", "plan", "bench", "faults",
    "chaos", "overload", "offload", "graph",
)

CASES = (
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["-h", "graph"],
    *([command, "--help"] for command in COMMANDS),
    ["graph", "--bogus"],
    ["check", "a.adn", "b.adn"],
    ["lint", "--format", "xml"],
    ["compile"],
    ["faults", "--rpcs", "x"],
    ["graph", "--demo", "nope"],
)

SURFACE_DIGEST = (
    "75098d0d87e19c968ccec7f2803b92975b31abb1241b3349b8dd083609a51d6a"
)


def run(argv, capsys):
    """(stdout, stderr, exit code) of one in-process call."""
    try:
        code = main(list(argv))
    except SystemExit as stop:
        code = stop.code
    out, err = capsys.readouterr()
    return out, err, code


def test_cli_surface_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    records = [[argv, *run(argv, capsys)] for argv in CASES]
    text = json.dumps(records)
    assert hashlib.sha256(text.encode()).hexdigest() == SURFACE_DIGEST

