"""Count recomputed facts per toolchain call, in one fresh process.

usage: PYTHONPATH=<tree>/src python count_facts.py lint|check DEMO
Prints one JSON line: the counts of the first, second and third call.
"""
import io
import json
import sys
from contextlib import redirect_stdout

from repro.analysis import domains, typecheck
from repro.cli import main
from repro.dsl import stdlib
from repro.ir import expr_utils
from repro.lint import engine, registry

counts = {}


def bump(key):
    counts[key] = counts.get(key, 0) + 1


def wrap(owner, name, key):
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        bump(key)
        return real(*args, **kwargs)

    setattr(owner, name, counting)
    return counting


wrap(registry, "_load_builtin_rules", "all_rules loads")
joins = wrap(stdlib, "parsed_stdlib", "parsed_stdlib")
engine.parsed_stdlib = joins
wrap(typecheck, "_column_envs", "_column_envs")
wrap(domains.AbstractValue, "__init__", "AbstractValue")
wrap(expr_utils.ExprRefs, "__init__", "ExprRefs")

command, path = sys.argv[1], sys.argv[2]
argv = (["lint", "--stdlib"] if command == "lint"
        else ["check", "--types", "--stdlib"]) + ["--format", "json", path]
calls = []
for _ in range(3):
    counts.clear()
    with redirect_stdout(io.StringIO()):
        main(argv)
    calls.append(dict(sorted(counts.items())))
print(json.dumps({"command": " ".join(argv), "calls": calls}))
