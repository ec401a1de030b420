"""``adn-lint``: static analysis over ADN programs.

The paper's premise is that a restricted DSL lets the compiler *prove*
properties instead of discovering failures at runtime. This package
surfaces those proofs (and their failures) to the developer as
structured :class:`Diagnostic`\\ s with stable rule codes, severities,
and source spans — ``python -m repro lint`` is the entry point.

Rule code blocks:

* ``ADN1xx`` — front-end failures (syntax, validation);
* ``ADN2xx`` — dead state and dead handlers;
* ``ADN3xx`` — state races / replication safety;
* ``ADN4xx`` — placement, overload and control-plane safety;
* ``ADN5xx`` — abstract-interpretation type and effect checks;
* ``ADN6xx`` — graph flow over multi-chain apps (retry amplification,
  deadline budgets), shared with the topology-spec analyzer;
* ``ADN7xx`` — state effects under retries, fan-out and replication.

See ``docs/linting.md`` for the full catalog.
"""

from .diagnostics import Diagnostic, Severity
from .engine import (
    LintOptions,
    LintResult,
    lint_file,
    lint_source,
    lint_sources,
)
from .registry import all_rules, rule

__all__ = [
    "Diagnostic",
    "LintOptions",
    "LintResult",
    "Severity",
    "all_rules",
    "lint_file",
    "lint_source",
    "lint_sources",
    "rule",
]
