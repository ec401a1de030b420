"""Rule registry: lint rules self-register via the :func:`rule` decorator.

A rule is a function ``(LintContext) -> Iterable[Diagnostic]``. The
registry keys rules by their stable code so the engine can run all of
them (or a selected subset) and docs/tests can enumerate the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass
from inspect import cleandoc
from typing import Callable, Collection, Dict, Iterable, List, Optional

from .diagnostics import Diagnostic, Severity


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    code: str
    name: str
    severity: Severity  # default severity of findings from this rule
    doc: str
    check: Callable  # (LintContext) -> Iterable[Diagnostic]


_RULES: Dict[str, Rule] = {}
#: ``_RULES`` by code, built-ins loaded; :func:`rule` empties it
_SORTED: List[Rule] = []


def rule(code: str, name: str, severity: Severity):
    """Register the decorated function as the implementation of ``code``."""

    def decorator(fn: Callable) -> Callable:
        if code in _RULES:
            raise ValueError(f"duplicate lint rule code {code}")
        _RULES[code] = Rule(
            code=code,
            name=name,
            severity=severity,
            doc=cleandoc(fn.__doc__ or "").strip(),
            check=fn,
        )
        _SORTED.clear()
        return fn

    return decorator


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by code."""
    if not _SORTED:
        _load_builtin_rules()
        _SORTED.extend(_RULES[code] for code in sorted(_RULES))
    return list(_SORTED)


def run_rules(
    context, codes: Optional[Collection[str]] = None
) -> List[Diagnostic]:
    """Run the registered rules whose code is in ``codes`` (default:
    every rule) over one lint context."""
    diagnostics: List[Diagnostic] = []
    for registered in all_rules():
        if codes is None or registered.code in codes:
            diagnostics.extend(registered.check(context))
    return diagnostics


def _load_builtin_rules() -> None:
    """Import the built-in rule modules (registration is import-driven)."""
    from .rules import (  # noqa: F401
        cross_element,
        dead,
        effects,
        graph,
        overload,
        placement,
        state_race,
        typecheck,
    )
