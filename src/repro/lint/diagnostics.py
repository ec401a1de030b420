"""Structured lint findings."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..dsl.span import Span


class Severity(enum.Enum):
    """How bad a finding is, ordered: error > warning > hint."""

    ERROR = "error"
    WARNING = "warning"
    HINT = "hint"

    @property
    def rank(self) -> int:
        return {"error": 3, "warning": 2, "hint": 1}[self.value]

    @classmethod
    def from_name(cls, name: str) -> "Severity":
        return cls(name.lower())


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a stable code, a place, a message, and a fix hint."""

    code: str  # e.g. "ADN301"
    severity: Severity
    message: str
    path: str = "<string>"
    span: Optional[Span] = None
    element: str = ""  # element/app the finding is about, if any
    fix: str = ""  # human-readable suggestion

    @property
    def line(self) -> int:
        return self.span.line if self.span else 0

    @property
    def column(self) -> int:
        return self.span.column if self.span else 0

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "element": self.element,
            "fix": self.fix,
        }

    def format_text(self) -> str:
        where = f"{self.path}:{self.line}:{self.column}"
        head = f"{where}: {self.severity.value} {self.code}: {self.message}"
        if self.fix:
            head += f"\n    fix: {self.fix}"
        return head


def sort_key(diagnostic: Diagnostic):
    """Stable presentation order: by position, then code."""
    return (
        diagnostic.path,
        diagnostic.line,
        diagnostic.column,
        diagnostic.code,
    )

