"""Abstract syntax tree for the ADN DSL.

The tree is deliberately small: expressions, five statement forms (SELECT,
INSERT, UPDATE, DELETE, SET), element definitions, and app definitions.
All nodes are frozen dataclasses so they can be hashed, compared in tests,
and shared between compilation passes without defensive copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .schema import FieldType
from .span import Span

#: Shared declaration for the source-position metadata field. ``compare=
#: False`` keeps spans out of equality/hashing (structural identity must
#: survive pretty-printing); ``kw_only`` lets every node inherit it from
#: its base class without disturbing positional constructors.
def _span_field():
    return field(default=None, compare=False, kw_only=True)

# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base class for expression nodes. ``span`` is the source position
    of the expression's first token (None for synthesized nodes)."""

    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: string, int, float, bool, or None (SQL NULL)."""

    value: object

    def __eq__(self, other: object) -> bool:
        # 1, True and 1.0 are equal in Python but not as literals; the
        # tuples keep Python's identity shortcut, so a NaN equals itself
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (type(self.value), self.value) == (
            type(other.value), other.value
        )


@dataclass(frozen=True)
class ColumnRef(Expr):
    """``table.column`` or a bare ``name``.

    A bare name may resolve (during validation) to an ``input`` field, a
    unique state-table column, or an element variable.
    """

    table: Optional[str]
    name: str

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class VarRef(Expr):
    """A reference to an element-local scalar variable (post-validation)."""

    name: str


@dataclass(frozen=True)
class FuncCall(Expr):
    """A call to a built-in or user-defined function."""

    name: str
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Binary operation; ``op`` is one of
    ``+ - * / % == != < <= > >= and or``."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary operation; ``op`` is ``-`` or ``not``."""

    op: str
    operand: Expr


@dataclass(frozen=True)
class CaseExpr(Expr):
    """``CASE WHEN c1 THEN v1 ... ELSE d END``."""

    whens: Tuple[Tuple[Expr, Expr], ...]
    default: Optional[Expr]


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Statement:
    """Base class for statement nodes. ``span`` points at the statement's
    leading keyword in the source (None for synthesized nodes)."""

    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Star:
    """``*`` or ``table.*`` in a select list."""

    table: Optional[str] = None


@dataclass(frozen=True)
class SelectItem:
    """One projected expression, optionally aliased with ``AS``."""

    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class Join:
    """``JOIN table ON predicate``."""

    table: str
    on: Expr


@dataclass(frozen=True)
class SelectStmt(Statement):
    """``[INSERT INTO into] SELECT items FROM source [JOIN ...] [WHERE ...]``.

    When ``into`` is None and ``source`` involves ``input``, the result rows
    are emitted downstream (the element's output stream). With ``into`` set,
    rows are appended to a state table instead.
    """

    items: Tuple[object, ...]  # SelectItem | Star
    source: str
    joins: Tuple[Join, ...] = ()
    where: Optional[Expr] = None
    into: Optional[str] = None


@dataclass(frozen=True)
class InsertValues(Statement):
    """``INSERT INTO table VALUES (..), (..)`` with literal-only rows."""

    table: str
    rows: Tuple[Tuple[Expr, ...], ...]


@dataclass(frozen=True)
class UpdateStmt(Statement):
    """``UPDATE table SET col = expr, ... [WHERE ...]``."""

    table: str
    assignments: Tuple[Tuple[str, Expr], ...]
    where: Optional[Expr] = None


@dataclass(frozen=True)
class DeleteStmt(Statement):
    """``DELETE FROM table [WHERE ...]``."""

    table: str
    where: Optional[Expr] = None


@dataclass(frozen=True)
class SetStmt(Statement):
    """``SET var = expr [WHERE cond]`` — assign an element variable,
    optionally guarded (the guard may reference input fields)."""

    var: str
    expr: Expr
    where: Optional[Expr] = None


# --------------------------------------------------------------------------
# Element definitions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnDef:
    """A state-table column; ``is_key`` marks the partition/primary key."""

    name: str
    type: FieldType
    is_key: bool = False
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class StateDecl:
    """``state name (col: type [KEY], ...) [APPEND];``

    APPEND marks write-only log-style tables (e.g. a logger's sink); they
    never need to be read back on the data path and may live off-processor.
    """

    name: str
    columns: Tuple[ColumnDef, ...]
    append_only: bool = False
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class VarDecl:
    """``var name: type = literal;`` — element-local scalar state."""

    name: str
    type: FieldType
    init: Literal
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Handler:
    """``on request { ... }`` / ``on response { ... }``."""

    kind: str  # "request" | "response"
    statements: Tuple[Statement, ...]
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class ElementDef:
    """A complete element: meta config, state, variables, init, handlers."""

    name: str
    meta: Dict[str, object] = field(default_factory=dict)
    states: Tuple[StateDecl, ...] = ()
    vars: Tuple[VarDecl, ...] = ()
    init: Tuple[Statement, ...] = ()
    handlers: Tuple[Handler, ...] = ()
    span: Optional[Span] = _span_field()

    def handler(self, kind: str) -> Optional[Handler]:
        for handler in self.handlers:
            if handler.kind == kind:
                return handler
        return None

    def state(self, name: str) -> Optional[StateDecl]:
        for decl in self.states:
            if decl.name == name:
                return decl
        return None

    def __hash__(self) -> int:  # meta dict is not hashable
        return hash((self.name, self.states, self.vars, self.init, self.handlers))


@dataclass(frozen=True)
class FilterDef:
    """A stream-shaping filter bound to a platform-specific operator
    (paper §5.1: timeouts, retries, congestion control)."""

    name: str
    operator: str
    meta: Dict[str, object] = field(default_factory=dict)
    span: Optional[Span] = _span_field()

    def __hash__(self) -> int:
        return hash((self.name, self.operator))


# --------------------------------------------------------------------------
# App definitions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceDecl:
    """``service name [replicas N];``"""

    name: str
    replicas: int = 1
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class ChainDecl:
    """``chain src -> dst { Elem1, Elem2, ... }``"""

    src: str
    dst: str
    elements: Tuple[str, ...]
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class ConstraintDecl:
    """A placement or ordering constraint.

    kinds: ``colocate`` (args: element, "sender"|"receiver"),
    ``outside_app`` (args: element), ``before``/``after`` (args: two
    elements).
    """

    kind: str
    args: Tuple[str, ...]
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class GuaranteeDecl:
    """Delivery guarantees requested from the generated transport."""

    reliable: bool = False
    ordered: bool = False


@dataclass(frozen=True)
class AppDef:
    """A complete app specification."""

    name: str
    services: Tuple[ServiceDecl, ...] = ()
    chains: Tuple[ChainDecl, ...] = ()
    constraints: Tuple[ConstraintDecl, ...] = ()
    guarantees: GuaranteeDecl = GuaranteeDecl()
    span: Optional[Span] = _span_field()

    def service(self, name: str) -> Optional[ServiceDecl]:
        for svc in self.services:
            if svc.name == name:
                return svc
        return None


@dataclass(frozen=True)
class Program:
    """Top level parse result: elements, filters, and apps by name."""

    elements: Dict[str, ElementDef] = field(default_factory=dict)
    filters: Dict[str, FilterDef] = field(default_factory=dict)
    apps: Dict[str, AppDef] = field(default_factory=dict)

    def merged(self, other: "Program") -> "Program":
        """A new Program containing definitions from both (no mutation)."""
        return Program(
            elements={**self.elements, **other.elements},
            filters={**self.filters, **other.filters},
            apps={**self.apps, **other.apps},
        )
