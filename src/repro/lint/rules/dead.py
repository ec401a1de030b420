"""``ADN2xx`` — dead state and dead handlers.

State that is declared but can never influence an emitted tuple is at
best wasted memory and at worst a sign the author believes a check is
happening that isn't. These rules work on the lowered IR so they see
exactly what the backends will execute.
"""

from __future__ import annotations

from typing import Iterable, List, Set

from ...dsl.ast_nodes import Literal
from ...ir.expr_utils import collect_refs
from ...ir.nodes import (
    AssignVar,
    DeleteRows,
    ElementIR,
    FilterRows,
    InsertLiterals,
    InsertRows,
    JoinState,
    Project,
    UpdateRows,
    op_exprs,
)
from ...ir.passes.constant_folding import fold_expr
from ..diagnostics import Diagnostic, Severity
from ..registry import rule


def _own_irs(context) -> Iterable[ElementIR]:
    for name in context.own_elements:
        ir = context.irs.get(name)
        if ir is not None:
            yield ir


def _table_consumption(ir: ElementIR) -> Set[str]:
    """Tables whose *contents* flow somewhere: joins, star projections,
    aggregates, or column references in any expression. The WHERE of an
    UPDATE/DELETE addresses rows being written, so it does not count as
    consumption on its own."""
    consumed: Set[str] = set()

    def absorb(expr) -> None:
        if expr is None:
            return
        refs = collect_refs(expr)
        consumed.update(refs.tables_counted)
        consumed.update(tbl for tbl, _ in refs.table_columns)

    for handler in ir.handlers.values():
        for stmt in handler.statements:
            for op in stmt.ops:
                if isinstance(op, JoinState):
                    consumed.add(op.table)
                    absorb(op.on)
                elif isinstance(op, Project):
                    consumed.update(op.star_tables)
                    for _name, expr in op.items:
                        absorb(expr)
                elif isinstance(op, FilterRows):
                    absorb(op.predicate)
                elif isinstance(op, AssignVar):
                    absorb(op.expr)
                    absorb(op.where)
    return consumed


def _table_writes(ir: ElementIR):
    """(table, span) of every handler write; init writes seed the table
    but don't make it live."""
    statements = []
    for handler in ir.handlers.values():
        statements.extend(handler.statements)
    for stmt in statements:
        for op in stmt.ops:
            if isinstance(
                op, (InsertRows, InsertLiterals, UpdateRows, DeleteRows)
            ):
                yield op.table, stmt.span


@rule("ADN201", "dead-state-write-only", Severity.WARNING)
def check_write_only_tables(context) -> List[Diagnostic]:
    """A state table is written by handlers but its contents never reach
    a join, aggregate, projection, or predicate — nothing the element
    emits or decides depends on it."""
    out: List[Diagnostic] = []
    for ir in _own_irs(context):
        consumed = _table_consumption(ir)
        flagged: Set[str] = set()
        append_only = {d.name for d in ir.states if d.append_only}
        for table, span in _table_writes(ir):
            if table in consumed or table in flagged or table in append_only:
                continue
            flagged.add(table)
            out.append(
                context.diag(
                    "ADN201",
                    Severity.WARNING,
                    f"state table {table!r} is written but never read",
                    span=span,
                    element=ir.name,
                    fix=f"declare it 'state APPEND {table} (...)' if it is "
                    "an audit log the controller drains, or delete it",
                )
            )
    return out


@rule("ADN202", "dead-state-unused", Severity.WARNING)
def check_unused_state(context) -> List[Diagnostic]:
    """A declared state table is never accessed by any handler or init
    statement."""
    out: List[Diagnostic] = []
    for ir in _own_irs(context):
        touched = _table_consumption(ir)
        touched.update(table for table, _ in _table_writes(ir))
        for stmt in ir.init:
            for op in stmt.ops:
                table = getattr(op, "table", None)
                if table:
                    touched.add(table)
        for decl in ir.states:
            if decl.name not in touched:
                out.append(
                    context.diag(
                        "ADN202",
                        Severity.WARNING,
                        f"state table {decl.name!r} is declared but never "
                        "used",
                        span=decl.span,
                        element=ir.name,
                        fix="delete the declaration",
                    )
                )
    return out


@rule("ADN203", "unreachable-predicate", Severity.WARNING)
def check_unreachable_predicates(context) -> List[Diagnostic]:
    """A WHERE clause folds to constant false: the statement can never
    produce rows, so the arm is unreachable."""
    out: List[Diagnostic] = []
    for ir in _own_irs(context):
        for handler in ir.handlers.values():
            for stmt in handler.statements:
                for op in stmt.ops:
                    predicate = None
                    if isinstance(op, FilterRows):
                        predicate = op.predicate
                    elif isinstance(op, (UpdateRows, DeleteRows, AssignVar)):
                        predicate = op.where
                    if predicate is None:
                        continue
                    folded = fold_expr(predicate, context.registry)
                    if isinstance(folded, Literal) and folded.value is False:
                        out.append(
                            context.diag(
                                "ADN203",
                                Severity.WARNING,
                                "predicate is constant false; this "
                                "statement never fires",
                                span=stmt.span,
                                element=ir.name,
                                fix="remove the statement or fix the "
                                "predicate",
                            )
                        )
    return out


@rule("ADN204", "handler-never-emits", Severity.WARNING)
def check_silent_handlers(context) -> List[Diagnostic]:
    """A handler has no emit statement, so every RPC in that direction is
    dropped — legal (that's how blackholes are written) but almost always
    a missing ``SELECT * FROM input``."""
    out: List[Diagnostic] = []
    for ir in _own_irs(context):
        analysis = context.analysis(ir.name)
        if analysis is None:
            continue
        for kind, handler in analysis.handlers.items():
            if handler.emit_statements == 0:
                span = None
                handler_ir = ir.handlers.get(kind)
                if handler_ir is not None and handler_ir.statements:
                    span = handler_ir.statements[0].span
                out.append(
                    context.diag(
                        "ADN204",
                        Severity.WARNING,
                        f"'on {kind}' never emits: every {kind} is dropped",
                        span=span,
                        element=ir.name,
                        fix="add 'SELECT * FROM input;' to forward RPCs, "
                        "or suppress if dropping is intended",
                    )
                )
    return out


@rule("ADN205", "dead-var", Severity.WARNING)
def check_write_only_vars(context) -> List[Diagnostic]:
    """An element variable is written but never read — its value can
    never influence behaviour."""
    out: List[Diagnostic] = []
    for ir in _own_irs(context):
        read: Set[str] = set()
        written: Set[str] = set()
        for handler in ir.handlers.values():
            for stmt in handler.statements:
                for op in stmt.ops:
                    if isinstance(op, AssignVar):
                        written.add(op.var)
                        read |= collect_refs(op.expr).vars - {op.var}
                        read |= collect_refs(op.where).vars
                        continue
                    for expr in op_exprs(op):
                        read |= collect_refs(expr).vars
        for decl in ir.vars:
            if decl.name in written and decl.name not in read:
                out.append(
                    context.diag(
                        "ADN205",
                        Severity.WARNING,
                        f"var {decl.name!r} is written but never read",
                        span=decl.span,
                        element=ir.name,
                        fix="delete the variable and its SET statements",
                    )
                )
    return out
