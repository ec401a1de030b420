"""Predicate pushdown within statement pipelines.

A ``WHERE`` clause lowers to a :class:`FilterRows` *after* all joins. When
a conjunct of the predicate references only the input tuple and element
variables (no joined columns), evaluating it before the joins skips the
join work for rows that would be discarded anyway — the classic
selection-pushdown rewrite, applied to the element's micro-plan.
"""

from __future__ import annotations

from typing import List, Optional

from ...dsl.ast_nodes import BinaryOp, Expr
from ..expr_utils import collect_refs, conjuncts
from ..nodes import (
    ElementIR,
    FilterRows,
    HandlerIR,
    JoinState,
    Op,
    Scan,
    StatementIR,
)


def _conjoin(parts: List[Expr]) -> Optional[Expr]:
    if not parts:
        return None
    result = parts[0]
    for part in parts[1:]:
        result = BinaryOp("and", result, part)
    return result


def _input_only(expr: Expr) -> bool:
    """True when the conjunct reads no joined state columns (it may read
    input fields, element vars, and call functions including table
    aggregates — those see the table, not the joined row)."""
    return not collect_refs(expr).table_columns


def _pushdown_statement(stmt: StatementIR) -> StatementIR:
    has_join = any(isinstance(op, JoinState) for op in stmt.ops)
    if not has_join:
        return stmt
    filters = [op for op in stmt.ops if isinstance(op, FilterRows)]
    if not filters:
        return stmt
    early: List[Expr] = []
    late: List[Expr] = []
    for filter_op in filters:
        for conjunct in conjuncts(filter_op.predicate):
            (early if _input_only(conjunct) else late).append(conjunct)
    if not early:
        return stmt
    ops: List[Op] = []
    for op in stmt.ops:
        if isinstance(op, Scan):
            ops.append(op)
            early_pred = _conjoin(early)
            if early_pred is not None:
                ops.append(FilterRows(predicate=early_pred))
        elif isinstance(op, FilterRows):
            late_pred = _conjoin(late)
            if late_pred is not None:
                ops.append(FilterRows(predicate=late_pred))
                late = []
        else:
            ops.append(op)
    return StatementIR(ops=tuple(ops), span=stmt.span)


def pushdown_element(element: ElementIR) -> ElementIR:
    """Apply predicate pushdown to every handler statement."""
    handlers = {
        kind: HandlerIR(
            kind=kind,
            statements=tuple(_pushdown_statement(s) for s in handler.statements),
        )
        for kind, handler in element.handlers.items()
    }
    return ElementIR(
        name=element.name,
        meta=dict(element.meta),
        states=element.states,
        vars=element.vars,
        init=element.init,
        handlers=handlers,
    )
