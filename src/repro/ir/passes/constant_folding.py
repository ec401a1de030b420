"""Constant folding over DSL expressions embedded in the IR.

An operator or a pure, deterministic function call whose operands are
all literals becomes the literal the runtime's own evaluator computes
for it; one the runtime would fault on stays as written. ``and``/``or``
with a non-literal operand fold only where the runtime's left-to-right
short-circuit decides them from a literal left operand. Decided CASE
branches are pruned, and a filter whose predicate folds to true is
dropped.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from ...dsl.ast_nodes import (
    BinaryOp,
    CaseExpr,
    Expr,
    FuncCall,
    Literal,
    UnaryOp,
)
from ...dsl.functions import DEFAULT_REGISTRY, FunctionRegistry
from ..expr_utils import TABLE_ARG_FUNCS, EvalEnv, evaluate, truthy
from ..nodes import (
    AssignVar,
    DeleteRows,
    ElementIR,
    FilterRows,
    HandlerIR,
    JoinState,
    Op,
    Project,
    StatementIR,
    UpdateRows,
)


def fold_expr(expr: Expr, registry: Optional[FunctionRegistry] = None) -> Expr:
    """Return an equivalent expression with constants folded."""
    registry = registry or DEFAULT_REGISTRY
    if isinstance(expr, BinaryOp):
        left = fold_expr(expr.left, registry)
        right = fold_expr(expr.right, registry)
        if (
            expr.op in ("and", "or")
            and isinstance(left, Literal)
            and truthy(left.value) is (expr.op == "or")
        ):
            return Literal(expr.op == "or")  # the right side never runs
        folded = BinaryOp(expr.op, left, right)
        return _evaluated(folded, (left, right), registry)
    if isinstance(expr, UnaryOp):
        operand = fold_expr(expr.operand, registry)
        return _evaluated(UnaryOp(expr.op, operand), (operand,), registry)
    if isinstance(expr, FuncCall):
        if expr.name in TABLE_ARG_FUNCS:
            rest = tuple(fold_expr(a, registry) for a in expr.args[1:])
            return FuncCall(expr.name, (expr.args[0],) + rest)
        args = tuple(fold_expr(a, registry) for a in expr.args)
        call = FuncCall(expr.name, args)
        spec = registry.get(expr.name)
        if spec.deterministic and spec.pure:
            return _evaluated(call, args, registry)
        return call
    if isinstance(expr, CaseExpr):
        whens = []
        for condition, value in expr.whens:
            condition = fold_expr(condition, registry)
            value = fold_expr(value, registry)
            if isinstance(condition, Literal):
                if truthy(condition.value):
                    if not whens:
                        return value  # first branch statically taken
                    whens.append((Literal(True), value))
                    return CaseExpr(tuple(whens), None)
                continue  # statically dead branch
            whens.append((condition, value))
        default = (
            fold_expr(expr.default, registry) if expr.default is not None else None
        )
        if not whens:
            return default if default is not None else Literal(None)
        return CaseExpr(tuple(whens), default)
    return expr


def _evaluated(
    node: Expr, operands: Sequence[Expr], registry: FunctionRegistry
) -> Expr:
    """``node`` as the literal the runtime computes for it when every
    operand is a literal; ``node`` itself when one is not, or when the
    runtime raises (a fault, or a payload UDF's own error)."""
    if not all(isinstance(operand, Literal) for operand in operands):
        return node
    env = EvalEnv(row={}, vars={}, registry=registry)
    try:
        return Literal(evaluate(node, env))
    except Exception:
        return node


def _fold_op(op: Op, registry: FunctionRegistry) -> Op:
    if isinstance(op, JoinState):
        return replace(op, on=fold_expr(op.on, registry))
    if isinstance(op, FilterRows):
        return replace(op, predicate=fold_expr(op.predicate, registry))
    if isinstance(op, Project):
        return replace(
            op,
            items=tuple((n, fold_expr(e, registry)) for n, e in op.items),
        )
    if isinstance(op, UpdateRows):
        return replace(
            op,
            assignments=tuple(
                (c, fold_expr(e, registry)) for c, e in op.assignments
            ),
            where=fold_expr(op.where, registry) if op.where is not None else None,
        )
    if isinstance(op, DeleteRows):
        return replace(
            op,
            where=fold_expr(op.where, registry) if op.where is not None else None,
        )
    if isinstance(op, AssignVar):
        return replace(
            op,
            expr=fold_expr(op.expr, registry),
            where=fold_expr(op.where, registry) if op.where is not None else None,
        )
    return op


def _fold_statement(stmt: StatementIR, registry: FunctionRegistry) -> StatementIR:
    ops = []
    for op in stmt.ops:
        folded = _fold_op(op, registry)
        if isinstance(folded, FilterRows) and isinstance(folded.predicate, Literal):
            if truthy(folded.predicate.value):
                continue  # WHERE true: drop the filter entirely
        ops.append(folded)
    return StatementIR(ops=tuple(ops), span=stmt.span)


def fold_constants_element(
    element: ElementIR, registry: Optional[FunctionRegistry] = None
) -> ElementIR:
    """Fold constants in every handler and init statement (returns a new
    ElementIR; the input is not mutated)."""
    registry = registry or DEFAULT_REGISTRY
    handlers = {
        kind: HandlerIR(
            kind=kind,
            statements=tuple(
                _fold_statement(s, registry) for s in handler.statements
            ),
        )
        for kind, handler in element.handlers.items()
    }
    return ElementIR(
        name=element.name,
        meta=dict(element.meta),
        states=element.states,
        vars=element.vars,
        init=tuple(_fold_statement(s, registry) for s in element.init),
        handlers=handlers,
    )
