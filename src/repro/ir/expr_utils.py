"""Expression walking, reference collection, and evaluation.

Shared by the validator-free IR analyses, the reference interpreter, and
the code-generation backends. Evaluation implements the DSL's SQL-flavored
semantics: three-valued-ish NULL handling is simplified to "comparisons
with None are False; arithmetic with None raises".
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Collection, Dict, Iterator, Optional, Set, Tuple

from ..dsl.ast_nodes import (
    BinaryOp,
    CaseExpr,
    ColumnRef,
    Expr,
    FuncCall,
    Literal,
    UnaryOp,
    VarRef,
)
from ..dsl.functions import FunctionRegistry
from ..dsl.schema import COMPARABLE_TYPES
from ..errors import RuntimeFault

#: Functions whose first argument is a state-table *name*, not a value.
TABLE_ARG_FUNCS = frozenset(
    {"count", "contains", "sum_of", "min_of", "max_of", "avg_of"}
)

#: table aggregates whose second argument is a *column name* of that table
COLUMN_AGG_FUNCS = frozenset({"sum_of", "min_of", "max_of", "avg_of"})


def run_column_aggregate(name: str, table, column: str):
    """Evaluate a column aggregate over a state table's rows.

    Empty-table semantics follow SQL-ish conventions: sum is 0, min/max/
    avg are None (NULL).
    """
    values = [row[column] for row in table.rows() if row[column] is not None]
    if name == "sum_of":
        return sum(values) if values else 0
    if not values:
        return None
    if name == "min_of":
        return min(values)
    if name == "max_of":
        return max(values)
    return sum(values) / len(values)  # avg_of


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and every sub-expression, depth-first."""
    yield expr
    if isinstance(expr, FuncCall):
        args = expr.args[1:] if expr.name in TABLE_ARG_FUNCS else expr.args
        for arg in args:
            yield from walk(arg)
    elif isinstance(expr, BinaryOp):
        yield from walk(expr.left)
        yield from walk(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from walk(expr.operand)
    elif isinstance(expr, CaseExpr):
        for condition, value in expr.whens:
            yield from walk(condition)
            yield from walk(value)
        if expr.default is not None:
            yield from walk(expr.default)


@dataclass
class ExprRefs:
    """References collected from an expression tree."""

    input_fields: Set[str] = field(default_factory=set)
    table_columns: Set[Tuple[str, str]] = field(default_factory=set)
    vars: Set[str] = field(default_factory=set)
    functions: Set[str] = field(default_factory=set)
    tables_counted: Set[str] = field(default_factory=set)

    def merge(self, other: "ExprRefs") -> "ExprRefs":
        self.input_fields |= other.input_fields
        self.table_columns |= other.table_columns
        self.vars |= other.vars
        self.functions |= other.functions
        self.tables_counted |= other.tables_counted
        return self


def collect_refs(expr: Optional[Expr]) -> ExprRefs:
    """All input fields, state columns, vars, and functions referenced."""
    refs = ExprRefs()
    if expr is None:
        return refs
    for node in walk(expr):
        if isinstance(node, ColumnRef):
            if node.table in (None, "input"):
                refs.input_fields.add(node.name)
            else:
                refs.table_columns.add((node.table, node.name))
        elif isinstance(node, VarRef):
            refs.vars.add(node.name)
        elif isinstance(node, FuncCall):
            refs.functions.add(node.name)
            if node.name in TABLE_ARG_FUNCS:
                first = node.args[0]
                if isinstance(first, ColumnRef):
                    refs.tables_counted.add(first.name)
    return refs


def references_table(expr: Optional[Expr], table: str) -> bool:
    """True when ``expr`` reads a column of ``table`` or passes the table
    to ``count``/``contains``/``*_of``."""
    if expr is None:
        return False
    refs = collect_refs(expr)
    if table in refs.tables_counted:
        return True
    return any(tbl == table for tbl, _ in refs.table_columns)


def conjuncts(expr: Expr) -> Iterator[Expr]:
    """The operands of an ``AND`` chain, left to right."""
    if isinstance(expr, BinaryOp) and expr.op == "and":
        yield from conjuncts(expr.left)
        yield from conjuncts(expr.right)
    else:
        yield expr


def key_pins(
    predicate: Optional[Expr], table: str, keys: Collection[str]
) -> Iterator[Tuple[Expr, str, Expr]]:
    """The key-pinning walk: ``(conjunct, column, expr)`` for each
    conjunct of ``predicate``'s ``AND`` chain, in order, that equates a
    key column of ``table`` with ``expr`` (either way round).

    ``expr`` may still read the table; each reader applies its own test:
    unique-join detection (:mod:`repro.ir.analysis`), the replication and
    effect classifiers (:mod:`repro.ir.replication`) and the Python
    backend's keyed lookups.
    """
    if predicate is None:
        return
    for conjunct in conjuncts(predicate):
        if not (isinstance(conjunct, BinaryOp) and conjunct.op == "=="):
            continue
        for side, other in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if (
                isinstance(side, ColumnRef)
                and side.table == table
                and side.name in keys
            ):
                yield conjunct, side.name, other


@dataclass
class EvalEnv:
    """Everything an expression needs to evaluate.

    * ``row`` — current row: input fields plus any joined state columns
      under ``(table, column)`` keys.
    * ``vars`` — element variable values (mutable mapping).
    * ``tables`` — state-table accessors for ``count``/``contains``:
      name → object with ``__len__`` and ``contains_key(value)``.
    * ``registry`` — function implementations.
    """

    row: Dict[str, object]
    vars: Dict[str, object]
    tables: Dict[str, object] = field(default_factory=dict)
    registry: Optional[FunctionRegistry] = None
    #: optional hook(spec, result_size) the cost model uses to charge calls
    on_func_call: Optional[Callable] = None


def evaluate(expr: Expr, env: EvalEnv) -> object:
    """Evaluate an expression to a Python value.

    Every failure mode — missing field, unbound variable, bad coercion,
    division by zero — raises :class:`RuntimeFault` carrying the span of
    the offending (sub-)expression, never a bare ``KeyError``/
    ``TypeError``/``ZeroDivisionError``.
    """
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, VarRef):
        try:
            return env.vars[expr.name]
        except KeyError:
            raise RuntimeFault(
                f"unbound variable {expr.name!r}", span=expr.span
            ) from None
    if isinstance(expr, ColumnRef):
        return _lookup_column(expr, env)
    if isinstance(expr, FuncCall):
        return _call_function(expr, env)
    if isinstance(expr, UnaryOp):
        value = evaluate(expr.operand, env)
        if expr.op == "not":
            return not truthy(value)
        if expr.op == "-":
            try:
                return -value  # type: ignore[operator]
            except TypeError:
                raise RuntimeFault(
                    f"cannot negate {type(value).__name__}", span=expr.span
                ) from None
        raise RuntimeFault(f"unknown unary op {expr.op!r}", span=expr.span)
    if isinstance(expr, BinaryOp):
        return _eval_binary(expr, env)
    if isinstance(expr, CaseExpr):
        for condition, value in expr.whens:
            if truthy(evaluate(condition, env)):
                return evaluate(value, env)
        if expr.default is not None:
            return evaluate(expr.default, env)
        return None
    raise RuntimeFault(
        f"cannot evaluate {expr!r}", span=getattr(expr, "span", None)
    )


def _lookup_column(ref: ColumnRef, env: EvalEnv) -> object:
    if ref.table in (None, "input"):
        if ref.name in env.row:
            return env.row[ref.name]
        raise RuntimeFault(
            f"input has no field {ref.name!r}", span=ref.span
        )
    key = (ref.table, ref.name)
    if key in env.row:
        return env.row[key]
    raise RuntimeFault(
        f"row has no column {ref.table}.{ref.name}", span=ref.span
    )


def _call_function(call: FuncCall, env: EvalEnv) -> object:
    if env.registry is None:
        raise RuntimeFault("no function registry bound", span=call.span)
    spec = env.registry.get(call.name)
    if call.name in TABLE_ARG_FUNCS:
        table_name = call.args[0]
        assert isinstance(table_name, ColumnRef)
        table = env.tables.get(table_name.name)
        if table is None:
            raise RuntimeFault(
                f"unknown state table {table_name.name!r}", span=call.span
            )
        if call.name == "count":
            result = len(table)
        elif call.name == "contains":
            key_value = evaluate(call.args[1], env)
            result = table.contains_key(key_value)
        else:  # column aggregate: second argument names a column
            column_ref = call.args[1]
            assert isinstance(column_ref, ColumnRef)
            result = run_column_aggregate(
                call.name, table, column_ref.name
            )
        if env.on_func_call is not None:
            env.on_func_call(spec, 0)
        return result
    args = [evaluate(arg, env) for arg in call.args]
    try:
        result = spec.impl(*args)
    except RuntimeFault:
        raise
    except (TypeError, ValueError) as exc:
        raise RuntimeFault(
            f"{call.name}() failed: {exc}", span=call.span
        ) from None
    if env.on_func_call is not None:
        size = 0
        if spec.payload_op and args and isinstance(args[0], (bytes, str)):
            size = len(args[0])
        env.on_func_call(spec, size)
    return result


def truthy(value: object) -> bool:
    """SQL-ish truth: None is false, everything else by Python rules."""
    if value is None:
        return False
    return bool(value)


_COMPARISONS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def compare(left: object, right: object, op: str, span=None) -> bool:
    """A DSL comparison, shared by the interpreter and generated code.

    A NULL operand makes every comparison false (three-valued logic
    simplified to two). Operands that do not order against each other
    fault with a :class:`RuntimeFault`, even under ``==`` and ``!=``:
    the DSL has always evaluated a comparison as all six operators at
    once, so ``'a' == 1`` faults because ``'a' < 1`` does.
    """
    if left is None or right is None:
        return False
    if type(right) in COMPARABLE_TYPES.get(type(left), ()):
        return _COMPARISONS[op](left, right)
    try:
        results = {
            "==": left == right,
            "!=": left != right,
            "<": left < right,  # type: ignore[operator]
            "<=": left <= right,  # type: ignore[operator]
            ">": left > right,  # type: ignore[operator]
            ">=": left >= right,  # type: ignore[operator]
        }
    except TypeError:
        raise RuntimeFault(
            f"cannot compare {type(left).__name__} with "
            f"{type(right).__name__}",
            span=span,
        ) from None
    return results[op]


def _eval_binary(expr: BinaryOp, env: EvalEnv) -> object:
    op = expr.op
    if op == "and":
        return truthy(evaluate(expr.left, env)) and truthy(
            evaluate(expr.right, env)
        )
    if op == "or":
        return truthy(evaluate(expr.left, env)) or truthy(
            evaluate(expr.right, env)
        )
    left = evaluate(expr.left, env)
    right = evaluate(expr.right, env)
    if op in _COMPARISONS:
        return compare(left, right, op, expr.span)
    if left is None or right is None:
        raise RuntimeFault(f"arithmetic {op!r} on NULL", span=expr.span)
    try:
        if op == "+":
            return left + right  # type: ignore[operator]
        if op == "-":
            return left - right  # type: ignore[operator]
        if op == "*":
            return left * right  # type: ignore[operator]
        if op == "/":
            return left / right  # type: ignore[operator]
        if op == "%":
            return left % right  # type: ignore[operator]
    except TypeError:
        raise RuntimeFault(
            f"bad operand types for {op!r}: {type(left).__name__}, "
            f"{type(right).__name__}",
            span=expr.span,
        ) from None
    except ZeroDivisionError:
        raise RuntimeFault(
            f"division by zero in {op!r}", span=expr.span
        ) from None
    raise RuntimeFault(f"unknown binary op {op!r}", span=expr.span)


def is_deterministic(expr: Optional[Expr], registry: FunctionRegistry) -> bool:
    """True when the expression has no nondeterministic function calls."""
    if expr is None:
        return True
    for node in walk(expr):
        if isinstance(node, FuncCall) and not registry.get(node.name).deterministic:
            return False
    return True


def expr_cost_us(expr: Optional[Expr], registry: FunctionRegistry) -> float:
    """Static per-evaluation cost estimate (excluding per-byte terms)."""
    if expr is None:
        return 0.0
    total = 0.0
    for node in walk(expr):
        if isinstance(node, FuncCall):
            total += registry.get(node.name).cost_us
        elif isinstance(node, (BinaryOp, UnaryOp)):
            total += 0.005
        elif isinstance(node, (ColumnRef, VarRef)):
            total += 0.002
    return total


def op_count(expr: Optional[Expr]) -> int:
    """Number of nodes in an expression tree (codegen size metric)."""
    if expr is None:
        return 0
    return sum(1 for _ in walk(expr))
