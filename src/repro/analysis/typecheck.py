"""Abstract interpretation type & effect checker over ElementIR.

Walks every handler statement pipeline the way the reference interpreter
does — Scan binds the input environment, JoinState adds ``(table,
column)`` bindings, Project computes the output environment, EmitRows
records it — but over :class:`~repro.analysis.domains.AbstractValue`
instead of concrete rows. Sites where evaluation is *guaranteed* (or,
for warnings, *possible*) to raise :class:`~repro.errors.RuntimeFault`
become findings:

* ``ADN501`` — reading an input field that cannot be present (error) or
  that only some upstream emit path produces (warning);
* ``ADN502`` — type-mismatched comparison or arithmetic, including
  arithmetic on a guaranteed-NULL operand;
* ``ADN503`` — division/modulo by a divisor that must be zero;
* ``ADN504`` — writing a state column, schema field, or element variable
  with a value of a conflicting type;
* ``ADN505`` — possible faults: divisor that may be zero, arithmetic on
  a possibly-NULL operand.

Chain checking threads each element's abstract output environment into
the next element's input (requests forward, responses reversed), which
is what makes "element B reads a field element A stopped emitting" a
*static* error rather than a 3 a.m. page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

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
from ..dsl.functions import DEFAULT_REGISTRY, FunctionRegistry
from ..dsl.schema import (
    META_FIELDS,
    NUMERIC,
    FieldType,
    RpcSchema,
    WRITABLE_META_FIELDS,
)
from ..dsl.span import Span
from ..ir.expr_utils import TABLE_ARG_FUNCS
from ..ir.nodes import (
    AdvanceInput,
    AssignVar,
    DeleteRows,
    ElementIR,
    EmitRows,
    FilterRows,
    InsertLiterals,
    InsertRows,
    JoinState,
    Project,
    Scan,
    StatementIR,
    UpdateRows,
)
from .domains import (
    TOP,
    AbstractValue,
    arith_result,
    comparable,
    iv_neg,
    join,
)

#: Environment key: input field name, or (table, column) for joined rows.
EnvKey = Union[str, Tuple[str, str]]
Env = Dict[EnvKey, AbstractValue]
#: table -> column -> abstract value of every state column of an element
ColumnEnvs = Dict[str, Dict[str, AbstractValue]]

_ORDERED_OPS = ("<", "<=", ">", ">=")
_ARITH_OPS = ("+", "-", "*", "/", "%")

#: builtins whose result is never NULL (given the runtime's semantics;
#: ``len(None)`` is 0, ``concat`` stringifies, payload UDFs coerce).
_NON_NULL_FUNCS = frozenset(
    {
        "now", "rand", "hash", "len", "count", "contains", "floor",
        "concat", "upper", "lower", "compress", "decompress", "encrypt",
        "decrypt",
    }
)


@dataclass(frozen=True)
class TypeFinding:
    """One guaranteed/possible fault site found by the checker.

    ``severity`` is a plain string ("error" | "warning") so the analysis
    layer stays independent of the lint framework that renders it.
    """

    code: str
    severity: str
    message: str
    span: Optional[Span]
    element: str
    handler: str = ""
    fix: str = ""

    def key(self) -> Tuple[str, str, str, Optional[Tuple[int, int]]]:
        position = (self.span.line, self.span.column) if self.span else None
        return (self.code, self.element, self.message, position)


@dataclass
class HandlerTypeReport:
    """Abstract result of one handler direction."""

    findings: List[TypeFinding]
    #: abstract tuple leaving the handler; None = handler cannot emit
    env_out: Optional[Dict[str, AbstractValue]]
    #: fields present on some but not all emit paths
    maybe_absent: FrozenSet[str] = frozenset()


@dataclass
class ElementTypeReport:
    element: str
    findings: List[TypeFinding]
    handlers: Dict[str, HandlerTypeReport]


@dataclass
class ChainTypeReport:
    """Chain-wide findings plus the final abstract environments."""

    findings: List[TypeFinding]
    request_env: Optional[Dict[str, AbstractValue]]
    response_env: Optional[Dict[str, AbstractValue]]


def env_from_schema(schema: Optional[RpcSchema]) -> Env:
    """The abstract input tuple a chain's first element sees. Application
    schema fields and meta-fields are present and non-NULL (filling the
    schema is the application's side of the contract)."""
    env: Env = {}
    if schema is not None:
        for name, spec in schema.fields.items():
            env[name] = AbstractValue.typed(spec.type)
    for name, field_type in META_FIELDS.items():
        env[name] = AbstractValue.typed(field_type)
    return env


# -- per-handler abstract interpreter ------------------------------------


class _HandlerChecker:
    def __init__(
        self,
        ir: ElementIR,
        kind: str,
        registry: FunctionRegistry,
        schema: Optional[RpcSchema],
        env_in: Env,
        maybe_absent: FrozenSet[str],
        columns: ColumnEnvs,
    ):
        self.ir = ir
        self.kind = kind
        self.registry = registry
        self.schema = schema
        self.closed = schema is not None
        self.env_in = env_in
        self.maybe_absent = set(maybe_absent)
        self.findings: List[TypeFinding] = []
        self.stmt_span: Optional[Span] = None
        #: the element's state columns, shared by its checkers: read only
        self.columns = columns
        self.vars = {
            decl.name: AbstractValue.typed(decl.type) for decl in ir.vars
        }

    # -- findings --------------------------------------------------------

    def report(
        self,
        code: str,
        severity: str,
        message: str,
        span: Optional[Span],
        fix: str = "",
    ) -> None:
        self.findings.append(
            TypeFinding(
                code=code,
                severity=severity,
                message=message,
                span=span or self.stmt_span,
                element=self.ir.name,
                handler=self.kind,
                fix=fix,
            )
        )

    # -- driving a handler ----------------------------------------------

    def run(self) -> HandlerTypeReport:
        handler = self.ir.handler(self.kind)
        if handler is None:
            # passthrough: tuple forwarded unchanged
            return HandlerTypeReport(
                findings=[],
                env_out=_strip(self.env_in),
                maybe_absent=frozenset(self.maybe_absent),
            )
        base: Env = dict(self.env_in)
        emits: List[Dict[str, AbstractValue]] = []
        for stmt in handler.statements:
            if len(stmt.ops) == 1 and isinstance(stmt.ops[0], AdvanceInput):
                if not emits:
                    # the fused member before the seam always drops
                    return HandlerTypeReport(
                        findings=self.findings, env_out=None
                    )
                merged, absent = _join_envs(emits)
                base = dict(merged)
                self.maybe_absent |= absent
                emits = []
                continue
            self.stmt_span = stmt.span
            out = self._run_statement(stmt, base)
            if out is not None:
                emits.append(out)
        if not emits:
            return HandlerTypeReport(findings=self.findings, env_out=None)
        env_out, absent = _join_envs(emits)
        return HandlerTypeReport(
            findings=self.findings,
            env_out=env_out,
            maybe_absent=frozenset(absent | self.maybe_absent),
        )

    def check_init(self) -> None:
        for stmt in self.ir.init:
            self.stmt_span = stmt.span
            for op in stmt.ops:
                if isinstance(op, InsertLiterals):
                    self._check_insert_literals(op)

    # -- one statement pipeline ------------------------------------------

    def _run_statement(
        self, stmt: StatementIR, base: Env
    ) -> Optional[Dict[str, AbstractValue]]:
        """Abstractly execute one pipeline; returns the emitted tuple's
        environment when the statement ends in EmitRows."""
        rows: Env = dict(base)
        for op in stmt.ops:
            if isinstance(op, Scan):
                rows = dict(base)
            elif isinstance(op, JoinState):
                for column, value in self.columns.get(op.table, {}).items():
                    rows[(op.table, column)] = value
                self.eval(op.on, rows)
            elif isinstance(op, FilterRows):
                self.eval(op.predicate, rows)
            elif isinstance(op, Project):
                rows = self._project(rows, op)
            elif isinstance(op, EmitRows):
                return _strip(rows)
            elif isinstance(op, InsertRows):
                self._check_insert(rows, op)
            elif isinstance(op, InsertLiterals):
                self._check_insert_literals(op)
            elif isinstance(op, (UpdateRows, DeleteRows, AssignVar)):
                self._run_state_op(op, base)
        return None

    def _run_state_op(self, op, base: Env) -> None:
        env: Env = dict(base)
        table = getattr(op, "table", None)
        if table is not None:
            for column, value in self.columns.get(table, {}).items():
                env[(table, column)] = value
        where = getattr(op, "where", None)
        if where is not None:
            self.eval(where, env)
        if isinstance(op, UpdateRows):
            columns = self.columns.get(op.table, {})
            declared = self.ir.state_decl(op.table)
            for column, expr in op.assignments:
                value = self.eval(expr, env)
                expected = columns.get(column)
                if expected is not None and _definitely_conflicts(
                    value, expected
                ):
                    self.report(
                        "ADN504",
                        "error",
                        f"column {op.table}.{column} expects "
                        f"{_type_names(expected)}, assigned "
                        f"{_type_names(value)}",
                        expr.span,
                        fix="change the assignment or the column type",
                    )
                if declared is not None and expected is None:
                    self.report(
                        "ADN504",
                        "error",
                        f"table {op.table!r} has no column {column!r}",
                        expr.span,
                    )
        elif isinstance(op, AssignVar):
            value = self.eval(op.expr, env)
            expected = self.vars.get(op.var)
            if expected is not None and _definitely_conflicts(value, expected):
                self.report(
                    "ADN504",
                    "error",
                    f"var {op.var!r} expects {_type_names(expected)}, "
                    f"assigned {_type_names(value)}",
                    op.expr.span,
                    fix="change the expression or the var's declared type",
                )

    def _project(self, rows: Env, op: Project) -> Env:
        output: Env = {}
        if op.keep_input:
            output.update(_strip(rows))
        for table in op.star_tables:
            for key, value in rows.items():
                if isinstance(key, tuple) and key[0] == table:
                    output[key[1]] = value
        for name, expr in op.items:
            value = self.eval(expr, rows)
            output[name] = value
            self._check_field_write(name, value, expr)
        for key, value in rows.items():
            if isinstance(key, tuple) and key not in output:
                output[key] = value
        return output

    def _check_field_write(
        self, name: str, value: AbstractValue, expr: Expr
    ) -> None:
        """Writing a schema field or writable meta-field with the wrong
        type corrupts the wire tuple for everyone downstream."""
        expected_type: Optional[FieldType] = None
        if self.schema is not None and name in self.schema.fields:
            expected_type = self.schema.fields[name].type
        elif name in WRITABLE_META_FIELDS:
            expected_type = META_FIELDS[name]
        if expected_type is None:
            return
        expected = AbstractValue.typed(expected_type, nullable=True)
        if _definitely_conflicts(value, expected):
            self.report(
                "ADN504",
                "error",
                f"field {name!r} carries {expected_type.value} on the "
                f"wire, assigned {_type_names(value)}",
                expr.span,
                fix="rename the output or convert the value",
            )

    def _check_insert(self, rows: Env, op: InsertRows) -> None:
        declared = self.ir.state_decl(op.table)
        if declared is None:
            return
        columns = {col.name: col for col in declared.columns}
        projected = _strip(rows)
        for name in projected:
            if name not in columns:
                self.report(
                    "ADN504",
                    "error",
                    f"INSERT into {op.table!r} produces field {name!r} "
                    "which is not a column",
                    None,
                )
        for name, col in columns.items():
            if name not in projected:
                self.report(
                    "ADN504",
                    "error",
                    f"INSERT into {op.table!r} misses column {name!r}",
                    None,
                )
                continue
            value = projected[name]
            expected = AbstractValue.typed(col.type, nullable=True)
            if _definitely_conflicts(value, expected):
                self.report(
                    "ADN504",
                    "error",
                    f"column {op.table}.{name} expects {col.type.value}, "
                    f"inserted {_type_names(value)}",
                    None,
                )

    def _check_insert_literals(self, op: InsertLiterals) -> None:
        declared = self.ir.state_decl(op.table)
        if declared is None:
            return
        for values in op.rows:
            if len(values) != len(declared.columns):
                self.report(
                    "ADN504",
                    "error",
                    f"INSERT INTO {op.table} VALUES: {len(values)} values "
                    f"for {len(declared.columns)} columns",
                    None,
                )
                continue
            for col, value in zip(declared.columns, values):
                if value is not None and not col.type.accepts(value):
                    self.report(
                        "ADN504",
                        "error",
                        f"column {op.table}.{col.name} expects "
                        f"{col.type.value}, got literal {value!r}",
                        None,
                    )

    # -- abstract expression evaluation ----------------------------------

    def eval(self, expr: Expr, env: Env) -> AbstractValue:
        if isinstance(expr, Literal):
            return AbstractValue.of_const(expr.value)
        if isinstance(expr, VarRef):
            return self.vars.get(expr.name, TOP)
        if isinstance(expr, ColumnRef):
            return self._eval_column(expr, env)
        if isinstance(expr, FuncCall):
            return self._eval_func(expr, env)
        if isinstance(expr, UnaryOp):
            return self._eval_unary(expr, env)
        if isinstance(expr, BinaryOp):
            return self._eval_binary(expr, env)
        if isinstance(expr, CaseExpr):
            branches: List[AbstractValue] = []
            for condition, value in expr.whens:
                self.eval(condition, env)
                branches.append(self.eval(value, env))
            if expr.default is not None:
                branches.append(self.eval(expr.default, env))
            else:
                branches.append(AbstractValue.of_const(None))
            result = branches[0]
            for branch in branches[1:]:
                result = join(result, branch)
            return result
        return TOP

    def _eval_column(self, ref: ColumnRef, env: Env) -> AbstractValue:
        if ref.table in (None, "input"):
            if ref.name in env:
                if ref.name in self.maybe_absent:
                    self.report(
                        "ADN501",
                        "warning",
                        f"field {ref.name!r} is only emitted on some "
                        "upstream paths; reading it here can fault",
                        ref.span,
                        fix="emit the field on every path or guard the read",
                    )
                return env[ref.name]
            if self.closed:
                self.report(
                    "ADN501",
                    "error",
                    f"input has no field {ref.name!r} here — this read is "
                    "guaranteed to fault",
                    ref.span,
                    fix="add the field to the schema or emit it upstream",
                )
            return TOP
        key = (ref.table, ref.name)
        if key in env:
            return env[key]
        return self.columns.get(ref.table, {}).get(ref.name, TOP)

    def _eval_unary(self, expr: UnaryOp, env: Env) -> AbstractValue:
        value = self.eval(expr.operand, env)
        if expr.op == "not":
            return AbstractValue.typed(FieldType.BOOL)
        if expr.op == "-":
            if value.definitely_not_numeric():
                self.report(
                    "ADN502",
                    "error",
                    f"cannot negate {_type_names(value)}",
                    expr.span,
                )
                return TOP
            lo, hi = iv_neg(value)
            types = (
                (value.types & NUMERIC) if value.types is not None else None
            )
            return AbstractValue(
                types=types or NUMERIC,
                nullable=value.nullable,
                lo=lo,
                hi=hi,
            )
        return TOP

    def _eval_binary(self, expr: BinaryOp, env: Env) -> AbstractValue:
        if expr.op in ("and", "or"):
            self.eval(expr.left, env)
            self.eval(expr.right, env)
            return AbstractValue.typed(FieldType.BOOL)
        left = self.eval(expr.left, env)
        right = self.eval(expr.right, env)
        if expr.op in ("==", "!=") + _ORDERED_OPS:
            if not comparable(left, right):
                if expr.op in _ORDERED_OPS:
                    severity = (
                        "error"
                        if not (left.nullable or right.nullable)
                        else "warning"
                    )
                    self.report(
                        "ADN502",
                        severity,
                        f"ordered comparison of {_type_names(left)} with "
                        f"{_type_names(right)} is guaranteed to fault",
                        expr.span,
                        fix="compare values of the same type",
                    )
                else:
                    self.report(
                        "ADN502",
                        "warning",
                        f"equality between {_type_names(left)} and "
                        f"{_type_names(right)} is always false",
                        expr.span,
                    )
            return AbstractValue.typed(FieldType.BOOL)
        if expr.op in _ARITH_OPS:
            return self._eval_arith(expr, left, right)
        return TOP

    def _eval_arith(
        self, expr: BinaryOp, left: AbstractValue, right: AbstractValue
    ) -> AbstractValue:
        if left.is_null or right.is_null:
            self.report(
                "ADN502",
                "error",
                f"arithmetic {expr.op!r} on NULL is guaranteed to fault",
                expr.span,
            )
            return TOP
        if left.nullable or right.nullable:
            self.report(
                "ADN505",
                "warning",
                f"arithmetic {expr.op!r} faults if its operand is NULL "
                "here (operand is nullable)",
                expr.span,
                fix="wrap the nullable operand in coalesce(...)",
            )
        if _arith_guaranteed_fault(expr.op, left, right):
            self.report(
                "ADN502",
                "error",
                f"operator {expr.op!r} on {_type_names(left)} and "
                f"{_type_names(right)} is guaranteed to fault",
                expr.span,
            )
            return TOP
        if expr.op in ("/", "%"):
            if right.must_be_zero():
                self.report(
                    "ADN503",
                    "error",
                    f"division by zero: the divisor of {expr.op!r} is "
                    "always 0",
                    expr.span,
                    fix="guard the division or fix the divisor",
                )
                return TOP
            if right.may_be_zero() and right.may_be_numeric():
                self.report(
                    "ADN505",
                    "warning",
                    f"the divisor of {expr.op!r} may be zero",
                    expr.span,
                    fix="guard with a WHERE/CASE on the divisor",
                )
        return arith_result(expr.op, left, right)

    def _eval_func(self, call: FuncCall, env: Env) -> AbstractValue:
        name = call.name
        if name == "count":
            return AbstractValue(
                types=frozenset({FieldType.INT}), nullable=False, lo=0.0
            )
        if name == "contains":
            if len(call.args) > 1:
                self.eval(call.args[1], env)
            return AbstractValue.typed(FieldType.BOOL)
        if name in TABLE_ARG_FUNCS:  # sum_of / min_of / max_of / avg_of
            column_type = self._aggregate_column_type(call)
            if name == "avg_of":
                column_type = FieldType.FLOAT
            nullable = name != "sum_of"  # empty table: sum is 0, rest NULL
            types = (
                frozenset({column_type}) if column_type is not None else None
            )
            return AbstractValue(types=types, nullable=nullable)
        values = [self.eval(arg, env) for arg in call.args]
        try:
            spec = self.registry.get(name)
        except Exception:
            return TOP
        if name == "rand":
            return AbstractValue(
                types=frozenset({FieldType.FLOAT}),
                nullable=False,
                lo=0.0,
                hi=1.0,
            )
        if name == "len":
            return AbstractValue(
                types=frozenset({FieldType.INT}), nullable=False, lo=0.0
            )
        if name == "coalesce" and len(values) == 2:
            # a NULL argument's value has no type: join the others
            present = [v for v in values if not v.is_null] or values
            merged = join(present[0], present[-1])
            nullable = values[0].nullable and values[1].nullable
            return AbstractValue(
                types=merged.types,
                nullable=nullable,
                lo=merged.lo,
                hi=merged.hi,
            )
        if name in ("min", "max") and len(values) == 2:
            merged = join(values[0], values[1])
            return merged
        if name == "abs" and values:
            return AbstractValue(
                types=values[0].types, nullable=values[0].nullable, lo=0.0
            )
        if spec.result_type is not None:
            types: Optional[FrozenSet[FieldType]] = frozenset(
                {spec.result_type}
            )
        elif values:
            types = values[0].types  # result_type None = first argument's
        else:
            types = None
        nullable = (
            False
            if name in _NON_NULL_FUNCS
            else any(value.nullable for value in values)
        )
        return AbstractValue(types=types, nullable=nullable)

    def _aggregate_column_type(self, call: FuncCall) -> Optional[FieldType]:
        if len(call.args) < 2:
            return None
        table_ref, column_ref = call.args[0], call.args[1]
        if not isinstance(table_ref, ColumnRef) or not isinstance(
            column_ref, ColumnRef
        ):
            return None
        declared = self.ir.state_decl(table_ref.name)
        if declared is None:
            return None
        for col in declared.columns:
            if col.name == column_ref.name:
                return col.type
        return None


# -- helpers -------------------------------------------------------------


def _strip(env: Env) -> Dict[str, AbstractValue]:
    """Drop joined-column keys, mirroring EmitRows semantics."""
    return {key: value for key, value in env.items() if isinstance(key, str)}


def _join_envs(
    envs: Sequence[Dict[str, AbstractValue]]
) -> Tuple[Dict[str, AbstractValue], FrozenSet[str]]:
    """Join emit environments; fields missing from some are maybe-absent."""
    merged: Dict[str, AbstractValue] = {}
    seen_in_all: Optional[set] = None
    for env in envs:
        for name, value in env.items():
            merged[name] = (
                join(merged[name], value) if name in merged else value
            )
        keys = set(env)
        seen_in_all = keys if seen_in_all is None else (seen_in_all & keys)
    absent = frozenset(set(merged) - (seen_in_all or set()))
    return merged, absent


def _column_envs(ir: ElementIR) -> ColumnEnvs:
    """Abstract value of every state column: declared type, nullable when
    some write can store NULL into it (syntactic approximation)."""
    nullable_cols = _nullable_columns(ir)
    return {
        decl.name: {
            col.name: AbstractValue.typed(
                col.type, nullable=(decl.name, col.name) in nullable_cols
            )
            for col in decl.columns
        }
        for decl in ir.states
    }


def _nullable_columns(ir: ElementIR) -> set:
    out: set = set()
    statements = list(ir.init)
    for handler in ir.handlers.values():
        statements.extend(handler.statements)
    for stmt in statements:
        target: Optional[str] = None
        items: List[Tuple[str, Expr]] = []
        for op in stmt.ops:
            if isinstance(op, Project):
                items = list(op.items)
            elif isinstance(op, InsertRows):
                target = op.table
            elif isinstance(op, InsertLiterals):
                declared = ir.state_decl(op.table)
                if declared is None:
                    continue
                for values in op.rows:
                    for col, value in zip(declared.columns, values):
                        if value is None:
                            out.add((op.table, col.name))
            elif isinstance(op, UpdateRows):
                for column, expr in op.assignments:
                    if _expr_maybe_null(expr):
                        out.add((op.table, column))
        if target is not None:
            declared = ir.state_decl(target)
            names = (
                {col.name for col in declared.columns} if declared else set()
            )
            for name, expr in items:
                if name in names and _expr_maybe_null(expr):
                    out.add((target, name))
    return out


def _expr_maybe_null(expr: Expr) -> bool:
    if isinstance(expr, Literal):
        return expr.value is None
    if isinstance(expr, FuncCall):
        if expr.name in ("min_of", "max_of", "avg_of"):
            return True
        if expr.name == "coalesce":
            return all(_expr_maybe_null(arg) for arg in expr.args)
        return False
    if isinstance(expr, CaseExpr):
        if expr.default is None:
            return True
        return _expr_maybe_null(expr.default) or any(
            _expr_maybe_null(value) for _, value in expr.whens
        )
    return False


def _definitely_conflicts(
    value: AbstractValue, expected: AbstractValue
) -> bool:
    """The write faults (or corrupts the wire layout) for *every* possible
    runtime value: both sides' types are known and share no member, with
    INT accepted where FLOAT is expected (schema coercion rules)."""
    if value.types is None or expected.types is None:
        return False
    if value.is_null:
        return False  # NULL is storable in any column
    for have in value.types:
        for want in expected.types:
            if have is want:
                return False
            if want is FieldType.FLOAT and have is FieldType.INT:
                return False
    return True


def _type_names(value: AbstractValue) -> str:
    if value.is_null:
        return "NULL"
    if value.types is None:
        return "unknown"
    return "/".join(sorted(t.value for t in value.types))


def _arith_guaranteed_fault(
    op: str, left: AbstractValue, right: AbstractValue
) -> bool:
    """True only when *every* (type, type) combination raises at runtime.
    Mirrors Python operator semantics, since that is what the reference
    interpreter executes: ``str + str`` concatenates, ``str * int``
    repeats, ``str % x`` formats, bools act as ints."""
    if left.types is None or right.types is None:
        return False
    for a in left.types:
        for b in right.types:
            if not _pair_faults(op, a, b):
                return False
    return True


def _pair_faults(op: str, a: FieldType, b: FieldType) -> bool:
    numericish = NUMERIC | {FieldType.BOOL}
    if a in numericish and b in numericish:
        return False
    if op == "+" and a is b and a in (FieldType.STR, FieldType.BYTES):
        return False
    if op == "*" and (
        (a in (FieldType.STR, FieldType.BYTES) and b in numericish)
        or (b in (FieldType.STR, FieldType.BYTES) and a in numericish)
    ):
        return False
    if op == "%" and a is FieldType.STR:
        return False
    return True


# -- public entry points -------------------------------------------------


def check_element(
    ir: ElementIR,
    schema: Optional[RpcSchema],
    registry: Optional[FunctionRegistry] = None,
    env_in: Optional[Env] = None,
    maybe_absent: FrozenSet[str] = frozenset(),
) -> ElementTypeReport:
    """Check one element standalone. With a schema the input environment
    is closed (unknown field reads are errors); without one it is open."""
    registry = registry or DEFAULT_REGISTRY
    base_env = dict(env_in) if env_in is not None else env_from_schema(schema)
    findings: List[TypeFinding] = []
    handlers: Dict[str, HandlerTypeReport] = {}
    columns = _column_envs(ir)
    init_checker = _HandlerChecker(
        ir, "init", registry, schema, base_env, frozenset(), columns
    )
    init_checker.check_init()
    findings.extend(init_checker.findings)
    for kind in ("request", "response"):
        checker = _HandlerChecker(
            ir, kind, registry, schema, base_env, maybe_absent, columns
        )
        report = checker.run()
        findings.extend(report.findings)
        handlers[kind] = report
    return ElementTypeReport(
        element=ir.name, findings=findings, handlers=handlers
    )


def check_chain(
    elements: Sequence[ElementIR],
    schema: Optional[RpcSchema],
    registry: Optional[FunctionRegistry] = None,
    env_in: Optional[Env] = None,
    absent_in: FrozenSet[str] = frozenset(),
) -> ChainTypeReport:
    """Thread abstract environments through a whole chain, requests
    forward and responses in reverse, checking each element against what
    actually reaches it.

    ``env_in``/``absent_in`` seed the request direction with an
    interprocedural entry environment (what an upstream service graph
    edge actually delivers) instead of the schema's pristine one — the
    hook :mod:`repro.analysis.graph` uses to typecheck each edge against
    what crosses the wire, not what the schema promises."""
    registry = registry or DEFAULT_REGISTRY
    findings: List[TypeFinding] = []
    env: Optional[Env] = (
        dict(env_in) if env_in is not None else env_from_schema(schema)
    )
    absent: FrozenSet[str] = frozenset(absent_in)
    #: each checked element's state columns, for its response checker
    columns: List[ColumnEnvs] = []
    for ir in elements:
        columns.append(_column_envs(ir))
        init_checker = _HandlerChecker(
            ir, "init", registry, schema, env or {}, frozenset(), columns[-1]
        )
        init_checker.check_init()
        findings.extend(init_checker.findings)
        if env is None:
            break  # nothing ever reaches this far
        checker = _HandlerChecker(
            ir, "request", registry, schema, env, absent, columns[-1]
        )
        report = checker.run()
        findings.extend(report.findings)
        env = report.env_out
        absent = report.maybe_absent
    request_env = dict(env) if env is not None else None
    # Responses echo the tuple the server received (the final request
    # env), traversing the chain reversed.
    response: Optional[Env] = (
        dict(request_env) if request_env is not None else None
    )
    for ir, ir_columns in reversed(list(zip(elements, columns))):
        if response is None:
            break
        checker = _HandlerChecker(
            ir, "response", registry, schema, response, absent, ir_columns
        )
        report = checker.run()
        findings.extend(report.findings)
        response = report.env_out
        absent = report.maybe_absent
    return ChainTypeReport(
        findings=findings,
        request_env=request_env,
        response_env=dict(response) if response is not None else None,
    )
