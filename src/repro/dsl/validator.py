"""Semantic validation for parsed ADN elements and apps.

Validation does three jobs:

1. **Checks** — unknown tables/columns/functions, arity errors, writes to
   undeclared variables, INSERT arity mismatches, duplicate declarations,
   handler sanity.
2. **Name resolution** — a bare identifier in an expression may name an
   element variable, an ``input`` field, or a column of a joined state
   table. The validator rewrites variable references to :class:`VarRef`
   nodes so later stages never re-resolve.
3. **Type inference** — best-effort static typing; mismatches that are
   provable (e.g. ``'a' + 1``) are rejected, unknown types are allowed
   (the schema may be open).

The element's RPC schema is optional: elements are reusable across apps
(paper Q1), so an element may be validated generically and re-validated
against a concrete :class:`~repro.dsl.schema.RpcSchema` when bound to an
app's chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from ..errors import DslValidationError
from .ast_nodes import (
    AppDef,
    BinaryOp,
    CaseExpr,
    ColumnRef,
    DeleteStmt,
    ElementDef,
    Expr,
    FilterDef,
    FuncCall,
    Handler,
    InsertValues,
    Literal,
    Program,
    SelectItem,
    SelectStmt,
    SetStmt,
    Star,
    Statement,
    UnaryOp,
    UpdateStmt,
    VarRef,
)
from .functions import DEFAULT_REGISTRY, FunctionRegistry
from .schema import (
    META_FIELDS,
    NUMERIC,
    WRITABLE_META_FIELDS,
    FieldType,
    RpcSchema,
    statically_comparable,
)

#: Meta keys the validator understands; unknown keys are rejected to catch
#: typos like ``postion``.
KNOWN_META_KEYS = frozenset(
    {
        "position",  # sender | receiver | any
        "mandatory",  # bool: must run outside the app binary
        "description",
        "abort_probability",
        "rate",
        "burst",
        "max_retries",
        "timeout_ms",
        "retry_on",
        "backoff_ms",
        "failure_threshold",
        "reset_ms",
        "window",
        "key_field",
        "sample_rate",
        "capacity",
        "ttl_s",
        "checkpoint",  # bool: stream this element's state to a warm standby
        # overload control (repro.overload)
        "admission_control",  # bool: install a shedder on the host processor
        "target_delay_ms",  # CoDel target sojourn
        "interval_ms",  # CoDel interval
        "util_threshold",  # utilization where probabilistic shedding starts
        "max_shed_probability",
        "priority",  # sheds prefer requests below this priority
        "seed",
        "deadline_budget_ms",  # overall budget for one logical call (retry)
        # hardware offload (repro.offload)
        "table_entries",  # expected rows per keyed table, for the device
        # memory estimate (default 65536); ADN406 checks the result
    }
)

def _verr(message: str, node: object = None) -> DslValidationError:
    """A DslValidationError pointing at ``node``'s source span, when the
    node carries one (parser-produced nodes do; synthesized nodes don't)."""
    span = getattr(node, "span", None)
    if span is not None:
        return DslValidationError(message, span.line, span.column)
    return DslValidationError(message)


#: filter operator -> the meta keys its runtime reads as numbers
#: (``int()``/``float()`` in :func:`repro.runtime.filters.apply_filter`)
_OPERATOR_NUMERIC_META = {
    "retry": ("max_retries", "timeout_ms", "backoff_ms", "deadline_budget_ms"),
    "timeout": ("timeout_ms",),
    "rate_limit_shaper": ("rate",),
    "congestion_control": ("window",),
    "circuit_breaker": ("failure_threshold", "reset_ms"),
}
_KNOWN_OPERATORS = frozenset(_OPERATOR_NUMERIC_META)


@dataclass
class Scope:
    """Naming environment for expressions inside one statement."""

    input_fields: Optional[Dict[str, FieldType]]  # None = open schema
    tables: Dict[str, Dict[str, FieldType]] = field(default_factory=dict)
    vars: Dict[str, FieldType] = field(default_factory=dict)
    derived_fields: Dict[str, FieldType] = field(default_factory=dict)
    #: UPDATE/DELETE scopes resolve bare names to the target table's
    #: columns before input fields (SQL semantics: the updated relation
    #: is the innermost scope)
    prefer_tables: bool = False

    def input_field_type(self, name: str) -> Optional[FieldType]:
        if name in META_FIELDS:
            return META_FIELDS[name]
        if name in self.derived_fields:
            return self.derived_fields[name]
        if self.input_fields is None:
            return None  # open schema: unknown but allowed
        return self.input_fields.get(name)

    def has_input_field(self, name: str) -> bool:
        if name in META_FIELDS or name in self.derived_fields:
            return True
        if self.input_fields is None:
            return True  # open schema accepts anything
        return name in self.input_fields


class ElementValidator:
    """Validates one :class:`ElementDef`; see module docstring."""

    def __init__(
        self,
        element: ElementDef,
        schema: Optional[RpcSchema] = None,
        registry: Optional[FunctionRegistry] = None,
    ):
        self.element = element
        self.schema = schema
        self.registry = registry or DEFAULT_REGISTRY
        self._table_columns: Dict[str, Dict[str, FieldType]] = {}
        self._append_only: Set[str] = set()
        self._var_types: Dict[str, FieldType] = {}

    # -- public ----------------------------------------------------------

    def validate(self) -> ElementDef:
        """Run all checks; return the element with variables resolved."""
        self._check_meta()
        self._collect_states()
        self._collect_vars()
        for stmt in self.element.init:
            self._check_init_statement(stmt)
        self._check_handlers()
        new_handlers = tuple(
            Handler(
                h.kind,
                tuple(self._validate_statement(s) for s in h.statements),
                span=h.span,
            )
            for h in self.element.handlers
        )
        new_init = tuple(self._resolve_statement(s) for s in self.element.init)
        return replace(self.element, handlers=new_handlers, init=new_init)

    # -- declaration checks --------------------------------------------------

    def _check_meta(self) -> None:
        for key in self.element.meta:
            if key not in KNOWN_META_KEYS:
                raise _verr(
                    f"element {self.element.name!r}: unknown meta key {key!r}",
                    self.element,
                )
        position = self.element.meta.get("position", "any")
        if position not in ("sender", "receiver", "any"):
            raise _verr(
                f"element {self.element.name!r}: position must be "
                f"sender/receiver/any, got {position!r}",
                self.element,
            )

    def _collect_states(self) -> None:
        for decl in self.element.states:
            if decl.name in ("input", "output"):
                raise _verr(
                    f"state table may not be named {decl.name!r}", decl
                )
            if decl.name in self._table_columns:
                raise _verr(f"duplicate state table {decl.name!r}", decl)
            columns: Dict[str, FieldType] = {}
            for col in decl.columns:
                if col.name in columns:
                    raise _verr(
                        f"duplicate column {col.name!r} in table {decl.name!r}",
                        col,
                    )
                columns[col.name] = col.type
            self._table_columns[decl.name] = columns
            if decl.append_only:
                self._append_only.add(decl.name)

    def _collect_vars(self) -> None:
        for decl in self.element.vars:
            if decl.name in self._var_types:
                raise _verr(f"duplicate var {decl.name!r}", decl)
            if decl.name in self._table_columns:
                raise _verr(
                    f"var {decl.name!r} collides with a state table", decl
                )
            if decl.init.value is not None and not decl.type.accepts(decl.init.value):
                raise _verr(
                    f"var {decl.name!r}: initializer {decl.init.value!r} is not "
                    f"a {decl.type.value}",
                    decl,
                )
            self._var_types[decl.name] = decl.type

    def _check_handlers(self) -> None:
        seen: Set[str] = set()
        for handler in self.element.handlers:
            if handler.kind in seen:
                raise _verr(
                    f"element {self.element.name!r}: duplicate "
                    f"'on {handler.kind}' handler",
                    handler,
                )
            seen.add(handler.kind)
        if not seen:
            raise _verr(
                f"element {self.element.name!r} has no handlers", self.element
            )

    def _check_init_statement(self, stmt: Statement) -> None:
        if isinstance(stmt, InsertValues):
            self._check_insert_values(stmt)
            return
        if isinstance(stmt, (SelectStmt, SetStmt, UpdateStmt, DeleteStmt)):
            if isinstance(stmt, SelectStmt) and stmt.source == "input":
                raise _verr(
                    "init block cannot read the input stream", stmt
                )
            return
        raise _verr(f"unsupported init statement {stmt!r}", stmt)

    # -- statement validation ----------------------------------------------

    def _scope_for(self, stmt: SelectStmt) -> Scope:
        scope = Scope(
            input_fields=(
                {n: s.type for n, s in self.schema.fields.items()}
                if self.schema
                else None
            ),
            vars=dict(self._var_types),
        )
        tables = [stmt.source] + [j.table for j in stmt.joins]
        for table in tables:
            if table == "input":
                continue
            if table not in self._table_columns:
                raise _verr(
                    f"element {self.element.name!r}: unknown table {table!r}",
                    stmt,
                )
            if table in self._append_only:
                raise _verr(
                    f"append-only table {table!r} cannot be read", stmt
                )
            scope.tables[table] = self._table_columns[table]
        return scope

    def _validate_statement(self, stmt: Statement) -> Statement:
        if isinstance(stmt, SelectStmt):
            return self._validate_select(stmt)
        if isinstance(stmt, InsertValues):
            self._check_insert_values(stmt)
            return stmt
        if isinstance(stmt, UpdateStmt):
            return self._validate_update(stmt)
        if isinstance(stmt, DeleteStmt):
            return self._validate_delete(stmt)
        if isinstance(stmt, SetStmt):
            return self._validate_set(stmt)
        raise _verr(f"unsupported statement {stmt!r}", stmt)

    def _validate_select(self, stmt: SelectStmt) -> SelectStmt:
        if stmt.source != "input" and stmt.source not in self._table_columns:
            raise _verr(
                f"element {self.element.name!r}: unknown source {stmt.source!r}",
                stmt,
            )
        scope = self._scope_for(stmt)
        new_items: List[object] = []
        for item in stmt.items:
            if isinstance(item, Star):
                if item.table and item.table != "input" and item.table not in scope.tables:
                    raise _verr(
                        f"'{item.table}.*' refers to a table not in FROM/JOIN",
                        stmt,
                    )
                new_items.append(item)
            else:
                assert isinstance(item, SelectItem)
                expr = self._resolve_expr(item.expr, scope)
                self._infer_type(expr, scope)
                new_items.append(SelectItem(expr=expr, alias=item.alias))
        new_joins = tuple(
            replace(j, on=self._check_bool_expr(j.on, scope)) for j in stmt.joins
        )
        new_where = (
            self._check_bool_expr(stmt.where, scope) if stmt.where is not None else None
        )
        if stmt.into is not None:
            self._check_select_into(stmt, new_items)
        self._check_written_meta_fields(new_items)
        return replace(stmt, items=tuple(new_items), joins=new_joins, where=new_where)

    def _check_written_meta_fields(self, items: List[object]) -> None:
        for item in items:
            if isinstance(item, SelectItem) and item.alias:
                if item.alias in META_FIELDS and item.alias not in WRITABLE_META_FIELDS:
                    raise _verr(
                        f"meta-field {item.alias!r} is read-only "
                        f"(writable: {sorted(WRITABLE_META_FIELDS)})",
                        item.expr,
                    )

    def _check_select_into(self, stmt: SelectStmt, items: List[object]) -> None:
        table = stmt.into
        if table not in self._table_columns:
            raise _verr(f"INSERT INTO unknown table {table!r}", stmt)
        columns = self._table_columns[table]
        # Star-projections into a table are only allowed if names line up;
        # explicit projections must cover the table's columns positionally.
        explicit = [i for i in items if isinstance(i, SelectItem)]
        has_star = any(isinstance(i, Star) for i in items)
        if not has_star and len(explicit) != len(columns):
            raise _verr(
                f"INSERT INTO {table!r}: {len(explicit)} expressions for "
                f"{len(columns)} columns",
                stmt,
            )

    def _check_insert_values(self, stmt: InsertValues) -> None:
        if stmt.table not in self._table_columns:
            raise _verr(f"INSERT INTO unknown table {stmt.table!r}", stmt)
        columns = list(self._table_columns[stmt.table].items())
        for row in stmt.rows:
            if len(row) != len(columns):
                raise _verr(
                    f"INSERT INTO {stmt.table!r}: row has {len(row)} values "
                    f"for {len(columns)} columns",
                    stmt,
                )
            for value_expr, (col_name, col_type) in zip(row, columns):
                if not isinstance(value_expr, Literal):
                    raise _verr(
                        "INSERT ... VALUES rows must be literals", stmt
                    )
                if value_expr.value is not None and not col_type.accepts(
                    value_expr.value
                ):
                    raise _verr(
                        f"column {col_name!r} of {stmt.table!r} expects "
                        f"{col_type.value}, got {value_expr.value!r}",
                        value_expr,
                    )

    def _validate_update(self, stmt: UpdateStmt) -> UpdateStmt:
        if stmt.table not in self._table_columns:
            raise _verr(f"UPDATE unknown table {stmt.table!r}", stmt)
        if stmt.table in self._append_only:
            raise _verr(
                f"append-only table {stmt.table!r} cannot be updated", stmt
            )
        columns = self._table_columns[stmt.table]
        scope = Scope(
            input_fields=(
                {n: s.type for n, s in self.schema.fields.items()}
                if self.schema
                else None
            ),
            tables={stmt.table: columns},
            vars=dict(self._var_types),
            prefer_tables=True,
        )
        new_assignments: List[Tuple[str, Expr]] = []
        for column, expr in stmt.assignments:
            if column not in columns:
                raise _verr(
                    f"UPDATE {stmt.table!r}: unknown column {column!r}", expr
                )
            new_assignments.append((column, self._resolve_expr(expr, scope)))
        new_where = (
            self._check_bool_expr(stmt.where, scope) if stmt.where is not None else None
        )
        return replace(stmt, assignments=tuple(new_assignments), where=new_where)

    def _validate_delete(self, stmt: DeleteStmt) -> DeleteStmt:
        if stmt.table not in self._table_columns:
            raise _verr(f"DELETE FROM unknown table {stmt.table!r}", stmt)
        scope = Scope(
            input_fields=(
                {n: s.type for n, s in self.schema.fields.items()}
                if self.schema
                else None
            ),
            tables={stmt.table: self._table_columns[stmt.table]},
            vars=dict(self._var_types),
            prefer_tables=True,
        )
        new_where = (
            self._check_bool_expr(stmt.where, scope) if stmt.where is not None else None
        )
        return replace(stmt, where=new_where)

    def _validate_set(self, stmt: SetStmt) -> SetStmt:
        if stmt.var not in self._var_types:
            raise _verr(f"SET of undeclared var {stmt.var!r}", stmt)
        scope = Scope(
            input_fields=(
                {n: s.type for n, s in self.schema.fields.items()}
                if self.schema
                else None
            ),
            vars=dict(self._var_types),
        )
        expr = self._resolve_expr(stmt.expr, scope)
        inferred = self._infer_type(expr, scope)
        expected = self._var_types[stmt.var]
        if inferred is not None and not _compatible(expected, inferred):
            raise _verr(
                f"SET {stmt.var}: expression is {inferred.value}, "
                f"var is {expected.value}",
                stmt,
            )
        new_where = (
            self._check_bool_expr(stmt.where, scope) if stmt.where is not None else None
        )
        return replace(stmt, expr=expr, where=new_where)

    def _resolve_statement(self, stmt: Statement) -> Statement:
        """Resolve variables in init statements (no input in scope)."""
        if isinstance(stmt, (SelectStmt, UpdateStmt, DeleteStmt, SetStmt)):
            return self._validate_statement(stmt)
        return stmt

    # -- expressions -----------------------------------------------------------

    def _resolve_expr(self, expr: Expr, scope: Scope) -> Expr:
        """Rewrite bare names to VarRef where they name element variables,
        and verify every reference resolves."""
        if isinstance(expr, Literal):
            return expr
        if isinstance(expr, VarRef):
            return expr
        if isinstance(expr, ColumnRef):
            return self._resolve_column(expr, scope)
        if isinstance(expr, FuncCall):
            spec = self.registry.get(expr.name)
            spec.check_arity(len(expr.args))
            if expr.name in ("count", "contains", "sum_of", "min_of",
                             "max_of", "avg_of"):
                # first argument is a state-table name, not a column
                arg = expr.args[0]
                if not (
                    isinstance(arg, ColumnRef)
                    and arg.table is None
                    and arg.name in self._table_columns
                ):
                    raise _verr(
                        f"{expr.name}() takes a state-table name as its "
                        "first argument",
                        expr,
                    )
                if expr.name in ("sum_of", "min_of", "max_of", "avg_of"):
                    column = expr.args[1]
                    if not (
                        isinstance(column, ColumnRef)
                        and column.table is None
                        and column.name in self._table_columns[arg.name]
                    ):
                        raise _verr(
                            f"{expr.name}() takes a column of "
                            f"{arg.name!r} as its second argument",
                            expr,
                        )
                    if arg.name in self._append_only:
                        raise _verr(
                            f"aggregate over append-only table {arg.name!r}",
                            expr,
                        )
                    return expr
                rest = tuple(
                    self._resolve_expr(a, scope) for a in expr.args[1:]
                )
                return FuncCall(expr.name, (arg,) + rest, span=expr.span)
            return FuncCall(
                expr.name,
                tuple(self._resolve_expr(a, scope) for a in expr.args),
                span=expr.span,
            )
        if isinstance(expr, BinaryOp):
            return BinaryOp(
                expr.op,
                self._resolve_expr(expr.left, scope),
                self._resolve_expr(expr.right, scope),
                span=expr.span,
            )
        if isinstance(expr, UnaryOp):
            return UnaryOp(
                expr.op, self._resolve_expr(expr.operand, scope), span=expr.span
            )
        if isinstance(expr, CaseExpr):
            return CaseExpr(
                tuple(
                    (self._resolve_expr(c, scope), self._resolve_expr(v, scope))
                    for c, v in expr.whens
                ),
                self._resolve_expr(expr.default, scope)
                if expr.default is not None
                else None,
                span=expr.span,
            )
        raise _verr(f"unsupported expression {expr!r}", expr)

    def _resolve_column(self, ref: ColumnRef, scope: Scope) -> Expr:
        if ref.table is not None:
            if ref.table == "input":
                if not scope.has_input_field(ref.name):
                    raise _verr(
                        f"unknown input field {ref.name!r}", ref
                    )
                return ref
            if ref.table not in scope.tables:
                raise _verr(
                    f"reference to {ref}: table {ref.table!r} not in scope",
                    ref,
                )
            if ref.name not in scope.tables[ref.table]:
                raise _verr(
                    f"table {ref.table!r} has no column {ref.name!r}", ref
                )
            return ref
        # bare name: var > (table column, for UPDATE/DELETE) > input field
        # > unique table column
        if ref.name in scope.vars:
            return VarRef(ref.name, span=ref.span)
        owners = [t for t, cols in scope.tables.items() if ref.name in cols]
        if scope.prefer_tables and len(owners) == 1:
            return ColumnRef(owners[0], ref.name, span=ref.span)
        if scope.has_input_field(ref.name) and scope.input_fields is not None:
            if ref.name in scope.input_fields or ref.name in META_FIELDS:
                return ColumnRef("input", ref.name, span=ref.span)
        if len(owners) == 1:
            return ColumnRef(owners[0], ref.name, span=ref.span)
        if len(owners) > 1:
            raise _verr(
                f"ambiguous column {ref.name!r} (in tables {owners})", ref
            )
        if scope.input_fields is None:
            # open schema: assume it is an input field
            return ColumnRef("input", ref.name, span=ref.span)
        raise _verr(f"unresolved name {ref.name!r}", ref)

    def _check_bool_expr(self, expr: Expr, scope: Scope) -> Expr:
        resolved = self._resolve_expr(expr, scope)
        inferred = self._infer_type(resolved, scope)
        if inferred is not None and inferred is not FieldType.BOOL:
            raise _verr(
                f"predicate must be boolean, got {inferred.value}", expr
            )
        return resolved

    def _infer_type(self, expr: Expr, scope: Scope) -> Optional[FieldType]:
        if isinstance(expr, Literal):
            return FieldType.of_value(expr.value)
        if isinstance(expr, VarRef):
            return scope.vars.get(expr.name)
        if isinstance(expr, ColumnRef):
            if expr.table == "input" or expr.table is None:
                return scope.input_field_type(expr.name)
            return scope.tables.get(expr.table, {}).get(expr.name)
        if isinstance(expr, FuncCall):
            spec = self.registry.get(expr.name)
            if spec.result_type is not None:
                return spec.result_type
            if expr.args:
                return self._infer_type(expr.args[0], scope)
            return None
        if isinstance(expr, UnaryOp):
            if expr.op == "not":
                return FieldType.BOOL
            return self._infer_type(expr.operand, scope)
        if isinstance(expr, BinaryOp):
            return self._infer_binary(expr, scope)
        if isinstance(expr, CaseExpr):
            for _, value in expr.whens:
                inferred = self._infer_type(value, scope)
                if inferred is not None:
                    return inferred
            if expr.default is not None:
                return self._infer_type(expr.default, scope)
            return None
        return None

    def _infer_binary(self, expr: BinaryOp, scope: Scope) -> Optional[FieldType]:
        left = self._infer_type(expr.left, scope)
        right = self._infer_type(expr.right, scope)
        if expr.op in ("and", "or"):
            return FieldType.BOOL
        if expr.op in ("==", "!=", "<", "<=", ">", ">="):
            if (
                left is not None
                and right is not None
                and not statically_comparable(left, right)
            ):
                raise _verr(
                    f"cannot compare {left.value} with {right.value}", expr
                )
            return FieldType.BOOL
        # arithmetic
        if expr.op == "+" and FieldType.STR in (left, right):
            raise _verr(
                "use concat() for string concatenation, not '+'", expr
            )
        for side in (left, right):
            if side is not None and side not in NUMERIC:
                raise _verr(
                    f"arithmetic on non-numeric type {side.value}", expr
                )
        if FieldType.FLOAT in (left, right):
            return FieldType.FLOAT
        if left is FieldType.INT and right is FieldType.INT:
            if expr.op == "/":
                return FieldType.FLOAT
            return FieldType.INT
        return None


def _compatible(expected: FieldType, actual: FieldType) -> bool:
    if expected is actual:
        return True
    return expected is FieldType.FLOAT and actual is FieldType.INT


def validate_element(
    element: ElementDef,
    schema: Optional[RpcSchema] = None,
    registry: Optional[FunctionRegistry] = None,
) -> ElementDef:
    """Validate and resolve one element definition."""
    return ElementValidator(element, schema, registry).validate()


def validate_filter(filter_def: FilterDef) -> FilterDef:
    """Check a filter element binds to a known operator, and that every
    meta value its runtime reads as a number is one."""
    if filter_def.operator not in _KNOWN_OPERATORS:
        raise _verr(
            f"filter {filter_def.name!r}: unknown operator "
            f"{filter_def.operator!r} (known: {sorted(_KNOWN_OPERATORS)})",
            filter_def,
        )
    for key in _OPERATOR_NUMERIC_META[filter_def.operator]:
        value = filter_def.meta.get(key)
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, (int, float))
        ):
            raise _verr(
                f"filter {filter_def.name!r}: meta {key!r} must be a "
                f"number, got {value!r}",
                filter_def,
            )
    return filter_def


def validate_app(app: AppDef, program: Program) -> AppDef:
    """Check an app's chains reference declared services and elements."""
    service_names = {svc.name for svc in app.services}
    if len(service_names) != len(app.services):
        raise _verr(f"app {app.name!r}: duplicate service", app)
    known_elements = set(program.elements) | set(program.filters)
    for chain in app.chains:
        for endpoint in (chain.src, chain.dst):
            if endpoint not in service_names:
                raise _verr(
                    f"app {app.name!r}: chain references unknown service "
                    f"{endpoint!r}",
                    chain,
                )
        if chain.src == chain.dst:
            raise _verr(
                f"app {app.name!r}: chain endpoints must differ", chain
            )
        for element_name in chain.elements:
            if element_name not in known_elements:
                raise _verr(
                    f"app {app.name!r}: chain uses unknown element "
                    f"{element_name!r}",
                    chain,
                )
    chain_elements = {
        name for chain in app.chains for name in chain.elements
    }
    for constraint in app.constraints:
        for arg in constraint.args:
            if arg in ("sender", "receiver"):
                continue
            if arg not in chain_elements:
                raise _verr(
                    f"app {app.name!r}: constraint references {arg!r}, "
                    f"which is not in any chain",
                    constraint,
                )
    return app


def validate_program(
    program: Program,
    schema: Optional[RpcSchema] = None,
    registry: Optional[FunctionRegistry] = None,
    known: Optional[Program] = None,
) -> Program:
    """Validate every element, filter, and app of a parsed program. An
    element or filter that ``known`` (validated with the same schema and
    registry) holds by name is taken from it, not validated again."""
    known = known or Program()
    elements = {
        name: (
            known.elements[name] if name in known.elements
            else validate_element(element, schema, registry)
        )
        for name, element in program.elements.items()
    }
    filters = {
        name: (
            known.filters[name] if name in known.filters
            else validate_filter(filter_def)
        )
        for name, filter_def in program.filters.items()
    }
    validated = Program(elements=elements, filters=filters, apps=program.apps)
    apps = {
        name: validate_app(app, validated) for name, app in program.apps.items()
    }
    return Program(elements=elements, filters=filters, apps=apps)
