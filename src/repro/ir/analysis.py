"""Static analysis of element IR.

These facts drive every optimization and placement decision the paper
describes (§4 Q1, §5.2):

* field read/write sets → safe reordering, parallelization, minimal
  headers;
* state access and shape → migration/scaling strategy (keyed tables can
  be partitioned, append-only tables can be drained);
* drop/multiply behaviour and side effects → which reorderings preserve
  semantics (a logger must see exactly the RPCs that were not dropped
  before it);
* platform-relevant facts (payload UDFs, loops, nondeterminism) → which
  backends can host the element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Set, Tuple

from ..dsl.ast_nodes import Expr
from ..dsl.functions import DEFAULT_REGISTRY, FunctionRegistry
from .expr_utils import (
    collect_refs,
    expr_cost_us,
    is_deterministic,
    key_pins,
    op_count,
)
from .nodes import (
    AdvanceInput,
    AssignVar,
    DeleteRows,
    ElementIR,
    FilterRows,
    HandlerIR,
    InsertLiterals,
    InsertRows,
    JoinState,
    Project,
    StatementIR,
    UpdateRows,
)
from .replication import ReplicationSafety, replication_safety


@dataclass
class HandlerAnalysis:
    """Facts about one handler (request or response direction)."""

    kind: str
    fields_read: Set[str] = field(default_factory=set)
    fields_written: Set[str] = field(default_factory=set)
    #: None = output keeps all input fields (possibly plus written ones);
    #: a set = output is narrowed to exactly these fields.
    narrowed_to: Optional[Set[str]] = None
    state_read: Set[str] = field(default_factory=set)
    state_written: Set[str] = field(default_factory=set)
    var_read: Set[str] = field(default_factory=set)
    var_written: Set[str] = field(default_factory=set)
    can_drop: bool = False
    can_multiply: bool = False
    deterministic: bool = True
    payload_funcs: Set[str] = field(default_factory=set)
    functions: Set[str] = field(default_factory=set)
    #: static cost estimate of one invocation, excluding per-byte terms
    cost_us: float = 0.0
    #: IR size (expression nodes + ops) — proxy for generated-code work
    op_count: int = 0
    emit_statements: int = 0

    def propagate_fields(self, incoming: FrozenSet[str]) -> FrozenSet[str]:
        """Fields available downstream given fields available on entry."""
        if self.narrowed_to is not None:
            return frozenset(self.narrowed_to)
        return incoming | frozenset(self.fields_written)


@dataclass
class ElementAnalysis:
    """Union of handler analyses plus element-level facts."""

    name: str
    handlers: Dict[str, HandlerAnalysis] = field(default_factory=dict)
    has_state: bool = False
    keyed_state: bool = False
    append_only_state: bool = False
    #: replication-safety classification of every state table/var
    replication: Optional[ReplicationSafety] = None

    # -- aggregates over handlers --------------------------------------

    @property
    def fields_read(self) -> Set[str]:
        return set().union(*(h.fields_read for h in self.handlers.values()))

    @property
    def fields_written(self) -> Set[str]:
        return set().union(*(h.fields_written for h in self.handlers.values()))

    @property
    def state_written(self) -> Set[str]:
        return set().union(*(h.state_written for h in self.handlers.values()))

    @property
    def can_drop(self) -> bool:
        return any(h.can_drop for h in self.handlers.values())

    @property
    def can_multiply(self) -> bool:
        return any(h.can_multiply for h in self.handlers.values())

    @property
    def deterministic(self) -> bool:
        return all(h.deterministic for h in self.handlers.values())

    @property
    def payload_funcs(self) -> Set[str]:
        return set().union(*(h.payload_funcs for h in self.handlers.values()))

    @property
    def observable_effects(self) -> bool:
        """True when executing the element has effects visible outside the
        tuple it returns: persistent state writes or extra emitted copies.
        Reordering such an element across a dropper changes behaviour."""
        return bool(self.state_written) or self.can_multiply

    @property
    def history_dependent(self) -> bool:
        """True when the element's per-tuple behaviour depends on which
        tuples it has processed before (it reads state or variables that
        it also writes) — e.g. round-robin counters, rate limiters,
        admission windows. Such an element cannot be reordered across a
        dropper: the dropper changes the history it sees."""
        for handler in self.handlers.values():
            if handler.var_written & handler.var_read:
                return True
            if handler.state_written & handler.state_read:
                return True
        # cross-handler coupling (e.g. Admission: request writes the
        # window that request reads; response writes it too)
        all_var_read = set().union(*(h.var_read for h in self.handlers.values()))
        all_var_written = set().union(
            *(h.var_written for h in self.handlers.values())
        )
        all_state_read = set().union(
            *(h.state_read for h in self.handlers.values())
        )
        return bool(all_var_read & all_var_written) or bool(
            all_state_read & self.state_written
        )

    def handler_cost_us(self, kind: str) -> float:
        handler = self.handlers.get(kind)
        return handler.cost_us if handler else 0.0

    def handler_ops(self, kind: str) -> int:
        handler = self.handlers.get(kind)
        return handler.op_count if handler else 0


def analyze_element(
    element: ElementIR, registry: Optional[FunctionRegistry] = None
) -> ElementAnalysis:
    """Compute and attach an :class:`ElementAnalysis` to ``element``."""
    registry = registry or DEFAULT_REGISTRY
    analysis = ElementAnalysis(name=element.name)
    analysis.has_state = bool(element.states) or bool(element.vars)
    analysis.keyed_state = any(
        any(col.is_key for col in decl.columns) for decl in element.states
    )
    analysis.append_only_state = any(decl.append_only for decl in element.states)
    key_columns = {
        decl.name: tuple(col.name for col in decl.columns if col.is_key)
        for decl in element.states
    }
    for kind, handler in element.handlers.items():
        analysis.handlers[kind] = _analyze_handler(handler, key_columns, registry)
    analysis.replication = replication_safety(element)
    element.analysis = analysis
    return analysis


def _analyze_handler(
    handler: HandlerIR,
    key_columns: Dict[str, Tuple[str, ...]],
    registry: FunctionRegistry,
) -> HandlerAnalysis:
    segments = _split_segments(handler.statements)
    if len(segments) == 1:
        return _analyze_segment(handler.kind, segments[0], key_columns, registry)
    # fused handler: analyze each member segment against *its* input and
    # merge — a fused element drops if any segment may produce zero rows,
    # and its output narrowing composes through the seams.
    parts = [
        _analyze_segment(handler.kind, segment, key_columns, registry)
        for segment in segments
    ]
    result = HandlerAnalysis(kind=handler.kind)
    narrowed: Optional[Set[str]] = None
    for part in parts:
        result.fields_read |= part.fields_read
        result.fields_written |= part.fields_written
        result.state_read |= part.state_read
        result.state_written |= part.state_written
        result.var_read |= part.var_read
        result.var_written |= part.var_written
        result.functions |= part.functions
        result.payload_funcs |= part.payload_funcs
        result.can_drop = result.can_drop or part.can_drop
        result.can_multiply = result.can_multiply or part.can_multiply
        result.deterministic = result.deterministic and part.deterministic
        result.cost_us += part.cost_us
        result.op_count += part.op_count
        if part.narrowed_to is not None:
            narrowed = set(part.narrowed_to)
        elif narrowed is not None:
            narrowed |= part.fields_written
    result.narrowed_to = narrowed
    result.emit_statements = parts[-1].emit_statements
    result.op_count += len(segments) - 1  # one AdvanceInput op per seam
    return result


def _split_segments(
    statements: Tuple[StatementIR, ...]
) -> Tuple[Tuple[StatementIR, ...], ...]:
    """Split a handler body at AdvanceInput fusion seams."""
    segments: list = []
    current: list = []
    for stmt in statements:
        if any(isinstance(op, AdvanceInput) for op in stmt.ops):
            segments.append(tuple(current))
            current = []
        else:
            current.append(stmt)
    segments.append(tuple(current))
    return tuple(segments)


def _analyze_segment(
    kind: str,
    statements: Tuple[StatementIR, ...],
    key_columns: Dict[str, Tuple[str, ...]],
    registry: FunctionRegistry,
) -> HandlerAnalysis:
    result = HandlerAnalysis(kind=kind)
    unconditional_emit = False
    for stmt in statements:
        _analyze_statement(stmt, key_columns, registry, result)
        if stmt.emits and not _statement_conditional(stmt, key_columns):
            unconditional_emit = True
    if result.emit_statements == 0:
        # an element with no emit statements forwards nothing: always drops
        result.can_drop = True
    elif not unconditional_emit:
        result.can_drop = True
    if result.emit_statements > 1:
        result.can_multiply = True
    result.op_count += sum(len(stmt.ops) for stmt in statements)
    return result


def _statement_conditional(
    stmt: StatementIR, key_columns: Dict[str, Tuple[str, ...]]
) -> bool:
    """True when this emit pipeline might produce zero rows."""
    for op in stmt.ops:
        if isinstance(op, FilterRows):
            return True
        if isinstance(op, JoinState):
            # even a unique-key join drops the row when no key matches
            return True
    return False


def _join_is_unique(
    op: JoinState, key_columns: Dict[str, Tuple[str, ...]]
) -> bool:
    """True when the join predicate pins every key column of the table to
    a value that reads no column of it, so at most one row can match
    (``count(table)`` may appear: it is the same for every row)."""
    keys = set(key_columns.get(op.table, ()))
    pinned = {
        column
        for _conjunct, column, expr in key_pins(op.on, op.table, keys)
        if all(tbl != op.table for tbl, _ in collect_refs(expr).table_columns)
    }
    return bool(keys) and pinned >= keys


def _analyze_statement(
    stmt: StatementIR,
    key_columns: Dict[str, Tuple[str, ...]],
    registry: FunctionRegistry,
    out: HandlerAnalysis,
) -> None:
    for op in stmt.ops:
        if isinstance(op, JoinState):
            out.state_read.add(op.table)
            _absorb_expr(op.on, registry, out)
            if not _join_is_unique(op, key_columns):
                out.can_multiply = True
            out.cost_us += 0.08  # hash-lookup / probe cost
        elif isinstance(op, FilterRows):
            _absorb_expr(op.predicate, registry, out)
        elif isinstance(op, Project):
            for name, expr in op.items:
                out.fields_written.add(name)
                _absorb_expr(expr, registry, out)
            if not op.keep_input and stmt.emits:
                narrowed = {name for name, _ in op.items}
                for table in op.star_tables:
                    out.state_read.add(table)
                if out.narrowed_to is None:
                    out.narrowed_to = narrowed
                else:
                    out.narrowed_to |= narrowed
            elif stmt.emits and op.keep_input and out.narrowed_to is not None:
                # a later full-width emit widens the output again
                out.narrowed_to = None
            out.cost_us += 0.02 * max(1, len(op.items))
        elif isinstance(op, InsertRows):
            out.state_written.add(op.table)
            out.cost_us += 0.08
        elif isinstance(op, InsertLiterals):
            out.state_written.add(op.table)
            out.cost_us += 0.05
        elif isinstance(op, UpdateRows):
            out.state_read.add(op.table)
            out.state_written.add(op.table)
            for _, expr in op.assignments:
                _absorb_expr(expr, registry, out)
            _absorb_expr(op.where, registry, out)
            out.cost_us += 0.1
        elif isinstance(op, DeleteRows):
            out.state_read.add(op.table)
            out.state_written.add(op.table)
            _absorb_expr(op.where, registry, out)
            out.cost_us += 0.1
        elif isinstance(op, AssignVar):
            out.var_written.add(op.var)
            _absorb_expr(op.expr, registry, out)
            _absorb_expr(op.where, registry, out)
            out.cost_us += 0.01
    if stmt.emits:
        out.emit_statements += 1
        out.cost_us += 0.03  # output tuple materialization


def _absorb_expr(
    expr: Optional[Expr], registry: FunctionRegistry, out: HandlerAnalysis
) -> None:
    if expr is None:
        return
    refs = collect_refs(expr)
    out.fields_read |= refs.input_fields
    out.var_read |= refs.vars
    out.functions |= refs.functions
    out.state_read |= refs.tables_counted
    for table, _column in refs.table_columns:
        out.state_read.add(table)
    for func_name in refs.functions:
        spec = registry.get(func_name)
        if spec.payload_op:
            out.payload_funcs.add(func_name)
    if not is_deterministic(expr, registry):
        out.deterministic = False
    out.cost_us += expr_cost_us(expr, registry)
    out.op_count += op_count(expr)
