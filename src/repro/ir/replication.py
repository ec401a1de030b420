"""Replication-safety classification of element state (paper §5).

The paper's scaling story rests on "decoupled tabular state": an element
can be replicated or sharded only when its state tables tolerate it.
This module classifies every state table and element variable of an
element by *access pattern*:

* ``READ_ONLY`` — never written by a handler (init-time population is
  fine: init runs once, before replicas diverge). Replicas can each hold
  a copy.
* ``COMMUTATIVE`` — written only through order-insensitive operations:
  pure INSERTs (append-only logs) or self-relative counter updates
  (``col = col + delta`` where ``delta`` does not read the table).
  Replica-local copies can be merged by union/sum, so replication is
  safe.
* ``PARTITIONED`` — read-modify-write, but every access pins *all* key
  columns of the table to values independent of the table (typically
  derived from the RPC). Each RPC touches exactly one shard, so the
  table can be sharded by key — replicas are sound only under key-based
  partitioning, not plain duplication.
* ``READ_MODIFY_WRITE`` — everything else: decisions feed back into
  unkeyed (or un-pinned) state, aggregate reads span all rows, or a
  variable is both read and written. Replicating such an element
  silently changes semantics (each replica sees a fraction of history).

The result is attached to :class:`~repro.ir.analysis.ElementAnalysis`
as ``analysis.replication`` and consulted by

* :func:`repro.ir.dependency.can_parallelize` (the parallelize pass's
  legality oracle),
* :class:`repro.control.scaling.Autoscaler` (scale-out refusal),
* the ``ADN3xx`` lint rules (:mod:`repro.lint.rules.state_race`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..dsl.ast_nodes import BinaryOp, ColumnRef, Expr, VarRef
from ..dsl.span import Span
from .expr_utils import collect_refs, key_pins, references_table
from .nodes import (
    AssignVar,
    DeleteRows,
    ElementIR,
    FilterRows,
    InsertLiterals,
    InsertRows,
    JoinState,
    Project,
    StatementIR,
    UpdateRows,
)


class AccessMode(enum.Enum):
    """How an element touches one piece of state, ordered by how much the
    access pattern constrains replication."""

    READ_ONLY = "read-only"
    COMMUTATIVE = "commutative"
    PARTITIONED = "partitioned"
    READ_MODIFY_WRITE = "read-modify-write"


#: Modes safe under plain replication (every replica holds a copy).
_REPLICABLE_MODES = (AccessMode.READ_ONLY, AccessMode.COMMUTATIVE)


@dataclass(frozen=True)
class StateAccess:
    """Classification of one state table or variable of an element."""

    name: str
    kind: str  # "table" | "var"
    mode: AccessMode
    detail: str  # human-readable evidence for the classification
    span: Optional[Span] = None  # first access that forced the mode


@dataclass(frozen=True)
class ReplicationSafety:
    """Per-element verdict: which state blocks replication, and why."""

    element: str
    accesses: Tuple[StateAccess, ...] = ()

    @property
    def replicable(self) -> bool:
        """Safe to run N identical replicas with independent state."""
        return all(a.mode in _REPLICABLE_MODES for a in self.accesses)

    @property
    def shardable(self) -> bool:
        """Safe to scale out when the runtime shards keyed tables —
        PARTITIONED tables are fine, but read-modify-write state (and any
        read-modify-write variable, which has no key to shard by) is not.
        """
        for access in self.accesses:
            if access.mode in _REPLICABLE_MODES:
                continue
            if access.mode is AccessMode.PARTITIONED and access.kind == "table":
                continue
            return False
        return True

    @property
    def blocking(self) -> Tuple[StateAccess, ...]:
        """Accesses that make plain replication unsound."""
        return tuple(
            a for a in self.accesses if a.mode not in _REPLICABLE_MODES
        )

    def reasons(self) -> List[str]:
        """Human-readable reasons plain replication is refused."""
        out = []
        for access in self.blocking:
            out.append(
                f"{access.kind} {access.name!r} is "
                f"{access.mode.value}: {access.detail}"
            )
        return out


# -- expression helpers ---------------------------------------------------


def _pins_all_keys(
    predicate: Optional[Expr], table: str, keys: Set[str]
) -> bool:
    """True when ``predicate`` pins every key column of ``table`` by
    equality to a table-independent expression: one that neither reads
    a column of the table nor counts or aggregates it."""
    pinned = {
        column
        for _conjunct, column, expr in key_pins(predicate, table, keys)
        if not references_table(expr, table)
    }
    return bool(keys) and pinned >= keys


def _is_commutative_assignment(
    table: str, column: str, expr: Expr
) -> bool:
    """``col = col + delta`` (or ``-``) where ``delta`` never reads the
    table: increments from concurrent replicas merge by summation."""
    if not (isinstance(expr, BinaryOp) and expr.op in ("+", "-")):
        return False
    left, right = expr.left, expr.right
    if not (
        isinstance(left, ColumnRef)
        and left.table in (table, None)
        and left.name == column
    ):
        return False
    return not references_table(right, table)


def _is_self_increment(var: str, expr: Expr) -> bool:
    """``v = v + delta`` / ``v = v - delta`` with a var-free delta."""
    if not (isinstance(expr, BinaryOp) and expr.op in ("+", "-")):
        return False
    if not (isinstance(expr.left, VarRef) and expr.left.name == var):
        return False
    return var not in collect_refs(expr.right).vars


# -- per-table evidence collection ---------------------------------------


@dataclass
class _TableEvidence:
    reads: List[Tuple[str, Optional[Span]]] = field(default_factory=list)
    aggregate_reads: List[Tuple[str, Optional[Span]]] = field(
        default_factory=list
    )
    pure_inserts: List[Tuple[str, Optional[Span]]] = field(
        default_factory=list
    )
    commutative_updates: List[Tuple[str, Optional[Span]]] = field(
        default_factory=list
    )
    #: updates/deletes that are neither pure-insert nor commutative
    rmw_writes: List[Tuple[str, Optional[Span]]] = field(default_factory=list)
    #: every keyed access predicate pinned all key columns so far
    all_accesses_pinned: bool = True

    @property
    def writes(self) -> bool:
        return bool(
            self.pure_inserts or self.commutative_updates or self.rmw_writes
        )


@dataclass
class _VarEvidence:
    reads: List[Tuple[str, Optional[Span]]] = field(default_factory=list)
    writes: List[Tuple[str, Optional[Span]]] = field(default_factory=list)
    commutative_writes: List[Tuple[str, Optional[Span]]] = field(
        default_factory=list
    )


def _note_expr_reads(
    expr: Optional[Expr],
    span: Optional[Span],
    tables: Dict[str, _TableEvidence],
    vars_: Dict[str, _VarEvidence],
    what: str,
    skip_var: Optional[str] = None,
    skip_table: Optional[str] = None,
) -> None:
    """Record state reads in ``expr``. ``skip_table`` suppresses plain
    column reads of that table — an UPDATE/DELETE referencing its own
    target addresses the rows being written (or performs a commutative
    self-increment), which the write classification already accounts
    for. Aggregate reads are never suppressed: they span all rows, which
    no write classification covers."""
    if expr is None:
        return
    refs = collect_refs(expr)
    seen: Set[str] = set()
    for tbl, col in refs.table_columns:
        if tbl == skip_table:
            continue
        if tbl in tables and tbl not in seen:
            tables[tbl].reads.append((f"{what} reads column {col!r}", span))
            seen.add(tbl)
    for tbl in refs.tables_counted:
        if tbl in tables:
            tables[tbl].aggregate_reads.append(
                (f"{what} aggregates over the whole table", span)
            )
    for var in refs.vars:
        if var in vars_ and var != skip_var:
            vars_[var].reads.append((f"{what} reads the variable", span))


def _collect(
    element: ElementIR,
    tables: Dict[str, _TableEvidence],
    vars_: Dict[str, _VarEvidence],
    key_columns: Dict[str, Tuple[str, ...]],
) -> None:
    """Walk every handler statement (init excluded: it runs once at
    deploy time, before replicas exist) and record state accesses."""
    for handler in element.handlers.values():
        for stmt in handler.statements:
            _collect_statement(stmt, tables, vars_, key_columns)


def _collect_statement(
    stmt: StatementIR,
    tables: Dict[str, _TableEvidence],
    vars_: Dict[str, _VarEvidence],
    key_columns: Dict[str, Tuple[str, ...]],
) -> None:
    span = stmt.span
    for op in stmt.ops:
        if isinstance(op, JoinState):
            if op.table in tables:
                ev = tables[op.table]
                ev.reads.append(("JOIN reads matching rows", span))
                keys = set(key_columns.get(op.table, ()))
                if not _pins_all_keys(op.on, op.table, keys):
                    ev.all_accesses_pinned = False
            _note_expr_reads(op.on, span, tables, vars_, "JOIN predicate")
        elif isinstance(op, Project):
            for tbl in op.star_tables:
                if tbl in tables:
                    tables[tbl].reads.append(
                        ("projection reads the whole table", span)
                    )
                    tables[tbl].all_accesses_pinned = False
            for _name, expr in op.items:
                _note_expr_reads(expr, span, tables, vars_, "projection")
        elif isinstance(op, (InsertRows, InsertLiterals)):
            if op.table in tables:
                tables[op.table].pure_inserts.append(("pure INSERT", span))
        elif isinstance(op, UpdateRows):
            if op.table in tables:
                ev = tables[op.table]
                commutative = all(
                    _is_commutative_assignment(op.table, column, expr)
                    for column, expr in op.assignments
                )
                if commutative:
                    ev.commutative_updates.append(
                        ("counter-style UPDATE (col = col + delta)", span)
                    )
                else:
                    cols = ", ".join(c for c, _ in op.assignments)
                    ev.rmw_writes.append(
                        (f"UPDATE rewrites column(s) {cols}", span)
                    )
                keys = set(key_columns.get(op.table, ()))
                if not _pins_all_keys(op.where, op.table, keys):
                    ev.all_accesses_pinned = False
            for _column, expr in op.assignments:
                _note_expr_reads(
                    expr, span, tables, vars_, "UPDATE expression",
                    skip_table=op.table,
                )
            _note_expr_reads(
                op.where, span, tables, vars_, "UPDATE WHERE",
                skip_table=op.table,
            )
        elif isinstance(op, DeleteRows):
            if op.table in tables:
                ev = tables[op.table]
                ev.rmw_writes.append(("DELETE removes rows", span))
                keys = set(key_columns.get(op.table, ()))
                if not _pins_all_keys(op.where, op.table, keys):
                    ev.all_accesses_pinned = False
            _note_expr_reads(
                op.where, span, tables, vars_, "DELETE WHERE",
                skip_table=op.table,
            )
        elif isinstance(op, AssignVar):
            if op.var in vars_:
                ev = vars_[op.var]
                if _is_self_increment(op.var, op.expr):
                    ev.commutative_writes.append(
                        ("self-relative increment", span)
                    )
                else:
                    ev.writes.append(("SET overwrites the variable", span))
            _note_expr_reads(
                op.expr, span, tables, vars_, "SET expression",
                skip_var=op.var if _is_self_increment(op.var, op.expr) else None,
            )
            _note_expr_reads(op.where, span, tables, vars_, "SET WHERE")
        elif isinstance(op, FilterRows):
            _note_expr_reads(op.predicate, span, tables, vars_, "WHERE")


def _first_span(
    *evidence: List[Tuple[str, Optional[Span]]]
) -> Optional[Span]:
    for bucket in evidence:
        for _what, span in bucket:
            if span is not None:
                return span
    return None


def _classify_table(
    name: str, ev: _TableEvidence, keyed: bool
) -> StateAccess:
    if not ev.writes:
        return StateAccess(
            name=name,
            kind="table",
            mode=AccessMode.READ_ONLY,
            detail="handlers only read it",
            span=_first_span(ev.reads, ev.aggregate_reads),
        )
    plain_reads = ev.reads or ev.aggregate_reads
    if not ev.rmw_writes and not plain_reads:
        kind = (
            "append-only INSERTs"
            if ev.pure_inserts and not ev.commutative_updates
            else "counter-style updates"
        )
        return StateAccess(
            name=name,
            kind="table",
            mode=AccessMode.COMMUTATIVE,
            detail=f"written only through {kind}, never read by handlers",
            span=_first_span(ev.pure_inserts, ev.commutative_updates),
        )
    if ev.aggregate_reads:
        what, span = ev.aggregate_reads[0]
        return StateAccess(
            name=name,
            kind="table",
            mode=AccessMode.READ_MODIFY_WRITE,
            detail=f"{what}, so shards would each see partial history",
            span=span or _first_span(ev.rmw_writes, ev.reads),
        )
    if keyed and ev.all_accesses_pinned:
        return StateAccess(
            name=name,
            kind="table",
            mode=AccessMode.PARTITIONED,
            detail=(
                "every access pins all key columns to RPC-derived values; "
                "shard by key to scale"
            ),
            span=_first_span(ev.rmw_writes, ev.commutative_updates, ev.reads),
        )
    what, span = (ev.rmw_writes or ev.reads)[0]
    return StateAccess(
        name=name,
        kind="table",
        mode=AccessMode.READ_MODIFY_WRITE,
        detail=f"{what} and the result feeds back into later decisions",
        span=span,
    )


def _classify_var(name: str, ev: _VarEvidence) -> StateAccess:
    if not ev.writes and not ev.commutative_writes:
        return StateAccess(
            name=name,
            kind="var",
            mode=AccessMode.READ_ONLY,
            detail="handlers only read it",
            span=_first_span(ev.reads),
        )
    if ev.reads:
        what, span = ev.reads[0]
        return StateAccess(
            name=name,
            kind="var",
            mode=AccessMode.READ_MODIFY_WRITE,
            detail=f"written and read back ({what})",
            span=span or _first_span(ev.writes, ev.commutative_writes),
        )
    if ev.writes:
        what, span = ev.writes[0]
        return StateAccess(
            name=name,
            kind="var",
            mode=AccessMode.COMMUTATIVE,
            detail=f"write-only ({what}); replicas never observe it",
            span=span,
        )
    return StateAccess(
        name=name,
        kind="var",
        mode=AccessMode.COMMUTATIVE,
        detail="only self-relative increments; merge by summation",
        span=_first_span(ev.commutative_writes),
    )


def replication_safety(element: ElementIR) -> ReplicationSafety:
    """Classify every state table and variable of ``element``.

    Operates on the lowered IR (single source of truth for state access)
    and carries :class:`~repro.dsl.span.Span` positions from statements
    so lint diagnostics can point at the offending DSL text.
    """
    tables: Dict[str, _TableEvidence] = {
        decl.name: _TableEvidence() for decl in element.states
    }
    vars_: Dict[str, _VarEvidence] = {
        decl.name: _VarEvidence() for decl in element.vars
    }
    key_columns = {
        decl.name: tuple(col.name for col in decl.columns if col.is_key)
        for decl in element.states
    }
    _collect(element, tables, vars_, key_columns)
    accesses: List[StateAccess] = []
    for name, ev in tables.items():
        accesses.append(
            _classify_table(name, ev, keyed=bool(key_columns.get(name)))
        )
    for name, ev in vars_.items():
        accesses.append(_classify_var(name, ev))
    return ReplicationSafety(element=element.name, accesses=tuple(accesses))
