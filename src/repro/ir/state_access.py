"""One state-access summary per element (paper §4–5).

The paper's scaling, migration and retry story rests on one set of facts
about an element's decoupled tabular state. :func:`summarize_state`
walks every handler statement once (``init`` is excluded: it runs once
at deploy time, before replicas or retries exist) and records each state
access: its target, key pinning, update shape, guards, the reads with
their spans, determinism and ``input.rpc_id`` keying. Three folds read
that :class:`StateSummary`:

* :attr:`StateSummary.replication` — the coarse verdict per table and
  var, by *access pattern*:

  * ``READ_ONLY`` — never written by a handler (init-time population is
    fine). Replicas can each hold a copy.
  * ``COMMUTATIVE`` — written only through order-insensitive operations:
    pure INSERTs (append-only logs) or self-relative counter updates
    (``col = col + delta`` where ``delta`` does not read the table), and
    never read back. Replica-local copies merge by union/sum.
  * ``PARTITIONED`` — read-modify-write, but every access pins *all* key
    columns of the table to values independent of the table (typically
    derived from the RPC). Each RPC touches one shard, so the table can
    be sharded by key, but not duplicated.
  * ``READ_MODIFY_WRITE`` — everything else: decisions feed back into
    unkeyed (or un-pinned) state, aggregate reads span all rows, or a
    variable is both read and written. Replicating such an element
    silently changes semantics (each replica sees a fraction of history).

  :func:`repro.ir.dependency.can_parallelize`, the ADN301–303 and
  ADN403 lint rules and the graph rule ADN605 read it.
* :attr:`StateSummary.effects` — every **mutation site** with its shape
  (``set`` / ``increment`` / ``append`` / ``cas`` / ``delete``) and the
  facts at-least-once delivery and replication raise (paper §5.2):
  **idempotence** (does a duplicate attempt change state again?),
  **self-commutativity** (do two applications reorder freely?) and
  **rpc-keyed dedup** (does the mutation carry or pin ``input.rpc_id``?),
  plus **retry-visible reads** (emitted fields derived from state). The
  ADN700–703 rules read it, on DSL apps and on service graphs.
* :attr:`StateSummary.refined_replication` — the coarse verdict with
  every access that has a **replica-divergent** site demoted to
  ``READ_MODIFY_WRITE``. ADN702 reports where the two verdicts disagree;
  a caller that wants the per-site scale-out gate hands this verdict to
  :class:`repro.control.scaling.Autoscaler`.

:func:`repro.ir.analysis.analyze_element` builds the summary with the
function registry it was given and caches it on ``ElementAnalysis``;
statement spans travel with every record so diagnostics point at the
DSL text. The runtime ``StateSanitizer`` (:mod:`repro.state.table`) is
the effect fold's dynamic shadow.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from ..dsl.ast_nodes import (
    BinaryOp,
    ColumnRef,
    Expr,
    StateDecl,
    VarDecl,
    VarRef,
)
from ..dsl.functions import FunctionRegistry
from ..dsl.printer import print_expr
from ..dsl.span import Span
from .expr_utils import (
    ExprRefs,
    collect_refs,
    conjuncts,
    key_pins,
    references_table,
)
from .nodes import (
    AssignVar,
    DeleteRows,
    FilterRows,
    HandlerIR,
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


#: update-function shapes, from most to least benign
SHAPES = ("set", "increment", "append", "cas", "delete")


@dataclass(frozen=True)
class MutationSite:
    """One static state-mutation site in one handler."""

    element: str
    handler: str  # "request" | "response"
    target_kind: str  # "table" | "var"
    target: str
    shape: str  # one of SHAPES
    key: str  # rendered key expression ("" when unkeyed)
    guards: Tuple[str, ...] = ()
    #: re-applying with the same input leaves state unchanged
    idempotent: bool = False
    #: two applications commute — order-free final state
    commutative: bool = False
    #: mutation carries/pins ``input.rpc_id``: duplicates dedupable
    rpc_keyed: bool = False
    #: update value free of now()/rand()
    deterministic: bool = True
    span: Optional[Span] = field(default=None, compare=False)

    @property
    def target_id(self) -> str:
        return f"{self.target_kind}:{self.target}"

    def describe(self) -> str:
        qualifiers = []
        if not self.idempotent:
            qualifiers.append("non-idempotent")
        if self.rpc_keyed:
            qualifiers.append("rpc_id-keyed")
        if not self.deterministic:
            qualifiers.append("nondeterministic")
        suffix = f" ({', '.join(qualifiers)})" if qualifiers else ""
        keyed = f" keyed by {self.key}" if self.key else ""
        return (
            f"{self.element}/{self.handler}: {self.shape} on "
            f"{self.target_kind} {self.target!r}{keyed}{suffix}"
        )


@dataclass(frozen=True)
class OutputStateRead:
    """An emitted output field derived from element state."""

    handler: str
    output_field: str
    target_kind: str
    target: str

    @property
    def target_id(self) -> str:
        return f"{self.target_kind}:{self.target}"


@dataclass(frozen=True)
class ElementEffects:
    """The effect summary of one element: every mutation site plus the
    state-derived outputs, with the facts the ADN700 family consumes."""

    element: str
    sites: Tuple[MutationSite, ...] = ()
    output_reads: Tuple[OutputStateRead, ...] = ()
    #: state observably read (joins, guards, emitted projections) —
    #: excludes a site's own self-reference (``col = col + 1``)
    observable_reads: Tuple[str, ...] = ()

    def non_idempotent_sites(self) -> List[MutationSite]:
        """Sites a duplicate attempt re-applies visibly: not idempotent
        and not collapsible by rpc_id-keyed dedup."""
        return [
            s for s in self.sites if not s.idempotent and not s.rpc_keyed
        ]

    def non_commutative_sites(self) -> List[MutationSite]:
        return [s for s in self.sites if not s.commutative]

    def divergent_sites(self) -> List[MutationSite]:
        """Sites that make independent copies of this element observably
        disagree (the per-mutation-site refinement behind ADN702)."""
        observable = set(self.observable_reads)
        out = []
        for site in self.sites:
            if site.shape == "cas":
                out.append(site)
            elif not site.deterministic and site.shape in (
                "set",
                "increment",
            ):
                out.append(site)
            elif (
                site.shape in ("increment", "append")
                and site.target_id in observable
            ):
                out.append(site)
        return out

    def retry_visible_reads(self) -> List[Tuple[OutputStateRead, MutationSite]]:
        """Emitted fields whose value a duplicate attempt observes
        differently: derived from state some non-idempotent,
        non-deduplicated site of this element mutates."""
        risky = {s.target_id: s for s in self.non_idempotent_sites()}
        return [
            (read, risky[read.target_id])
            for read in self.output_reads
            if read.target_id in risky
        ]


# -- the summary ----------------------------------------------------------


class StateRead(NamedTuple):
    """One table or var one handler statement reads."""

    handler: str
    target_kind: str  # "table" | "var"
    target: str
    span: Optional[Span]
    #: replication evidence of a plain read; "" when the statement's own
    #: write accounts for it (an UPDATE/DELETE addressing its rows, a
    #: self-increment reading its var)
    detail: str = ""
    #: replication evidence when the read aggregates the whole table
    aggregate: str = ""
    #: a JOIN pins every key column; a star projection never does
    pinned: bool = True
    #: read by a filter, join or emitted projection: a duplicate
    #: attempt observes it
    observed: bool = False
    #: the emitted field it feeds ("" when none)
    output_field: str = ""


class StateWrite(NamedTuple):
    """One mutation site with the replication evidence it carries."""

    site: MutationSite
    #: "insert", "commutative" (counter update or var self-increment)
    #: or "overwrite"
    evidence: str
    detail: str
    #: an UPDATE/DELETE WHERE pins every key column of the table
    pinned: bool = True


@dataclass(frozen=True)
class StateSummary:
    """Every handler state access of one element, in statement order,
    and the three folds over it."""

    element: str
    #: declared tables, each with whether it has a KEY column
    tables: Tuple[Tuple[str, bool], ...]
    vars: Tuple[str, ...]
    reads: Tuple[StateRead, ...]
    writes: Tuple[StateWrite, ...]

    @cached_property
    def replication(self) -> ReplicationSafety:
        """The coarse verdict: each declared table and var classified by
        its evidence, bucketed by kind in statement order."""
        evidence: Dict[Tuple[str, str], Dict[str, List]] = {
            ("table", name): defaultdict(list) for name, _ in self.tables
        }
        evidence.update(
            (("var", name), defaultdict(list)) for name in self.vars
        )
        unpinned: Set[Tuple[str, str]] = set()
        for read in self.reads:
            target = (read.target_kind, read.target)
            if target not in evidence:
                continue
            if read.detail:
                evidence[target]["read"].append((read.detail, read.span))
            if read.aggregate:
                evidence[target]["aggregate"].append(
                    (read.aggregate, read.span)
                )
            if not read.pinned:
                unpinned.add(target)
        for write in self.writes:
            target = (write.site.target_kind, write.site.target)
            if target not in evidence:
                continue
            evidence[target][write.evidence].append(
                (write.detail, write.site.span)
            )
            if not write.pinned:
                unpinned.add(target)
        accesses = [
            _classify_table(
                name,
                evidence[("table", name)],
                keyed and ("table", name) not in unpinned,
            )
            for name, keyed in self.tables
        ]
        accesses += [
            _classify_var(name, evidence[("var", name)]) for name in self.vars
        ]
        return ReplicationSafety(self.element, tuple(accesses))

    @cached_property
    def effects(self) -> ElementEffects:
        """The effect summary: every site, the state-derived outputs and
        the state a duplicate attempt observes."""
        observed = dict.fromkeys(
            f"{read.target_kind}:{read.target}"
            for read in self.reads
            if read.observed
        )
        return ElementEffects(
            element=self.element,
            sites=tuple(write.site for write in self.writes),
            output_reads=tuple(
                OutputStateRead(
                    read.handler,
                    read.output_field,
                    read.target_kind,
                    read.target,
                )
                for read in self.reads
                if read.output_field
            ),
            observable_reads=tuple(observed),
        )

    @cached_property
    def refined_replication(self) -> ReplicationSafety:
        """The coarse verdict tightened by per-site proofs: a
        ``COMMUTATIVE`` counter whose value feeds an emitted output, or
        an increment with a nondeterministic delta, still makes replicas
        observably diverge, so its access becomes ``READ_MODIFY_WRITE``.
        The coarse verdict itself when nothing is demoted."""
        coarse = self.replication
        divergent: Dict[Tuple[str, str], MutationSite] = {}
        for site in self.effects.divergent_sites():
            divergent.setdefault((site.target_kind, site.target), site)
        accesses: List[StateAccess] = []
        for access in coarse.accesses:
            site = divergent.get((access.kind, access.name))
            if site is None or access.mode is AccessMode.READ_MODIFY_WRITE:
                accesses.append(access)
                continue
            accesses.append(
                replace(
                    access,
                    mode=AccessMode.READ_MODIFY_WRITE,
                    detail=(
                        f"replica-divergent {site.shape} in the "
                        f"{site.handler} handler ({site.describe()}); "
                        f"coarse verdict was {access.mode.value}"
                    ),
                    span=site.span if site.span is not None else access.span,
                )
            )
        if tuple(accesses) == coarse.accesses:
            return coarse
        return ReplicationSafety(coarse.element, tuple(accesses))


def summarize_state(
    element: str,
    states: Tuple[StateDecl, ...],
    variables: Tuple[VarDecl, ...],
    handlers: Dict[str, HandlerIR],
    registry: FunctionRegistry,
) -> StateSummary:
    """Walk every handler statement of one element once.

    It takes the element's parts, not its ``ElementIR``: an analysis
    that keeps this call for later must hold no reference back to the
    IR it is attached to, or the pair would outlive its last use until
    the cyclic garbage collector runs."""
    keys = {
        decl.name: frozenset(col.name for col in decl.columns if col.is_key)
        for decl in states
    }
    walk = _Walk(
        element,
        keys,
        {decl.name for decl in states if decl.append_only},
        registry,
    )
    for kind, handler in handlers.items():
        for stmt in handler.statements:
            walk.statement(kind, stmt)
    return StateSummary(
        element=element,
        tables=tuple((decl.name, bool(keys[decl.name])) for decl in states),
        vars=tuple(decl.name for decl in variables),
        reads=tuple(walk.reads),
        writes=tuple(walk.writes),
    )


# -- expression helpers ---------------------------------------------------


def _pins_all_keys(
    predicate: Optional[Expr], table: str, keys: frozenset
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


def _reads_state(refs: ExprRefs) -> bool:
    return bool(refs.table_columns or refs.tables_counted or refs.vars)


def _guards(where: Optional[Expr]) -> Tuple[str, ...]:
    if where is None:
        return ()
    return tuple(print_expr(conjunct) for conjunct in conjuncts(where))


# -- the walk -------------------------------------------------------------


class _Walk:
    """Appends one record per state access, statement by statement."""

    def __init__(
        self,
        element: str,
        keys: Dict[str, frozenset],
        append_only: Set[str],
        registry: FunctionRegistry,
    ):
        self.element = element
        self.keys = keys
        self.append_only = append_only
        self.registry = registry
        self.reads: List[StateRead] = []
        self.writes: List[StateWrite] = []
        #: the handler and span of the statement being walked
        self.handler = ""
        self.span: Optional[Span] = None

    def statement(self, handler: str, stmt: StatementIR) -> None:
        self.handler, self.span = handler, stmt.span
        emits = stmt.emits
        guards: List[str] = []
        #: the projected items and their refs, for an INSERT ... SELECT
        projected: List[Tuple[str, Expr, ExprRefs]] = []
        for op in stmt.ops:
            if isinstance(op, FilterRows):
                guards.extend(_guards(op.predicate))
                self._expr(op.predicate, "WHERE", observed=True)
            elif isinstance(op, JoinState):
                self._read(
                    "table",
                    op.table,
                    detail="JOIN reads matching rows",
                    pinned=self._pins(op.table, op.on),
                    observed=True,
                )
                self._expr(op.on, "JOIN predicate", observed=True)
            elif isinstance(op, Project):
                projected = [
                    (
                        name,
                        expr,
                        self._expr(
                            expr,
                            "projection",
                            observed=emits,
                            output=name if emits else "",
                        ),
                    )
                    for name, expr in op.items
                ]
                for table in op.star_tables:
                    self._read(
                        "table",
                        table,
                        detail="projection reads the whole table",
                        pinned=False,
                        observed=emits,
                        output_field=f"{table}.*" if emits else "",
                    )
            elif isinstance(op, (InsertRows, InsertLiterals)):
                # literal rows carry no items
                items = projected if isinstance(op, InsertRows) else None
                site = self._insert_site(op.table, items, tuple(guards))
                self._write(site, "insert", "pure INSERT")
            elif isinstance(op, UpdateRows):
                self._update(op)
            elif isinstance(op, DeleteRows):
                self._delete(op, tuple(guards))
            elif isinstance(op, AssignVar):
                self._assign(op)

    def _read(self, kind: str, target: str, **facts) -> None:
        self.reads.append(
            StateRead(self.handler, kind, target, self.span, **facts)
        )

    def _write(
        self,
        site: MutationSite,
        evidence: str,
        detail: str,
        pinned: bool = True,
    ) -> None:
        self.writes.append(StateWrite(site, evidence, detail, pinned))

    def _site(self, kind: str, target: str, **facts) -> MutationSite:
        return MutationSite(
            element=self.element,
            handler=self.handler,
            target_kind=kind,
            target=target,
            span=self.span,
            **facts,
        )

    def _pins(self, table: str, predicate: Optional[Expr]) -> bool:
        keys = self.keys.get(table, frozenset())
        return _pins_all_keys(predicate, table, keys)

    def _deterministic(self, *refs: ExprRefs) -> bool:
        """No call to a nondeterministic function (now(), rand())."""
        return all(
            self.registry.get(name).deterministic
            for one in refs
            for name in one.functions
        )

    def _expr(
        self,
        expr: Optional[Expr],
        what: str,
        observed: bool = False,
        output: str = "",
        skip_table: Optional[str] = None,
        skip_var: Optional[str] = None,
    ) -> ExprRefs:
        """Record the tables and vars ``expr`` reads, each once, tables
        then vars in name order, and return its refs. A plain read names
        the first column read; ``skip_table``/``skip_var`` drop the
        plain reads the statement's own write accounts for. Aggregates
        are never dropped: they span all rows, which no write covers."""
        refs = collect_refs(expr)
        columns: Dict[str, str] = {}
        for table, column in refs.table_columns:
            if table != skip_table:
                columns.setdefault(table, column)
        tables = {t for t, _ in refs.table_columns} | refs.tables_counted
        for table in sorted(tables):
            aggregated = table in refs.tables_counted
            if table not in columns and not aggregated:
                continue
            self._read(
                "table",
                table,
                detail=(
                    f"{what} reads column {columns[table]!r}"
                    if table in columns
                    else ""
                ),
                aggregate=(
                    f"{what} aggregates over the whole table"
                    if aggregated
                    else ""
                ),
                observed=observed,
                output_field=output,
            )
        for var in sorted(refs.vars):
            if var != skip_var:
                self._read(
                    "var",
                    var,
                    detail=f"{what} reads the variable",
                    observed=observed,
                    output_field=output,
                )
        return refs

    def _insert_site(
        self,
        table: str,
        projected: Optional[List[Tuple[str, Expr, ExprRefs]]],
        guards: Tuple[str, ...],
    ) -> MutationSite:
        """``projected`` is None for literal rows (``INSERT ... VALUES``)."""
        refs = [item_refs for _, _, item_refs in projected or ()]
        deterministic = self._deterministic(*refs)
        keys = self.keys.get(table, frozenset())
        if table in self.append_only or not keys:
            # append/bag semantics: every duplicate attempt adds a row. The
            # row order never matters (multiset), but the duplicate itself
            # is visible — unless the row records input.rpc_id, in which
            # case duplicates are distinguishable and collapsible.
            shape, key = "append", ""
            idempotent, commutative = False, True
        elif projected is None:
            # literal rows into a keyed table rewrite the same rows with
            # the same values
            shape, key = "set", "literal rows"
            idempotent = commutative = True
        else:
            # keyed insert = upsert: re-running with the same input
            # rewrites the same row with the same (deterministic) values —
            # an idempotent set
            key_items = {
                name: (expr, item_refs)
                for name, expr, item_refs in projected
                if name in keys
            }
            shape, idempotent = "set", deterministic
            key = ", ".join(
                f"{name}={print_expr(expr)}"
                for name, (expr, _) in sorted(key_items.items())
            )
            commutative = deterministic and all(
                name in key_items and not _reads_state(key_items[name][1])
                for name in keys
            )
        return self._site(
            "table",
            table,
            shape=shape,
            key=key,
            guards=guards,
            idempotent=idempotent,
            commutative=commutative,
            rpc_keyed=any("rpc_id" in one.input_fields for one in refs),
            deterministic=deterministic,
        )

    def _update(self, op: UpdateRows) -> None:
        values = [
            self._expr(expr, "UPDATE expression", skip_table=op.table)
            for _, expr in op.assignments
        ]
        where = self._expr(op.where, "UPDATE WHERE", skip_table=op.table)
        increments = [
            _is_commutative_assignment(op.table, column, expr)
            for column, expr in op.assignments
        ]
        deterministic = self._deterministic(*values)
        #: a WHERE that aggregates the target table (sum_of/contains) makes
        #: the update compare-and-swap-like: whether it applies depends on
        #: the full current state, so application order matters
        aggregated_guard = op.table in where.tables_counted
        reads_table_values = any(
            references_table(expr, op.table) and not increment
            for (_, expr), increment in zip(op.assignments, increments)
        )
        if op.assignments and all(increments):
            shape = "cas" if aggregated_guard else "increment"
        elif reads_table_values or aggregated_guard:
            shape = "cas"
        else:
            shape = "set"
        pinned = self._pins(op.table, op.where)
        site = self._site(
            "table",
            op.table,
            shape=shape,
            key=print_expr(op.where) if op.where is not None else "",
            guards=_guards(op.where),
            idempotent=(shape == "set" and deterministic),
            commutative=(
                (shape == "increment" and deterministic)
                or (shape == "set" and pinned and deterministic)
            ),
            rpc_keyed="rpc_id" in where.input_fields and pinned,
            deterministic=deterministic,
        )
        if all(increments):
            evidence = "commutative"
            detail = "counter-style UPDATE (col = col + delta)"
        else:
            evidence = "overwrite"
            cols = ", ".join(c for c, _ in op.assignments)
            detail = f"UPDATE rewrites column(s) {cols}"
        self._write(site, evidence, detail, pinned)

    def _delete(self, op: DeleteRows, guards: Tuple[str, ...]) -> None:
        where = self._expr(op.where, "DELETE WHERE", skip_table=op.table)
        site = self._site(
            "table",
            op.table,
            shape="delete",
            key=print_expr(op.where) if op.where is not None else "",
            guards=guards,
            idempotent=True,
            commutative=True,
            rpc_keyed="rpc_id" in where.input_fields,
            deterministic=self._deterministic(where),
        )
        pinned = self._pins(op.table, op.where)
        self._write(site, "overwrite", "DELETE removes rows", pinned)

    def _assign(self, op: AssignVar) -> None:
        increment = _is_self_increment(op.var, op.expr)
        value = self._expr(
            op.expr, "SET expression", skip_var=op.var if increment else None
        )
        where = self._expr(op.where, "SET WHERE")
        deterministic = self._deterministic(value, where)
        if increment and not _reads_state(where):
            shape = "increment"
        elif _reads_state(where) or _reads_state(value):
            # reads itself (beyond plain self-increment) or other mutable
            # state: a guarded/derived read-modify-write scalar
            shape = "cas"
        else:
            shape = "set"
        site = self._site(
            "var",
            op.var,
            shape=shape,
            key="",
            guards=_guards(op.where),
            idempotent=(shape == "set" and deterministic),
            commutative=(shape == "increment" and deterministic),
            rpc_keyed=False,
            deterministic=deterministic,
        )
        if increment:
            self._write(site, "commutative", "self-relative increment")
        else:
            self._write(site, "overwrite", "SET overwrites the variable")


# -- the coarse classification ---------------------------------------------


def _first_span(
    *evidence: List[Tuple[str, Optional[Span]]]
) -> Optional[Span]:
    for bucket in evidence:
        for _what, span in bucket:
            if span is not None:
                return span
    return None


def _classify_table(
    name: str, ev: Dict[str, List], pinned_keys: bool
) -> StateAccess:
    """``pinned_keys``: the table is keyed and every access pins its
    key columns."""
    access = partial(StateAccess, name, "table")
    reads, aggregates = ev["read"], ev["aggregate"]
    inserts, counters = ev["insert"], ev["commutative"]
    rewrites = ev["overwrite"]
    if not (inserts or counters or rewrites):
        return access(
            AccessMode.READ_ONLY,
            "handlers only read it",
            _first_span(reads, aggregates),
        )
    if not rewrites and not (reads or aggregates):
        kind = (
            "append-only INSERTs"
            if inserts and not counters
            else "counter-style updates"
        )
        return access(
            AccessMode.COMMUTATIVE,
            f"written only through {kind}, never read by handlers",
            _first_span(inserts, counters),
        )
    if aggregates:
        what, span = aggregates[0]
        return access(
            AccessMode.READ_MODIFY_WRITE,
            f"{what}, so shards would each see partial history",
            span or _first_span(rewrites, reads),
        )
    if pinned_keys:
        return access(
            AccessMode.PARTITIONED,
            "every access pins all key columns to RPC-derived values; "
            "shard by key to scale",
            _first_span(rewrites, counters, reads),
        )
    what, span = (rewrites or reads)[0]
    return access(
        AccessMode.READ_MODIFY_WRITE,
        f"{what} and the result feeds back into later decisions",
        span,
    )


def _classify_var(name: str, ev: Dict[str, List]) -> StateAccess:
    access = partial(StateAccess, name, "var")
    reads, increments, writes = ev["read"], ev["commutative"], ev["overwrite"]
    if not writes and not increments:
        return access(
            AccessMode.READ_ONLY, "handlers only read it", _first_span(reads)
        )
    if reads:
        what, span = reads[0]
        return access(
            AccessMode.READ_MODIFY_WRITE,
            f"written and read back ({what})",
            span or _first_span(writes, increments),
        )
    if writes:
        what, span = writes[0]
        return access(
            AccessMode.COMMUTATIVE,
            f"write-only ({what}); replicas never observe it",
            span,
        )
    return access(
        AccessMode.COMMUTATIVE,
        "only self-relative increments; merge by summation",
        _first_span(increments),
    )
