"""Symbolic effect summaries: what an element *does to its state*.

The field-level analyses (`ir.analysis`, `analysis.graph`) answer "which
fields flow where"; this module answers the mesh-correctness questions
that at-least-once delivery and replication raise (paper §5.2: the
controller may re-place, replicate, and retry anything):

* per handler, every **mutation site** — which table/var it writes, the
  key expression, the update *shape* (``set`` / ``increment`` /
  ``append`` / ``cas`` / ``delete``), and the guards it runs under;
* from the shape, three semantic facts the ADN700 rule family needs:
  **idempotence** (does a duplicate attempt with identical input change
  state again?), **self-commutativity** (do two applications reorder
  freely?), and **rpc-keyed dedup** (does the mutation carry/pin
  ``input.rpc_id`` so duplicates are distinguishable and collapsible?);
* **retry-visible reads**: emitted output fields derived from state a
  duplicate attempt would observe differently;
* **replica divergence**: mutations that make independent copies of the
  element observably disagree — used by :func:`refine_replication` to
  tighten the coarse `ir.replication` verdict to per-mutation-site
  proofs (what gates `Autoscaler` scale-out).

Summaries compose along chains and across `ServiceGraph` edges on the
same topological walk as `analyze_graph` (see `analysis.graph`); the
runtime `StateSanitizer` (`repro.state.table`) is this module's shadow:
every violation it can raise dynamically corresponds to a site flagged
here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..dsl.ast_nodes import Expr
from ..dsl.functions import DEFAULT_REGISTRY, FunctionRegistry
from ..dsl.printer import print_expr
from ..dsl.span import Span
from ..ir.expr_utils import (
    collect_refs,
    conjuncts,
    is_deterministic,
    references_table,
)
from ..ir.nodes import (
    AssignVar,
    DeleteRows,
    ElementIR,
    FilterRows,
    InsertLiterals,
    InsertRows,
    JoinState,
    Project,
    UpdateRows,
)
from ..ir.replication import (
    AccessMode,
    ReplicationSafety,
    StateAccess,
    _is_commutative_assignment,
    _is_self_increment,
    _pins_all_keys,
)

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


def element_effects(
    element: ElementIR, registry: Optional[FunctionRegistry] = None
) -> ElementEffects:
    """Compute the effect summary of one element's handlers.

    ``init`` blocks are deliberately excluded: they run once, before any
    replication or retry, so their writes are not duplicate-visible.
    """
    registry = registry or DEFAULT_REGISTRY
    key_columns = {
        decl.name: frozenset(
            col.name for col in decl.columns if col.is_key
        )
        for decl in element.states
    }
    append_only = {
        decl.name for decl in element.states if decl.append_only
    }
    sites: List[MutationSite] = []
    output_reads: List[OutputStateRead] = []
    observable: List[str] = []
    for kind, handler in element.handlers.items():
        for stmt in handler.statements:
            _walk_statement(
                element.name,
                kind,
                stmt,
                key_columns,
                append_only,
                registry,
                sites,
                output_reads,
                observable,
            )
    seen = set()
    unique_observable = []
    for target in observable:
        if target not in seen:
            seen.add(target)
            unique_observable.append(target)
    return ElementEffects(
        element=element.name,
        sites=tuple(sites),
        output_reads=tuple(output_reads),
        observable_reads=tuple(unique_observable),
    )


def summarize_elements(
    irs: Dict[str, ElementIR],
    registry: Optional[FunctionRegistry] = None,
) -> Dict[str, ElementEffects]:
    """Effect summaries for every element IR, keyed by name."""
    return {
        name: element_effects(ir, registry) for name, ir in irs.items()
    }


# -- statement walk ------------------------------------------------------


def _walk_statement(
    element: str,
    kind: str,
    stmt,
    key_columns: Dict[str, frozenset],
    append_only,
    registry: FunctionRegistry,
    sites: List[MutationSite],
    output_reads: List[OutputStateRead],
    observable: List[str],
) -> None:
    guards: List[str] = []
    last_project: Optional[Project] = None
    for op in stmt.ops:
        if isinstance(op, FilterRows):
            guards.extend(
                print_expr(conjunct) for conjunct in conjuncts(op.predicate)
            )
            _note_observable(op.predicate, observable)
        elif isinstance(op, JoinState):
            observable.append(f"table:{op.table}")
            _note_observable(op.on, observable)
        elif isinstance(op, Project):
            last_project = op
            if stmt.emits:
                for name, expr in op.items:
                    refs = collect_refs(expr)
                    for table in sorted(
                        {t for t, _ in refs.table_columns}
                        | refs.tables_counted
                    ):
                        output_reads.append(
                            OutputStateRead(kind, name, "table", table)
                        )
                        observable.append(f"table:{table}")
                    for var in sorted(refs.vars):
                        output_reads.append(
                            OutputStateRead(kind, name, "var", var)
                        )
                        observable.append(f"var:{var}")
                for table in op.star_tables:
                    output_reads.append(
                        OutputStateRead(kind, f"{table}.*", "table", table)
                    )
                    observable.append(f"table:{table}")
        elif isinstance(op, InsertRows):
            sites.append(
                _insert_site(
                    element,
                    kind,
                    op,
                    last_project,
                    key_columns,
                    append_only,
                    registry,
                    tuple(guards),
                    stmt.span,
                )
            )
        elif isinstance(op, InsertLiterals):
            sites.append(
                MutationSite(
                    element=element,
                    handler=kind,
                    target_kind="table",
                    target=op.table,
                    shape="set",
                    key="literal rows",
                    guards=tuple(guards),
                    idempotent=True,
                    commutative=True,
                    rpc_keyed=False,
                    deterministic=True,
                    span=stmt.span,
                )
            )
        elif isinstance(op, UpdateRows):
            sites.append(
                _update_site(
                    element, kind, op, key_columns, registry, stmt.span
                )
            )
        elif isinstance(op, DeleteRows):
            where_refs = collect_refs(op.where)
            sites.append(
                MutationSite(
                    element=element,
                    handler=kind,
                    target_kind="table",
                    target=op.table,
                    shape="delete",
                    key=print_expr(op.where) if op.where is not None else "",
                    guards=tuple(guards),
                    idempotent=True,
                    commutative=True,
                    rpc_keyed="rpc_id" in where_refs.input_fields,
                    deterministic=(
                        op.where is None
                        or is_deterministic(op.where, registry)
                    ),
                    span=stmt.span,
                )
            )
        elif isinstance(op, AssignVar):
            sites.append(
                _var_site(element, kind, op, registry, stmt.span)
            )


def _note_observable(expr: Optional[Expr], observable: List[str]) -> None:
    if expr is None:
        return
    refs = collect_refs(expr)
    for table in sorted(
        {t for t, _ in refs.table_columns} | refs.tables_counted
    ):
        observable.append(f"table:{table}")
    for var in sorted(refs.vars):
        observable.append(f"var:{var}")


def _insert_site(
    element: str,
    kind: str,
    op: InsertRows,
    project: Optional[Project],
    key_columns: Dict[str, frozenset],
    append_only,
    registry: FunctionRegistry,
    guards: Tuple[str, ...],
    span,
) -> MutationSite:
    keys = key_columns.get(op.table, frozenset())
    items = tuple(project.items) if project is not None else ()
    deterministic = all(
        is_deterministic(expr, registry) for _, expr in items
    )
    rpc_keyed = any(
        "rpc_id" in collect_refs(expr).input_fields for _, expr in items
    )
    is_append = op.table in append_only or not keys
    if is_append:
        # append/bag semantics: every duplicate attempt adds a row. The
        # row order never matters (multiset), but the duplicate itself
        # is visible — unless the row records input.rpc_id, in which
        # case duplicates are distinguishable and collapsible.
        return MutationSite(
            element=element,
            handler=kind,
            target_kind="table",
            target=op.table,
            shape="append",
            key="",
            guards=guards,
            idempotent=False,
            commutative=True,
            rpc_keyed=rpc_keyed,
            deterministic=deterministic,
            span=span,
        )
    key_exprs = {name: expr for name, expr in items if name in keys}
    keys_input_derived = bool(keys) and all(
        name in key_exprs
        and not collect_refs(key_exprs[name]).table_columns
        and not collect_refs(key_exprs[name]).vars
        and not collect_refs(key_exprs[name]).tables_counted
        for name in keys
    )
    key_text = ", ".join(
        f"{name}={print_expr(expr)}" for name, expr in sorted(key_exprs.items())
    )
    # keyed insert = upsert: re-running with the same input rewrites the
    # same row with the same (deterministic) values — an idempotent set
    return MutationSite(
        element=element,
        handler=kind,
        target_kind="table",
        target=op.table,
        shape="set",
        key=key_text,
        guards=guards,
        idempotent=deterministic,
        commutative=keys_input_derived and deterministic,
        rpc_keyed=rpc_keyed,
        deterministic=deterministic,
        span=span,
    )


def _update_site(
    element: str,
    kind: str,
    op: UpdateRows,
    key_columns: Dict[str, frozenset],
    registry: FunctionRegistry,
    span,
) -> MutationSite:
    keys = key_columns.get(op.table, frozenset())
    where_refs = collect_refs(op.where)
    guards = (
        tuple(print_expr(c) for c in conjuncts(op.where))
        if op.where is not None
        else ()
    )
    deterministic = all(
        is_deterministic(expr, registry) for _, expr in op.assignments
    )
    #: a WHERE that aggregates the target table (sum_of/contains) makes
    #: the update compare-and-swap-like: whether it applies depends on
    #: the full current state, so application order matters
    aggregated_guard = op.table in where_refs.tables_counted
    all_increments = bool(op.assignments) and all(
        _is_commutative_assignment(op.table, column, expr)
        for column, expr in op.assignments
    )
    reads_table_values = any(
        references_table(expr, op.table)
        and not _is_commutative_assignment(op.table, column, expr)
        for column, expr in op.assignments
    )
    if reads_table_values or (aggregated_guard and not all_increments):
        shape = "cas"
    elif all_increments:
        shape = "cas" if aggregated_guard else "increment"
    else:
        shape = "set"
    pinned = _pins_all_keys(op.where, op.table, set(keys))
    return MutationSite(
        element=element,
        handler=kind,
        target_kind="table",
        target=op.table,
        shape=shape,
        key=print_expr(op.where) if op.where is not None else "",
        guards=guards,
        idempotent=(shape == "set" and deterministic),
        commutative=(
            (shape == "increment" and deterministic)
            or (shape == "set" and pinned and deterministic)
        ),
        rpc_keyed="rpc_id" in where_refs.input_fields and pinned,
        deterministic=deterministic,
        span=span,
    )


def _var_site(
    element: str,
    kind: str,
    op: AssignVar,
    registry: FunctionRegistry,
    span,
) -> MutationSite:
    refs = collect_refs(op.expr)
    where_refs = collect_refs(op.where)
    deterministic = is_deterministic(op.expr, registry) and (
        op.where is None or is_deterministic(op.where, registry)
    )
    guards = (
        tuple(print_expr(c) for c in conjuncts(op.where))
        if op.where is not None
        else ()
    )
    reads_state = bool(
        refs.table_columns or refs.tables_counted or refs.vars
    )
    guard_reads_state = bool(
        where_refs.table_columns
        or where_refs.tables_counted
        or where_refs.vars
    )
    if _is_self_increment(op.var, op.expr) and not guard_reads_state:
        shape = "increment"
    elif reads_state or guard_reads_state:
        # reads itself (beyond plain self-increment) or other mutable
        # state: a guarded/derived read-modify-write scalar
        shape = "cas"
    else:
        shape = "set"
    return MutationSite(
        element=element,
        handler=kind,
        target_kind="var",
        target=op.var,
        shape=shape,
        key="",
        guards=guards,
        idempotent=(shape == "set" and deterministic),
        commutative=(shape == "increment" and deterministic),
        rpc_keyed=False,
        deterministic=deterministic,
        span=span,
    )


# -- replication refinement (ADN702) -------------------------------------


def refine_replication(
    safety: ReplicationSafety, effects: ElementEffects
) -> ReplicationSafety:
    """Tighten a coarse :class:`ReplicationSafety` verdict with
    per-mutation-site proofs.

    The coarse classifier reasons per table/var over merged evidence; a
    `COMMUTATIVE` counter whose value feeds an emitted output, or an
    increment with a nondeterministic delta, still makes replicas
    *observably* diverge. Such accesses are demoted to
    ``READ_MODIFY_WRITE`` so `ReplicationSafety.shardable` — the gate
    the `Autoscaler` consults — flips to refusal.
    """
    divergent: Dict[Tuple[str, str], MutationSite] = {}
    for site in effects.divergent_sites():
        divergent.setdefault((site.target_kind, site.target), site)
    if not divergent:
        return safety
    accesses: List[StateAccess] = []
    changed = False
    for access in safety.accesses:
        site = divergent.get((access.kind, access.name))
        if site is None or access.mode is AccessMode.READ_MODIFY_WRITE:
            accesses.append(access)
            continue
        changed = True
        accesses.append(
            StateAccess(
                name=access.name,
                kind=access.kind,
                mode=AccessMode.READ_MODIFY_WRITE,
                detail=(
                    f"replica-divergent {site.shape} in the "
                    f"{site.handler} handler ({site.describe()}); "
                    f"coarse verdict was {access.mode.value}"
                ),
                span=site.span if site.span is not None else access.span,
            )
        )
    if not changed:
        return safety
    return ReplicationSafety(element=safety.element, accesses=tuple(accesses))


def refined_safety(
    element: ElementIR, registry: Optional[FunctionRegistry] = None
) -> ReplicationSafety:
    """Coarse classification + effect refinement in one call."""
    from ..ir.replication import replication_safety

    return refine_replication(
        replication_safety(element), element_effects(element, registry)
    )
