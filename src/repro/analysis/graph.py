"""Interprocedural analysis over a :class:`~repro.graph.model.ServiceGraph`.

Every analysis before this module stops at a single chain: the ADN5xx
abstract interpreter types one edge's elements against the pristine
schema environment, liveness-driven header planning keeps a field off
one wire when nothing *on that edge* reads it, and the runtime
discovers retry storms and starved deadlines empirically. The paper's
pitch — the compiler knows the whole application — only becomes real
when those analyses see the whole graph. This module lifts them:

* **Interprocedural environments.** Walking services in topological
  order, each edge's chain is abstractly interpreted starting from what
  its *caller actually delivers* (the caller's post-chain environment
  restricted to the fields its wire header carries), not from the
  schema's promise. Findings that appear only under the delivered
  environment are cross-service dataflow breaks (``ADN606``), as are
  schema fields a service consumes that no incoming edge still carries.

* **Mesh-wide liveness.** A field is live at a service if the service's
  declared reads (``ServiceSpec.reads``; undeclared = all), any
  outgoing edge's chain, or any downstream service needs it. A field
  alive on one edge but dead everywhere below feeds
  :func:`eliminate_dead_fields_graph`, which re-plans every edge's wire
  header with the proven live set (and strips the dead *computation*
  via the per-chain pass), validating each rewritten edge with the
  translation validator against the projected schema.

* **Static reliability bounds (ADN601–605).** The same traversal
  computes, per root→leaf path, the worst-case retry amplification
  (product of ``max_attempts`` — the static counterpart of the
  runtime's ``RetryStats.amplification()``), deadline-budget
  feasibility, breaker/timeout coverage on deep retrying edges,
  fate-coherence of sibling ``hash_fields``, and RMW state reachable
  from multiple edges. The DSL-side ``ADN601``/``ADN602``
  (:mod:`repro.lint.rules.graph`) read the same amplification and
  budget facts off multi-chain apps lowered to this model.

* **State-effect semantics (ADN700–703).** Each element's effect
  summary and refined replication verdict, folds over the state-access
  summary its analysis caches (:mod:`repro.ir.state_access`), composed
  over the same traversal: non-idempotent mutations reachable under a
  retrying edge without rpc_id-keyed dedup (``ADN700``), mutations that
  do not commute with themselves across fan-out sibling interleavings
  (``ADN701``), replica-divergent mutations on elements the coarse
  replication classifier would still scale out (``ADN702``), and
  retry-visible reads: response fields a duplicate attempt observes
  differently (``ADN703``). The runtime ``StateSanitizer`` shadows
  exactly these findings.

``ADN600`` (owned by :mod:`repro.graph.lint`) covers spec loading and
name resolution so every failure mode of ``repro graph --check`` is a
diagnostic, never a traceback; :func:`repro.graph.lint.lint_graph`
runs every spec check, this analyzer last.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..compiler.headers import HopHeaderPlan, plan_hop_headers
from ..dsl.ast_nodes import Program
from ..dsl.functions import DEFAULT_REGISTRY, FunctionRegistry
from ..dsl.schema import RpcSchema
from ..graph.model import EdgeKey, EdgeSpec, ServiceGraph
from ..ir.analysis import analyze_element
from ..ir.builder import build_element_ir
from ..ir.nodes import ChainIR, ElementIR
from ..ir.passes.dead_fields import Removal, eliminate_dead_fields
from ..ir.state_access import AccessMode
from ..lint.diagnostics import Diagnostic, Severity, sort_key
from .domains import join
from .typecheck import (
    ChainTypeReport,
    Env,
    TypeFinding,
    check_chain,
    env_from_schema,
)
from .validate import ValidationVerdict, validate_rewrite


@dataclass(frozen=True)
class GraphAnalysisOptions:
    """Thresholds for the ADN6xx rules."""

    #: worst-case retry amplification (product of ``max_attempts`` along
    #: a root→leaf path) above which ADN601 fires as an error
    amplification_threshold: float = 8.0
    #: floor per remaining downstream hop when judging whether an
    #: effective deadline budget can cover its descendant fan-out
    min_hop_ms: float = 1.0


@dataclass
class EdgeAnalysis:
    """What the interprocedural walk learned about one edge."""

    edge: EdgeSpec
    #: abstract environment entering the edge's chain (the caller's
    #: delivery, not the schema's promise); ``None``: caller unreachable
    entry_env: Optional[Env]
    #: post-chain request environment
    exit_env: Optional[Env]
    #: application fields the edge's wire header delivers to the callee
    delivered: FrozenSet[str]
    #: worst-case retry amplification of any root path through this edge
    amplification_bound: float
    #: type findings present only under the delivered environment
    boundary_findings: Tuple[TypeFinding, ...] = ()


@dataclass
class GraphAnalysis:
    """The whole-graph analysis result ``analyze_graph`` returns."""

    graph: ServiceGraph
    schema: RpcSchema
    edges: Dict[EdgeKey, EdgeAnalysis]
    #: abstract environment at each service's ingress (joined over its
    #: incoming edges' deliveries); entry services get the schema env
    service_env: Dict[str, Optional[Env]]
    #: mesh-live application fields at each service
    live: Dict[str, FrozenSet[str]]
    #: application fields each edge's wire must carry
    edge_live: Dict[EdgeKey, FrozenSet[str]]
    diagnostics: List[Diagnostic]
    #: worst root→leaf retry amplification and a witness path
    worst_amplification: float = 1.0
    worst_path: Tuple[str, ...] = ()
    analysis_ms: float = 0.0

    def amplification_bound(self, src: str, dst: str) -> float:
        return self.edges[(src, dst)].amplification_bound


# -- lowering -------------------------------------------------------------


def lower_edge_chains(
    graph: ServiceGraph,
    program: Program,
    registry: FunctionRegistry,
) -> Dict[EdgeKey, List[ElementIR]]:
    """Element IRs (analyzed) per edge, skipping filters and unresolved
    names (those are ADN600's to report). One IR per distinct element
    name — analysis is read-only, so edges can share."""
    cache: Dict[str, ElementIR] = {}
    chains: Dict[EdgeKey, List[ElementIR]] = {}
    for edge in graph.edges:
        elements: List[ElementIR] = []
        for name in edge.elements:
            if name in program.filters or name not in program.elements:
                continue
            ir = cache.get(name)
            if ir is None:
                ir = build_element_ir(program.elements[name])
                analyze_element(ir, registry)
                cache[name] = ir
            elements.append(ir)
        chains[edge.key] = elements
    return chains


def _chain_ir(
    graph: ServiceGraph, edge: EdgeSpec, elements: Sequence[ElementIR]
) -> ChainIR:
    return ChainIR(
        app=graph.name,
        src=edge.src,
        dst=edge.dst,
        elements=tuple(elements),
    )


def _diag(
    code: str,
    severity: Severity,
    message: str,
    path: str,
    element: str = "",
    fix: str = "",
) -> Diagnostic:
    return Diagnostic(
        code=code,
        severity=severity,
        message=message,
        path=path,
        element=element,
        fix=fix,
    )


# -- mesh-wide liveness ---------------------------------------------------


def _chain_field_reads(elements: Sequence[ElementIR]) -> Set[str]:
    reads: Set[str] = set()
    for element in elements:
        analysis = element.analysis
        if analysis is None:
            continue
        for handler in analysis.handlers.values():
            reads |= set(handler.fields_read)
    return reads


def _implied_runtime_reads(edge: EdgeSpec) -> Set[str]:
    """Fields the *runtime machinery* on an edge reads from the decoded
    request, invisible to the chain's IR: the admission controller's
    priority bypass and its fate-coherence hash."""
    if not edge.admission:
        return set()
    return {"priority"} | set(edge.hash_fields)


def compute_mesh_liveness(
    graph: ServiceGraph,
    chains: Dict[EdgeKey, List[ElementIR]],
    schema: RpcSchema,
) -> Tuple[Dict[str, FrozenSet[str]], Dict[EdgeKey, FrozenSet[str]]]:
    """Application-field liveness per service (at ingress) and per edge
    (what its wire must carry), walking services leaves-first.

    A service's live set is its own consumption (declared
    ``ServiceSpec.reads``, or every schema field when undeclared) plus,
    per outgoing edge: the edge chain's reads, the runtime-implied reads
    (admission priority/hash), and everything live at the callee.
    """
    app_fields = set(schema.application_field_names())
    live: Dict[str, FrozenSet[str]] = {}
    for service in reversed(graph.topological_order()):
        spec = graph.services[service]
        if spec.reads is None:
            needs = set(app_fields)
        else:
            needs = set(spec.reads) & app_fields
        for edge in graph.outgoing(service):
            needs |= _chain_field_reads(chains[edge.key]) & app_fields
            needs |= _implied_runtime_reads(edge) & app_fields
            needs |= set(live[edge.dst])
        live[service] = frozenset(needs)
    edge_live = {
        edge.key: frozenset(
            set(live[edge.dst]) | (_implied_runtime_reads(edge) & app_fields)
        )
        for edge in graph.edges
    }
    return live, edge_live


# -- static retry amplification (ADN601) ----------------------------------


def retry_amplification(
    graph: ServiceGraph,
) -> Tuple[Dict[EdgeKey, float], float, Tuple[str, ...]]:
    """Worst-case retry amplification per edge: the maximum, over root
    paths reaching the edge, of the product of ``max_attempts`` along
    the path (the edge's own attempts included). Returns the per-edge
    bounds, the global worst, and a witness service path for it.

    This is the static counterpart of the runtime's
    ``RetryStats.amplification()`` — the measured attempts-per-logical-
    call on any edge can never exceed the edge's bound, because every
    ancestor retry multiplies re-offers of the whole subtree.
    """
    worst_in: Dict[str, float] = {name: 1.0 for name in graph.services}
    pred: Dict[str, EdgeSpec] = {}
    bounds: Dict[EdgeKey, float] = {}
    for service in graph.topological_order():
        for edge in graph.outgoing(service):
            bound = worst_in[service] * edge.max_attempts
            bounds[edge.key] = bound
            if bound > worst_in[edge.dst]:
                worst_in[edge.dst] = bound
                pred[edge.dst] = edge
    if not bounds:
        return bounds, 1.0, ()
    worst_key = max(bounds, key=lambda key: (bounds[key], key))
    path = [worst_key[1]]
    cursor = worst_key[0]
    path.insert(0, cursor)
    while cursor in pred:
        cursor = pred[cursor].src
        path.insert(0, cursor)
    return bounds, bounds[worst_key], tuple(path)


def amplification_crossings(
    graph: ServiceGraph,
    bounds: Dict[EdgeKey, float],
    threshold: float,
) -> List[EdgeSpec]:
    """Edges where a root path's retry amplification first exceeds
    ``threshold`` (no path into the edge's source does yet), so one bad
    path yields one edge, not one per descendant."""
    worst_in: Dict[str, float] = {name: 1.0 for name in graph.services}
    for edge in graph.edges:
        worst_in[edge.dst] = max(worst_in[edge.dst], bounds[edge.key])
    return [
        edge
        for edge in graph.edges
        if bounds[edge.key] > threshold and worst_in[edge.src] <= threshold
    ]


def _check_amplification(
    graph: ServiceGraph,
    bounds: Dict[EdgeKey, float],
    options: GraphAnalysisOptions,
    path: str,
) -> List[Diagnostic]:
    """ADN601: fire once per threshold crossing."""
    threshold = options.amplification_threshold
    return [
        _diag(
            "ADN601",
            Severity.ERROR,
            f"worst-case retry amplification through edge "
            f"{edge.name} is {bounds[edge.key]:g}x (product of "
            f"max_attempts along the call path), above the bound of "
            f"{threshold:g}x — a retry storm waiting for its "
            "first slow dependency",
            path,
            element=edge.name,
            fix="reduce max_attempts along the path (retries "
            "multiply across hops; retry near the root OR near "
            "the leaf, not both)",
        )
        for edge in amplification_crossings(graph, bounds, threshold)
    ]


# -- deadline-budget feasibility (ADN602) ---------------------------------


def _downstream_hops(graph: ServiceGraph) -> Dict[str, int]:
    hops: Dict[str, int] = {}
    for service in reversed(graph.topological_order()):
        children = graph.outgoing(service)
        hops[service] = (
            1 + max(hops[edge.dst] for edge in children) if children else 0
        )
    return hops


def deadline_budgets(
    graph: ServiceGraph,
) -> Tuple[Dict[EdgeKey, float], Dict[EdgeKey, float]]:
    """Per edge, in ms (``inf``: unbounded): the *inherited* budget any
    caller path can pass down at most, and the *effective* budget,
    ``min(deadline_budget_ms, inherited)``."""
    infinity = float("inf")
    inherited: Dict[EdgeKey, float] = {}
    effective: Dict[EdgeKey, float] = {}
    for service in graph.topological_order():
        passed = max(
            (effective[parent.key] for parent in graph.incoming(service)),
            default=infinity,
        )
        for edge in graph.outgoing(service):
            own = edge.deadline_budget_ms
            inherited[edge.key] = passed
            effective[edge.key] = min(
                own if own is not None else infinity, passed
            )
    return inherited, effective


def _check_budgets(
    graph: ServiceGraph,
    options: GraphAnalysisOptions,
    path: str,
) -> List[Diagnostic]:
    """ADN602: a budget that cannot do what it promises — larger than
    what any parent can pass down, smaller than a per-attempt timeout,
    or too thin to cover the descendant fan-out's hop floor."""
    inherited, eff = deadline_budgets(graph)
    hops = _downstream_hops(graph)
    out: List[Diagnostic] = []
    for service in graph.topological_order():
        for edge in graph.outgoing(service):
            effective = eff[edge.key]  # inf (unbounded) passes both checks
            if (
                edge.deadline_budget_ms is not None
                and edge.deadline_budget_ms > inherited[edge.key]
            ):
                out.append(
                    _diag(
                        "ADN602",
                        Severity.WARNING,
                        f"edge {edge.name} budgets "
                        f"{edge.deadline_budget_ms:g} ms but every "
                        f"caller path delivers at most "
                        f"{inherited[edge.key]:g} ms — the surplus is "
                        "headroom that can never be used",
                        path,
                        element=edge.name,
                        fix="lower the edge budget to what its callers "
                        "actually propagate",
                    )
                )
            if (
                edge.per_attempt_timeout_ms is not None
                and edge.per_attempt_timeout_ms > effective
            ):
                out.append(
                    _diag(
                        "ADN602",
                        Severity.WARNING,
                        f"edge {edge.name} allows "
                        f"{edge.per_attempt_timeout_ms:g} ms per attempt "
                        f"but its effective budget is {effective:g} "
                        "ms — a single slow attempt exhausts the whole "
                        "logical call",
                        path,
                        element=edge.name,
                        fix="set per_attempt_timeout_ms below the "
                        "effective budget (budget / max_attempts leaves "
                        "room for a retry)",
                    )
                )
            floor = options.min_hop_ms * (1 + hops[edge.dst])
            if effective < floor:
                out.append(
                    _diag(
                        "ADN602",
                        Severity.WARNING,
                        f"edge {edge.name} has an effective budget of "
                        f"{effective:g} ms but {1 + hops[edge.dst]} "
                        "downstream hop(s) need at least "
                        f"{floor:g} ms at {options.min_hop_ms:g} ms per "
                        "hop — descendants start work they can never "
                        "finish in time",
                        path,
                        element=edge.name,
                        fix="raise the upstream budgets or flatten the "
                        "fan-out below this edge",
                    )
                )
    return out


# -- breaker/timeout coverage on deep edges (ADN603) ----------------------


def _check_deep_coverage(graph: ServiceGraph, path: str) -> List[Diagnostic]:
    """ADN603: a retrying edge below the entry tier without a breaker or
    per-attempt timeout — exactly where a dead host turns retries into
    silent amplification (the runtime counterpart is repro.faults'
    crash-timeout machinery)."""
    entries = set(graph.entry_services())
    out: List[Diagnostic] = []
    for edge in graph.edges:
        if edge.src in entries or edge.max_attempts <= 1:
            continue
        missing = []
        if not edge.breaker:
            missing.append("no circuit breaker")
        if edge.per_attempt_timeout_ms is None:
            missing.append("no per_attempt_timeout_ms")
        if missing:
            out.append(
                _diag(
                    "ADN603",
                    Severity.WARNING,
                    f"deep edge {edge.name} retries "
                    f"(max_attempts={edge.max_attempts}) with "
                    f"{' and '.join(missing)} — a crashed callee turns "
                    "each ancestor retry into a full timeout wait",
                    path,
                    element=edge.name,
                    fix="add breaker=true and a per_attempt_timeout_ms "
                    "to every deep retrying edge",
                )
            )
    return out


# -- fate-coherence of sibling sheds (ADN604) -----------------------------


def _check_fate_coherence(
    graph: ServiceGraph, schema: RpcSchema, path: str
) -> List[Diagnostic]:
    """ADN604: sibling edges shedding on different ``hash_fields`` split
    one logical request's fate — each fan-out leg draws an independent
    shed verdict for the same request, compounding loss. Also flags hash
    fields that are not schema fields at all (the hash would see a
    constant)."""
    out: List[Diagnostic] = []
    app_fields = set(schema.application_field_names())
    for edge in graph.edges:
        unknown = sorted(set(edge.hash_fields) - app_fields)
        if unknown:
            out.append(
                _diag(
                    "ADN604",
                    Severity.WARNING,
                    f"edge {edge.name} hashes shed fate on "
                    f"{', '.join(repr(f) for f in unknown)}, not "
                    "application schema field(s) — the hash is a "
                    "constant and sheds stop being fate-coherent",
                    path,
                    element=edge.name,
                    fix="hash on schema fields shared by the whole "
                    "logical request (e.g. the user or object id)",
                )
            )
    for service in graph.topological_order():
        admitted = [
            edge for edge in graph.outgoing(service) if edge.admission
        ]
        if len(admitted) < 2:
            continue
        declared = {edge.hash_fields for edge in admitted}
        if len(declared) <= 1:
            continue
        detail = "; ".join(
            f"{edge.name} hashes "
            + (", ".join(edge.hash_fields) if edge.hash_fields else
               "(runtime default)")
            for edge in admitted
        )
        out.append(
            _diag(
                "ADN604",
                Severity.WARNING,
                f"sibling edges out of {service!r} shed on different "
                f"hash_fields ({detail}) — one request's fan-out legs "
                "draw independent shed verdicts and die piecemeal",
                path,
                element=service,
                fix="declare the same hash_fields on every admission "
                "edge out of a service",
            )
        )
    return out


# -- cross-service RMW state (ADN605) -------------------------------------


def _check_state_escalation(
    graph: ServiceGraph,
    chains: Dict[EdgeKey, List[ElementIR]],
    path: str,
) -> List[Diagnostic]:
    """ADN605: an element with read-modify-write state instantiated on
    two or more edges. Each edge's processors hold their own copy, so
    the supposedly-global table (a quota, a dedupe set) silently
    partitions per edge — the graph-scale escalation of the ADN301
    single-chain race."""
    placements: Dict[str, List[EdgeSpec]] = {}
    by_name: Dict[str, ElementIR] = {}
    for edge in graph.edges:
        for element in chains[edge.key]:
            placements.setdefault(element.name, []).append(edge)
            by_name[element.name] = element
    out: List[Diagnostic] = []
    for name, edges in sorted(placements.items()):
        if len(edges) < 2:
            continue
        analysis = by_name[name].analysis
        safety = getattr(analysis, "replication", None)
        if safety is None:
            continue
        rmw = [
            access
            for access in safety.accesses
            if access.mode is AccessMode.READ_MODIFY_WRITE
        ]
        if not rmw:
            continue
        states = ", ".join(sorted({access.name for access in rmw}))
        where = ", ".join(edge.name for edge in edges)
        out.append(
            _diag(
                "ADN605",
                Severity.WARNING,
                f"element {name!r} has read-modify-write state "
                f"({states}) but is instantiated on {len(edges)} edges "
                f"({where}) — each edge races on its own divergent "
                "copy of a table the logic treats as global",
                path,
                element=name,
                fix="keep RMW elements on a single edge, or "
                "restructure the state into a commutative/partitioned "
                "class (see docs/linting.md ADN3xx)",
            )
        )
    return out


# -- effect semantics (ADN700-ADN703) --------------------------------------


def _check_effects(
    graph: ServiceGraph,
    chains: Dict[EdgeKey, List[ElementIR]],
    bounds: Dict[EdgeKey, float],
    path: str,
) -> List[Diagnostic]:
    """The ADN700 family over per-element effect summaries.

    ADN700: a non-idempotent mutation (no rpc_id-keyed dedup) on an
    element reachable under a retrying edge — every duplicate attempt
    of one logical call re-applies it. ADN701: a non-self-commutative
    mutation on one of a parent's parallel fan-out edges — sibling
    sub-RPCs interleave nondeterministically, so the final state is
    order-dependent. ADN702: the effect-refined replication verdict
    demotes an element the coarse classifier would scale out. ADN703: a
    duplicate attempt *observes* the re-applied state — an emitted
    field derived from a non-idempotently-mutated table/var.
    """
    out: List[Diagnostic] = []
    seen: Set[Tuple] = set()
    for edge in graph.edges:
        if bounds.get(edge.key, 1.0) <= 1.0:
            continue
        bound = bounds[edge.key]
        for element in chains[edge.key]:
            summary = element.analysis.effects
            for site in summary.non_idempotent_sites():
                key = ("ADN700", edge.key, element.name, site.target_id)
                if key in seen:
                    continue
                seen.add(key)
                out.append(
                    _diag(
                        "ADN700",
                        Severity.ERROR,
                        f"edge {edge.name}: {site.describe()} executes "
                        f"up to {bound:g}x per logical call under the "
                        "path's retries, and nothing dedups duplicate "
                        "attempts — each retry re-applies the mutation",
                        path,
                        element=element.name,
                        fix="key the mutation by input.rpc_id (duplicate "
                        "attempts then collapse), restructure it into an "
                        "idempotent set, or drop max_attempts to 1 on "
                        "every edge above this element",
                    )
                )
            for read, site in summary.retry_visible_reads():
                key = (
                    "ADN703",
                    edge.key,
                    element.name,
                    read.output_field,
                    read.target_id,
                )
                if key in seen:
                    continue
                seen.add(key)
                out.append(
                    _diag(
                        "ADN703",
                        Severity.WARNING,
                        f"edge {edge.name}: output field "
                        f"{read.output_field!r} is derived from "
                        f"{read.target_kind} {read.target!r}, which "
                        f"{site.describe()} mutates non-idempotently — "
                        "a retried attempt observes (and answers with) "
                        "a different value than the first",
                        path,
                        element=element.name,
                        fix="derive the response only from the request "
                        "and rpc_id-deduplicated state, or make the "
                        "mutation idempotent",
                    )
                )

    for service in sorted(graph.services):
        siblings = graph.outgoing(service)
        if len(siblings) < 2:
            continue
        for edge in siblings:
            for element in chains[edge.key]:
                summary = element.analysis.effects
                for site in summary.non_commutative_sites():
                    key = ("ADN701", service, element.name, site.target_id)
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append(
                        _diag(
                            "ADN701",
                            Severity.WARNING,
                            f"service {service!r} fans out over "
                            f"{len(siblings)} parallel edges and "
                            f"{site.describe()} does not commute with "
                            "itself — sibling sub-RPCs interleave "
                            "nondeterministically, so the final state "
                            "is order-dependent",
                            path,
                            element=element.name,
                            fix="restructure the update into a "
                            "commutative shape (pure insert, "
                            "col = col + delta), or serialize the "
                            "fan-out",
                        )
                    )

    analyses = {
        element.name: element.analysis
        for edge in graph.edges
        for element in chains[edge.key]
    }
    for name, analysis in sorted(analyses.items()):
        tightened = analysis.refined_replication
        if not analysis.replication.shardable or tightened.shardable:
            continue
        reasons = "; ".join(tightened.reasons())
        out.append(
            _diag(
                "ADN702",
                Severity.WARNING,
                f"element {name!r} passes the coarse replication "
                "classifier but per-mutation-site analysis proves its "
                f"replicas observably diverge: {reasons} — the "
                "autoscaler must not scale it out",
                path,
                element=name,
                fix="stop deriving outputs from the diverging state, "
                "make the update deterministic, or accept single-copy "
                "placement (meta { checkpoint: true; } for recovery)",
            )
        )
    return out


# -- interprocedural environments (ADN606) --------------------------------

_SEVERITY = {"error": Severity.ERROR, "warning": Severity.WARNING}


def _delivered_fields(
    graph: ServiceGraph,
    edge: EdgeSpec,
    elements: Sequence[ElementIR],
    schema: RpcSchema,
) -> FrozenSet[str]:
    """Application fields the edge's final wire hop actually carries
    (conservative planning: the callee is assumed to read everything)."""
    plan: HopHeaderPlan = plan_hop_headers(
        _chain_ir(graph, edge, elements),
        schema,
        [len(elements) - 1],
        deadline=True,
    )[0]
    return frozenset(
        set(plan.needed_fields) & set(schema.application_field_names())
    )


def _service_entry_env(
    schema: RpcSchema,
    arrivals: List[Tuple[EdgeSpec, Env, FrozenSet[str]]],
) -> Tuple[Env, FrozenSet[str]]:
    """Join the deliveries of every incoming edge into one ingress
    environment: a field delivered by no edge is absent, by some edges
    maybe-absent, and its abstract value is the join over deliveries.
    Meta fields are re-stamped fresh by the runtime per hop."""
    env = env_from_schema(schema)
    maybe_absent: Set[str] = set()
    for name in schema.application_field_names():
        values = [
            arrival_env[name]
            for _, arrival_env, delivered in arrivals
            if name in delivered and name in arrival_env
        ]
        if not values:
            del env[name]
            continue
        joined = values[0]
        for value in values[1:]:
            joined = join(joined, value)
        env[name] = joined
        if len(values) < len(arrivals):
            maybe_absent.add(name)
    return env, frozenset(maybe_absent)


def _finding_to_diag(
    finding: TypeFinding, edge: EdgeSpec, path: str
) -> Diagnostic:
    return Diagnostic(
        code="ADN606",
        severity=_SEVERITY.get(finding.severity, Severity.WARNING),
        message=(
            f"edge {edge.name}: {finding.message} [under the "
            "environment the caller actually delivers; the chain is "
            f"clean against the schema alone — was {finding.code}]"
        ),
        path=path,
        span=finding.span,
        element=finding.element or edge.name,
        fix=finding.fix
        or "carry the field across the upstream edge (declare it in "
        "the callee's reads, or stop narrowing it upstream)",
    )


# -- the analyzer ---------------------------------------------------------


def analyze_graph(
    graph: ServiceGraph,
    program: Program,
    schema: RpcSchema,
    registry: Optional[FunctionRegistry] = None,
    path: str = "<graph>",
    options: Optional[GraphAnalysisOptions] = None,
) -> GraphAnalysis:
    """Run the whole interprocedural suite over a service graph.

    One topological walk propagates abstract environments across every
    boundary and collects the ADN601–606 diagnostics; liveness runs
    leaves-first on the same lowered chains. Name-resolution problems
    are skipped here (ADN600 reports them); the walk analyzes what
    resolves.
    """
    started = time.perf_counter()
    registry = registry or DEFAULT_REGISTRY
    options = options or GraphAnalysisOptions()
    chains = lower_edge_chains(graph, program, registry)
    live, edge_live = compute_mesh_liveness(graph, chains, schema)
    bounds, worst, worst_path = retry_amplification(graph)

    diagnostics: List[Diagnostic] = []
    diagnostics.extend(_check_amplification(graph, bounds, options, path))
    diagnostics.extend(_check_budgets(graph, options, path))
    diagnostics.extend(_check_deep_coverage(graph, path))
    diagnostics.extend(_check_fate_coherence(graph, schema, path))
    diagnostics.extend(_check_state_escalation(graph, chains, path))
    diagnostics.extend(_check_effects(graph, chains, bounds, path))

    edges: Dict[EdgeKey, EdgeAnalysis] = {}
    service_env: Dict[str, Optional[Env]] = {}
    arrivals: Dict[str, List[Tuple[EdgeSpec, Env, FrozenSet[str]]]] = {
        name: [] for name in graph.services
    }
    app_fields = set(schema.application_field_names())
    # finding keys of each chain against the schema, and the check of
    # each chain under each delivered environment, by element names
    known: Dict[Tuple[str, ...], Set[tuple]] = {}
    delivered_checks: Dict[tuple, ChainTypeReport] = {}
    for service in graph.topological_order():
        incoming = graph.incoming(service)
        if not incoming:
            env: Optional[Env] = env_from_schema(schema)
            absent: FrozenSet[str] = frozenset()
        elif arrivals[service]:
            env, absent = _service_entry_env(schema, arrivals[service])
        else:
            # callers exist but none provably completes a request
            env, absent = None, frozenset()
        service_env[service] = env

        # boundary schema compatibility: what this service consumes must
        # actually arrive
        if incoming and env is not None:
            spec = graph.services[service]
            consumes = (
                set(spec.reads) & app_fields
                if spec.reads is not None
                else set(app_fields)
            )
            for name in sorted(consumes):
                if name in env and name not in absent:
                    continue
                sometimes = name in env
                diagnostics.append(
                    _diag(
                        "ADN606",
                        Severity.WARNING if sometimes else Severity.ERROR,
                        f"service {service!r} consumes field {name!r} "
                        + (
                            "but only some incoming edges deliver it"
                            if sometimes
                            else "but no incoming edge delivers it"
                        ),
                        path,
                        element=service,
                        fix="carry the field on every edge into the "
                        "service (or drop it from the service's reads)",
                    )
                )

        for edge in graph.outgoing(service):
            elements = chains[edge.key]
            boundary_findings: Tuple[TypeFinding, ...] = ()
            exit_env: Optional[Env] = env
            delivered: FrozenSet[str] = frozenset()
            if env is not None:
                # both checks are pure: run each once per distinct input
                chain = tuple(ir.name for ir in elements)
                if chain not in known:
                    baseline = check_chain(elements, schema, registry)
                    known[chain] = {f.key() for f in baseline.findings}
                key = (chain, tuple(env.items()), absent)
                interp = delivered_checks.get(key)
                if interp is None:
                    interp = delivered_checks[key] = check_chain(
                        elements, schema, registry, env_in=env,
                        absent_in=absent,
                    )
                boundary_findings = tuple(
                    finding
                    for finding in interp.findings
                    if finding.key() not in known[chain]
                )
                diagnostics.extend(
                    _finding_to_diag(finding, edge, path)
                    for finding in boundary_findings
                )
                exit_env = interp.request_env
                if exit_env is not None:
                    exit_env = dict(exit_env)  # one dict per edge
                    delivered = _delivered_fields(
                        graph, edge, elements, schema
                    )
                    arrivals[edge.dst].append((edge, exit_env, delivered))
            edges[edge.key] = EdgeAnalysis(
                edge=edge,
                entry_env=dict(env) if env is not None else None,
                exit_env=exit_env,
                delivered=delivered,
                amplification_bound=bounds.get(edge.key, 1.0),
                boundary_findings=boundary_findings,
            )

    diagnostics.sort(key=sort_key)
    return GraphAnalysis(
        graph=graph,
        schema=schema,
        edges=edges,
        service_env=service_env,
        live=live,
        edge_live=edge_live,
        diagnostics=diagnostics,
        worst_amplification=worst,
        worst_path=worst_path,
        analysis_ms=(time.perf_counter() - started) * 1e3,
    )


# -- mesh-wide dead-field elimination -------------------------------------


@dataclass
class EdgeFieldChange:
    """Per-edge outcome of :func:`eliminate_dead_fields_graph`."""

    edge: EdgeSpec
    #: wire fields the request hop no longer carries
    removed_wire: Tuple[str, ...]
    bytes_before: int
    bytes_after: int
    #: IR projections stripped by the per-chain pass
    removals: Tuple[Removal, ...] = ()
    #: translation-validation verdict for the IR rewrite (``None``: the
    #: chain was untouched, only the header plan changed)
    verdict: Optional[ValidationVerdict] = None

    @property
    def shrunk(self) -> bool:
        return self.bytes_after < self.bytes_before


@dataclass
class GraphFieldPlan:
    """Mesh-wide dead-field elimination result."""

    graph: ServiceGraph
    live: Dict[str, FrozenSet[str]]
    edge_live: Dict[EdgeKey, FrozenSet[str]]
    changes: Dict[EdgeKey, EdgeFieldChange]
    #: per-edge chains after the rewrite (identical objects where the
    #: pass had nothing to strip or validation refused)
    chains: Dict[EdgeKey, List[ElementIR]] = field(default_factory=dict)

    def edge_app_reads(self) -> Dict[EdgeKey, FrozenSet[str]]:
        """What ``GraphRuntime(edge_app_reads=...)`` consumes: the
        proven live set per edge."""
        return dict(self.edge_live)

    def shrunk_edges(self) -> List[EdgeKey]:
        return [
            key for key, change in self.changes.items() if change.shrunk
        ]

    def bytes_saved(self) -> int:
        return sum(
            change.bytes_before - change.bytes_after
            for change in self.changes.values()
        )


def _projected_schema(
    schema: RpcSchema,
    keep: Set[str],
    name: str,
) -> RpcSchema:
    """The schema restricted to surviving application fields — what the
    translation validator should treat as the wire contract for one
    rewritten edge (removed fields are, by liveness, unobservable)."""
    projected = RpcSchema(name=name)
    for field_name, spec in schema.fields.items():
        if field_name in keep:
            projected.add(field_name, spec.type, spec.doc)
    return projected


def eliminate_dead_fields_graph(
    graph: ServiceGraph,
    program: Program,
    schema: RpcSchema,
    registry: Optional[FunctionRegistry] = None,
    placement=None,
    verify: bool = True,
) -> GraphFieldPlan:
    """Shrink every edge's request wire header to the mesh-proven live
    set, and strip the dead computation per chain.

    With a :class:`~repro.graph.placement.GraphPlacement` the pass uses
    the placed chains and each stack's true client/server boundary (so
    reported layouts match the runtime codecs bit for bit); without one
    it lowers chains directly and treats the final position as the
    boundary. Every chain the per-chain pass actually rewrites is
    checked by the translation validator against the projected schema —
    a failed verdict rolls that edge's rewrite back (the header still
    shrinks; header minimality never depended on the rewrite).
    """
    registry = registry or DEFAULT_REGISTRY
    if placement is not None:
        chains = {
            key: list(chain.ir.elements)
            for key, chain in placement.edge_chains.items()
        }
    else:
        chains = lower_edge_chains(graph, program, registry)
    live, edge_live = compute_mesh_liveness(graph, chains, schema)
    changes: Dict[EdgeKey, EdgeFieldChange] = {}
    out_chains: Dict[EdgeKey, List[ElementIR]] = {}
    for edge in graph.edges:
        elements = chains[edge.key]
        live_fields = edge_live[edge.key]
        if placement is not None:
            plan = placement.edge_plans[edge.key]
            client_machine = placement.machine_of(edge.src)
            boundary = -1
            locations = plan.element_locations()
            for index, element in enumerate(elements):
                location = locations.get(element.name)
                if location and location[1] == client_machine:
                    boundary = index
        else:
            boundary = len(elements) - 1
        chain_ir = _chain_ir(graph, edge, elements)
        before = plan_hop_headers(
            chain_ir, schema, [boundary], deadline=True
        )[0]
        after = plan_hop_headers(
            chain_ir,
            schema,
            [boundary],
            deadline=True,
            app_reads=live_fields,
        )[0]
        rewritten, removals = eliminate_dead_fields(
            elements, schema, registry, app_fields=set(live_fields)
        )
        verdict: Optional[ValidationVerdict] = None
        if removals and verify:
            keep = (
                set(live_fields)
                | _chain_field_reads(elements)
                | _implied_runtime_reads(edge)
            )
            verdict = validate_rewrite(
                elements,
                rewritten,
                _projected_schema(schema, keep, schema.name),
                registry,
                pass_name="graph_dead_fields",
            )
            if verdict.ok is False:
                rewritten, removals = list(elements), []
        out_chains[edge.key] = rewritten
        changes[edge.key] = EdgeFieldChange(
            edge=edge,
            removed_wire=tuple(
                sorted(set(before.needed_fields) - set(after.needed_fields))
            ),
            bytes_before=before.layout.min_size_bytes(),
            bytes_after=after.layout.min_size_bytes(),
            removals=tuple(removals),
            verdict=verdict,
        )
    return GraphFieldPlan(
        graph=graph,
        live=live,
        edge_live=edge_live,
        changes=changes,
        chains=out_chains,
    )
