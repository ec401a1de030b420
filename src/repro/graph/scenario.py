"""Canned service graphs and an end-to-end mesh scenario runner.

Two reference topologies:

* :func:`bookinfo_graph` — the 4-service Istio bookinfo app
  (productpage fanning out to details and reviews, reviews calling
  ratings), the smallest graph that exercises fan-out *and* a two-hop
  deadline chain;
* :func:`hotel_mesh_graph` — a 12-service DeathStarBench-style
  hotel-reservation mesh, deep and wide enough that a mid-graph crash
  is three hops from the client and overload control has to act
  mesh-wide.

:func:`run_graph_scenario` wires a graph through placement, the graph
runtime, the mesh workload (diurnal Poisson + Zipf users + priority
mix), and optionally a :class:`~repro.faults.FaultPlan` — the PR-4/PR-5
machinery re-exercised on a real application graph instead of a single
hop. Costs are inflated the same way the overload sweep does it
(``element_dispatch_us``) so capacity is bounded and a short simulated
run saturates realistically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..dsl.schema import FieldType, RpcSchema
from ..dsl.stdlib import load_stdlib
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..overload import AdmissionConfig, CircuitBreakerPolicy, RetryBudgetConfig
from ..runtime.message import reset_rpc_ids
from ..sim.costmodel import CostModel
from ..sim.engine import Simulator
from ..sim.metrics import RunMetrics
from .model import GraphBuilder, ServiceGraph
from .placement import GraphPlacement, solve_graph_placement
from .runtime import GraphRuntime, build_graph_cluster
from .workload import MeshWorkload, MeshWorkloadConfig

#: the mesh application schema; ``priority`` is an ordinary application
#: field, which is exactly why it survives every hop (destination apps
#: read all schema fields, so header planning always carries them)
MESH_SCHEMA = RpcSchema.of(
    "mesh",
    payload=FieldType.BYTES,
    username=FieldType.STR,
    obj_id=FieldType.INT,
    priority=FieldType.INT,
)


def mesh_program():
    return load_stdlib(schema=MESH_SCHEMA)


def bookinfo_graph(deadline_ms: float = 40.0) -> ServiceGraph:
    """Istio's bookinfo: productpage -> {details, reviews}, reviews ->
    ratings. The productpage edges carry the end-to-end budget; the
    ratings hop inherits whatever remains of it.

    The services declare what they actually consume (``reads``), which
    is what lets the mesh-wide liveness analysis
    (:mod:`repro.analysis.graph`) prove fields dead per edge and shrink
    the wire headers — e.g. ``details`` only reads the payload, so
    username/obj_id/priority never need to cross that edge."""
    return (
        GraphBuilder("bookinfo")
        .service("productpage")
        .service("details", reads=("payload",))
        .service("reviews", replicas=2, reads=("payload",))
        .service("ratings", reads=("obj_id",))
        .edge(
            "productpage", "details",
            elements=("Logging",),
            deadline_budget_ms=deadline_ms,
        )
        .edge(
            "productpage", "reviews",
            elements=("Logging", "LbKeyHash"),
            deadline_budget_ms=deadline_ms,
            max_attempts=2,
            per_attempt_timeout_ms=deadline_ms / 2,
            breaker=True,
        )
        .edge(
            "reviews", "ratings",
            elements=("Logging",),
            deadline_budget_ms=deadline_ms / 2,
            admission=True,
            queue_limit=48,
            hash_fields=("username", "obj_id"),
        )
        .build()
    )


def hotel_mesh_graph(
    deadline_ms: float = 60.0,
    crash_timeout_ms: float = 5.0,
) -> ServiceGraph:
    """A 12-service hotel-reservation mesh (DeathStarBench shape).

    gateway fans out to search / profile / recommendation / reservation;
    search needs geo + rate; profile chains through review to user;
    reservation needs payment + inventory, and payment notifies.
    ``recommendation`` is optional — losing it degrades the answer
    instead of failing it. Every edge into a mid-graph service carries a
    per-attempt timeout (``crash_timeout_ms``) so a crashed host turns
    silence into fast, breaker-countable failures.
    """
    builder = GraphBuilder("hotel-mesh")
    for name, replicas in (
        ("gateway", 1),
        ("search", 2),
        ("profile", 2),
        ("recommendation", 1),
        ("reservation", 2),
        ("geo", 1),
        ("rate", 2),
        ("review", 1),
        ("user", 1),
        ("payment", 1),
        ("inventory", 1),
        ("notify", 1),
    ):
        builder.service(name, replicas=replicas)
    half = deadline_ms / 2
    quarter = deadline_ms / 4
    builder.edge(
        "gateway", "search",
        elements=("Logging", "LbKeyHash"),
        deadline_budget_ms=deadline_ms,
        max_attempts=2,
        per_attempt_timeout_ms=half,
        admission=True,
        queue_limit=48,
        hash_fields=("username", "obj_id"),
        breaker=True,
    )
    builder.edge(
        "gateway", "profile",
        elements=("Logging", "LbKeyHash"),
        deadline_budget_ms=deadline_ms,
        max_attempts=2,
        per_attempt_timeout_ms=half,
        admission=True,
        queue_limit=48,
        hash_fields=("username", "obj_id"),
        breaker=True,
    )
    builder.edge(
        "gateway", "recommendation",
        elements=("Logging",),
        deadline_budget_ms=half,
        per_attempt_timeout_ms=quarter,
        breaker=True,
        required=False,
    )
    builder.edge(
        "gateway", "reservation",
        elements=("Logging", "LbKeyHash"),
        deadline_budget_ms=deadline_ms,
        max_attempts=2,
        per_attempt_timeout_ms=half,
        admission=True,
        queue_limit=48,
        hash_fields=("username", "obj_id"),
        breaker=True,
    )
    builder.edge(
        "search", "geo",
        elements=("Logging",),
        deadline_budget_ms=half,
        max_attempts=2,
        per_attempt_timeout_ms=crash_timeout_ms,
        breaker=True,
    )
    builder.edge(
        "search", "rate",
        elements=("LbKeyHash",),
        deadline_budget_ms=half,
        per_attempt_timeout_ms=crash_timeout_ms,
        admission=True,
        queue_limit=48,
        hash_fields=("username", "obj_id"),
        breaker=True,
    )
    builder.edge(
        "recommendation", "rate",
        elements=("LbKeyHash",),
        deadline_budget_ms=quarter,
        per_attempt_timeout_ms=crash_timeout_ms,
        breaker=True,
    )
    builder.edge(
        "profile", "review",
        elements=("Logging",),
        deadline_budget_ms=half,
        per_attempt_timeout_ms=crash_timeout_ms,
        breaker=True,
    )
    builder.edge(
        "review", "user",
        elements=("Logging",),
        deadline_budget_ms=quarter,
        per_attempt_timeout_ms=crash_timeout_ms,
        breaker=True,
    )
    builder.edge(
        "reservation", "payment",
        elements=("Logging",),
        deadline_budget_ms=half,
        max_attempts=2,
        per_attempt_timeout_ms=crash_timeout_ms,
        breaker=True,
    )
    builder.edge(
        "reservation", "inventory",
        elements=("Logging",),
        deadline_budget_ms=half,
        max_attempts=2,
        per_attempt_timeout_ms=crash_timeout_ms,
        admission=True,
        queue_limit=48,
        hash_fields=("username", "obj_id"),
        breaker=True,
    )
    builder.edge(
        "payment", "notify",
        elements=("Logging",),
        deadline_budget_ms=quarter,
        per_attempt_timeout_ms=crash_timeout_ms,
        breaker=True,
    )
    return builder.build()


@dataclass
class GraphScenarioResult:
    """Everything one mesh run produced."""

    graph: ServiceGraph
    placement: GraphPlacement
    runtime: GraphRuntime
    workload: MeshWorkload
    metrics: RunMetrics
    fault_timeline: List = field(default_factory=list)

    @property
    def goodput_rps(self) -> float:
        return self.metrics.goodput_rps

    @property
    def goodput_ratio(self) -> float:
        return self.metrics.goodput_ratio()

    def breaker_opens(self) -> Dict[str, int]:
        """Edges whose client-side breaker opened at least once."""
        opens: Dict[str, int] = {}
        for (src, dst), stack in self.runtime.stacks.items():
            breaker = stack.breaker
            if breaker is not None and breaker.opens > 0:
                opens[f"{src}->{dst}"] = breaker.opens
        return opens

    def sheds(self) -> int:
        total = 0
        for stats in self.runtime.edge_stats.values():
            total += stats.aborted_by.get("Shed", 0)
        return total


def run_graph_scenario(
    graph: Optional[ServiceGraph] = None,
    base_rps: float = 2_000.0,
    duration_s: float = 0.3,
    drain_s: float = 0.1,
    fault_plan: Optional[FaultPlan] = None,
    service_cost_us: float = 36.0,
    users: int = 1_000_000,
    diurnal_amplitude: float = 0.2,
    diurnal_period_s: float = 0.25,
    priority_high_ratio: float = 0.1,
    admission: Optional[AdmissionConfig] = None,
    strategy: str = "software",
    seed: int = 1,
    sanitizer=None,
) -> GraphScenarioResult:
    """One fresh simulation of a mesh under this workload/fault plan.

    The default knobs mirror the overload sweep: inflated element
    dispatch cost bounds capacity, admission targets a 2 ms sojourn, the
    breaker exists for *dead* downstreams (high trip threshold, short
    open period so probes find restarts quickly).
    """
    graph = graph or hotel_mesh_graph()
    reset_rpc_ids()
    sim = Simulator()
    program = mesh_program()
    placement = solve_graph_placement(
        graph, program, MESH_SCHEMA, strategy=strategy
    )
    costs = CostModel(element_dispatch_us=service_cost_us)
    cluster = build_graph_cluster(sim, placement, costs=costs)
    runtime = GraphRuntime(
        sim,
        cluster,
        placement,
        MESH_SCHEMA,
        # hash_fields makes probabilistic sheds fate-coherent: all of a
        # request's sub-RPCs (which share username/obj_id through
        # fan-out) live or die together, instead of three gateway edges
        # compounding independent shed draws against the same request
        admission=admission
        or AdmissionConfig(
            target_delay_ms=2.0,
            interval_ms=10.0,
            hash_fields=("username", "obj_id"),
            seed=seed,
        ),
        retry_budget=RetryBudgetConfig(ratio=0.1),
        # the breaker exists to answer a *dead* downstream locally; a
        # partial-shed burst under mere overload must not trip it, so
        # the threshold sits far above any shed run (same tuning as the
        # single-hop overload sweep)
        breaker_policy=CircuitBreakerPolicy(
            failure_threshold=100, open_ms=2.0, seed=seed
        ),
        seed=seed,
        sanitizer=sanitizer,
    )

    injector = FaultInjector(sim, cluster)
    for stack in runtime.stacks.values():
        injector.register_stack(stack)
    if fault_plan is not None:
        sim.process(injector.run(fault_plan))

    workload = MeshWorkload(
        sim,
        runtime,
        MeshWorkloadConfig(
            users=users,
            base_rps=base_rps,
            diurnal_amplitude=diurnal_amplitude,
            diurnal_period_s=diurnal_period_s,
            duration_s=duration_s,
            priority_high_ratio=priority_high_ratio,
            seed=seed,
        ),
    )
    metrics = workload.run(drain_s=drain_s)
    return GraphScenarioResult(
        graph=graph,
        placement=placement,
        runtime=runtime,
        workload=workload,
        metrics=metrics,
        fault_timeline=list(injector.timeline),
    )
