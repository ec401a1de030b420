"""The NIC-shed-vs-server-shed benchmark (ROADMAP item 5's payoff).

PR 5's overload sweep showed that *shedding at all* beats queueing.
This sweep asks the follow-up question the offload substrate exists to
answer: **where** should the shed happen? Both variants drive the same
two-service mesh (gateway → backend, an ``Acl, Logging, Compression``
edge chain) at 0.5x..3x capacity with admission control on:

* ``shed_at="server"`` — the whole chain runs in the backend host's
  mRPC engine. Every shed still costs the host real work: the engine
  wakes up, decodes the header, runs admission, and pays the return
  transport for the abort;
* ``shed_at="nic"`` — the edge declares ``offload="nic"``: split-chain
  compilation moves the device-legal ``Acl, Logging`` prefix onto the
  backend's SmartNIC (``Compression`` is payload-touching and stays on
  the host). The NIC's admission controller watches the *host engine's*
  backpressure and sheds in front of it; a shed RPC never wakes the
  host, and the abort's return transport is paid by NIC cores.

At 3x load the difference is structural, not a tuning artifact: the
host-only variant spends engine cycles on RPCs it then rejects, the NIC
variant spends those cycles on admitted work. Mesh goodput rises and
host CPU-seconds per admitted RPC falls. Everything is seeded — same
config, same numbers, every run (the benchmark pins are bit-identical).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..dsl.schema import FieldType, RpcSchema
from ..dsl.stdlib import load_stdlib
from ..graph.model import GraphBuilder
from ..graph.placement import MachineSpec, solve_graph_placement
from ..graph.runtime import GraphRuntime, build_graph_cluster
from ..overload.admission import AdmissionConfig
from ..overload.sweep import drive_sweep_point
from ..platforms import Platform
from ..runtime.message import reset_rpc_ids
from ..runtime.processor import PlacementPlan, PlacementSegment
from ..sim.costmodel import CostModel
from ..sim.engine import Simulator

OFFLOAD_SCHEMA = RpcSchema.of(
    "offload",
    payload=FieldType.BYTES,
    username=FieldType.STR,
    obj_id=FieldType.INT,
)

#: the two shed points under comparison
SHED_POINTS = ("server", "nic")


@dataclass(frozen=True)
class OffloadSweepConfig:
    """One comparison's shape. Mirrors the PR 5 sweep: the inflated
    ``service_cost_us`` sets capacity so the whole sweep stays cheap."""

    #: the edge chain: Acl + Logging are NIC-legal (eBPF subset, tables
    #: fit); Compression touches the payload and must stay on the host —
    #: exactly the split the paper's Figure 2 config 3 gestures at
    elements: Tuple[str, ...] = ("Acl", "Logging", "Compression")
    service_cost_us: float = 36.0
    #: nominal 1x load; the host-only variant saturates its engine just
    #: above this (3 elements x 2 directions x service_cost_us + transport)
    capacity_rps: float = 4_000.0
    multipliers: Tuple[float, ...] = (0.5, 1.0, 2.0, 3.0)
    duration_s: float = 0.25
    drain_s: float = 0.05
    seed: int = 1
    # protection knobs (both variants get identical protection; only the
    # shed point moves)
    queue_limit: int = 48
    target_delay_ms: float = 2.0
    codel_interval_ms: float = 10.0
    deadline_budget_ms: float = 20.0
    max_attempts: int = 4
    per_attempt_timeout_ms: float = 5.0


@dataclass
class OffloadPoint:
    """One (shed-point, offered-load) cell of the comparison."""

    shed_at: str
    multiplier: float
    offered_rps: float
    issued: int = 0
    ok: int = 0
    aborted: int = 0
    goodput_rps: float = 0.0
    p50_ok_ms: float = 0.0
    aborted_by: Dict[str, int] = field(default_factory=dict)
    #: admission sheds, split by where they happened
    sheds_at_nic: int = 0
    sheds_at_host: int = 0
    queue_rejects: int = 0
    deadline_drops: int = 0
    #: CPU-seconds burned on the backend host's threads (the NIC's own
    #: cores are accounted separately — that is the point)
    host_cpu_s: float = 0.0
    nic_cpu_s: float = 0.0
    #: the acceptance metric: host CPU-milliseconds per admitted RPC
    host_cpu_ms_per_ok: float = 0.0
    #: elements the split moved onto the device ([] for host-only)
    offloaded_prefix: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "shed_at": self.shed_at,
            "multiplier": self.multiplier,
            "offered_rps": self.offered_rps,
            "issued": self.issued,
            "ok": self.ok,
            "aborted": self.aborted,
            "goodput_rps": round(self.goodput_rps, 3),
            "p50_ok_ms": round(self.p50_ok_ms, 4),
            "aborted_by": dict(sorted(self.aborted_by.items())),
            "sheds_at_nic": self.sheds_at_nic,
            "sheds_at_host": self.sheds_at_host,
            "queue_rejects": self.queue_rejects,
            "deadline_drops": self.deadline_drops,
            "host_cpu_s": round(self.host_cpu_s, 6),
            "nic_cpu_s": round(self.nic_cpu_s, 6),
            "host_cpu_ms_per_ok": round(self.host_cpu_ms_per_ok, 6),
            "offloaded_prefix": list(self.offloaded_prefix),
        }


def build_offload_mesh(
    sim: Simulator,
    shed_at: str,
    config: Optional[OffloadSweepConfig] = None,
) -> GraphRuntime:
    """The mesh under test: gateway on the client host, backend on the
    server host, one edge carrying the chain. ``shed_at="nic"`` lets
    the edge's declared offload tier stand; ``shed_at="server"``
    overrides the edge plan to all-host so both variants run the exact
    same elements on the exact same machines minus the split."""
    if shed_at not in SHED_POINTS:
        raise ValueError(
            f"unknown shed point {shed_at!r} (choose from {SHED_POINTS})"
        )
    config = config or OffloadSweepConfig()
    program = load_stdlib(schema=OFFLOAD_SCHEMA)
    graph = (
        GraphBuilder("offload-sweep")
        .service("gateway", machine="client-host")
        .service("backend", machine="server-host")
        .edge(
            "gateway",
            "backend",
            elements=config.elements,
            admission=True,
            queue_limit=config.queue_limit,
            deadline_budget_ms=config.deadline_budget_ms,
            max_attempts=config.max_attempts,
            per_attempt_timeout_ms=config.per_attempt_timeout_ms,
            offload="nic" if shed_at == "nic" else None,
        )
        .build()
    )
    machines = [MachineSpec("client-host"), MachineSpec("server-host")]
    placement = solve_graph_placement(
        graph, program, OFFLOAD_SCHEMA, machines=machines
    )
    edge_key = ("gateway", "backend")
    if shed_at == "server":
        # force the comparison baseline: the whole chain in the backend
        # host's engine (the PR 5 protected-stack shape)
        chain = placement.edge_chains[edge_key]
        placement.edge_plans[edge_key] = PlacementPlan(
            segments=[
                PlacementSegment(
                    platform=Platform.MRPC,
                    machine="server-host",
                    elements=chain.element_order,
                    stages=chain.ir.stages,
                    queue_limit=config.queue_limit,
                )
            ],
            description="offload sweep: host-only baseline",
        )
    costs = CostModel(element_dispatch_us=config.service_cost_us)
    cluster = build_graph_cluster(sim, placement, costs=costs)
    return GraphRuntime(
        sim,
        cluster,
        placement,
        OFFLOAD_SCHEMA,
        admission=AdmissionConfig(
            target_delay_ms=config.target_delay_ms,
            interval_ms=config.codel_interval_ms,
            seed=config.seed,
        ),
        seed=config.seed,
    )


def _sweep_fields(rng: random.Random, index: int) -> Dict[str, object]:
    # usr2 holds write permission in the stdlib Acl table: the
    # interesting drops are sheds, not denials
    return {
        "payload": b"x" * 64,
        "username": "usr2",
        "obj_id": rng.randrange(1 << 12),
    }


def run_offload_point(
    multiplier: float,
    shed_at: str,
    config: Optional[OffloadSweepConfig] = None,
) -> OffloadPoint:
    """One fresh simulation at ``multiplier`` x nominal capacity."""
    config = config or OffloadSweepConfig()
    reset_rpc_ids()
    sim = Simulator()
    runtime = build_offload_mesh(sim, shed_at, config)
    offered_rps = multiplier * config.capacity_rps
    point = OffloadPoint(
        shed_at=shed_at,
        multiplier=multiplier,
        offered_rps=offered_rps,
        **drive_sweep_point(
            sim, runtime.entry_call, offered_rps, config, _sweep_fields
        ),
    )

    cluster = runtime.cluster
    for stack in runtime.stacks.values():
        for processor in stack.processors:
            if processor.segment.platform is Platform.SMARTNIC:
                point.sheds_at_nic += processor.rpcs_shed
            else:
                point.sheds_at_host += processor.rpcs_shed
            point.queue_rejects += processor.rpcs_queue_rejected
            point.deadline_drops += processor.rpcs_deadline_expired
        point.deadline_drops += stack.deadline_expired_at_server
    server = cluster.machine("server-host")
    point.host_cpu_s = server.cpu_busy_s()
    if server.smartnic_cores is not None:
        point.nic_cpu_s = server.smartnic_cores.busy_time
    if point.ok:
        point.host_cpu_ms_per_ok = point.host_cpu_s * 1e3 / point.ok
    decision = runtime.placement.edge_offloads.get(("gateway", "backend"))
    if decision is not None:
        point.offloaded_prefix = list(decision.prefix)
    return point


def run_offload_comparison(
    config: Optional[OffloadSweepConfig] = None,
) -> Dict[str, List[OffloadPoint]]:
    """Both shed points across the full multiplier range."""
    config = config or OffloadSweepConfig()
    return {
        shed_at: [
            run_offload_point(multiplier, shed_at, config)
            for multiplier in config.multipliers
        ]
        for shed_at in SHED_POINTS
    }


def format_comparison(results: Dict[str, List[OffloadPoint]]) -> str:
    """A paper-style text table: one block per shed point."""
    lines: List[str] = []
    for shed_at in SHED_POINTS:
        points = results.get(shed_at, [])
        if not points:
            continue
        prefix = points[0].offloaded_prefix
        where = (
            f"NIC runs {', '.join(prefix)}" if prefix else "all on host"
        )
        lines.append(f"shed at {shed_at} ({where})")
        lines.append(
            f"{'offered x':>10s} {'goodput rps':>12s} {'p50 ok ms':>10s} "
            f"{'nic sheds':>10s} {'host sheds':>11s} {'qfull':>6s} "
            f"{'host cpu s':>11s} {'cpu ms/ok':>10s}"
        )
        for point in points:
            lines.append(
                f"{point.multiplier:>10.1f} {point.goodput_rps:>12.0f} "
                f"{point.p50_ok_ms:>10.2f} {point.sheds_at_nic:>10d} "
                f"{point.sheds_at_host:>11d} {point.queue_rejects:>6d} "
                f"{point.host_cpu_s:>11.4f} {point.host_cpu_ms_per_ok:>10.4f}"
            )
        lines.append("")
    return "\n".join(lines).rstrip()
