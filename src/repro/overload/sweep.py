"""The overload goodput sweep (benchmark, CLI demo, smoke test).

The experiment the related work motivates (*Metastable Failures in
Distributed Systems*, gRPC/Envoy retry-budget lore): drive an RPC path
at 0.5x..3x its capacity and watch what the stack does past saturation.

* the **baseline** stack retries timeouts with no budget, queues without
  bound, and propagates no deadlines. Past ~1x, queueing delay exceeds
  the per-attempt timeout, every timeout re-offers the work, the server
  burns service time on requests whose callers are long gone — goodput
  collapses toward zero while CPU stays pegged (the metastable retry
  storm);
* the **protected** stack bounds the queue, sheds by CoDel + utilization
  (:class:`~repro.overload.AdmissionController`), spends retries from a
  token-bucket budget, and propagates deadlines so expired work is
  dropped before service. Its goodput flattens at capacity instead of
  collapsing, and admitted RPCs keep bounded latency.

Everything is seeded: same config, same curve, every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..compiler.compiler import AdnCompiler
from ..control.placement import PlacementPlan, PlacementSegment
from ..dsl.ast_nodes import ChainDecl
from ..dsl.functions import FunctionRegistry
from ..dsl.schema import FieldType, RpcSchema
from ..dsl.stdlib import load_stdlib
from ..platforms import Platform
from ..runtime.filters import RetryPolicy
from ..runtime.message import reset_rpc_ids
from ..runtime.mrpc import AdnMrpcStack
from ..sim.cluster import two_machine_cluster
from ..sim.costmodel import CostModel
from ..sim.engine import Simulator
from ..sim.workload import OpenLoopClient
from .admission import AdmissionConfig
from .budget import CircuitBreakerPolicy, RetryBudgetConfig

SWEEP_SCHEMA = RpcSchema.of(
    "overload",
    payload=FieldType.BYTES,
    username=FieldType.STR,
    obj_id=FieldType.INT,
)


@dataclass(frozen=True)
class SweepConfig:
    """One sweep's shape. ``service_cost_us`` inflates the per-element
    dispatch cost so the path saturates around ``capacity_rps`` and the
    whole sweep stays cheap to simulate."""

    elements: Tuple[str, ...] = ("Logging",)
    #: per-element dispatch cost (us) — the knob that sets capacity.
    #: Elements run on the request AND the response path, so one RPC
    #: costs ~2x this plus a few us of transport on the engine thread.
    service_cost_us: float = 36.0
    #: nominal capacity the multipliers are relative to (~80% of the
    #: true saturation point with the default service cost)
    capacity_rps: float = 10_000.0
    multipliers: Tuple[float, ...] = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    duration_s: float = 0.25
    drain_s: float = 0.05
    seed: int = 1
    # protection knobs
    queue_limit: int = 48
    target_delay_ms: float = 2.0
    codel_interval_ms: float = 10.0
    deadline_budget_ms: float = 20.0
    retry_ratio: float = 0.1
    #: the breaker exists to answer a *dead* downstream locally; under
    #: mere overload the admission controller is the right shedder, so
    #: the trip threshold sits far above any partial-shed burst
    breaker_failure_threshold: int = 100
    breaker_open_ms: float = 2.0
    # shared retry shape
    max_attempts: int = 4
    per_attempt_timeout_ms: float = 5.0


@dataclass
class SweepPoint:
    """One (stack, offered-load) cell of the goodput curve."""

    protected: bool
    multiplier: float
    offered_rps: float
    issued: int
    ok: int
    aborted: int
    goodput_rps: float
    #: median latency of *successful* RPCs (the admitted ones), ms
    p50_ok_ms: float
    amplification: float
    aborted_by: Dict[str, int] = field(default_factory=dict)
    sheds: int = 0
    queue_rejects: int = 0
    deadline_drops: int = 0


def _retry_policy(config: SweepConfig, protected: bool) -> RetryPolicy:
    return RetryPolicy(
        max_attempts=config.max_attempts,
        per_attempt_timeout_ms=config.per_attempt_timeout_ms,
        base_backoff_ms=0.5,
        backoff_multiplier=2.0,
        max_backoff_ms=2.0,
        jitter=0.5,
        deadline_budget_ms=(
            config.deadline_budget_ms if protected else None
        ),
        seed=config.seed,
    )


def build_sweep_stack(
    sim: Simulator,
    protected: bool,
    config: Optional[SweepConfig] = None,
) -> AdnMrpcStack:
    """The path under test: the chain's elements on the *server* host
    (requests cross the wire before service, so deadline propagation has
    a hop to ride), service cost inflated per the config."""
    config = config or SweepConfig()
    registry = FunctionRegistry(rng=random.Random(config.seed))
    program = load_stdlib(schema=SWEEP_SCHEMA)
    compiler = AdnCompiler(registry=registry)
    chain = compiler.compile_chain(
        ChainDecl(src="A", dst="B", elements=config.elements),
        program,
        SWEEP_SCHEMA,
    )
    costs = CostModel(element_dispatch_us=config.service_cost_us)
    cluster = two_machine_cluster(sim, costs=costs)
    placement = PlacementPlan(
        segments=[
            PlacementSegment(
                platform=Platform.MRPC,
                machine="server-host",
                elements=chain.element_order,
            )
        ],
        description="overload sweep: all elements server-side",
    )
    if protected:
        return AdnMrpcStack(
            sim,
            cluster,
            chain,
            SWEEP_SCHEMA,
            registry,
            plan=placement,
            retry_policy=_retry_policy(config, protected=True),
            queue_limit=config.queue_limit,
            admission=AdmissionConfig(
                target_delay_ms=config.target_delay_ms,
                interval_ms=config.codel_interval_ms,
                seed=config.seed,
            ),
            retry_budget=RetryBudgetConfig(ratio=config.retry_ratio),
            circuit_breaker=CircuitBreakerPolicy(
                failure_threshold=config.breaker_failure_threshold,
                open_ms=config.breaker_open_ms,
                seed=config.seed,
            ),
        )
    return AdnMrpcStack(
        sim,
        cluster,
        chain,
        SWEEP_SCHEMA,
        registry,
        plan=placement,
        retry_policy=_retry_policy(config, protected=False),
    )


def _sweep_fields(rng: random.Random, index: int) -> Dict[str, object]:
    return {
        "payload": b"x" * 64,
        "username": f"user{rng.randrange(8)}",
        "obj_id": rng.randrange(1 << 12),
    }


def drive_sweep_point(
    sim: Simulator, call, offered_rps: float, config, fields_fn
) -> Dict[str, object]:
    """Drive ``call`` open-loop at ``offered_rps`` with the config's
    seed, duration and drain; returns the outcome fields every sweep
    point shares. ``p50_ok_ms`` is the upper median of the ok latencies
    (the pinned sweep numbers use it)."""
    metrics = OpenLoopClient(
        sim,
        call,
        [(offered_rps, config.duration_s)],
        seed=config.seed,
        fields_fn=fields_fn,
    ).run(drain_s=config.drain_s)
    ok = sorted(metrics.ok_latency.samples)
    return {
        "issued": metrics.issued,
        "ok": metrics.ok,
        "aborted": metrics.aborted,
        "goodput_rps": metrics.ok / config.duration_s,
        "p50_ok_ms": ok[len(ok) // 2] * 1e3 if ok else 0.0,
        "aborted_by": dict(metrics.aborted_by),
    }


def run_overload_point(
    multiplier: float,
    protected: bool,
    config: Optional[SweepConfig] = None,
) -> SweepPoint:
    """One fresh simulation at ``multiplier`` x nominal capacity."""
    config = config or SweepConfig()
    reset_rpc_ids()
    sim = Simulator()
    stack = build_sweep_stack(sim, protected, config)
    offered_rps = multiplier * config.capacity_rps
    outcome = drive_sweep_point(
        sim, stack.call, offered_rps, config, _sweep_fields
    )
    retries = stack.retry_stats
    return SweepPoint(
        protected=protected,
        multiplier=multiplier,
        offered_rps=offered_rps,
        amplification=retries.amplification() if retries is not None else 0.0,
        sheds=sum(p.rpcs_shed for p in stack.processors),
        queue_rejects=sum(p.rpcs_queue_rejected for p in stack.processors),
        deadline_drops=(
            sum(p.rpcs_deadline_expired for p in stack.processors)
            + stack.deadline_expired_at_server
        ),
        **outcome,
    )


def run_overload_sweep(
    protected: bool, config: Optional[SweepConfig] = None
) -> List[SweepPoint]:
    config = config or SweepConfig()
    return [
        run_overload_point(multiplier, protected, config)
        for multiplier in config.multipliers
    ]


def format_sweep(points: List[SweepPoint]) -> str:
    """A paper-style text table of one stack's curve."""
    label = "protected" if points and points[0].protected else "baseline"
    lines = [
        f"goodput curve ({label})",
        f"{'offered x':>10s} {'offered rps':>12s} {'goodput rps':>12s} "
        f"{'p50 ok ms':>10s} {'amplif':>7s} {'sheds':>7s} {'qfull':>6s} "
        f"{'expired':>8s}",
    ]
    for point in points:
        lines.append(
            f"{point.multiplier:>10.1f} {point.offered_rps:>12.0f} "
            f"{point.goodput_rps:>12.0f} {point.p50_ok_ms:>10.2f} "
            f"{point.amplification:>7.2f} {point.sheds:>7d} "
            f"{point.queue_rejects:>6d} {point.deadline_drops:>8d}"
        )
    return "\n".join(lines)
