"""The canonical recovery scenario (CLI demo, E2E test, benchmark).

One stateful element — ``SessionTally``, a per-user read-modify-write
hit counter, the least replication-friendly state class
(:mod:`repro.ir.state_access` calls it blocking) — is deliberately placed
on a third machine, ``stats-host``, away from both application hosts.
A fault plan crashes that machine mid-workload. What should happen,
end to end:

1. the data plane blackholes RPCs routed at the dead processor; the
   stack's :class:`~repro.runtime.filters.RetryPolicy` converts each
   silent loss into a timed-out attempt and retries;
2. telemetry falls silent for ``stats-host``; the phi-accrual detector
   marks it suspect;
3. the recovery orchestrator re-solves placement on the surviving
   cluster (the solver only knows the ClusterSpec hosts, so the dead
   machine drops out naturally), swaps the plan into the live stack,
   and restores the tally from the checkpointer's warm standby —
   paying only the delta backlog, never the table size;
4. the workload finishes with every issued RPC completed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from ..compiler.compiler import AdnCompiler
from ..control.controller import RecoveryOrchestrator, RecoveryReport
from ..control.placement import ClusterSpec
from ..dsl.ast_nodes import ChainDecl
from ..dsl.functions import FunctionRegistry
from ..dsl.parser import parse
from ..dsl.schema import FieldType, RpcSchema
from ..dsl.stdlib import load_stdlib
from ..dsl.validator import validate_program
from ..platforms import Platform
from ..runtime.filters import RetryPolicy
from ..runtime.mrpc import AdnMrpcStack
from ..runtime.message import reset_rpc_ids
from ..runtime.processor import PlacementPlan, PlacementSegment
from ..runtime.telemetry import TelemetryCollector
from ..sim.cluster import Cluster, Simulator, two_machine_cluster
from ..sim.workload import ClosedLoopClient
from ..state.checkpoint import Checkpointer, CheckpointTiming
from .detector import HeartbeatFailureDetector
from .injector import FaultInjector, TimelineEntry
from .plan import MACHINE_CRASH, FaultEvent, FaultPlan

#: the machine the stateful element lives on pre-fault
STATS_MACHINE = "stats-host"

SCENARIO_SCHEMA = RpcSchema.of(
    "t",
    payload=FieldType.BYTES,
    username=FieldType.STR,
    obj_id=FieldType.INT,
)

#: per-user RMW counter: non-replicable state (UPDATE x = x + 1 cannot
#: run on two replicas), so recovery-by-restore is its only safety net —
#: which is exactly what ``meta { checkpoint: true; }`` requests
SESSION_TALLY_SOURCE = """
element SessionTally {
    meta { checkpoint: true; }
    state tally (username: str KEY, hits: int);
    on request {
        INSERT INTO tally SELECT input.username, 0 FROM input
            WHERE NOT contains(tally, input.username);
        UPDATE tally SET hits = hits + 1 WHERE username == input.username;
        SELECT * FROM input;
    }
    on response {
        SELECT * FROM input;
    }
}
"""


def default_crash_plan(
    seed: int = 1,
    crash_at_s: float = 0.01,
    restart_after_s: Optional[float] = None,
) -> FaultPlan:
    """Crash ``stats-host``; optionally restart it later (recovery has
    long re-homed the element by then)."""
    return FaultPlan(
        events=[
            FaultEvent(
                at_s=crash_at_s,
                kind=MACHINE_CRASH,
                target=STATS_MACHINE,
                duration_s=restart_after_s,
            )
        ],
        seed=seed,
    )


def default_retry_policy(seed: int = 1) -> RetryPolicy:
    """Tuned to outlive the scenario's detection + recovery window."""
    return RetryPolicy(
        max_attempts=12,
        per_attempt_timeout_ms=5.0,
        base_backoff_ms=1.0,
        backoff_multiplier=2.0,
        max_backoff_ms=10.0,
        jitter=0.5,
        deadline_budget_ms=None,
        seed=seed,
    )


@dataclass
class ScenarioResult:
    """Everything the callers assert on or print."""

    sim: Simulator
    cluster: Cluster
    stack: AdnMrpcStack
    metrics: object  # RunMetrics
    fault_plan: FaultPlan
    timeline: List[TimelineEntry]
    detector: HeartbeatFailureDetector
    orchestrator: RecoveryOrchestrator
    checkpointer: Checkpointer
    telemetry: TelemetryCollector
    total_rpcs: int = 0
    table_rows: int = 0

    @property
    def report(self) -> Optional[RecoveryReport]:
        reports = self.orchestrator.reports
        return reports[0] if reports else None

    def tally_hits(self) -> int:
        """Total hits currently recorded by the (possibly re-homed)
        SessionTally instance, workload keys only."""
        store = self._tally_store()
        if store is None:
            return 0
        return sum(
            int(row["hits"])
            for row in store.table("tally").rows()
            if str(row["username"]).startswith("user")
        )

    def tally_size(self) -> int:
        store = self._tally_store()
        return len(store.table("tally")) if store is not None else 0

    def _tally_store(self):
        for processor in self.stack.processors:
            if "SessionTally" in processor.segment.elements:
                return processor.element_state("SessionTally")
        return None


def run_recovery_scenario(
    seed: int = 1,
    total_rpcs: int = 3000,
    concurrency: int = 4,
    table_rows: int = 500,
    key_space: int = 16,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    telemetry_interval_s: float = 0.005,
    stream_interval_s: float = 0.002,
    fold_every: int = 4,
    checkpoint_timing: Optional[CheckpointTiming] = None,
    horizon_s: float = 2.0,
    strategy: str = "software",
    circuit_breaker=None,
    retry_budget=None,
    queue_limit: Optional[int] = None,
    client_think_s: float = 0.0,
) -> ScenarioResult:
    """Build the scenario, run it to completion, return the evidence.

    Fully deterministic in ``seed`` (plus the fault plan's own seed):
    identical inputs reproduce identical timelines, metrics, and
    recovery reports.
    """
    reset_rpc_ids()
    plan = fault_plan or default_crash_plan(seed=seed)
    policy = retry_policy or default_retry_policy(seed=seed)

    sim = Simulator()
    cluster = two_machine_cluster(sim)
    cluster.add_machine(STATS_MACHINE)

    registry = FunctionRegistry(rng=random.Random(seed))
    program = load_stdlib().merged(parse(SESSION_TALLY_SOURCE))
    program = validate_program(
        program, schema=SCENARIO_SCHEMA, registry=registry
    )
    compiler = AdnCompiler(registry=registry)
    chain = compiler.compile_chain(
        ChainDecl(src="A", dst="B", elements=("SessionTally",)),
        program,
        SCENARIO_SCHEMA,
    )
    placement = PlacementPlan(
        segments=[
            PlacementSegment(
                platform=Platform.MRPC,
                machine=STATS_MACHINE,
                elements=("SessionTally",),
            )
        ],
        description=f"SessionTally on {STATS_MACHINE} (pre-fault)",
    )
    stack = AdnMrpcStack(
        sim,
        cluster,
        chain,
        SCENARIO_SCHEMA,
        registry,
        plan=placement,
        retry_policy=policy,
        circuit_breaker=circuit_breaker,
        retry_budget=retry_budget,
        queue_limit=queue_limit,
    )

    # resident state: rows that predate the workload. They ride the
    # checkpointer's initial shadow, so a crash later must NOT pay for
    # them again — that is the property the benchmark pins.
    store = stack.processors[0].element_state("SessionTally")
    for index in range(table_rows):
        store.table("tally").insert_values([f"resident{index}", 1])

    checkpointer = Checkpointer(
        sim,
        stream_interval_s=stream_interval_s,
        fold_every=fold_every,
        timing=checkpoint_timing,
    )
    checkpointer.watch(
        "SessionTally",
        store,
        live_of=lambda: cluster.machine_up(STATS_MACHINE),
    )

    telemetry = TelemetryCollector(sim, interval_s=telemetry_interval_s)
    telemetry.register_stack(stack)
    detector = HeartbeatFailureDetector(
        sim, heartbeat_interval_s=telemetry_interval_s
    )
    telemetry.add_sink(detector.sink)
    for _, machine in stack.plan.element_locations().values():
        detector.expect(machine)

    injector = FaultInjector(sim, cluster)
    injector.register_stack(stack)

    orchestrator = RecoveryOrchestrator(
        sim,
        stack,
        SCENARIO_SCHEMA,
        cluster_spec=ClusterSpec(),
        strategy=strategy,
        checkpointer=checkpointer,
        telemetry=telemetry,
        detector=detector,
        crash_times=injector.crash_times,
    )
    detector.on_suspect(orchestrator.suspect_sink)

    sim.process(telemetry.run(horizon_s))
    sim.process(detector.run(horizon_s))
    sim.process(checkpointer.run(horizon_s))
    sim.process(injector.run(plan))

    workload_rng_tag = key_space  # closed over below

    def fields(rng: random.Random, index: int):
        return {
            "payload": b"x" * 64,
            "username": f"user{rng.randrange(workload_rng_tag)}",
            "obj_id": rng.randrange(1 << 12),
        }

    client = ClosedLoopClient(
        sim,
        stack.call,
        concurrency=concurrency,
        total_rpcs=total_rpcs,
        seed=seed,
        fields_fn=fields,
        think_s=client_think_s,
    )
    metrics = client.run(limit_s=max(horizon_s * 4, 30.0))

    return ScenarioResult(
        sim=sim,
        cluster=cluster,
        stack=stack,
        metrics=metrics,
        fault_plan=plan,
        timeline=list(injector.timeline),
        detector=detector,
        orchestrator=orchestrator,
        checkpointer=checkpointer,
        telemetry=telemetry,
        total_rpcs=total_rpcs,
        table_rows=table_rows,
    )
