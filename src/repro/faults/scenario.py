"""The SessionTally fault scenario (CLI demo, E2E tests, benchmarks).

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
3. a recovery orchestrator re-solves placement on the surviving
   cluster (the solver only knows the ClusterSpec hosts, so the dead
   machine drops out naturally), swaps the plan into the live stack,
   and restores the tally from the checkpointer's warm standby —
   paying only the delta backlog, never the table size;
4. the workload finishes with every issued RPC completed.

:class:`SessionTallyScenario` builds the data plane and its observers;
two control planes wire over it. :func:`run_recovery_scenario` adds one
orchestrator, and
:func:`repro.control.resilience.run_control_resilience_scenario` adds a
leased controller pair. Both return a :class:`ScenarioResult`.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

from ..compiler.compiler import AdnCompiler
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
from ..sim.cluster import Simulator, two_machine_cluster
from ..sim.workload import ClosedLoopClient
from ..state.checkpoint import Checkpointer
from .detector import HeartbeatFailureDetector
from .injector import FaultInjector
from .plan import MACHINE_CRASH, FaultEvent, FaultPlan

#: the machine the stateful element lives on pre-fault
STATS_MACHINE = "stats-host"

#: distinct usernames the workload draws from
KEY_SPACE = 16
#: telemetry cadence, which is also the heartbeat the detector expects
TELEMETRY_INTERVAL_S = 0.005
#: how often the checkpointer streams delta logs to the warm standby
STREAM_INTERVAL_S = 0.002

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


def _workload_fields(rng: random.Random, index: int):
    return {
        "payload": b"x" * 64,
        "username": f"user{rng.randrange(KEY_SPACE)}",
        "obj_id": rng.randrange(1 << 12),
    }


class SessionTallyScenario:
    """The SessionTally data plane and its observers, built in set-up
    order. A caller wires its control plane over them, each recovery
    orchestrator through :meth:`orchestrator`, then calls :meth:`start`.
    The order is part of every result: the simulator breaks time ties
    by sequence number.
    """

    def __init__(
        self,
        seed: int,
        table_rows: int,
        fault_plan: Optional[FaultPlan],
        retry_policy: Optional[RetryPolicy],
        fold_every: int,
        extra_machines: Iterable[str] = (),
        gray_factor: float = 0.0,
        **stack_options,
    ):
        reset_rpc_ids()
        self.seed = seed
        self.table_rows = table_rows
        self.fault_plan = fault_plan or default_crash_plan(seed=seed)
        policy = retry_policy or default_retry_policy(seed=seed)

        self.sim = sim = Simulator()
        self.cluster = cluster = two_machine_cluster(sim)
        for machine in (STATS_MACHINE, *extra_machines):
            cluster.add_machine(machine)

        registry = FunctionRegistry(rng=random.Random(seed))
        program = validate_program(
            load_stdlib().merged(parse(SESSION_TALLY_SOURCE)),
            schema=SCENARIO_SCHEMA,
            registry=registry,
        )
        chain = AdnCompiler(registry=registry).compile_chain(
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
        self.stack = stack = AdnMrpcStack(
            sim,
            cluster,
            chain,
            SCENARIO_SCHEMA,
            registry,
            plan=placement,
            retry_policy=policy,
            **stack_options,
        )

        # resident state: rows that predate the workload. They ride the
        # checkpointer's initial shadow, so a crash later must NOT pay for
        # them again — that is the property the benchmark pins.
        store = stack.processors[0].element_state("SessionTally")
        for index in range(table_rows):
            store.table("tally").insert_values([f"resident{index}", 1])

        self.checkpointer = Checkpointer(
            sim, stream_interval_s=STREAM_INTERVAL_S, fold_every=fold_every
        )
        self.checkpointer.watch(
            "SessionTally",
            store,
            live_of=lambda: cluster.machine_up(STATS_MACHINE),
        )

        self.telemetry = TelemetryCollector(
            sim, interval_s=TELEMETRY_INTERVAL_S
        )
        self.telemetry.register_stack(stack)
        self.detector = HeartbeatFailureDetector(
            sim,
            heartbeat_interval_s=TELEMETRY_INTERVAL_S,
            gray_factor=gray_factor,
        )
        self.telemetry.add_sink(self.detector.sink)
        for _, machine in stack.plan.element_locations().values():
            self.detector.expect(machine)

        self.injector = FaultInjector(sim, cluster)
        self.injector.register_stack(stack)
        self.orchestrators: list = []

    def orchestrator(self, **hooks):
        """A :class:`~repro.control.controller.RecoveryOrchestrator` over
        this scenario's parts; ``hooks`` are its resilience hooks."""
        # importing repro.control runs its __init__, which loads
        # repro.control.resilience, which imports this module: at module
        # scope this import would make ``import repro.faults`` circular
        from ..control.controller import RecoveryOrchestrator

        orchestrator = RecoveryOrchestrator(
            self.sim,
            self.stack,
            SCENARIO_SCHEMA,
            checkpointer=self.checkpointer,
            telemetry=self.telemetry,
            detector=self.detector,
            crash_times=self.injector.crash_times,
            **hooks,
        )
        self.orchestrators.append(orchestrator)
        return orchestrator

    def start(
        self,
        total_rpcs: int,
        concurrency: int,
        horizon_s: float,
        client_think_s: float,
        processes: Iterable = (),
    ) -> ClosedLoopClient:
        """Start the observers, the injector and then the caller's
        control-plane ``processes``; return the closed-loop client."""
        self.sim.process(self.telemetry.run(horizon_s))
        self.sim.process(self.detector.run(horizon_s))
        self.sim.process(self.checkpointer.run(horizon_s))
        self.sim.process(self.injector.run(self.fault_plan))
        for process in processes:
            self.sim.process(process)
        return ClosedLoopClient(
            self.sim,
            self.stack.call,
            concurrency=concurrency,
            total_rpcs=total_rpcs,
            seed=self.seed,
            fields_fn=_workload_fields,
            think_s=client_think_s,
        )


class ScenarioResult:
    """Everything the callers assert on or print, read off a finished
    :class:`SessionTallyScenario`."""

    def __init__(self, scenario, metrics, total_rpcs: int):
        self.sim = scenario.sim
        self.stack = scenario.stack
        self.metrics = metrics  # RunMetrics
        self.fault_plan = scenario.fault_plan
        self.timeline = list(scenario.injector.timeline)
        self.detector = scenario.detector
        self.checkpointer = scenario.checkpointer
        #: every orchestrator's RecoveryReports, by ``recovered_at``
        self.reports = sorted(
            (report for o in scenario.orchestrators for report in o.reports),
            key=lambda report: report.recovered_at,
        )
        self.total_rpcs = total_rpcs
        self.table_rows = scenario.table_rows

    @property
    def report(self):
        """The first recovery to finish (a RecoveryReport), or None."""
        return self.reports[0] if self.reports else None

    def tally_store(self):
        """SessionTally's state store where the element runs now, or None."""
        for processor in self.stack.processors:
            if "SessionTally" in processor.segment.elements:
                return processor.element_state("SessionTally")
        return None

    def tally_hits(self) -> int:
        """Total hits currently recorded by the (possibly re-homed)
        SessionTally instance, workload keys only."""
        store = self.tally_store()
        if store is None:
            return 0
        return sum(
            int(row["hits"])
            for row in store.table("tally").rows()
            if str(row["username"]).startswith("user")
        )


def run_recovery_scenario(
    seed: int = 1,
    total_rpcs: int = 3000,
    concurrency: int = 4,
    table_rows: int = 500,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    fold_every: int = 4,
    horizon_s: float = 2.0,
    circuit_breaker=None,
    retry_budget=None,
    queue_limit: Optional[int] = None,
    client_think_s: float = 0.0,
) -> ScenarioResult:
    """Run the scenario under one recovery orchestrator to completion;
    return the evidence.

    Fully deterministic in ``seed`` (plus the fault plan's own seed):
    identical inputs reproduce identical timelines, metrics, and
    recovery reports.
    """
    scenario = SessionTallyScenario(
        seed,
        table_rows,
        fault_plan,
        retry_policy,
        fold_every,
        circuit_breaker=circuit_breaker,
        retry_budget=retry_budget,
        queue_limit=queue_limit,
    )
    scenario.detector.on_suspect(scenario.orchestrator().suspect_sink)
    client = scenario.start(total_rpcs, concurrency, horizon_s, client_think_s)
    metrics = client.run(limit_s=max(horizon_s * 4, 30.0))
    return ScenarioResult(scenario, metrics, total_rpcs)
