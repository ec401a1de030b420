"""Fault injection, failure detection, and recovery (repro.faults).

Covers the subsystem bottom-up: fault plans as data, the retry policy's
timeout/backoff/deadline machinery, the phi-accrual detector, the
injector's effect on the substrate (links, processors, machines), the
checkpointer's warm standby, and the end-to-end acceptance scenario —
crash the machine hosting a stateful element mid-workload and watch the
system detect, re-place, restore, and finish with zero RPC loss.
"""

import random

import pytest

from repro.compiler.compiler import AdnCompiler
from repro.dsl import FieldType, FunctionRegistry, RpcSchema, load_stdlib
from repro.dsl.ast_nodes import ChainDecl, ColumnDef, StateDecl
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    HeartbeatFailureDetector,
    default_crash_plan,
    random_single_fault_plan,
    run_recovery_scenario,
)
from repro.faults.plan import (
    LINK_LATENCY,
    LINK_LOSS,
    LINK_PARTITION,
    MACHINE_CRASH,
    PROCESSOR_HANG,
    PROCESSOR_SLOWDOWN,
)
from repro.runtime import AdnMrpcStack, RetryPolicy, RetryStats
from repro.runtime.filters import wrap_retry_policy
from repro.runtime.message import RpcOutcome, reset_rpc_ids
from repro.runtime.telemetry import ProcessorReport, TelemetryCollector
from repro.sim import ClosedLoopClient, Simulator, two_machine_cluster
from repro.state.checkpoint import Checkpointer, CheckpointTiming
from repro.state.table import StateStore

SCHEMA = RpcSchema.of(
    "t", payload=FieldType.BYTES, username=FieldType.STR, obj_id=FieldType.INT
)


def build_stack(retry_policy=None, elements=("Logging", "Acl")):
    reset_rpc_ids()
    registry = FunctionRegistry()
    program = load_stdlib(schema=SCHEMA)
    compiler = AdnCompiler(registry=registry)
    chain = compiler.compile_chain(
        ChainDecl(src="A", dst="B", elements=tuple(elements)), program, SCHEMA
    )
    sim = Simulator()
    cluster = two_machine_cluster(sim)
    stack = AdnMrpcStack(
        sim, cluster, chain, SCHEMA, registry, retry_policy=retry_policy
    )
    return sim, cluster, stack


def run_workload(sim, stack, total=200, concurrency=8, seed=0, limit_s=60.0):
    client = ClosedLoopClient(
        sim,
        stack.call,
        concurrency=concurrency,
        total_rpcs=total,
        seed=seed,
    )
    return client.run(limit_s=limit_s)


def sleep(sim, duration_s):
    yield sim.timeout(duration_s)


def generous_policy(seed=0):
    """Outlives every transient fault used in these tests."""
    return RetryPolicy(
        max_attempts=20,
        per_attempt_timeout_ms=5.0,
        base_backoff_ms=1.0,
        backoff_multiplier=2.0,
        max_backoff_ms=10.0,
        seed=seed,
    )


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            events=[
                FaultEvent(at_s=0.2, kind=LINK_LOSS, magnitude=0.3,
                           duration_s=0.1),
                FaultEvent(at_s=0.1, kind=MACHINE_CRASH, target="server-host"),
            ],
            seed=7,
        )
        back = FaultPlan.from_json(plan.to_json())
        assert back == plan

    def test_events_sorted_by_time(self):
        plan = FaultPlan(
            events=[
                FaultEvent(at_s=0.5, kind=LINK_PARTITION),
                FaultEvent(at_s=0.1, kind=MACHINE_CRASH, target="m"),
            ]
        )
        assert [event.at_s for event in plan.events] == [0.1, 0.5]

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultEvent(at_s=0.0, kind="meteor_strike")

    def test_machine_kinds_need_target(self):
        with pytest.raises(FaultPlanError, match="target machine"):
            FaultEvent(at_s=0.0, kind=MACHINE_CRASH)

    def test_loss_magnitude_is_probability(self):
        with pytest.raises(FaultPlanError, match="probability"):
            FaultEvent(at_s=0.0, kind=LINK_LOSS, magnitude=1.5)

    def test_slowdown_is_multiplier(self):
        with pytest.raises(FaultPlanError, match="multiplier"):
            FaultEvent(at_s=0.0, kind=PROCESSOR_SLOWDOWN, target="m",
                       magnitude=0.5)

    def test_negative_time_rejected(self):
        with pytest.raises(FaultPlanError, match=">= 0"):
            FaultEvent(at_s=-1.0, kind=LINK_PARTITION)

    def test_bad_json_rejected(self):
        with pytest.raises(FaultPlanError, match="JSON"):
            FaultPlan.from_json("{not json")
        with pytest.raises(FaultPlanError, match="events"):
            FaultPlan.from_json('{"seed": 3}')

    def test_random_plan_deterministic(self):
        machines = ["client-host", "server-host"]
        a = random_single_fault_plan(9, 1.0, machines)
        b = random_single_fault_plan(9, 1.0, machines)
        c = random_single_fault_plan(10, 1.0, machines)
        assert a == b
        assert a != c
        (event,) = a.events
        assert event.duration_s is not None  # transient by construction


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_backoff_ms=1.0, backoff_multiplier=2.0, max_backoff_ms=4.0,
            jitter=0.0,
        )
        rng = random.Random(0)
        backoffs = [policy.backoff_s(a, rng) for a in (1, 2, 3, 4, 5)]
        assert backoffs == [1e-3, 2e-3, 4e-3, 4e-3, 4e-3]

    def test_jitter_is_seeded(self):
        policy = RetryPolicy(jitter=0.5)
        a = [policy.backoff_s(1, random.Random(3)) for _ in range(3)]
        b = [policy.backoff_s(1, random.Random(3)) for _ in range(3)]
        assert a == b

    def test_timeout_converts_blackhole_to_retry(self):
        """A call parked forever only completes because the per-attempt
        timeout converts silence into a retryable abort."""
        sim = Simulator()
        calls = {"n": 0}

        def flaky(**fields):
            calls["n"] += 1
            if calls["n"] < 3:
                yield sim.event()  # blackhole: never fires
            yield sim.timeout(1e-4)
            return RpcOutcome(
                request=dict(fields),
                response={"status": "ok", "kind": "response"},
                issued_at=sim.now,
                completed_at=sim.now,
            )

        stats = RetryStats()
        shaped = wrap_retry_policy(
            sim, flaky,
            RetryPolicy(max_attempts=5, per_attempt_timeout_ms=1.0),
            stats=stats,
        )
        outcome = sim.run_until_complete(sim.process(shaped()))
        assert outcome.ok
        assert stats.timeouts == 2
        assert stats.retries == 2
        assert stats.attempts == 3

    def test_attempt_budget_exhausts(self):
        sim = Simulator()

        def blackhole(**fields):
            yield sim.event()

        shaped = wrap_retry_policy(
            sim, blackhole,
            RetryPolicy(max_attempts=3, per_attempt_timeout_ms=1.0),
        )
        outcome = sim.run_until_complete(sim.process(shaped()))
        assert outcome.aborted_by == "Timeout"
        assert shaped.stats.attempts == 3

    def test_deadline_budget(self):
        sim = Simulator()

        def blackhole(**fields):
            yield sim.event()

        shaped = wrap_retry_policy(
            sim, blackhole,
            RetryPolicy(
                max_attempts=100,
                per_attempt_timeout_ms=1.0,
                base_backoff_ms=1.0,
                deadline_budget_ms=5.0,
            ),
        )
        outcome = sim.run_until_complete(sim.process(shaped()))
        assert outcome.aborted_by == "DeadlineExceeded"
        assert sim.now <= 5.1e-3
        assert shaped.stats.deadline_exceeded == 1

    def test_stable_rpc_id_across_attempts(self):
        sim = Simulator()
        seen = []

        def flaky(**fields):
            seen.append(fields["rpc_id"])
            if len(seen) < 3:
                yield sim.event()
            yield sim.timeout(1e-5)
            return RpcOutcome(
                request=dict(fields),
                response={"status": "ok", "kind": "response"},
                issued_at=sim.now,
                completed_at=sim.now,
            )

        shaped = wrap_retry_policy(
            sim, flaky, RetryPolicy(max_attempts=5, per_attempt_timeout_ms=1.0)
        )
        sim.run_until_complete(sim.process(shaped()))
        assert len(seen) == 3
        assert len(set(seen)) == 1  # one logical call, one id

    def test_non_retryable_abort_returns_immediately(self):
        sim = Simulator()

        def denied(**fields):
            yield sim.timeout(1e-5)
            return RpcOutcome(
                request=dict(fields),
                response={"status": "aborted:Acl", "kind": "response"},
                issued_at=sim.now,
                completed_at=sim.now,
                aborted_by="Acl",
            )

        shaped = wrap_retry_policy(
            sim, denied, RetryPolicy(max_attempts=5, per_attempt_timeout_ms=1.0)
        )
        outcome = sim.run_until_complete(sim.process(shaped()))
        assert outcome.aborted_by == "Acl"
        assert shaped.stats.attempts == 1


def report_at(machine, at_s):
    return ProcessorReport(
        at_s=at_s,
        platform="mrpc",
        machine=machine,
        elements=("X",),
        window_s=0.01,
        rpcs_in_window=1,
        drops_in_window=0,
        utilization=0.1,
    )


class TestDetector:
    def test_silence_triggers_hard_timeout(self):
        sim = Simulator()
        detector = HeartbeatFailureDetector(sim, heartbeat_interval_s=0.01)
        detector.sink(report_at("m", 0.0))
        sim.run_until_complete(sim.process(sleep(sim, 0.05)))
        fresh = detector.check()
        assert [s.machine for s in fresh] == ["m"]
        assert fresh[0].silent_for_s >= detector.hard_timeout_s

    def test_regular_heartbeats_keep_phi_low(self):
        sim = Simulator()
        detector = HeartbeatFailureDetector(sim, heartbeat_interval_s=0.01)
        for tick in range(10):
            detector.sink(report_at("m", tick * 0.01))
        sim.run_until_complete(sim.process(sleep(sim, 0.095)))
        assert detector.phi("m") < detector.phi_threshold
        assert detector.check() == []

    def test_phi_grows_with_silence(self):
        sim = Simulator()
        detector = HeartbeatFailureDetector(sim, heartbeat_interval_s=0.01)
        for tick in range(5):
            detector.sink(report_at("m", tick * 0.01))
        sim.run_until_complete(sim.process(sleep(sim, 0.2)))
        early = detector.phi("m")
        sim.run_until_complete(sim.process(sleep(sim, 0.2)))
        assert detector.phi("m") > early

    def test_heartbeat_rehabilitates_suspect(self):
        sim = Simulator()
        detector = HeartbeatFailureDetector(sim, heartbeat_interval_s=0.01)
        detector.sink(report_at("m", 0.0))
        sim.run_until_complete(sim.process(sleep(sim, 0.05)))
        detector.check()
        assert "m" in detector.suspects
        detector.sink(report_at("m", sim.now))
        assert "m" not in detector.suspects

    def test_callbacks_fire_once_per_suspicion(self):
        sim = Simulator()
        detector = HeartbeatFailureDetector(sim, heartbeat_interval_s=0.01)
        fired = []
        detector.on_suspect(fired.append)
        detector.sink(report_at("m", 0.0))
        sim.run_until_complete(sim.process(sleep(sim, 0.05)))
        detector.check()
        detector.check()  # already suspect: no second callback
        assert len(fired) == 1


class TestInjectorLinkFaults:
    def test_partition_blackholes_then_recovers(self):
        policy = generous_policy()
        sim, cluster, stack = build_stack(retry_policy=policy)
        injector = FaultInjector(sim, cluster)
        injector.register_stack(stack)
        plan = FaultPlan(
            events=[
                FaultEvent(at_s=0.0005, kind=LINK_PARTITION, duration_s=0.01)
            ]
        )
        sim.process(injector.run(plan))
        metrics = run_workload(sim, stack, total=200, concurrency=4)
        assert metrics.completed == 200
        assert cluster.l2.frames_dropped > 0
        assert stack.rpcs_lost > 0
        assert stack.retry_stats.retries > 0
        actions = [(e.action, e.kind) for e in injector.timeline]
        assert ("inject", LINK_PARTITION) in actions
        assert ("revert", LINK_PARTITION) in actions

    def test_loss_is_seeded_and_survivable(self):
        def drops_for(plan_seed):
            policy = generous_policy()
            sim, cluster, stack = build_stack(retry_policy=policy)
            injector = FaultInjector(sim, cluster)
            injector.register_stack(stack)
            plan = FaultPlan(
                events=[
                    FaultEvent(
                        at_s=0.0, kind=LINK_LOSS, magnitude=0.2,
                        duration_s=0.05,
                    )
                ],
                seed=plan_seed,
            )
            sim.process(injector.run(plan))
            metrics = run_workload(sim, stack, total=150, concurrency=4)
            assert metrics.completed == 150
            assert cluster.l2.frames_dropped > 0
            return cluster.l2.frames_dropped

        assert drops_for(5) == drops_for(5)

    def test_latency_fault_slows_the_wire(self):
        def elapsed_with(extra_us):
            sim, cluster, stack = build_stack()
            if extra_us:
                injector = FaultInjector(sim, cluster)
                plan = FaultPlan(
                    events=[
                        FaultEvent(
                            at_s=0.0, kind=LINK_LATENCY, magnitude=extra_us
                        )
                    ]
                )
                sim.process(injector.run(plan))
            metrics = run_workload(sim, stack, total=100, concurrency=1)
            assert metrics.completed == 100
            return metrics.latency.median_us()

        assert elapsed_with(500.0) > elapsed_with(0.0) + 500.0


class TestInjectorProcessorFaults:
    def test_slowdown_multiplies_cost(self):
        def median_with(factor):
            sim, cluster, stack = build_stack()
            if factor:
                injector = FaultInjector(sim, cluster)
                injector.register_stack(stack)
                plan = FaultPlan(
                    events=[
                        FaultEvent(
                            at_s=0.0, kind=PROCESSOR_SLOWDOWN,
                            target="client-host", magnitude=factor,
                        )
                    ]
                )
                sim.process(injector.run(plan))
            metrics = run_workload(sim, stack, total=100, concurrency=1)
            assert metrics.completed == 100
            return metrics.latency.median_us()

        assert median_with(8.0) > median_with(0)

    def test_slowdown_reverts(self):
        sim, cluster, stack = build_stack()
        injector = FaultInjector(sim, cluster)
        injector.register_stack(stack)
        plan = FaultPlan(
            events=[
                FaultEvent(
                    at_s=0.0, kind=PROCESSOR_SLOWDOWN,
                    target="client-host", magnitude=4.0, duration_s=0.001,
                )
            ]
        )
        sim.process(injector.run(plan))
        run_workload(sim, stack, total=50, concurrency=1)
        for processor in stack.processors:
            assert processor.slowdown_factor == 1.0

    def test_hang_parks_rpcs_until_revert(self):
        policy = generous_policy()
        sim, cluster, stack = build_stack(retry_policy=policy)
        injector = FaultInjector(sim, cluster)
        injector.register_stack(stack)
        plan = FaultPlan(
            events=[
                FaultEvent(
                    at_s=0.0005, kind=PROCESSOR_HANG,
                    target="client-host", duration_s=0.02,
                )
            ]
        )
        sim.process(injector.run(plan))
        metrics = run_workload(sim, stack, total=150, concurrency=4)
        assert metrics.completed == 150
        assert stack.retry_stats.timeouts > 0
        for processor in stack.processors:
            assert processor.hang_event is None


class TestInjectorMachineFaults:
    def test_crash_blackholes_without_retries(self):
        """No retry policy: attempts lost to the crash stay silent
        forever, so the client never finishes — exactly the failure
        mode the per-attempt timeout exists to prevent."""
        from repro.errors import SimulationError

        sim, cluster, stack = build_stack()
        injector = FaultInjector(sim, cluster)
        injector.register_stack(stack)
        plan = FaultPlan(
            events=[
                FaultEvent(at_s=0.0005, kind=MACHINE_CRASH,
                           target="server-host")
            ]
        )
        sim.process(injector.run(plan))
        with pytest.raises(SimulationError, match="did not finish"):
            run_workload(sim, stack, total=100, concurrency=4, limit_s=0.05)
        assert stack.rpcs_lost > 0
        assert not cluster.machine_up("server-host")

    def test_restart_resets_element_instances(self):
        policy = generous_policy()
        sim, cluster, stack = build_stack(
            retry_policy=policy, elements=("Metrics",)
        )
        injector = FaultInjector(sim, cluster)
        injector.register_stack(stack)
        plan = FaultPlan(
            events=[
                FaultEvent(
                    at_s=0.002, kind=MACHINE_CRASH,
                    target="client-host", duration_s=0.01,
                )
            ]
        )
        sim.process(injector.run(plan))
        metrics = run_workload(sim, stack, total=300, concurrency=4)
        assert metrics.completed == 300
        assert cluster.machine_up("client-host")
        assert injector.crash_times == {"client-host": 0.002}
        # the restart wiped runtime state: Metrics counted only what ran
        # after the machine came back
        store = next(
            p.element_state("Metrics")
            for p in stack.processors
            if "Metrics" in p.segment.elements
        )
        counted = sum(r["hits"] for r in store.table("counters").rows())
        assert 0 < counted < 300  # pre-crash history was wiped


def simple_store():
    decl = StateDecl(
        name="t",
        columns=(
            ColumnDef("k", FieldType.INT, is_key=True),
            ColumnDef("v", FieldType.INT),
        ),
    )
    return StateStore([decl], {})


class TestCheckpointer:
    def test_restore_carries_pre_watch_rows(self):
        sim = Simulator()
        source = simple_store()
        for key in range(50):
            source.table("t").insert_values([key, 0])
        checkpointer = Checkpointer(sim, stream_interval_s=0.001)
        checkpointer.watch("elem", source)
        target = simple_store()
        report = sim.run_until_complete(
            sim.process(checkpointer.restore("elem", target))
        )
        assert report.rows_restored == 50
        assert report.deltas_replayed == 0
        assert len(target.table("t")) == 50

    def test_streaming_catches_later_writes(self):
        sim = Simulator()
        source = simple_store()
        checkpointer = Checkpointer(
            sim, stream_interval_s=0.001, fold_every=1000
        )
        checkpointer.watch("elem", source)

        def writer():
            for key in range(20):
                source.table("t").insert_values([key, key])
                yield sim.timeout(0.0005)

        sim.process(checkpointer.run(0.05))
        sim.run_until_complete(sim.process(writer()))
        sim.run(until=0.05)
        assert checkpointer.backlog("elem") == 20
        target = simple_store()
        report = sim.run_until_complete(
            sim.process(checkpointer.restore("elem", target))
        )
        assert report.deltas_replayed == 20
        assert len(target.table("t")) == 20

    def test_restore_cost_tracks_backlog_not_table_size(self):
        timing = CheckpointTiming()

        def restore_s(rows, backlog_writes):
            sim = Simulator()
            source = simple_store()
            for key in range(rows):
                source.table("t").insert_values([key, 0])
            checkpointer = Checkpointer(
                sim, stream_interval_s=0.001, fold_every=10**6, timing=timing
            )
            checkpointer.watch("elem", source)
            for key in range(backlog_writes):
                source.table("t").insert_values([key, 1])
            sim.run_until_complete(sim.process(checkpointer.run(0.002)))
            target = simple_store()
            report = sim.run_until_complete(
                sim.process(checkpointer.restore("elem", target))
            )
            return report.restore_s

        flat = {restore_s(rows, 10) for rows in (10, 1000, 5000)}
        assert len(flat) == 1  # table size never shows up in the blackout
        assert restore_s(100, 200) > restore_s(100, 10)

    def test_crash_loses_unstreamed_tail(self):
        sim = Simulator()
        source = simple_store()
        checkpointer = Checkpointer(sim, stream_interval_s=0.001)
        checkpointer.watch("elem", source)
        source.table("t").insert_values([1, 1])  # never streamed
        lost = checkpointer.mark_crashed("elem")
        assert lost == 1
        assert checkpointer.tail_writes_lost == 1
        target = simple_store()
        report = sim.run_until_complete(
            sim.process(checkpointer.restore("elem", target))
        )
        assert report.rows_restored == 0  # the tail write is really gone

    def test_dead_source_is_not_drained(self):
        sim = Simulator()
        source = simple_store()
        alive = {"up": True}
        checkpointer = Checkpointer(sim, stream_interval_s=0.001)
        checkpointer.watch("elem", source, live_of=lambda: alive["up"])
        alive["up"] = False
        source.table("t").insert_values([1, 1])
        sim.run_until_complete(sim.process(checkpointer.run(0.005)))
        assert checkpointer.backlog("elem") == 0  # nothing streamed


class TestTelemetryUnderFaults:
    """Satellite: the collector must survive crashed and deregistered
    processors mid-window."""

    def test_crashed_processor_is_skipped_not_sampled(self):
        sim, cluster, stack = build_stack()
        collector = TelemetryCollector(sim, interval_s=0.001)
        collector.register_stack(stack)
        run_workload(sim, stack, total=50, concurrency=4)
        cluster.machine("client-host").crash()
        samples = collector.sample()
        machines = {report.machine for report in samples}
        assert "client-host" not in machines
        assert collector.skipped_down > 0

    def test_deregister_mid_window_from_a_sink(self):
        sim, cluster, stack = build_stack()
        collector = TelemetryCollector(sim, interval_s=0.001)
        collector.register_stack(stack)

        def vicious_sink(report):
            collector.deregister_stack(stack)

        collector.add_sink(vicious_sink)
        run_workload(sim, stack, total=50, concurrency=4)
        samples = collector.sample()  # must not raise or double-count
        assert len(samples) <= 1
        assert collector.sample() == []  # everyone is gone now

    def test_deregister_unknown_processor_ignored(self):
        sim, cluster, stack = build_stack()
        collector = TelemetryCollector(sim)
        collector.deregister(stack.processors[0])  # never registered

    def test_reregister_keeps_baseline(self):
        sim, cluster, stack = build_stack()
        collector = TelemetryCollector(sim)
        collector.register_stack(stack)
        run_workload(sim, stack, total=100, concurrency=4)
        collector.register_stack(stack)  # idempotent: no baseline reset
        (report,) = [
            r for r in collector.sample() if r.machine == "client-host"
        ]
        assert report.rpcs_in_window >= 100


class TestRecoveryScenario:
    """The acceptance scenario: crash the machine hosting a stateful
    element mid-workload; detection, re-placement, restore, and retries
    must make the failure invisible to the workload."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_recovery_scenario(seed=1, total_rpcs=2000)

    def test_no_silent_rpc_loss(self, result):
        assert result.metrics.completed == result.total_rpcs
        assert result.metrics.aborted == 0
        assert result.stack.rpcs_lost > 0  # the crash did bite

    def test_detector_fired_and_recovery_ran(self, result):
        report = result.report
        assert report is not None
        assert report.machine == "stats-host"
        assert report.detection_latency_s is not None
        assert 0 < report.detection_latency_s < 0.1
        assert report.unavailability_s < 0.1

    def test_element_moved_off_the_dead_machine(self, result):
        locations = result.stack.plan.element_locations()
        _, machine = locations["SessionTally"]
        assert machine != "stats-host"

    def test_resident_state_survived(self, result):
        report = result.report
        assert report.rows_restored >= result.table_rows
        residents = sum(
            1
            for row in result.tally_store().table("tally").rows()
            if str(row["username"]).startswith("resident")
        )
        assert residents == result.table_rows

    def test_duplicates_bounded_by_lost_attempts(self, result):
        assert (
            result.stack.duplicate_server_executions
            <= result.stack.rpcs_lost
        )

    def test_restore_blackout_not_table_sized(self, result):
        report = result.report
        # 2000 rows of table would cost ~3x the observed blackout under
        # any per-row copy; the restore paid backlog + fixed flip only
        per_row_copy_s = (
            result.table_rows
            * result.checkpointer.timing.per_delta_replay_us
            * 1e-6
        )
        assert report.restore_s < per_row_copy_s

    def test_deterministic_under_seed(self):
        def signature(result):
            report = result.report
            return (
                result.metrics.completed,
                result.metrics.aborted,
                result.metrics.elapsed_s,
                result.stack.rpcs_lost,
                tuple(sorted(result.stack.lost_by.items())),
                result.stack.duplicate_server_executions,
                tuple(result.timeline),
                report.suspected_at,
                report.recovered_at,
                report.rows_restored,
                report.deltas_replayed,
                report.restore_s,
                result.tally_hits(),
                result.metrics.latency.percentile(99),
            )

        a = signature(run_recovery_scenario(seed=4, total_rpcs=800))
        b = signature(run_recovery_scenario(seed=4, total_rpcs=800))
        c = signature(run_recovery_scenario(seed=5, total_rpcs=800))
        assert a == b
        assert a != c

    def test_tally_accounts_for_tail_loss_and_duplicates(self, result):
        """Hits = workload size − tail writes lost with the crashed
        memory + duplicate server executions that re-counted."""
        hits = result.tally_hits()
        lost_tail = result.checkpointer.tail_writes_lost
        duplicates = result.stack.duplicate_server_executions
        assert hits <= result.total_rpcs + duplicates
        assert hits >= result.total_rpcs - 2 * lost_tail
