"""Control-plane resilience (repro.control.resilience).

Leases and terms, the journaled warm-standby failover, epoch-fenced
configuration pushes, gray-failure scoring and post-partition detector
rehabilitation, the concurrent-fault plan builders, ADN610 fault-plan
diagnostics, and the seeded chaos soak — every scenario asserted
bit-identical under replay via ``ResilienceResult.signature()``.
"""

import dataclasses
import itertools
import json

import pytest

from repro.control.resilience import (
    CTRL_A,
    CTRL_B,
    STATS_MACHINE,
    LeaseStore,
    RecoveryJournal,
    run_chaos_soak,
    run_chaos_trial,
    run_control_resilience_scenario,
)
from repro.errors import SimulationError, StaleEpochError
from repro.faults import (
    CONTROL_PARTITION,
    DATAPLANE_FAULT_KINDS,
    FAULT_KINDS,
    GRAY_DEGRADE,
    FaultEvent,
    FaultPlan,
    HeartbeatFailureDetector,
    controller_crash_during_failover_plan,
    double_crash_plan,
    load_fault_plan,
    partition_during_recovery_plan,
    random_multi_fault_plan,
    random_single_fault_plan,
    run_recovery_scenario,
)
from repro.runtime.mrpc import AdnMrpcStack
from repro.runtime.telemetry import ProcessorReport
from repro.sim import Simulator


def sleep(sim, duration_s):
    yield sim.timeout(duration_s)


def advance(sim, duration_s):
    sim.run_until_complete(sim.process(sleep(sim, duration_s)))


# -- leases ------------------------------------------------------------------


class TestLeaseStore:
    def test_acquire_bumps_term_only_on_holder_change(self):
        sim = Simulator()
        lease = LeaseStore(sim, duration_s=0.03)
        assert lease.acquire("a") == 1
        # refreshing our own lease is not a leadership change
        assert lease.acquire("a") == 1
        assert lease.valid("a")

    def test_live_lease_blocks_other_nodes(self):
        sim = Simulator()
        lease = LeaseStore(sim, duration_s=0.03)
        lease.acquire("a")
        assert lease.acquire("b") is None
        assert not lease.valid("b")

    def test_renew_extends_only_while_valid(self):
        sim = Simulator()
        lease = LeaseStore(sim, duration_s=0.03)
        lease.acquire("a")
        advance(sim, 0.02)
        assert lease.renew("a")
        advance(sim, 0.02)
        assert lease.valid("a")  # the renew pushed expiry past here
        advance(sim, 0.02)
        assert not lease.renew("a")  # expired: must re-acquire

    def test_expired_reacquire_by_same_node_keeps_term(self):
        sim = Simulator()
        lease = LeaseStore(sim, duration_s=0.03)
        lease.acquire("a")
        advance(sim, 0.05)
        assert lease.acquire("a") == 1  # no takeover happened

    def test_takeover_after_expiry_bumps_term(self):
        sim = Simulator()
        lease = LeaseStore(sim, duration_s=0.03)
        lease.acquire("a")
        advance(sim, 0.05)
        assert lease.acquire("b") == 2
        assert lease.holder == "b"
        # the deposed node cannot renew under its old term
        assert not lease.renew("a")


# -- the recovery journal ----------------------------------------------------


class TestRecoveryJournal:
    def test_open_close_lifecycle(self):
        journal = RecoveryJournal()
        journal.open("m1", 0.5)
        journal.open("m2", 0.7)
        assert journal.open_entries() == [("m1", 0.5), ("m2", 0.7)]
        journal.close("m1")
        assert journal.open_entries() == [("m2", 0.7)]

    def test_reopen_updates_in_place(self):
        journal = RecoveryJournal()
        journal.open("m1", 0.5)
        journal.close("m1")
        journal.open("m1", 0.9)
        assert journal.open_entries() == [("m1", 0.9)]
        assert len(list(journal.table("recoveries").rows())) == 1

    def test_close_unknown_machine_is_a_noop(self):
        journal = RecoveryJournal()
        journal.close("never-opened")
        assert journal.open_entries() == []

    def test_speaks_the_state_store_protocol(self):
        # the checkpointer consumes tables/vars/table(); the journal
        # must satisfy all three so delta-log streaming Just Works
        journal = RecoveryJournal()
        assert "recoveries" in journal.tables
        assert journal.vars == {}
        assert journal.table("recoveries") is journal.tables["recoveries"]


# -- epoch fencing -----------------------------------------------------------


def build_stack():
    import random

    from repro.compiler.compiler import AdnCompiler
    from repro.dsl import FieldType, FunctionRegistry, RpcSchema, load_stdlib
    from repro.dsl.ast_nodes import ChainDecl
    from repro.runtime import AdnMrpcStack
    from repro.runtime.message import reset_rpc_ids
    from repro.sim import two_machine_cluster

    schema = RpcSchema.of(
        "t",
        payload=FieldType.BYTES,
        username=FieldType.STR,
        obj_id=FieldType.INT,
    )
    reset_rpc_ids()
    registry = FunctionRegistry(rng=random.Random(0))
    program = load_stdlib(schema=schema)
    chain = AdnCompiler(registry=registry).compile_chain(
        ChainDecl(src="A", dst="B", elements=("Logging",)), program, schema
    )
    sim = Simulator()
    cluster = two_machine_cluster(sim)
    stack = AdnMrpcStack(sim, cluster, chain, schema, registry)
    return stack


class TestEpochFence:
    def test_newer_epoch_advances_the_fence(self):
        stack = build_stack()
        assert stack.config_epoch == 0
        stack.apply_plan(dataclasses.replace(stack.plan, epoch=1_000_001))
        assert stack.config_epoch == 1_000_001
        assert stack.stale_plans_rejected == 0

    def test_stale_epoch_is_rejected_and_counted(self):
        stack = build_stack()
        stack.apply_plan(dataclasses.replace(stack.plan, epoch=2_000_001))
        with pytest.raises(StaleEpochError):
            stack.apply_plan(dataclasses.replace(stack.plan, epoch=1_000_009))
        with pytest.raises(StaleEpochError):  # equal is stale too
            stack.apply_plan(dataclasses.replace(stack.plan, epoch=2_000_001))
        assert stack.stale_plans_rejected == 2
        assert stack.stale_plans_applied == 0
        assert stack.config_epoch == 2_000_001

    def test_fence_off_applies_and_counts_split_brain(self):
        stack = build_stack()
        stack.fence_epochs = False
        stack.apply_plan(dataclasses.replace(stack.plan, epoch=2_000_001))
        stack.apply_plan(dataclasses.replace(stack.plan, epoch=1_000_009))
        assert stack.stale_plans_applied == 1
        assert stack.stale_plans_rejected == 0

    def test_legacy_epoch_zero_plans_bypass_the_fence(self):
        stack = build_stack()
        stack.apply_plan(dataclasses.replace(stack.plan, epoch=0))
        stack.apply_plan(dataclasses.replace(stack.plan, epoch=0))
        assert stack.stale_plans_rejected == 0
        assert stack.stale_plans_applied == 0


# -- concurrent-fault plan builders ------------------------------------------


class TestFaultPlanBuilders:
    def test_fault_kind_universe(self):
        # the new control-plane kinds extend the catalog, but the
        # single-fault soak keeps the dataplane default so historical
        # seeds replay bit-identically
        assert set(DATAPLANE_FAULT_KINDS) < set(FAULT_KINDS)
        assert CONTROL_PARTITION in FAULT_KINDS
        assert GRAY_DEGRADE in FAULT_KINDS
        assert CONTROL_PARTITION not in DATAPLANE_FAULT_KINDS
        plan = random_single_fault_plan(seed=7, horizon_s=1.0,
                                        machines=["m1"])
        assert all(e.kind in DATAPLANE_FAULT_KINDS for e in plan.events)

    def test_random_multi_plan_is_deterministic_and_valid(self):
        a = random_multi_fault_plan(3, 1.0, ["m1", "m2"], events=5)
        b = random_multi_fault_plan(3, 1.0, ["m1", "m2"], events=5)
        assert a.events == b.events
        assert len(a.events) == 5
        assert a.validate() == []

    def test_random_multi_plan_can_overlap_distinct_faults(self):
        # with enough events some pair of distinct (kind, target)
        # windows overlaps — the point of the concurrent schedule
        plan = random_multi_fault_plan(1, 1.0, ["m1", "m2"], events=8)
        spans = [
            (e.at_s, e.at_s + (e.duration_s or 0.0), e.kind, e.target)
            for e in plan.events
        ]
        overlapping = any(
            a_start < b_end and b_start < a_end
            for i, (a_start, a_end, ak, at) in enumerate(spans)
            for (b_start, b_end, bk, bt) in spans[i + 1:]
            if (ak, at) != (bk, bt)
        )
        assert overlapping

    def test_double_crash_plan_overlaps_outages(self):
        plan = double_crash_plan(["m1", "m2"], at_s=0.01, stagger_s=0.005,
                                 outage_s=0.05)
        first, second = plan.events
        assert second.at_s < first.at_s + first.duration_s
        assert plan.validate() == []

    def test_partition_during_recovery_plan_shape(self):
        plan = partition_during_recovery_plan(
            "data", "leader", crash_at_s=0.01, partition_at_s=0.03,
            partition_for_s=0.06,
        )
        kinds = [e.kind for e in plan.events]
        assert kinds == ["machine_crash", CONTROL_PARTITION]
        assert plan.events[1].target == "leader"
        assert plan.validate() == []

    def test_controller_crash_during_failover_plan_shape(self):
        plan = controller_crash_during_failover_plan(
            "data", "leader", crash_at_s=0.01, leader_crash_at_s=0.03,
        )
        assert [e.target for e in plan.events] == ["data", "leader"]
        assert plan.events[1].duration_s is None  # leader stays dead
        assert plan.validate() == []


# -- ADN610: fault plans as diagnostics --------------------------------------


class TestLoadFaultPlanDiagnostics:
    def write(self, tmp_path, payload):
        path = tmp_path / "plan.json"
        path.write_text(
            payload if isinstance(payload, str) else json.dumps(payload)
        )
        return str(path)

    def assert_failed(self, plan, diagnostics):
        assert plan is None
        assert diagnostics
        for diagnostic in diagnostics:
            assert diagnostic.code == "ADN610"
            assert diagnostic.severity.value == "error"
            # span-free: renders with the path and 0:0, never a traceback
            text = diagnostic.format_text()
            assert text.startswith(f"{diagnostic.path}:0:0: error ADN610:")
            assert diagnostic.message in text

    def test_missing_file(self):
        plan, diagnostics = load_fault_plan("/nonexistent/plan.json")
        self.assert_failed(plan, diagnostics)
        assert "cannot read" in diagnostics[0].message

    def test_invalid_json(self, tmp_path):
        plan, diagnostics = load_fault_plan(
            self.write(tmp_path, "{not json")
        )
        self.assert_failed(plan, diagnostics)
        assert "invalid JSON" in diagnostics[0].message

    def test_missing_events_key(self, tmp_path):
        plan, diagnostics = load_fault_plan(self.write(tmp_path, {}))
        self.assert_failed(plan, diagnostics)

    def test_every_bad_event_reported_not_just_the_first(self, tmp_path):
        plan, diagnostics = load_fault_plan(self.write(tmp_path, {
            "events": [
                {"at_s": 0.1, "kind": "meteor_strike", "target": "m"},
                {"at_s": -1.0, "kind": "machine_crash", "target": "m"},
                {"kind": "machine_crash", "target": "m"},  # missing at_s
                "not-an-object",
            ],
        }))
        self.assert_failed(plan, diagnostics)
        text = " ".join(d.message for d in diagnostics)
        assert "events[0]" in text and "meteor_strike" in text
        assert "events[1]" in text and ">= 0" in text
        assert "events[2]" in text and "at_s" in text
        assert "events[3]" in text

    def test_overlapping_same_fault_rejected(self, tmp_path):
        plan, diagnostics = load_fault_plan(self.write(tmp_path, {
            "events": [
                {"at_s": 0.1, "kind": "processor_hang", "target": "m",
                 "duration_s": 0.2},
                {"at_s": 0.2, "kind": "processor_hang", "target": "m",
                 "duration_s": 0.2},
            ],
        }))
        self.assert_failed(plan, diagnostics)
        assert "overlap" in diagnostics[0].message

    def test_valid_plan_loads_clean(self, tmp_path):
        plan, diagnostics = load_fault_plan(self.write(tmp_path, {
            "seed": 9,
            "events": [
                {"at_s": 0.1, "kind": "machine_crash", "target": "m",
                 "duration_s": 0.05},
                {"at_s": 0.12, "kind": CONTROL_PARTITION, "target": "c",
                 "duration_s": 0.05},
                {"at_s": 0.2, "kind": GRAY_DEGRADE, "target": "m",
                 "duration_s": 0.1, "magnitude": 20.0},
            ],
        }))
        assert diagnostics == []
        assert plan is not None and plan.seed == 9
        assert len(plan.events) == 3


# -- detector: gray score and rehabilitation ---------------------------------


def latency_report(machine, at_s, service_ms):
    return ProcessorReport(
        at_s=at_s,
        platform="mrpc",
        machine=machine,
        elements=("X",),
        window_s=0.01,
        rpcs_in_window=5,
        drops_in_window=0,
        utilization=0.1,
        service_ms_per_rpc=service_ms,
    )


class TestGrayScore:
    def feed(self, detector, machine, samples):
        for tick, service_ms in enumerate(samples):
            detector.sink(latency_report(machine, tick * 0.01, service_ms))

    def test_fires_after_consecutive_hot_windows(self):
        sim = Simulator()
        detector = HeartbeatFailureDetector(
            sim, heartbeat_interval_s=0.01, gray_factor=3.0,
            gray_consecutive=3, gray_min_samples=5,
        )
        fired = []
        detector.on_suspect(fired.append)
        self.feed(detector, "m", [1.0] * 5 + [10.0, 10.0])
        assert fired == []  # streak of 2 < gray_consecutive
        detector.sink(latency_report("m", 0.07, 10.0))
        assert [s.kind for s in fired] == ["gray"]
        assert detector.suspects["m"].kind == "gray"

    def test_needs_priming_before_judging(self):
        sim = Simulator()
        detector = HeartbeatFailureDetector(
            sim, heartbeat_interval_s=0.01, gray_factor=3.0,
            gray_consecutive=1, gray_min_samples=5,
        )
        # hot from the first window: an unprimed baseline must not fire
        self.feed(detector, "m", [10.0] * 4)
        assert "m" not in detector.suspects

    def test_crash_only_detector_ignores_latency(self):
        sim = Simulator()
        detector = HeartbeatFailureDetector(
            sim, heartbeat_interval_s=0.01, gray_factor=0.0,
        )
        self.feed(detector, "m", [1.0] * 5 + [50.0] * 10)
        assert detector.suspects == {}

    def test_healthy_window_rehabilitates_gray(self):
        sim = Simulator()
        detector = HeartbeatFailureDetector(
            sim, heartbeat_interval_s=0.01, gray_factor=3.0,
            gray_consecutive=2, gray_min_samples=3,
        )
        self.feed(detector, "m", [1.0] * 3 + [10.0, 10.0])
        assert "m" in detector.suspects
        detector.sink(latency_report("m", 0.06, 1.0))
        assert "m" not in detector.suspects

    def test_heartbeat_does_not_rehabilitate_gray(self):
        # a gray machine keeps heartbeating — only a *healthy-latency*
        # window clears the suspicion
        sim = Simulator()
        detector = HeartbeatFailureDetector(
            sim, heartbeat_interval_s=0.01, gray_factor=3.0,
            gray_consecutive=2, gray_min_samples=3,
        )
        self.feed(detector, "m", [1.0] * 3 + [10.0, 10.0])
        assert "m" in detector.suspects
        detector.sink(latency_report("m", 0.06, 10.0))
        assert detector.suspects["m"].kind == "gray"


class TestDetectorRehabilitation:
    def test_expect_reprimes_after_partition_heal(self):
        # a machine silenced by a control partition was healthy all
        # along: without the re-prime, its stale arrival clock would
        # re-declare it dead on the very next poll after the heal
        sim = Simulator()
        detector = HeartbeatFailureDetector(sim, heartbeat_interval_s=0.01)
        detector.sink(latency_report("m", 0.0, 1.0))
        advance(sim, 0.05)
        assert [s.machine for s in detector.check()] == ["m"]
        # partition heals: the injector re-primes the detector
        detector.expect("m")
        assert "m" not in detector.suspects
        assert detector.check() == []  # the arrival clock restarted

    def test_expect_resets_gray_streak(self):
        sim = Simulator()
        detector = HeartbeatFailureDetector(
            sim, heartbeat_interval_s=0.01, gray_factor=3.0,
            gray_consecutive=3, gray_min_samples=3,
        )
        for tick, service_ms in enumerate([1.0] * 3 + [10.0, 10.0]):
            detector.sink(latency_report("m", tick * 0.01, service_ms))
        detector.expect("m")
        # the streak restarted: two more hot windows are not enough
        detector.sink(latency_report("m", 0.06, 10.0))
        detector.sink(latency_report("m", 0.07, 10.0))
        assert "m" not in detector.suspects

    def test_injector_reprimes_on_partition_revert(self):
        # end to end: run the scenario with only a CONTROL_PARTITION on
        # the stats host; the revert must re-prime the detector, so the
        # healthy machine is never recovered off of
        plan = FaultPlan(events=[
            FaultEvent(at_s=0.02, kind=CONTROL_PARTITION,
                       target=STATS_MACHINE, duration_s=0.01),
        ], seed=11)
        result = run_control_resilience_scenario(
            seed=11, total_rpcs=600, fault_plan=plan, horizon_s=0.5,
        )
        assert not result.timed_out
        assert result.reports == []  # nobody recovered a healthy host
        assert STATS_MACHINE not in result.detector.suspects
        assert result.goodput_fraction == 1.0


# -- failover scenarios ------------------------------------------------------


class TestFailoverScenarios:
    def crash_mid_recovery(self, standby):
        plan = controller_crash_during_failover_plan(
            STATS_MACHINE, CTRL_A, crash_at_s=0.01, leader_crash_at_s=0.032,
        )
        return run_control_resilience_scenario(
            seed=2, total_rpcs=1500, fault_plan=plan, standby=standby,
            run_limit_s=4.0,
        )

    def test_standby_resumes_the_orphaned_recovery(self):
        result = self.crash_mid_recovery(standby=True)
        assert not result.timed_out
        (failover,) = result.failovers
        assert failover.node == CTRL_B
        assert failover.term == 2
        assert STATS_MACHINE in failover.resumed
        assert failover.journal_rows_restored >= 1
        (report,) = result.reports
        assert report.machine == STATS_MACHINE
        assert result.abandoned_recoveries >= 1  # ctrl-a died mid-flight
        assert result.goodput_fraction >= 0.9

    def test_without_standby_the_mesh_is_orphaned(self):
        result = self.crash_mid_recovery(standby=False)
        assert result.timed_out
        assert result.reports == []
        assert result.failovers == []

    def test_partition_during_recovery_is_fenced(self):
        plan = partition_during_recovery_plan(
            STATS_MACHINE, CTRL_A, crash_at_s=0.01, partition_at_s=0.031,
            partition_for_s=0.06,
        )
        result = run_control_resilience_scenario(
            seed=3, total_rpcs=1500, fault_plan=plan,
        )
        # the healed stale leader's late push bounced off the fence
        assert result.stale_plans_rejected >= 1
        assert result.stale_plans_applied == 0
        assert result.goodput_fraction == 1.0

    def test_fence_off_demonstrates_split_brain(self):
        plan = partition_during_recovery_plan(
            STATS_MACHINE, CTRL_A, crash_at_s=0.01, partition_at_s=0.031,
            partition_for_s=0.06,
        )
        result = run_control_resilience_scenario(
            seed=3, total_rpcs=1500, fault_plan=plan, fence_epochs=False,
        )
        assert result.stale_plans_applied >= 1

    def test_overlapping_double_crash_recovers_both(self):
        plan = double_crash_plan(
            [STATS_MACHINE, CTRL_A], at_s=0.01, stagger_s=0.01,
            outage_s=0.08,
        )
        result = run_control_resilience_scenario(
            seed=6, total_rpcs=1500, fault_plan=plan, run_limit_s=4.0,
        )
        assert not result.timed_out
        machines = [report.machine for report in result.reports]
        assert STATS_MACHINE in machines
        assert result.goodput_fraction >= 0.7
        assert result.stale_plans_applied == 0

    @pytest.mark.parametrize("name", [
        "crash_during_failover", "partition_during_recovery",
        "double_crash",
    ])
    def test_replay_is_bit_identical(self, name):
        plans = {
            "crash_during_failover": controller_crash_during_failover_plan(
                STATS_MACHINE, CTRL_A, crash_at_s=0.01,
                leader_crash_at_s=0.032,
            ),
            "partition_during_recovery": partition_during_recovery_plan(
                STATS_MACHINE, CTRL_A, crash_at_s=0.01,
                partition_at_s=0.031, partition_for_s=0.06,
            ),
            "double_crash": double_crash_plan(
                [STATS_MACHINE, CTRL_A], at_s=0.01, stagger_s=0.01,
                outage_s=0.08,
            ),
        }
        runs = [
            run_control_resilience_scenario(
                seed=5, total_rpcs=800, fault_plan=plans[name],
                run_limit_s=4.0,
            )
            for _ in range(2)
        ]
        assert runs[0].signature() == runs[1].signature()


@pytest.mark.parametrize(
    "run", [run_recovery_scenario, run_control_resilience_scenario]
)
def test_kernel_error_is_not_an_orphaned_mesh(run, monkeypatch):
    """Only the run limit reads as a timeout: a fault in the simulated
    program propagates from either SessionTally scenario instead of
    passing for a workload that never finished."""
    original = AdnMrpcStack.call_raw
    calls = itertools.count(1)

    def call_raw(self, **fields):
        if next(calls) == 50:
            yield -1.0
        return (yield from original(self, **fields))

    monkeypatch.setattr(AdnMrpcStack, "call_raw", call_raw)
    with pytest.raises(SimulationError, match="negative or NaN delay"):
        run(seed=1, total_rpcs=200)


# -- the chaos soak ----------------------------------------------------------


class TestChaosSoak:
    def test_trial_replays_identically(self):
        a = run_chaos_trial(seed=104, total_rpcs=400)
        b = run_chaos_trial(seed=104, total_rpcs=400)
        assert a == b

    def test_soak_never_applies_a_stale_plan(self):
        soak = run_chaos_soak(trials=2, base_seed=100, total_rpcs=400)
        assert len(soak["trials"]) == 2
        assert soak["total_stale_applied"] == 0
        for trial in soak["trials"]:
            assert trial["seed"] >= 100
            assert 0.0 <= trial["goodput_fraction"] <= 1.0
            assert trial["signature"]
        assert soak["min_goodput_fraction"] <= 1.0
