"""Cluster model and workload generator tests."""

import pytest

from repro.errors import SimulationError
from repro.runtime.message import RpcOutcome
from repro.sim import (
    ClosedLoopClient,
    CostModel,
    OpenLoopClient,
    RunMetrics,
    Simulator,
    two_machine_cluster,
)
from repro.platforms import Platform


class TestCluster:
    def test_two_machine_default(self):
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        assert set(cluster.machines) == {"client-host", "server-host"}
        assert not cluster.switch.programmable

    def test_thread_allocation(self):
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        machine = cluster.machine("client-host")
        thread = machine.thread("mrpc-engine")
        assert thread is machine.thread("mrpc-engine")  # cached
        assert thread.capacity == 1

    def test_core_budget_enforced(self):
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        machine = cluster.machine("client-host")
        with pytest.raises(SimulationError, match="out of cores"):
            machine.thread("huge", capacity=100)

    def test_smartnic_optional(self):
        sim = Simulator()
        plain = two_machine_cluster(sim)
        assert plain.machine("client-host").smartnic_cores is None
        sim2 = Simulator()
        nic = two_machine_cluster(sim2, smartnics=True)
        assert nic.machine("client-host").smartnic_cores is not None

    def test_cpu_accounting(self):
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        thread = cluster.machine("client-host").thread("t")

        def worker():
            yield from thread.use(0.25)

        sim.process(worker())
        sim.run()
        busy = cluster.cpu_busy_by_machine()
        assert busy["client-host"] == pytest.approx(0.25)
        assert busy["server-host"] == 0.0

    def test_duplicate_machine_rejected(self):
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        with pytest.raises(SimulationError):
            cluster.add_machine("client-host")

    def test_switch_capacity(self):
        sim = Simulator()
        cluster = two_machine_cluster(sim, programmable_switch=True)
        assert cluster.switch.can_host(3)
        cluster.switch.installed_elements.extend(["x"] * 12)
        assert not cluster.switch.can_host(1)


class TestCostModel:
    def test_envoy_traversal_grows_with_filters(self):
        costs = CostModel()
        bare = costs.envoy_traversal_cpu_us(filters=0)
        loaded = costs.envoy_traversal_cpu_us(filters=3)
        assert loaded == pytest.approx(bare + 3 * costs.envoy_filter_us)

    def test_wasm_filters_cost_more(self):
        costs = CostModel()
        builtin = costs.envoy_traversal_cpu_us(filters=3)
        wasm = costs.envoy_traversal_cpu_us(filters=3, wasm_filters=3)
        assert wasm > builtin

    def test_wire_cost_scales_with_bytes(self):
        costs = CostModel()
        assert costs.wire_us(10_000) > costs.wire_us(100)

    def test_platform_factors_cover_all_platforms(self):
        costs = CostModel()
        for platform in Platform:
            assert platform in costs.platform_element_factor
            assert platform in costs.platform_element_extra_us

    def test_switch_is_free_cpu(self):
        costs = CostModel()
        assert costs.platform_element_factor[Platform.SWITCH_P4] == 0.0


def _fixed_call_factory(sim, service_s, seen=None, aborted_by=""):
    def call(**fields):
        if seen is not None:
            seen.append(dict(fields))
        issued = sim.now
        yield sim.timeout(service_s)
        return RpcOutcome(
            request=dict(fields),
            response=dict(fields),
            issued_at=issued,
            completed_at=sim.now,
            aborted_by=aborted_by,
        )

    return call


class TestClosedLoop:
    def test_completes_exact_count(self):
        sim = Simulator()
        client = ClosedLoopClient(
            sim, _fixed_call_factory(sim, 1e-4), concurrency=4, total_rpcs=100
        )
        metrics = client.run()
        assert metrics.completed == 100

    def test_littles_law_holds(self):
        sim = Simulator()
        client = ClosedLoopClient(
            sim, _fixed_call_factory(sim, 1e-3), concurrency=8, total_rpcs=400
        )
        metrics = client.run()
        assert metrics.check_littles_law(concurrency=8, tolerance=0.1)

    def test_warmup_excluded(self):
        sim = Simulator()
        client = ClosedLoopClient(
            sim,
            _fixed_call_factory(sim, 1e-4),
            concurrency=2,
            total_rpcs=50,
            warmup_rpcs=10,
        )
        metrics = client.run()
        assert metrics.completed == 50
        assert metrics.issued == 60

    def test_latency_measured(self):
        sim = Simulator()
        client = ClosedLoopClient(
            sim, _fixed_call_factory(sim, 2e-4), concurrency=1, total_rpcs=20
        )
        metrics = client.run()
        assert metrics.latency.median == pytest.approx(2e-4)

    def test_deterministic_given_seed(self):
        def run():
            sim = Simulator()
            client = ClosedLoopClient(
                sim,
                _fixed_call_factory(sim, 1e-4),
                concurrency=4,
                total_rpcs=50,
                seed=9,
            )
            metrics = client.run()
            return metrics.latency.samples

        assert run() == run()


class TestOpenLoop:
    def test_rate_approximates_target(self):
        sim = Simulator()
        client = OpenLoopClient(
            sim, _fixed_call_factory(sim, 1e-5), [(5000, 1.0)]
        )
        metrics = client.run()
        assert 4000 < metrics.completed < 6000

    def test_stepped_load_phases(self):
        sim = Simulator()
        client = OpenLoopClient(
            sim, _fixed_call_factory(sim, 1e-5), [(1000, 0.5), (4000, 0.5)]
        )
        client.run()
        low, high = client.per_phase
        assert high.issued > low.issued * 2

    def test_fields_fn_reaches_every_phase(self):
        sim = Simulator()
        seen = []

        def fields(rng, index):
            return {"payload": b"p", "tag": "custom", "index": index}

        client = OpenLoopClient(
            sim,
            _fixed_call_factory(sim, 1e-5, seen=seen),
            [(2000, 0.05), (4000, 0.05)],
            fields_fn=fields,
        )
        client.run()
        assert all(phase.issued > 0 for phase in client.per_phase)
        assert len(seen) == client.metrics.issued
        assert all(call["tag"] == "custom" for call in seen)
        indices = [call["index"] for call in seen]
        assert indices == list(range(1, len(seen) + 1))

    def test_thinning_keeps_a_fraction_of_candidates(self):
        sim = Simulator()
        client = OpenLoopClient(
            sim,
            _fixed_call_factory(sim, 1e-5),
            [(4000, 0.5)],
            rate_fn=lambda t: 1000.0,
        )
        metrics = client.run()
        assert 350 < metrics.issued < 650


class TestOutcomeRecord:
    def test_drained_open_loop_ends_with_nothing_in_flight(self):
        sim = Simulator()
        client = OpenLoopClient(
            sim, _fixed_call_factory(sim, 1e-4), [(2000, 0.1), (4000, 0.1)]
        )
        metrics = client.run(drain_s=0.1)
        assert metrics.in_flight == 0
        aborted = sum(metrics.aborted_by.values())
        assert metrics.ok + aborted == metrics.completed == metrics.issued
        for phase in client.per_phase:
            assert phase.in_flight == 0

    def test_zero_drain_leaves_rpcs_in_flight(self):
        sim = Simulator()
        client = OpenLoopClient(
            sim, _fixed_call_factory(sim, 0.05), [(2000, 0.1)]
        )
        metrics = client.run(drain_s=0.0)
        assert metrics.in_flight > 0
        aborted = sum(metrics.aborted_by.values())
        assert metrics.ok + aborted == metrics.completed < metrics.issued
        assert metrics.completed + metrics.in_flight == metrics.issued

    def test_closed_loop_warmup_is_not_in_flight(self):
        sim = Simulator()
        client = ClosedLoopClient(
            sim,
            _fixed_call_factory(sim, 1e-4),
            concurrency=2,
            total_rpcs=50,
            warmup_rpcs=10,
        )
        metrics = client.run()
        assert metrics.warmup == 10
        assert metrics.in_flight == 0

    def test_aborts_tallied_by_element(self):
        sim = Simulator()
        client = ClosedLoopClient(
            sim,
            _fixed_call_factory(sim, 1e-4, aborted_by="Acl"),
            concurrency=2,
            total_rpcs=20,
        )
        metrics = client.run()
        assert metrics.aborted == 20 and metrics.ok == 0
        assert metrics.aborted_by == {"Acl": 20}
        assert len(metrics.ok_latency) == 0
        assert metrics.issued_by_priority == {0: 20}
        assert metrics.goodput_ratio() == 0.0

    def test_priority_tallies_follow_the_fields(self):
        sim = Simulator()

        def fields(rng, index):
            return {"payload": b"p", "priority": index % 2}

        client = ClosedLoopClient(
            sim,
            _fixed_call_factory(sim, 1e-4),
            concurrency=2,
            total_rpcs=20,
            fields_fn=fields,
        )
        metrics = client.run()
        assert metrics.issued_by_priority == {0: 10, 1: 10}
        assert metrics.ok_by_priority == {0: 10, 1: 10}
        assert metrics.goodput_ratio(priority=1) == 1.0

    def test_broken_record_is_rejected(self):
        metrics = RunMetrics(issued=1, completed=1)
        with pytest.raises(AssertionError):
            metrics.finish(1.0)
        metrics = RunMetrics(issued=1, completed=2, ok=2)
        with pytest.raises(AssertionError):
            metrics.finish(1.0)
