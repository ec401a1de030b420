"""Disruption-free scale-out (§4 Q3 / §5.2): the controller scales RPC
processing out under a workload step, migrating keyed element state with
only a sub-millisecond pause — requests are delayed during the flip,
never dropped.

This is Figure 2 configuration 4 made dynamic: capacity follows load.
"""

import pytest

from repro.control.scaling import Autoscaler, AutoscalerConfig
from repro.dsl.ast_nodes import ColumnDef, StateDecl
from repro.dsl.schema import FieldType
from repro.runtime.message import RpcOutcome
from repro.sim import OpenLoopClient, Resource, Simulator
from repro.state.table import StateTable

from bench_harness import bench_assert, print_table

SERVICE_US = 100.0  # per-RPC engine work
PHASES = [(3_000, 0.4), (18_000, 1.2), (3_000, 0.4)]  # rps, seconds


def lb_state_table(rows=2000):
    decl = StateDecl(
        name="endpoints_cache",
        columns=(
            ColumnDef("k", FieldType.INT, is_key=True),
            ColumnDef("v", FieldType.STR),
        ),
    )
    table = StateTable(decl)
    for i in range(rows):
        table.insert({"k": i, "v": f"session-{i}"})
    return table


def run_scaling(autoscale: bool):
    sim = Simulator()
    engine = Resource(sim, capacity=1, name="engine")
    table = lb_state_table()
    paused = {"until": 0.0}

    def call(**fields):
        issued = sim.now
        if sim.now < paused["until"]:
            # the data plane buffers during a migration flip
            yield sim.timeout(paused["until"] - sim.now)
        yield from engine.use(SERVICE_US * 1e-6)
        return RpcOutcome(
            request={}, response={}, issued_at=issued, completed_at=sim.now
        )

    autoscaler = None
    if autoscale:
        autoscaler = Autoscaler(
            sim,
            engine,
            AutoscalerConfig(
                sample_interval_s=0.05,
                cooldown_s=0.1,
                high_watermark=0.8,
                low_watermark=0.2,
                max_capacity=4,
            ),
            stateful_tables=[table],
        )
        total = sum(duration for _rate, duration in PHASES)
        sim.process(autoscaler.run(total))
    client = OpenLoopClient(sim, call, PHASES)
    metrics = client.run()
    return metrics, client, autoscaler, engine


@pytest.fixture(scope="module")
def scaling_runs():
    static_metrics, static_client, _none, _e1 = run_scaling(autoscale=False)
    auto_metrics, auto_client, autoscaler, engine = run_scaling(autoscale=True)
    return {
        "static": (static_metrics, static_client),
        "autoscaled": (auto_metrics, auto_client),
        "autoscaler": autoscaler,
        "engine": engine,
    }


def test_scaling_table(scaling_runs, benchmark):
    def report():
        rows = ["static capacity=1", "autoscaled"]
        runs = {
            "static capacity=1": scaling_runs["static"],
            "autoscaled": scaling_runs["autoscaled"],
        }

        def cell(row, col):
            metrics, client = runs[row]
            if col == "spike p99 (ms)":
                return client.per_phase[1].latency.percentile(99) * 1e3
            if col == "spike median (ms)":
                return client.per_phase[1].latency.median * 1e3
            return metrics.completed / 1000

        return print_table(
            "Scale-out under a 6x load spike",
            rows=rows,
            columns=["completed (k)", "spike median (ms)", "spike p99 (ms)"],
            cell=cell,
        )

    bench_assert(benchmark, report)


def test_autoscaler_scaled_out_during_spike(scaling_runs, benchmark):
    def check():
        autoscaler = scaling_runs["autoscaler"]
        assert autoscaler.scale_out_count >= 1
        # and scaled back in when the spike ended
        assert scaling_runs["engine"].capacity <= 4
        return autoscaler.scale_out_count

    bench_assert(benchmark, check)


def test_spike_latency_improves_with_scaling(scaling_runs, benchmark):
    def check():
        _static_m, static_client = scaling_runs["static"]
        _auto_m, auto_client = scaling_runs["autoscaled"]
        static_spike = static_client.per_phase[1].latency.percentile(99)
        auto_spike = auto_client.per_phase[1].latency.percentile(99)
        assert auto_spike < static_spike / 2
        return static_spike / auto_spike

    bench_assert(benchmark, check)


def test_no_rpcs_dropped(scaling_runs, benchmark):
    def check():
        for label in ("static", "autoscaled"):
            metrics, _client = scaling_runs[label]
            assert metrics.aborted == 0, label

    bench_assert(benchmark, check)


def test_migration_pause_sub_millisecond(scaling_runs, benchmark):
    def check():
        autoscaler = scaling_runs["autoscaler"]
        pauses = [
            event.migration.pause_s
            for event in autoscaler.events
            if event.migration is not None
        ]
        assert pauses
        for pause in pauses:
            assert pause < 1e-3, f"flip pause {pause * 1e6:.0f} us"
        return max(pauses)

    bench_assert(benchmark, check)


def test_state_intact_after_scaling(scaling_runs, benchmark):
    def check():
        autoscaler = scaling_runs["autoscaler"]
        for table in autoscaler.stateful_tables:
            assert len(table) == 2000

    bench_assert(benchmark, check)
