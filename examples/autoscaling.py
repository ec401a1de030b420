#!/usr/bin/env python3
"""Disruption-free autoscaling (paper §4 Q3 / §5.2, Figure 2 config 4).

A workload spike hits an ADN processor. The controller's autoscaler
watches utilization, scales the processor out — splitting its keyed
element state across instances with a two-phase live migration — and
scales back in when the spike passes. The only data-plane impact is a
sub-millisecond routing flip; no RPC is ever dropped.

Run:  python examples/autoscaling.py
"""

from repro.control.scaling import Autoscaler, AutoscalerConfig
from repro.dsl.ast_nodes import ColumnDef, StateDecl
from repro.dsl.schema import FieldType
from repro.runtime.message import RpcOutcome
from repro.sim import OpenLoopClient, Resource, Simulator
from repro.state.table import StateTable

SERVICE_US = 100.0
PHASES = [
    (3_000, 0.5),   # calm
    (18_000, 1.5),  # 6x spike
    (3_000, 0.5),   # calm again
]


def build_session_table(rows: int = 5000) -> StateTable:
    """The processor's keyed state (think: an LB's session affinity
    table) — what must migrate when capacity changes."""
    decl = StateDecl(
        name="sessions",
        columns=(
            ColumnDef("session_id", FieldType.INT, is_key=True),
            ColumnDef("replica", FieldType.STR),
        ),
    )
    table = StateTable(decl)
    for session_id in range(rows):
        table.insert(
            {"session_id": session_id, "replica": f"B.{session_id % 3 + 1}"}
        )
    return table


def run(autoscale: bool):
    sim = Simulator()
    engine = Resource(sim, capacity=1, name="adn-processor")
    sessions = build_session_table()

    def call(**fields):
        issued = sim.now
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
                cooldown_s=0.15,
                high_watermark=0.8,
                low_watermark=0.2,
                max_capacity=4,
            ),
            stateful_tables=[sessions],
        )
        sim.process(autoscaler.run(sum(d for _r, d in PHASES)))
    client = OpenLoopClient(sim, call, PHASES)
    metrics = client.run()
    return metrics, client, autoscaler, engine, sessions


def main() -> None:
    print("workload: 3k rps -> 18k rps spike -> 3k rps; "
          f"processor serves {1e6 / SERVICE_US:.0f} rps per instance\n")

    static_metrics, static_client, _a, _e, _s = run(autoscale=False)
    auto_metrics, auto_client, autoscaler, engine, sessions = run(
        autoscale=True
    )

    def phase_line(client, label):
        cells = []
        for name, phase in zip(("calm", "spike", "calm"), client.per_phase):
            cells.append(
                f"{name}: p50 {phase.latency.median * 1e3:7.2f} ms  "
                f"p99 {phase.latency.percentile(99) * 1e3:8.2f} ms"
            )
        print(f"{label:12s} " + " | ".join(cells))

    phase_line(static_client, "static (1)")
    phase_line(auto_client, "autoscaled")

    print("\n--- autoscaler actions ---")
    for event in autoscaler.events:
        line = (
            f"t={event.at_s:5.2f}s {event.action:9s} "
            f"{event.capacity_before}->{event.capacity_after} "
            f"(util {event.utilization * 100:5.1f}%)"
        )
        if event.migration is not None:
            line += (
                f"  migrated {event.migration.rows_copied} rows, "
                f"flip pause {event.migration.pause_s * 1e6:.0f} us"
            )
        print(line)

    print(
        f"\nRPCs served: static={static_metrics.completed} "
        f"autoscaled={auto_metrics.completed} "
        f"(dropped: {auto_metrics.aborted})"
    )
    print(f"session table intact after scaling: {len(sessions)} rows")
    print(f"final capacity: {engine.capacity}")


if __name__ == "__main__":
    main()
