"""End-to-end mesh benchmark: a 12-service graph under 3x overload with
a concurrent mid-graph crash.

The single-hop overload benchmark (test_overload.py) shows the
protected stack degrading gracefully on one edge; this one puts the
same machinery (admission control, deadline propagation, retry budgets,
circuit breakers — PR 5) plus fault injection/recovery (PR 4) on the
hotel-reservation mesh: 12 services, 12 edges, fan-out at the gateway,
three hops deep. The workload is open-loop diurnal Poisson over a
million Zipf-skewed users, so load keeps arriving while the mesh
degrades.

Acceptance shape (ISSUE 6): with offered load at 3x the peak operating
point AND a machine crash taking out three mid-graph services for a
quarter of the run, mesh-wide goodput stays >= 70% of the unstressed
peak. Sheds are fate-coherent (hash-keyed admission), so one request's
parallel sub-RPCs live or die together instead of compounding
independent shed draws across the gateway's fan-out.
"""

import pytest

from repro.faults.plan import FaultEvent, FaultPlan, MACHINE_CRASH
from repro.graph import hotel_mesh_graph, run_graph_scenario

from bench_harness import bench_assert, print_table

SEED = 1
#: the peak operating point: ~91-93% of offered load answered ok
PEAK_RPS = 800.0
#: 3x the peak operating point
STRESS_RPS = 2400.0
DURATION_S = 0.3
#: mid-run machine crash: out for ~13% of the run, restart covered
CRASH_AT_S = 0.1
CRASH_FOR_S = 0.04


def _crash_plan(placement) -> FaultPlan:
    """Crash the machine hosting ``rate`` — a mid-graph service two
    hops below the gateway (gateway -> search -> rate)."""
    return FaultPlan(events=[
        FaultEvent(
            at_s=CRASH_AT_S,
            kind=MACHINE_CRASH,
            target=placement.machine_of("rate"),
            duration_s=CRASH_FOR_S,
        )
    ])


@pytest.fixture(scope="module")
def mesh():
    peak = run_graph_scenario(
        base_rps=PEAK_RPS, duration_s=DURATION_S, seed=SEED
    )
    overload = run_graph_scenario(
        base_rps=STRESS_RPS, duration_s=DURATION_S, seed=SEED
    )
    stressed = run_graph_scenario(
        base_rps=STRESS_RPS,
        duration_s=DURATION_S,
        fault_plan=_crash_plan(peak.placement),
        seed=SEED,
    )
    return {"peak": peak, "3x": overload, "3x+crash": stressed}


def test_graph_shape_is_mesh_scale(mesh):
    graph = mesh["peak"].graph
    assert len(graph.services) >= 10
    assert len(graph.edges) >= 10
    assert graph.depth() >= 3  # the crash is genuinely mid-graph


def test_goodput_table(mesh, benchmark):
    def report():
        return print_table(
            "hotel mesh: goodput (rps) and ok-ratio by condition",
            rows=["goodput_rps", "ok_ratio_pct"],
            columns=list(mesh),
            cell=lambda row, col: (
                mesh[col].goodput_rps
                if row == "goodput_rps"
                else mesh[col].goodput_ratio * 100.0
            ),
        )

    bench_assert(benchmark, report)


def test_mesh_goodput_holds_at_3x_with_midgraph_crash(mesh, benchmark):
    def check():
        peak = mesh["peak"].goodput_rps
        stressed = mesh["3x+crash"].goodput_rps
        ratio = stressed / peak
        assert ratio >= 0.70, (
            f"mesh kept {ratio:.1%} of its {peak:.0f} rps peak under 3x "
            "load + mid-graph crash — protection did not hold"
        )
        # overload alone (no crash) must hold too
        assert mesh["3x"].goodput_rps / peak >= 0.70
        return ratio

    bench_assert(benchmark, check)


def test_crash_was_injected_and_reverted(mesh):
    timeline = mesh["3x+crash"].fault_timeline
    actions = {(entry.action, entry.kind) for entry in timeline}
    assert ("inject", MACHINE_CRASH) in actions
    assert ("revert", MACHINE_CRASH) in actions


def test_breakers_open_upstream_of_the_crash(mesh):
    """The crashed machine hosts rate/profile/notify — services two
    hops below the gateway. The failure class propagates upstream
    (timeouts cross the service boundary under their own token), so
    breakers open on gateway-sourced edges, not just adjacent ones."""
    opens = mesh["3x+crash"].breaker_opens()
    assert opens, "no breaker opened anywhere despite a machine crash"
    assert any(edge.startswith("gateway->") for edge in opens), (
        f"breakers opened only at {sorted(opens)} — expected the crash "
        "to propagate to the gateway's edges"
    )
    # the unstressed peak never trips a breaker
    assert mesh["peak"].breaker_opens() == {}


def test_overload_is_answered_by_shedding_not_collapse(mesh):
    """Under 3x load the mesh sheds a meaningful fraction of traffic at
    admission (cheap, before service time) — that is *why* goodput
    holds — and high-priority traffic is shed last."""
    stressed = mesh["3x+crash"]
    assert stressed.sheds() > 100
    high = stressed.metrics.goodput_ratio(priority=1)
    low = stressed.metrics.goodput_ratio(priority=0)
    assert high > low + 0.15, (
        f"high-priority ok-ratio {high:.1%} vs low {low:.1%} — admission "
        "is not prioritizing"
    )


def test_admitted_latency_stays_bounded(mesh):
    """Goodput held by shedding is only graceful if what *is* admitted
    finishes fast: median end-to-end latency under stress stays inside
    the 60 ms end-to-end deadline budget."""
    for name in ("peak", "3x", "3x+crash"):
        median_ms = mesh[name].workload.metrics.latency.median_us() / 1e3
        assert median_ms < 60.0, f"{name}: median {median_ms:.1f} ms"


def test_rejection_happens_before_service_time(mesh):
    """Graceful degradation means refusing work *early*: under stress
    the dominant failure classes are admission sheds and bounded-queue
    rejections (a fixed, tiny cost each), not in-service timeouts.
    (In-flight deadline expiry at downstream boundaries is exercised
    directly in tests/test_graph_runtime.py — here admission rejects
    doomed work even earlier.)"""
    stressed = mesh["3x+crash"]
    early, late = 0, 0
    for stats in stressed.runtime.edge_stats.values():
        for token, count in stats.aborted_by.items():
            if token in {"Shed", "QueueFull", "CircuitOpen"}:
                early += count
            elif token == "Timeout":
                late += count
    assert early > late * 2, (
        f"{early} early rejections vs {late} timeouts — overload is "
        "being paid for in service time, not shed at the door"
    )


def test_runs_are_reproducible():
    """Same seed, same graph, same curve — the whole mesh simulation is
    deterministic."""
    a = run_graph_scenario(
        graph=hotel_mesh_graph(), base_rps=600.0, duration_s=0.1, seed=9
    )
    b = run_graph_scenario(
        graph=hotel_mesh_graph(), base_rps=600.0, duration_s=0.1, seed=9
    )
    assert a.workload.metrics.issued == b.workload.metrics.issued
    assert a.goodput_rps == b.goodput_rps
    assert a.runtime.mesh_stats() == b.runtime.mesh_stats()


# -- static analysis vs measured runtime (ISSUE 7) --------------------------


def test_static_amplification_bound_holds_at_runtime(mesh, benchmark):
    """ADN601's static bound (product of max_attempts along the worst
    root path) must upper-bound the *measured* attempts-per-logical-call
    on every edge, in every condition — including the crash run where
    retries actually fire. The static analysis is sound or it is
    useless."""
    from repro.analysis.graph import analyze_graph
    from repro.graph import MESH_SCHEMA, mesh_program

    analysis = analyze_graph(hotel_mesh_graph(), mesh_program(), MESH_SCHEMA)
    assert analysis.worst_amplification == 4.0
    assert analysis.worst_path == ("gateway", "search", "geo")

    def check():
        worst_measured = 0.0
        for name, result in mesh.items():
            for (src, dst), stack in result.runtime.stacks.items():
                stats = stack.retry_stats
                if stats is None or stats.logical_calls == 0:
                    continue
                measured = stats.amplification()
                bound = analysis.amplification_bound(src, dst)
                assert measured <= bound + 1e-9, (
                    f"{name}: edge {src}->{dst} measured {measured:.3f}x "
                    f"attempts but the static bound is {bound:g}x"
                )
                worst_measured = max(worst_measured, measured)
        assert worst_measured <= analysis.worst_amplification
        print(
            f"worst measured amplification {worst_measured:.3f}x "
            f"<= static bound {analysis.worst_amplification:g}x"
        )

    bench_assert(benchmark, check)


def _replay_bookinfo(edge_app_reads=None, calls=16):
    """Drive a deterministic request sequence through bookinfo and
    return (runtime, outcomes)."""
    from repro.graph import MESH_SCHEMA, bookinfo_graph, mesh_program
    from repro.graph.placement import solve_graph_placement
    from repro.graph.runtime import GraphRuntime, build_graph_cluster
    from repro.runtime.message import reset_rpc_ids
    from repro.sim.costmodel import CostModel
    from repro.sim.engine import Simulator

    reset_rpc_ids()
    sim = Simulator()
    graph = bookinfo_graph()
    placement = solve_graph_placement(graph, mesh_program(), MESH_SCHEMA)
    cluster = build_graph_cluster(
        sim, placement, costs=CostModel(element_dispatch_us=2.0)
    )
    runtime = GraphRuntime(
        sim, cluster, placement, MESH_SCHEMA,
        edge_app_reads=edge_app_reads,
    )
    outcomes = []

    def one(i):
        outcome = yield sim.process(runtime.entry_call(
            payload=b"x" * 16, username=f"u{i}", obj_id=i, priority=i % 2,
        ))
        outcomes.append(outcome)

    for i in range(calls):
        sim.process(one(i))
    sim.run(until=sim.now + 5.0)
    return runtime, outcomes


def test_graph_dead_fields_shrinks_wires_bit_identically(benchmark):
    """Mesh-wide dead-field elimination on bookinfo: the proven-live
    sets shrink at least one edge's wire header, every IR rewrite is
    translation-validated, and an end-to-end replay with the shrunken
    headers is bit-identical to the baseline."""
    from repro.analysis.graph import eliminate_dead_fields_graph
    from repro.graph import MESH_SCHEMA, bookinfo_graph, mesh_program

    plan = eliminate_dead_fields_graph(
        bookinfo_graph(), mesh_program(), MESH_SCHEMA
    )
    assert len(plan.shrunk_edges()) >= 1
    for change in plan.changes.values():
        if change.verdict is not None:
            assert change.verdict.ok is not False

    def check():
        base_rt, base = _replay_bookinfo()
        slim_rt, slim = _replay_bookinfo(
            edge_app_reads=plan.edge_app_reads()
        )
        assert len(base) == len(slim) == 16
        for a, b in zip(base, slim):
            assert a.aborted_by == b.aborted_by
            assert a.request == b.request
            assert a.response == b.response
        base_hdr = base_rt.stack(
            "productpage", "details"
        ).hop_plan.layout.min_size_bytes()
        slim_hdr = slim_rt.stack(
            "productpage", "details"
        ).hop_plan.layout.min_size_bytes()
        assert slim_hdr < base_hdr
        base_wire = sum(
            s.wire_bytes_total for s in base_rt.stacks.values()
        )
        slim_wire = sum(
            s.wire_bytes_total for s in slim_rt.stacks.values()
        )
        assert slim_wire < base_wire
        print(
            f"productpage->details header {base_hdr} -> {slim_hdr} B; "
            f"total wire bytes {base_wire} -> {slim_wire} "
            f"({plan.bytes_saved()} B/req planned across the mesh)"
        )

    bench_assert(benchmark, check)
