"""GraphRuntime: deadline/priority propagation through fan-out, failure
classes crossing service boundaries, and the mesh workload model."""

import random

import pytest

from repro.graph import (
    GraphBuilder,
    MESH_SCHEMA,
    MeshWorkload,
    MeshWorkloadConfig,
    ZipfSampler,
    bookinfo_graph,
    build_graph_cluster,
    mesh_program,
    solve_graph_placement,
)
from repro.graph.runtime import GraphRuntime
from repro.overload import DEADLINE_EXPIRED
from repro.runtime.message import reset_rpc_ids
from repro.runtime.mrpc import ABORT_KEY
from repro.sim.costmodel import CostModel
from repro.sim.engine import Simulator

FIELDS = {"payload": b"x", "username": "alice", "obj_id": 7, "priority": 0}


def fanout_graph(parent_budget_ms=None, child_budget_ms=1000.0):
    """a -> b, then b fans out to c and d; the child edges carry a huge
    budget of their own so any expiry must come from the parent."""
    return (
        GraphBuilder("chain")
        .edge("a", "b", elements=("Logging",),
              deadline_budget_ms=parent_budget_ms,
              per_attempt_timeout_ms=50.0)
        .edge("b", "c", elements=("Logging",),
              deadline_budget_ms=child_budget_ms)
        .edge("b", "d", elements=("Logging",),
              deadline_budget_ms=child_budget_ms)
        .build()
    )


def build_runtime(graph, element_dispatch_us=2.0, **kwargs):
    reset_rpc_ids()
    sim = Simulator()
    placement = solve_graph_placement(graph, mesh_program(), MESH_SCHEMA)
    cluster = build_graph_cluster(
        sim, placement, costs=CostModel(element_dispatch_us=element_dispatch_us)
    )
    runtime = GraphRuntime(sim, cluster, placement, MESH_SCHEMA, **kwargs)
    return sim, runtime


def drive(sim, runtime, count=1, **fields):
    outcomes = []

    def one():
        outcome = yield sim.process(runtime.entry_call(**fields))
        outcomes.append(outcome)

    for _ in range(count):
        sim.process(one())
    sim.run(until=sim.now + 5.0)
    return outcomes


def install_probe(runtime, src, dst, seen):
    """Replace one edge's server handler with a probe recording the
    propagated absolute deadline (the runtime's own handlers consume it
    before application logic can see it)."""
    stack = runtime.stack(src, dst)

    def probe(request, deadline_at):
        seen.append(deadline_at)
        return {}
        yield  # pragma: no cover — generator, like every server handler

    stack.server_handler = probe
    stack._handler_takes_deadline = True


class TestDeadlinePropagation:
    def test_parent_budget_strictly_bounds_children(self):
        graph = fanout_graph(parent_budget_ms=5.0)
        sim, runtime = build_runtime(graph)
        seen_c, seen_d = [], []
        install_probe(runtime, "b", "c", seen_c)
        install_probe(runtime, "b", "d", seen_d)
        (outcome,) = drive(sim, runtime, **FIELDS)
        assert outcome.ok
        # both fan-out children saw a deadline, and it is the *parent's*
        # 5 ms horizon — never the children's own 1000 ms budget
        for seen in (seen_c, seen_d):
            (deadline_at,) = seen
            assert deadline_at is not None
            assert deadline_at <= outcome.issued_at + 5.001e-3

    def test_without_parent_budget_children_use_their_own(self):
        graph = fanout_graph(parent_budget_ms=None)
        sim, runtime = build_runtime(graph)
        seen_c = []
        install_probe(runtime, "b", "c", seen_c)
        (outcome,) = drive(sim, runtime, **FIELDS)
        assert outcome.ok
        (deadline_at,) = seen_c
        # the child's 1000 ms budget is the only bound in play
        assert deadline_at > outcome.issued_at + 0.9

    def test_entry_deadline_bounds_the_whole_traversal(self):
        graph = fanout_graph(parent_budget_ms=None)
        sim, runtime = build_runtime(graph)
        seen_c = []
        install_probe(runtime, "b", "c", seen_c)
        entry_deadline = sim.now + 2e-3
        (outcome,) = drive(
            sim, runtime, deadline_at=entry_deadline, **FIELDS
        )
        assert outcome.ok
        (deadline_at,) = seen_c
        assert deadline_at is not None and deadline_at <= entry_deadline

    def test_exhausted_budget_drops_before_downstream_service_time(self):
        # 200 us per element dispatch makes each hop cost a fair chunk
        # of the parent's 0.8 ms budget: the request clears the a->b
        # boundary alive but is expired by the time it reaches the
        # slower fan-out leg, whose own budget is 1000 ms
        graph = fanout_graph(parent_budget_ms=0.8)
        sim, runtime = build_runtime(graph, element_dispatch_us=200.0)
        handled = []
        install_probe(runtime, "b", "d", handled)
        (outcome,) = drive(sim, runtime, **FIELDS)
        assert not outcome.ok
        stack_d = runtime.stack("b", "d")
        assert stack_d.deadline_expired_at_server >= 1
        # the server boundary dropped it *before* application service
        # time: the handler never ran, and the caller saw a deadline-
        # class failure (the dropped request never answers, so the
        # budget-clipped attempt window expires client-side)
        assert handled == []
        (token,) = runtime.stats("b", "d").aborted_by
        assert token in {DEADLINE_EXPIRED, "DeadlineExceeded", "Timeout"}

    def test_expiry_deep_in_the_graph_propagates_to_the_entry(self):
        graph = fanout_graph(parent_budget_ms=0.8)
        sim, runtime = build_runtime(graph, element_dispatch_us=200.0)
        (outcome,) = drive(sim, runtime, **FIELDS)
        assert not outcome.ok
        # the failure class survives two boundaries (d's server -> b's
        # handler -> the entry outcome) instead of flattening into a
        # generic downstream error
        assert outcome.aborted_by in {DEADLINE_EXPIRED, "DeadlineExceeded",
                                      "Timeout"}


class TestPriorityPropagation:
    def test_priority_rides_fanout_to_every_leaf(self):
        graph = fanout_graph()
        seen = {}

        def capture(name):
            def logic(request, outcomes):
                seen.setdefault(name, []).append(request.get("priority"))
                return {}
            return logic

        sim, runtime = build_runtime(
            graph, service_logic={"c": capture("c"), "d": capture("d")}
        )
        fields = dict(FIELDS, priority=3)
        (outcome,) = drive(sim, runtime, **fields)
        assert outcome.ok
        assert seen["c"] == [3] and seen["d"] == [3]


class TestFailurePropagation:
    def test_required_child_failure_aborts_the_parent(self):
        graph = fanout_graph()

        def deny(request, outcomes):
            return {ABORT_KEY: "AclDenied"}

        sim, runtime = build_runtime(graph, service_logic={"c": deny})
        (outcome,) = drive(sim, runtime, **FIELDS)
        assert not outcome.ok
        # an application-level abort is not a breaker-countable failure
        # class, so each boundary wraps it as downstream:<edge> — the
        # a->b hop records where *it* saw the failure, the entry where
        # it did
        assert runtime.stats("a", "b").aborted_by == {"downstream:b->c": 1}
        assert outcome.aborted_by == "downstream:a->b"

    def test_optional_child_failure_degrades_instead_of_failing(self):
        graph = (
            GraphBuilder("g")
            .edge("a", "b", elements=("Logging",))
            .edge("b", "c", elements=("Logging",), required=False)
            .build()
        )

        def deny(request, outcomes):
            return {ABORT_KEY: "AclDenied"}

        sim, runtime = build_runtime(graph, service_logic={"c": deny})
        (outcome,) = drive(sim, runtime, **FIELDS)
        assert outcome.ok
        assert runtime.stats("b", "c").aborted == 1

    def test_edge_stats_account_every_call(self):
        sim, runtime = build_runtime(bookinfo_graph())
        outcomes = drive(sim, runtime, count=5, **FIELDS)
        assert len(outcomes) == 5 and all(o.ok for o in outcomes)
        for edge in runtime.graph.edges:
            stats = runtime.stats(edge.src, edge.dst)
            assert stats.calls == 5 and stats.ok == 5
        assert runtime.entry_calls == 5 and runtime.entry_ok == 5
        mesh = runtime.mesh_stats()
        assert mesh["entry_ok"] == 5
        assert mesh["edges"]["reviews->ratings"]["calls"] == 5


class TestMeshWorkload:
    def test_zipf_sampler_is_skewed_and_bounded(self):
        sampler = ZipfSampler(n=1_000_000, s=1.2)
        rng = random.Random(7)
        draws = [sampler.sample(rng) for _ in range(4000)]
        assert all(1 <= value <= 1_000_000 for value in draws)
        head = sum(1 for value in draws if value <= 10)
        assert head > len(draws) * 0.3  # the hot set dominates

    def test_zipf_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ZipfSampler(n=0)
        with pytest.raises(ValueError):
            ZipfSampler(n=10, s=1.0)

    def test_open_loop_workload_drives_the_graph(self):
        sim, runtime = build_runtime(bookinfo_graph())
        workload = MeshWorkload(
            sim,
            runtime,
            MeshWorkloadConfig(
                users=1_000_000,
                base_rps=500.0,
                duration_s=0.2,
                diurnal_amplitude=0.3,
                diurnal_period_s=0.1,
                priority_high_ratio=0.25,
                seed=3,
            ),
        )
        metrics = workload.run(drain_s=0.2)
        assert metrics.issued > 50
        assert metrics.completed == metrics.issued  # open loop drains
        assert metrics.goodput_ratio() == 1.0
        # both priority tiers were issued and accounted separately
        assert set(metrics.issued_by_priority) == {0, 1}
        assert metrics.goodput_ratio(priority=1) == 1.0

    def test_diurnal_amplitude_zero_is_flat_poisson(self):
        sim, runtime = build_runtime(bookinfo_graph())
        workload = MeshWorkload(
            sim,
            runtime,
            MeshWorkloadConfig(
                base_rps=400.0, duration_s=0.1, diurnal_amplitude=0.0
            ),
        )
        assert workload._rate(0.0) == workload._rate(0.05) == 400.0
        metrics = workload.run(drain_s=0.1)
        assert metrics.issued > 10
