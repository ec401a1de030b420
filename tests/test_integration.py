"""Integration tests: the full pipeline (DSL source → controller →
placement → simulated data plane) and the Figure 2 configurations."""

import pytest

from repro.compiler.compiler import AdnCompiler
from repro.control.controller import AdnController
from repro.control.k8s import MiniKube
from repro.control.placement import ClusterSpec, PlacementRequest, solve_placement
from repro.dsl import FieldType, FunctionRegistry, RpcSchema, load_stdlib
from repro.dsl.ast_nodes import ChainDecl
from repro.platforms import Platform
from repro.runtime import AdnMrpcStack
from repro.runtime.message import reset_rpc_ids
from repro.sim import ClosedLoopClient, Simulator, two_machine_cluster

SCHEMA = RpcSchema.of(
    "t", payload=FieldType.BYTES, username=FieldType.STR, obj_id=FieldType.INT
)


def compile_section2_chain(registry=None):
    registry = registry or FunctionRegistry()
    program = load_stdlib(schema=SCHEMA)
    compiler = AdnCompiler(registry=registry)
    decl = ChainDecl(
        src="A",
        dst="B",
        elements=("LbKeyHash", "Compression", "Decompression", "AccessControl"),
    )
    return compiler.compile_chain(decl, program, SCHEMA), registry


def run_stack(chain, registry, plan=None, cluster_kwargs=None, total=300,
              concurrency=16, seed_acl=True):
    reset_rpc_ids()
    sim = Simulator()
    cluster = two_machine_cluster(sim, **(cluster_kwargs or {}))
    stack = AdnMrpcStack(
        sim, cluster, chain, SCHEMA, registry, plan=plan, server_replicas=2
    )
    if seed_acl:
        for processor in stack.processors:
            if "AccessControl" in processor.segment.elements:
                table = processor.element_state("AccessControl").table("acl")
                for obj in range(50):
                    table.insert(
                        {"username": "usr2", "obj_id": obj * 997, "allowed": True}
                    )
    client = ClosedLoopClient(
        sim, stack.call, concurrency=concurrency, total_rpcs=total,
        fields_fn=lambda rng, i: {
            "payload": b"hello world " * 8,
            "username": "usr2",
            "obj_id": (i % 50) * 997,
        },
    )
    metrics = client.run()
    metrics.cpu_busy_s = cluster.cpu_busy_by_machine()
    return metrics, stack, cluster


class TestSection2Pipeline:
    """The §2 example app end to end: LB by object id, compression,
    access control — with payload integrity verified through the chain."""

    def test_payload_survives_compress_decompress(self):
        chain, registry = compile_section2_chain()
        metrics, stack, _cluster = run_stack(chain, registry, total=100)
        assert metrics.completed == 100
        # whitelist covers every issued obj_id → no aborts from ACL
        assert metrics.aborted == 0

    def test_lb_routes_to_replicas(self):
        chain, registry = compile_section2_chain()
        _metrics, stack, _cluster = run_stack(chain, registry, total=200)
        # the LB's endpoint table was seeded with B.1/B.2 by the stack
        lb_processor = next(
            p for p in stack.processors
            if "LbKeyHash" in p.segment.elements
        )
        table = lb_processor.element_state("LbKeyHash").table("endpoints")
        assert len(table) == 2

    def test_unauthorized_object_aborted(self):
        chain, registry = compile_section2_chain()
        reset_rpc_ids()
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        stack = AdnMrpcStack(sim, cluster, chain, SCHEMA, registry)
        # empty whitelist: everything denied
        process = sim.process(
            stack.call(payload=b"x", username="usr2", obj_id=1)
        )
        outcome = sim.run_until_complete(process)
        assert outcome.aborted_by == "AccessControl"


class TestFigure2Configurations:
    """The four realizations of the RPC processing chain (Figure 2)."""

    def solve(self, chain, strategy, cluster_spec=None, replicas=1):
        return solve_placement(
            PlacementRequest(
                chain=chain,
                schema=SCHEMA,
                strategy=strategy,
                cluster=cluster_spec or ClusterSpec(),
                replicas=replicas,
            )
        )

    def test_config1_in_app(self):
        chain, registry = compile_section2_chain()
        plan = self.solve(chain, "inapp")
        # everything runs in the RPC library except the mandatory ACL
        locations = plan.element_locations()
        assert locations["LbKeyHash"][0] is Platform.RPC_LIB
        assert locations["Compression"][0] is Platform.RPC_LIB
        assert locations["AccessControl"][0] is not Platform.RPC_LIB
        metrics, _stack, _cluster = run_stack(chain, registry, plan=plan)
        assert metrics.completed == 300

    def test_config2_kernel_and_nic(self):
        chain, registry = compile_section2_chain()
        spec = ClusterSpec(smartnics=True, programmable_switch=False)
        plan = self.solve(chain, "offload", spec)
        platforms = {seg.platform for seg in plan.segments}
        assert platforms & {Platform.KERNEL_EBPF, Platform.SMARTNIC}
        metrics, _stack, _cluster = run_stack(
            chain, registry, plan=plan, cluster_kwargs={"smartnics": True}
        )
        assert metrics.completed == 300

    def test_config3_switch_offload_with_reorder(self):
        chain, registry = compile_section2_chain()
        spec = ClusterSpec(smartnics=True, programmable_switch=True)
        plan = self.solve(chain, "offload", spec)
        locations = plan.element_locations()
        # the solver re-reordered the chain so the sender-pinned
        # compression runs first and the ACL lands on the ToR switch
        # (Figure 2 configuration 3)
        assert locations["AccessControl"][0] is Platform.SWITCH_P4
        traversal = [n for seg in plan.segments for n in seg.elements]
        assert traversal.index("Compression") < traversal.index("AccessControl")
        metrics, _stack, cluster = run_stack(
            chain,
            registry,
            plan=plan,
            cluster_kwargs={"smartnics": True, "programmable_switch": True},
        )
        assert metrics.completed == 300
        assert "AccessControl" in cluster.switch.installed_elements

    def test_config4_scale_out(self):
        chain, registry = compile_section2_chain()
        plan = self.solve(chain, "scaleout", replicas=4)
        engine_segments = [
            seg for seg in plan.segments if seg.platform is Platform.MRPC
        ]
        assert engine_segments
        assert all(seg.replicas == 4 for seg in engine_segments)
        metrics, _stack, _cluster = run_stack(chain, registry, plan=plan)
        assert metrics.completed == 300

    def test_offload_reduces_host_cpu(self):
        chain, registry = compile_section2_chain()
        software_plan = self.solve(chain, "software")
        metrics_sw, _s, _c = run_stack(chain, registry, plan=software_plan)
        chain2, registry2 = compile_section2_chain()
        spec = ClusterSpec(smartnics=True, programmable_switch=True)
        offload_plan = self.solve(chain2, "offload", spec)
        metrics_off, _s2, _c2 = run_stack(
            chain2,
            registry2,
            plan=offload_plan,
            cluster_kwargs={"smartnics": True, "programmable_switch": True},
        )
        assert metrics_off.cpu_us_per_rpc() < metrics_sw.cpu_us_per_rpc()


class TestControllerEndToEnd:
    APP = """
    app Store {
        service A;
        service B replicas 2;
        chain A -> B { LbKeyHash, Logging, Acl, Fault }
    }
    """

    def test_full_lifecycle(self):
        reset_rpc_ids()
        kube = MiniKube()
        controller = AdnController(kube, SCHEMA)
        kube.apply_deployment("B", 2)
        kube.apply_adn_config("store", self.APP, "Store")
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        stack = controller.install_stack(sim, cluster, "A", "B")
        client = ClosedLoopClient(sim, stack.call, concurrency=16, total_rpcs=400)
        metrics = client.run()
        assert metrics.completed == 400
        # scale the deployment; traffic continues and spreads wider
        kube.apply_deployment("B", 3)
        client2 = ClosedLoopClient(
            sim, stack.call, concurrency=16, total_rpcs=400, seed=2
        )
        metrics2 = client2.run()
        assert metrics2.completed == 400
        lb_state = None
        for processor in stack.processors:
            if "LbKeyHash" in processor.segment.elements:
                lb_state = processor.element_state("LbKeyHash")
        assert lb_state is not None
        assert len(lb_state.table("endpoints")) == 3
