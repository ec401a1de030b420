"""Delivery-guarantee tests (paper Q1): ordered/reliable flags shape
the wire format and the transport — and their absence keeps headers
minimal."""

import pytest

from repro.compiler.compiler import AdnCompiler
from repro.compiler.headers import guarantee_fields, plan_hop_headers
from repro.control.controller import AdnController
from repro.control.k8s import MiniKube
from repro.dsl import FieldType, FunctionRegistry, RpcSchema, load_stdlib
from repro.dsl.ast_nodes import ChainDecl, GuaranteeDecl
from repro.runtime import AdnMrpcStack
from repro.runtime.message import reset_rpc_ids
from repro.sim import ClosedLoopClient, Simulator, two_machine_cluster

SCHEMA = RpcSchema.of(
    "t", payload=FieldType.BYTES, username=FieldType.STR, obj_id=FieldType.INT
)


def compiled_chain(*names):
    registry = FunctionRegistry()
    program = load_stdlib(schema=SCHEMA)
    compiler = AdnCompiler(registry=registry)
    decl = ChainDecl(src="A", dst="B", elements=tuple(names))
    return compiler.compile_chain(decl, program, SCHEMA), registry


class TestGuaranteeFields:
    def test_none_adds_nothing(self):
        assert guarantee_fields(None) == {}
        assert guarantee_fields(GuaranteeDecl()) == {}

    def test_ordered_adds_seq(self):
        fields = guarantee_fields(GuaranteeDecl(ordered=True))
        assert set(fields) == {"seq"}

    def test_reliable_adds_ack(self):
        fields = guarantee_fields(GuaranteeDecl(reliable=True))
        assert set(fields) == {"ack"}

    def test_both(self):
        fields = guarantee_fields(GuaranteeDecl(reliable=True, ordered=True))
        assert set(fields) == {"seq", "ack"}


class TestHeaderImpact:
    def test_guarantees_grow_the_header(self):
        chain, _registry = compiled_chain("Acl")
        bare = plan_hop_headers(chain.ir, SCHEMA, [0])[0].layout
        full = plan_hop_headers(
            chain.ir,
            SCHEMA,
            [0],
            guarantees=GuaranteeDecl(reliable=True, ordered=True),
        )[0].layout
        assert "seq" in full.field_names
        assert "ack" in full.field_names
        assert "seq" not in bare.field_names
        assert full.min_size_bytes() > bare.min_size_bytes()

    def test_response_direction_plan(self):
        chain, _registry = compiled_chain("Logging", "Acl")
        response_plan = plan_hop_headers(
            chain.ir, SCHEMA, [1], kind="response"
        )[0]
        # the logger's response handler reads rpc_id and payload — both
        # must survive the return crossing
        assert "rpc_id" in response_plan.needed_fields
        assert "payload" in response_plan.needed_fields


class TestOrderedTransport:
    def run_stack(self, guarantees):
        reset_rpc_ids()
        chain, registry = compiled_chain("Logging", "Acl", "Fault")
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        stack = AdnMrpcStack(
            sim, cluster, chain, SCHEMA, registry, guarantees=guarantees
        )
        client = ClosedLoopClient(
            sim, stack.call, concurrency=8, total_rpcs=300
        )
        metrics = client.run()
        return stack, metrics

    def test_ordered_assigns_monotonic_seq(self):
        stack, metrics = self.run_stack(GuaranteeDecl(ordered=True))
        assert metrics.completed == 300
        assert stack._next_seq > 0
        assert stack.out_of_order_detected == 0  # FIFO underlay

    def test_unordered_has_no_seq_machinery(self):
        stack, metrics = self.run_stack(None)
        assert metrics.completed == 300
        assert stack._next_seq == 0
        assert "seq" not in stack.hop_plan.layout.field_names

    def test_guaranteed_wire_costs_more(self):
        bare_stack, _m1 = self.run_stack(None)
        full_stack, _m2 = self.run_stack(
            GuaranteeDecl(reliable=True, ordered=True)
        )
        assert full_stack.wire_bytes_total > bare_stack.wire_bytes_total


class TestControllerIntegration:
    APP = """
    app Shop {
        service A;
        service B;
        chain A -> B { Acl }
        guarantee reliable ordered;
    }
    """

    def test_guarantees_flow_from_app_spec(self):
        reset_rpc_ids()
        kube = MiniKube()
        controller = AdnController(kube, SCHEMA)
        kube.apply_adn_config("shop", self.APP, "Shop")
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        stack = controller.install_stack(sim, cluster, "A", "B")
        assert stack.guarantees is not None
        assert stack.guarantees.ordered
        assert "seq" in stack.hop_plan.layout.field_names
        client = ClosedLoopClient(sim, stack.call, concurrency=4, total_rpcs=100)
        metrics = client.run()
        assert metrics.completed == 100
        assert stack.out_of_order_detected == 0
