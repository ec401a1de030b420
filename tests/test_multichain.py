"""Multi-chain apps: one controller managing several service pairs,
each with its own chain and placement (a microservice graph, not just a
client/server pair)."""

import pytest

from repro.control.controller import AdnController
from repro.control.k8s import MiniKube
from repro.dsl import FieldType, RpcSchema
from repro.runtime.message import reset_rpc_ids
from repro.sim import ClosedLoopClient, Simulator, two_machine_cluster

SCHEMA = RpcSchema.of(
    "shop", payload=FieldType.BYTES, username=FieldType.STR, obj_id=FieldType.INT
)

APP = """
app Shop {
    service frontend;
    service cart replicas 2;
    service inventory replicas 3;
    chain frontend -> cart { Logging, Acl }
    chain cart -> inventory { LbKeyHash, Fault }
    constrain Acl outside_app;
}
"""


@pytest.fixture
def controller():
    kube = MiniKube()
    controller = AdnController(kube, SCHEMA)
    kube.apply_deployment("cart", 2)
    kube.apply_deployment("inventory", 3)
    kube.apply_adn_config("shop", APP, "Shop")
    return kube, controller


class TestMultiChain:
    def test_both_chains_installed(self, controller):
        _kube, ctrl = controller
        assert ("frontend", "cart") in ctrl.installed
        assert ("cart", "inventory") in ctrl.installed
        first = ctrl.installed[("frontend", "cart")].chain
        second = ctrl.installed[("cart", "inventory")].chain
        assert set(first.element_order) == {"Logging", "Acl"}
        assert set(second.element_order) == {"LbKeyHash", "Fault"}

    def test_chains_run_independently(self, controller):
        _kube, ctrl = controller
        reset_rpc_ids()
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        front_stack = ctrl.install_stack(sim, cluster, "frontend", "cart")
        metrics = ClosedLoopClient(
            sim, front_stack.call, concurrency=8, total_rpcs=300
        ).run()
        assert metrics.completed == 300

        # the second chain gets its own simulated hosts (a different
        # machine pair in the same DC)
        sim2 = Simulator()
        cluster2 = two_machine_cluster(sim2)
        reset_rpc_ids()
        cart_stack = ctrl.install_stack(sim2, cluster2, "cart", "inventory")
        metrics2 = ClosedLoopClient(
            sim2, cart_stack.call, concurrency=8, total_rpcs=300
        ).run()
        assert metrics2.completed == 300

    def test_lb_endpoints_match_each_service(self, controller):
        kube, ctrl = controller
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        reset_rpc_ids()
        stack = ctrl.install_stack(sim, cluster, "cart", "inventory")
        table = None
        for processor in stack.processors:
            if "LbKeyHash" in processor.segment.elements:
                table = processor.element_state("LbKeyHash").table("endpoints")
        assert table is not None
        assert sorted(row["replica"] for row in table.rows()) == [
            "inventory.1",
            "inventory.2",
            "inventory.3",
        ]

    def test_deployment_change_targets_right_chain(self, controller):
        kube, ctrl = controller
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        reset_rpc_ids()
        stack = ctrl.install_stack(sim, cluster, "cart", "inventory")
        kube.apply_deployment("inventory", 5)
        table = None
        for processor in stack.processors:
            if "LbKeyHash" in processor.segment.elements:
                table = processor.element_state("LbKeyHash").table("endpoints")
        assert len(table) == 5
        # scaling `cart` must not disturb the inventory LB
        kube.apply_deployment("cart", 4)
        assert len(table) == 5

    def test_per_chain_placement(self, controller):
        _kube, ctrl = controller
        first_plan = ctrl.installed[("frontend", "cart")].plan
        second_plan = ctrl.installed[("cart", "inventory")].plan
        assert first_plan is not second_plan
        assert first_plan.segments
        assert second_plan.segments
