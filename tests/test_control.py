"""Control-plane tests: mini cluster manager, placement solver,
controller reconciliation, hot updates."""

import pytest

from repro.compiler.compiler import AdnCompiler
from repro.control.controller import AdnController
from repro.control.k8s import (
    ADDED,
    DELETED,
    KIND_ADN_CONFIG,
    KIND_DEPLOYMENT,
    MODIFIED,
    MiniKube,
)
from repro.control.placement import ClusterSpec, PlacementRequest, solve_placement
from repro.dsl import FieldType, FunctionRegistry, RpcSchema, load_stdlib
from repro.dsl.ast_nodes import ChainDecl
from repro.errors import ControlPlaneError, PlacementError
from repro.platforms import Platform
from repro.runtime.message import reset_rpc_ids
from repro.sim import ClosedLoopClient, Simulator, two_machine_cluster

SCHEMA = RpcSchema.of(
    "t", payload=FieldType.BYTES, username=FieldType.STR, obj_id=FieldType.INT
)

APP = """
app Store {
    service A;
    service B replicas 2;
    chain A -> B { LbKeyHash, Logging, Acl, Fault }
}
"""


def compiled_chain(*names, registry=None):
    registry = registry or FunctionRegistry()
    program = load_stdlib(schema=SCHEMA)
    compiler = AdnCompiler(registry=registry)
    decl = ChainDecl(src="A", dst="B", elements=tuple(names))
    return compiler.compile_chain(decl, program, SCHEMA)


class TestMiniKube:
    def test_apply_get_list(self):
        kube = MiniKube()
        kube.apply_deployment("B", 2)
        obj = kube.get(KIND_DEPLOYMENT, "B")
        assert obj.spec["replicas"] == 2
        assert [o.name for o in kube.list(KIND_DEPLOYMENT)] == ["B"]

    def test_versions_increase(self):
        kube = MiniKube()
        first = kube.apply_deployment("B", 1)
        second = kube.apply_deployment("B", 2)
        assert second.version > first.version

    def test_watch_events(self):
        kube = MiniKube()
        events = []
        kube.watch(lambda event, obj: events.append((event, obj.name)))
        kube.apply_deployment("B", 1)
        kube.apply_deployment("B", 2)
        kube.delete(KIND_DEPLOYMENT, "B")
        assert events == [(ADDED, "B"), (MODIFIED, "B"), (DELETED, "B")]

    def test_watch_level_triggered(self):
        kube = MiniKube()
        kube.apply_deployment("B", 1)
        events = []
        kube.watch(lambda event, obj: events.append(event))
        assert events == [ADDED]

    def test_watch_kind_filter(self):
        kube = MiniKube()
        events = []
        kube.watch(
            lambda event, obj: events.append(obj.kind), kinds=[KIND_ADN_CONFIG]
        )
        kube.apply_deployment("B", 1)
        kube.apply_adn_config("cfg", "-- src", "App")
        assert events == [KIND_ADN_CONFIG]

    def test_unsubscribe(self):
        kube = MiniKube()
        events = []
        unsubscribe = kube.watch(lambda e, o: events.append(e))
        unsubscribe()
        kube.apply_deployment("B", 1)
        assert events == []

    def test_unknown_kind_rejected(self):
        kube = MiniKube()
        with pytest.raises(ControlPlaneError):
            kube.apply("Gadget", "g", {})

    def test_delete_missing(self):
        kube = MiniKube()
        with pytest.raises(ControlPlaneError):
            kube.delete(KIND_DEPLOYMENT, "ghost")

    def test_replicas_validated(self):
        kube = MiniKube()
        with pytest.raises(ControlPlaneError):
            kube.apply_deployment("B", 0)


class TestPlacementSolver:
    def test_software_strategy_single_engine_segment(self):
        chain = compiled_chain("Logging", "Acl", "Fault")
        plan = solve_placement(PlacementRequest(chain=chain, schema=SCHEMA))
        assert len(plan.segments) == 1
        assert plan.segments[0].platform is Platform.MRPC
        assert plan.segments[0].machine == "client-host"

    def test_inapp_strategy_uses_rpclib(self):
        chain = compiled_chain("LbKeyHash", "Compression")
        plan = solve_placement(
            PlacementRequest(chain=chain, schema=SCHEMA, strategy="inapp")
        )
        assert all(
            seg.platform is Platform.RPC_LIB for seg in plan.segments
        )
        assert plan.client_transport == "proxyless"

    def test_mandatory_element_never_in_app(self):
        chain = compiled_chain("Acl")  # meta mandatory: true
        plan = solve_placement(
            PlacementRequest(chain=chain, schema=SCHEMA, strategy="inapp")
        )
        assert plan.segments[0].platform is not Platform.RPC_LIB

    def test_offload_uses_switch_when_available(self):
        chain = compiled_chain("Acl", "Fault")
        plan = solve_placement(
            PlacementRequest(
                chain=chain,
                schema=SCHEMA,
                strategy="offload",
                cluster=ClusterSpec(programmable_switch=True, smartnics=True),
            )
        )
        platforms = {seg.platform for seg in plan.segments}
        assert Platform.SWITCH_P4 in platforms

    def test_offload_without_hardware_falls_back(self):
        chain = compiled_chain("Acl", "Fault")
        plan = solve_placement(
            PlacementRequest(
                chain=chain,
                schema=SCHEMA,
                strategy="offload",
                cluster=ClusterSpec(programmable_switch=False, smartnics=False),
            )
        )
        platforms = {seg.platform for seg in plan.segments}
        assert Platform.SWITCH_P4 not in platforms
        assert Platform.SMARTNIC not in platforms

    def test_payload_element_stays_in_software(self):
        chain = compiled_chain("Compression")
        plan = solve_placement(
            PlacementRequest(
                chain=chain,
                schema=SCHEMA,
                strategy="offload",
                cluster=ClusterSpec(programmable_switch=True, smartnics=True),
            )
        )
        assert plan.segments[0].platform in (
            Platform.MRPC,
            Platform.RPC_LIB,
        )

    def test_position_meta_respected(self):
        chain = compiled_chain("Compression", "Decompression")
        plan = solve_placement(PlacementRequest(chain=chain, schema=SCHEMA))
        locations = plan.element_locations()
        assert locations["Compression"][1] == "client-host"
        assert locations["Decompression"][1] == "server-host"

    def test_colocate_override(self):
        chain = compiled_chain("Logging")
        plan = solve_placement(
            PlacementRequest(
                chain=chain,
                schema=SCHEMA,
                colocate={"Logging": "receiver"},
            )
        )
        assert plan.element_locations()["Logging"][1] == "server-host"

    def test_path_monotonicity(self):
        chain = compiled_chain("Compression", "Acl", "Decompression")
        plan = solve_placement(
            PlacementRequest(
                chain=chain,
                schema=SCHEMA,
                strategy="offload",
                cluster=ClusterSpec(programmable_switch=True, smartnics=True),
            )
        )
        from repro.control.placement import _PATH_POSITION

        positions = []
        for segment in plan.segments:
            side = (
                "switch"
                if segment.machine == "switch"
                else ("client" if segment.machine == "client-host" else "server")
            )
            positions.append(_PATH_POSITION[(side, segment.platform)])
        assert positions == sorted(positions)

    def test_scaleout_strategy_replicates(self):
        chain = compiled_chain("Logging", "Acl", "Fault")
        plan = solve_placement(
            PlacementRequest(
                chain=chain, schema=SCHEMA, strategy="scaleout", replicas=4
            )
        )
        assert plan.segments[0].replicas == 4

    def test_unknown_strategy(self):
        chain = compiled_chain("Acl")
        with pytest.raises(PlacementError):
            solve_placement(
                PlacementRequest(chain=chain, schema=SCHEMA, strategy="magic")
            )

    def test_outside_app_request(self):
        chain = compiled_chain("Logging")
        plan = solve_placement(
            PlacementRequest(
                chain=chain,
                schema=SCHEMA,
                strategy="inapp",
                outside_app=("Logging",),
            )
        )
        assert plan.segments[0].platform is not Platform.RPC_LIB


class TestController:
    def test_reconcile_on_config(self):
        kube = MiniKube()
        controller = AdnController(kube, SCHEMA)
        kube.apply_adn_config("cfg", APP, "Store")
        assert ("A", "B") in controller.installed
        chain = controller.installed[("A", "B")].chain
        assert set(chain.element_order) == {"LbKeyHash", "Logging", "Acl", "Fault"}

    def test_install_and_run(self):
        reset_rpc_ids()
        kube = MiniKube()
        controller = AdnController(kube, SCHEMA)
        kube.apply_deployment("B", 2)
        kube.apply_adn_config("cfg", APP, "Store")
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        stack = controller.install_stack(sim, cluster, "A", "B")
        client = ClosedLoopClient(sim, stack.call, concurrency=8, total_rpcs=200)
        metrics = client.run()
        assert metrics.completed == 200

    def test_deployment_change_updates_endpoints_live(self):
        reset_rpc_ids()
        kube = MiniKube()
        controller = AdnController(kube, SCHEMA)
        kube.apply_deployment("B", 2)
        kube.apply_adn_config("cfg", APP, "Store")
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        stack = controller.install_stack(sim, cluster, "A", "B")
        kube.apply_deployment("B", 4)
        lb_table = stack.processors[0].element_state("LbKeyHash").table(
            "endpoints"
        )
        assert len(lb_table) == 4

    def test_hot_update_preserves_state(self):
        reset_rpc_ids()
        kube = MiniKube()
        controller = AdnController(kube, SCHEMA)
        kube.apply_adn_config("cfg", APP, "Store")
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        stack = controller.install_stack(sim, cluster, "A", "B")
        # run some traffic so the logger accumulates state
        client = ClosedLoopClient(sim, stack.call, concurrency=4, total_rpcs=50)
        client.run()
        log_before = len(
            stack.processors[0].element_state("Logging").table("log_tab")
        )
        assert log_before > 0
        # re-apply the same program: hot update, state carried over
        kube.apply_adn_config("cfg", APP, "Store")
        installed = controller.installed[("A", "B")]
        assert installed.stack is stack
        log_after = len(
            stack.processors[0].element_state("Logging").table("log_tab")
        )
        assert log_after == log_before

    def test_config_delete_uninstalls(self):
        kube = MiniKube()
        controller = AdnController(kube, SCHEMA)
        kube.apply_adn_config("cfg", APP, "Store")
        kube.delete(KIND_ADN_CONFIG, "cfg")
        assert controller.installed == {}

    def test_install_unknown_chain(self):
        kube = MiniKube()
        controller = AdnController(kube, SCHEMA)
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        with pytest.raises(ControlPlaneError):
            controller.install_stack(sim, cluster, "X", "Y")

    def test_history_recorded(self):
        kube = MiniKube()
        controller = AdnController(kube, SCHEMA)
        kube.apply_adn_config("cfg", APP, "Store")
        kube.apply_deployment("B", 3)
        assert controller.generation >= 2
        assert any(
            "installed chain" in action
            for record in controller.history
            for action in record.actions
        )


class TestControllerResilience:
    def test_bad_config_rejected_keeps_old(self):
        kube = MiniKube()
        controller = AdnController(kube, SCHEMA)
        kube.apply_adn_config("cfg", APP, "Store")
        assert ("A", "B") in controller.installed
        old_chain = controller.installed[("A", "B")].chain
        # a syntactically broken update must not dislodge the running app
        kube.apply_adn_config("cfg", "element Broken {", "Store")
        assert controller.installed[("A", "B")].chain is old_chain
        assert any(
            "REJECTED" in action
            for record in controller.history
            for action in record.actions
        )

    def test_semantically_bad_config_rejected(self):
        kube = MiniKube()
        controller = AdnController(kube, SCHEMA)
        bad = """
        app Store {
            service A; service B;
            chain A -> B { Ghost }
        }
        """
        kube.apply_adn_config("cfg", bad, "Store")
        assert controller.installed == {}
        assert any(
            "REJECTED" in action
            for record in controller.history
            for action in record.actions
        )

    def test_strategy_from_config(self):
        from repro.control.placement import ClusterSpec
        from repro.platforms import Platform

        kube = MiniKube()
        controller = AdnController(
            kube,
            SCHEMA,
            cluster_spec=ClusterSpec(
                smartnics=True, programmable_switch=True
            ),
        )
        app = """
        app Store {
            service A; service B;
            chain A -> B { Acl, Fault }
        }
        """
        kube.apply_adn_config("cfg", app, "Store", strategy="offload")
        plan = controller.installed[("A", "B")].plan
        platforms = {seg.platform for seg in plan.segments}
        assert Platform.SWITCH_P4 in platforms
