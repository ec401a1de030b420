"""Offload substrate tests: device capacity model, split-chain
compilation (empty / partial / whole-chain / fused-straddle /
capacity-overflow splits), the nic backend, graph-edge offload wiring,
NIC shed economics, ADN406 on both front ends, and the CLI."""

import json

import pytest

from repro.compiler.backends import NicBackend, make_backends
from repro.compiler.compiler import AdnCompiler
from repro.control.placement import SWITCH_LOCATION
from repro.dsl import (
    DEFAULT_REGISTRY,
    FieldType,
    FunctionRegistry,
    RpcSchema,
    load_stdlib,
    parse,
)
from repro.dsl.ast_nodes import ChainDecl
from repro.dsl.parser import parse_element
from repro.dsl.validator import validate_element, validate_program
from repro.errors import GraphError
from repro.ir.analysis import analyze_element
from repro.ir.builder import build_element_ir
from repro.ir.optimizer import OptimizerOptions
from repro.offload import (
    DEVICE_PROFILES,
    chain_table_bytes,
    check_capacity,
    device_profile_for,
    element_table_bytes,
    solve_offload_plan,
    split_chain,
)
from repro.offload.device import (
    DEFAULT_TABLE_ENTRIES,
    RINGBUF_BYTES,
    element_registers,
)
from repro.platforms import Platform

SCHEMA = RpcSchema.of(
    "t", payload=FieldType.BYTES, username=FieldType.STR, obj_id=FieldType.INT
)

#: ebpf-subset-legal element whose single keyed table (10M rows x 40 B)
#: overflows every device profile but fits host memory fine
BIG_TABLE_SRC = """
element BigTable {
    state seen (username: str KEY, hits: int);
    meta { table_entries: 10000000; }
    on request {
        UPDATE seen SET hits = 1 WHERE username == input.username;
        SELECT * FROM input;
    }
}
"""


@pytest.fixture(scope="module")
def program():
    return load_stdlib(schema=SCHEMA)


@pytest.fixture(scope="module")
def big_program():
    merged = load_stdlib(schema=SCHEMA).merged(parse(BIG_TABLE_SRC))
    return validate_program(merged, schema=SCHEMA)


@pytest.fixture(scope="module")
def compiler():
    return AdnCompiler(registry=FunctionRegistry())


def compile_chain(compiler, program, elements):
    return compiler.compile_chain(
        ChainDecl(src="A", dst="B", elements=tuple(elements)),
        program,
        SCHEMA,
    )


def ir_of(program, name):
    ir = build_element_ir(program.elements[name])
    analyze_element(ir, DEFAULT_REGISTRY)
    return ir


def custom_ir(source):
    ir = build_element_ir(validate_element(parse_element(source)))
    analyze_element(ir, DEFAULT_REGISTRY)
    return ir


class TestDeviceModel:
    def test_profiles_cover_hardware_and_kernel(self):
        assert set(DEVICE_PROFILES) == {
            Platform.SMARTNIC,
            Platform.SWITCH_P4,
            Platform.KERNEL_EBPF,
        }
        nic = DEVICE_PROFILES[Platform.SMARTNIC]
        kernel = DEVICE_PROFILES[Platform.KERNEL_EBPF]
        # the PR's de-conflation: the kernel's eBPF is not the NIC's —
        # same instruction subset, very different capacity envelope
        assert kernel.table_bytes > nic.table_bytes
        assert kernel.registers > nic.registers
        assert kernel.pipeline_stages > nic.pipeline_stages

    def test_device_profile_for_software_is_none(self):
        assert device_profile_for(Platform.MRPC) is None
        assert device_profile_for(Platform.RPC_LIB) is None

    def test_platform_capabilities_property(self):
        assert (
            Platform.SMARTNIC.capabilities
            is DEVICE_PROFILES[Platform.SMARTNIC]
        )
        assert (
            Platform.SWITCH_P4.capabilities
            is DEVICE_PROFILES[Platform.SWITCH_P4]
        )

    def test_recirculations(self):
        nic = DEVICE_PROFILES[Platform.SMARTNIC]
        assert nic.recirculations(0) == 0
        assert nic.recirculations(nic.pipeline_stages) == 0
        assert nic.recirculations(nic.pipeline_stages + 1) == 1
        assert nic.recirculations(2 * nic.pipeline_stages + 1) == 2

    def test_keyed_table_estimate(self, program):
        # Acl: ac_tab(username str KEY, permission str) = 64 B rows
        ir = ir_of(program, "Acl")
        assert element_table_bytes(ir) == DEFAULT_TABLE_ENTRIES * (32 + 32)

    def test_table_entries_meta_overrides_estimate(self):
        small = custom_ir(
            """
element Tiny {
    state seen (username: str KEY, hits: int);
    meta { table_entries: 100; }
    on request {
        UPDATE seen SET hits = 1 WHERE username == input.username;
        SELECT * FROM input;
    }
}
"""
        )
        assert element_table_bytes(small) == 100 * (32 + 8)

    def test_append_table_costs_one_ringbuf(self, program):
        # Logging's audit log is append-only: ring buffer, not a map
        ir = ir_of(program, "Logging")
        assert element_table_bytes(ir) == RINGBUF_BYTES

    def test_register_estimate_counts_vars(self, program):
        assert element_registers(ir_of(program, "Acl")) == len(
            ir_of(program, "Acl").vars
        )

    def test_check_capacity_reports_violations(self):
        big = custom_ir(BIG_TABLE_SRC)
        report = check_capacity(DEVICE_PROFILES[Platform.SMARTNIC], [big])
        assert not report.fits
        assert report.table_bytes == chain_table_bytes([big])
        assert any("table" in v for v in report.violations)

    def test_check_capacity_fits(self, program):
        report = check_capacity(
            DEVICE_PROFILES[Platform.SMARTNIC], [ir_of(program, "Acl")]
        )
        assert report.fits and not report.violations


class TestNicBackend:
    def test_backend_registered(self):
        backends = make_backends(DEFAULT_REGISTRY)
        assert isinstance(backends["nic"], NicBackend)

    def test_smartnic_maps_to_nic_backend(self):
        assert Platform.SMARTNIC.backend_name == "nic"
        assert Platform.KERNEL_EBPF.backend_name == "ebpf"

    def test_capacity_folds_into_legality(self):
        big = custom_ir(BIG_TABLE_SRC)
        backends = make_backends(DEFAULT_REGISTRY)
        # legal for the kernel's eBPF, too big for the NIC's
        assert backends["ebpf"].check(big).legal
        report = backends["nic"].check(big)
        assert not report.legal
        assert any("device capacity" in v for v in report.violations)

    def test_emit_labels_smartnic(self, program):
        backends = make_backends(DEFAULT_REGISTRY)
        artifact = backends["nic"].emit(ir_of(program, "Acl"))
        assert artifact.backend == "nic"
        assert "SmartNIC" in artifact.source.splitlines()[0]


class TestSplitChain:
    def test_whole_chain_offload(self, compiler, program):
        chain = compile_chain(compiler, program, ("Acl", "Logging"))
        decision = split_chain(chain, SCHEMA, "nic")
        assert decision.prefix == ("Acl", "Logging")
        assert decision.suffix == ()
        assert decision.boundary_reason == ""
        assert decision.offloaded
        assert decision.verdict is not None
        assert decision.verdict.ok is not False

    def test_partial_prefix_stops_at_payload_element(
        self, compiler, program
    ):
        chain = compile_chain(
            compiler, program, ("Acl", "Logging", "Compression")
        )
        decision = split_chain(chain, SCHEMA, "nic")
        assert decision.prefix == ("Acl", "Logging")
        assert decision.suffix == ("Compression",)
        assert "Compression" in decision.boundary_reason

    def test_empty_prefix_stays_on_host(self, compiler, program):
        # payload-bound from element one: nothing the NIC can take
        chain = compile_chain(compiler, program, ("Compression",))
        decision = split_chain(chain, SCHEMA, "nic")
        assert decision.prefix == ()
        assert not decision.offloaded
        assert decision.verdict is None  # nothing to validate
        assert decision.suffix == tuple(chain.element_order)

    def test_fused_element_straddling_boundary_is_refused_whole(
        self, program
    ):
        fusing = AdnCompiler(
            registry=FunctionRegistry(),
            options=OptimizerOptions(fusion=True),
        )
        # without fusion this chain offloads whole (see
        # test_whole_chain_offload); fused it must stay on the host
        chain = compile_chain(fusing, program, ("Acl", "Logging"))
        (fused_name,) = chain.element_order
        assert "fused_from" in chain.elements[fused_name].ir.meta
        decision = split_chain(chain, SCHEMA, "nic")
        # the fused group contains only NIC-legal members, but backends
        # keep hardware programs per-element: the fusion pins the whole
        # group to the host rather than splitting it open
        assert decision.prefix == ()
        assert "fused element straddles the split boundary" in (
            decision.boundary_reason
        )

    def test_capacity_overflow_emits_adn406_and_falls_back(
        self, compiler, big_program
    ):
        chain = compile_chain(compiler, big_program, ("Acl", "BigTable"))
        decision = split_chain(chain, SCHEMA, "nic", path="<test>")
        assert decision.prefix == ("Acl",)
        assert decision.suffix == ("BigTable",)
        (diag,) = decision.diagnostics
        assert diag.code == "ADN406"
        assert diag.path == "<test>"
        assert "falling back to host placement" in diag.message

    def test_switch_tier_uses_p4_rules(self, compiler, program):
        chain = compile_chain(compiler, program, ("Acl", "Compression"))
        decision = split_chain(chain, SCHEMA, "switch")
        assert decision.platform is Platform.SWITCH_P4
        assert decision.prefix == ("Acl",)

    def test_unknown_tier_raises(self, compiler, program):
        chain = compile_chain(compiler, program, ("Acl",))
        with pytest.raises(ValueError):
            split_chain(chain, SCHEMA, "fpga")

    def test_decision_to_dict_is_json_clean(self, compiler, program):
        chain = compile_chain(compiler, program, ("Acl", "Compression"))
        decision = split_chain(chain, SCHEMA, "nic")
        payload = json.loads(json.dumps(decision.to_dict()))
        assert payload["prefix"] == ["Acl"]
        assert payload["tier"] == "nic"


class TestSolveOffloadPlan:
    def test_nic_plan_prefix_rides_server_machine(
        self, compiler, program
    ):
        chain = compile_chain(
            compiler, program, ("Acl", "Logging", "Compression")
        )
        plan, decision = solve_offload_plan(
            chain, SCHEMA, "nic", server_machine="node-7"
        )
        nic_segment, host_segment = plan.segments
        assert nic_segment.platform is Platform.SMARTNIC
        assert nic_segment.machine == "node-7"
        assert nic_segment.elements == ("Acl", "Logging")
        assert host_segment.platform is Platform.MRPC
        assert host_segment.machine == "node-7"
        assert host_segment.elements == ("Compression",)
        assert "prefix=2" in plan.description

    def test_switch_plan_runs_on_the_switch(self, compiler, program):
        chain = compile_chain(compiler, program, ("Acl",))
        plan, _ = solve_offload_plan(chain, SCHEMA, "switch")
        assert plan.segments[0].machine == SWITCH_LOCATION

    def test_host_fallback_is_a_plain_mrpc_plan(self, compiler, program):
        chain = compile_chain(compiler, program, ("Compression",))
        plan, decision = solve_offload_plan(chain, SCHEMA, "nic")
        assert not decision.offloaded
        (segment,) = plan.segments
        assert segment.platform is Platform.MRPC
        assert "host-fallback" in plan.description


class TestGraphOffload:
    def _graph(self, offload="nic", elements=("Acl", "Compression")):
        from repro.graph.model import GraphBuilder

        return (
            GraphBuilder("g")
            .service("a", machine="m0")
            .service("b", machine="m1")
            .edge("a", "b", elements=elements, offload=offload)
            .build()
        )

    def test_edge_offload_round_trips_through_dict(self):
        graph = self._graph()
        clone = type(graph).from_dict(graph.to_dict())
        assert clone.edge("a", "b").offload == "nic"
        plain = self._graph(offload=None)
        assert (
            type(plain).from_dict(plain.to_dict()).edge("a", "b").offload
            is None
        )

    def test_invalid_offload_tier_rejected(self):
        with pytest.raises(GraphError):
            self._graph(offload="fpga")

    def test_placement_produces_smartnic_segment(self, program):
        from repro.graph.placement import MachineSpec, solve_graph_placement

        graph = self._graph()
        placement = solve_graph_placement(
            graph,
            program,
            SCHEMA,
            machines=[MachineSpec("m0"), MachineSpec("m1")],
        )
        plan = placement.edge_plans[("a", "b")]
        assert plan.segments[0].platform is Platform.SMARTNIC
        assert plan.segments[0].machine == "m1"
        decision = placement.edge_offloads[("a", "b")]
        assert decision.prefix == ("Acl",)

    def test_cluster_provisions_the_nic(self, program):
        from repro.graph.placement import MachineSpec, solve_graph_placement
        from repro.graph.runtime import build_graph_cluster
        from repro.sim import Simulator

        placement = solve_graph_placement(
            self._graph(),
            program,
            SCHEMA,
            machines=[MachineSpec("m0"), MachineSpec("m1")],
        )
        cluster = build_graph_cluster(Simulator(), placement)
        assert cluster.machine("m1").smartnic_cores is not None
        assert cluster.machine("m0").smartnic_cores is None

    def test_overflowing_edge_falls_back_with_diagnostic(
        self, big_program
    ):
        from repro.graph.placement import MachineSpec, solve_graph_placement

        graph = self._graph(elements=("BigTable", "Acl"))
        placement = solve_graph_placement(
            graph,
            big_program,
            SCHEMA,
            machines=[MachineSpec("m0"), MachineSpec("m1")],
        )
        assert any(d.code == "ADN406" for d in placement.diagnostics)
        plan = placement.edge_plans[("a", "b")]
        assert all(
            segment.platform is not Platform.SMARTNIC
            for segment in plan.segments
        )


class TestNicShedEconomics:
    """The tentpole's point, in one RPC: work refused by the NIC never
    costs the host anything."""

    def _run_one(self, username):
        from repro.offload.sweep import build_offload_mesh
        from repro.runtime.message import reset_rpc_ids
        from repro.sim import Simulator

        reset_rpc_ids()
        sim = Simulator()
        runtime = build_offload_mesh(sim, "nic")
        holder = {}

        def driver():
            outcome = yield sim.process(
                runtime.entry_call(
                    payload=b"x", username=username, obj_id=1
                )
            )
            holder["outcome"] = outcome

        sim.process(driver())
        sim.run()
        server = runtime.cluster.machine("server-host")
        return holder["outcome"], server

    def test_nic_denial_burns_zero_host_cpu(self):
        # usr1 lacks write permission: the NIC-resident Acl aborts the
        # RPC before the host engine ever wakes up
        outcome, server = self._run_one("usr1")
        assert not outcome.ok
        assert server.cpu_busy_s() == 0.0
        assert server.smartnic_cores.busy_time > 0.0

    def test_admitted_rpc_still_reaches_the_host(self):
        outcome, server = self._run_one("usr2")
        assert outcome.ok
        assert server.cpu_busy_s() > 0.0


class TestOffloadLint:
    def test_dsl_rule_fires_only_with_hardware(self):
        from repro.control.placement import ClusterSpec
        from repro.lint import LintOptions, lint_source

        source = BIG_TABLE_SRC + """
app Offloaded {
    service A; service B;
    chain A -> B { BigTable }
}
"""
        nic_cluster = ClusterSpec(smartnics=True)
        with_nic = lint_source(
            source,
            options=LintOptions(schema=SCHEMA, cluster=nic_cluster),
        )
        found = [
            d for d in with_nic.diagnostics if d.code == "ADN406"
        ]
        assert found and "smartnic" in found[0].message
        without = lint_source(
            source, options=LintOptions(schema=SCHEMA)
        )
        assert not any(
            d.code == "ADN406" for d in without.diagnostics
        )

    def test_explain_has_adn406(self):
        from repro.lint.explain import explain_rule

        text = explain_rule("ADN406")
        assert text is not None and "table_entries" in text

    def test_spec_side_check_reuses_solver_diagnostics(
        self, big_program
    ):
        from repro.graph.lint import check_offload_capacity
        from repro.graph.model import GraphBuilder

        graph = (
            GraphBuilder("g")
            .edge("a", "b", elements=("Acl", "BigTable"), offload="nic")
            .build()
        )
        diags = check_offload_capacity(
            graph, big_program, SCHEMA, path="<spec>"
        )
        assert [d.code for d in diags] == ["ADN406"]
        assert diags[0].path.startswith("<spec>")
        fitting = (
            GraphBuilder("g2")
            .edge("a", "b", elements=("Acl",), offload="nic")
            .build()
        )
        assert (
            check_offload_capacity(fitting, big_program, SCHEMA) == []
        )

    def test_table_entries_is_a_known_meta_key(self):
        # validated at parse time, so the ADN406 estimate is never fed
        # by a typo'd key silently defaulting
        validate_element(
            parse_element(
                """
element M {
    state t (k: str KEY, v: int);
    meta { table_entries: 10; }
    on request { SELECT * FROM input; }
}
"""
            )
        )


class TestOffloadCli:
    def test_offload_command_writes_stable_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "offload.json"
        code = main(
            [
                "offload",
                "--duration",
                "0.02",
                "--multipliers",
                "3.0",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "shed at nic" in text
        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "offload"
        assert payload["schema_version"] == 1
        assert set(payload["results"]) == {"server", "nic"}
        point = payload["results"]["nic"][0]
        assert point["offloaded_prefix"] == ["Acl", "Logging"]
        assert point["multiplier"] == 3.0

    def test_overload_json_flag(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "overload.json"
        code = main(
            [
                "overload",
                "--duration",
                "0.02",
                "--multipliers",
                "0.5,1.0",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "overload"
        assert payload["schema_version"] == 1
        assert {"baseline", "protected"} == set(payload["results"])

    def test_faults_json_flag(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "faults.json"
        code = main(["faults", "--rpcs", "400", "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "faults"
        assert payload["results"]["recovery"] is not None
        assert payload["results"]["issued"] >= 400

    def test_compile_emits_nic_source(self, tmp_path, capsys):
        from repro.cli import main

        empty = tmp_path / "empty.adn"
        empty.write_text("")
        code = main(
            [
                "compile",
                str(empty),
                "--element",
                "Acl",
                "--emit",
                "nic",
            ]
        )
        assert code == 0
        assert "SmartNIC" in capsys.readouterr().out
