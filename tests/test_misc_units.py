"""Unit tests for helpers not covered elsewhere: expression utilities,
error hierarchy, platform metadata, resource groups, stage costing."""

import pytest

from repro.dsl import FieldType, FunctionRegistry, RpcSchema, load_stdlib
from repro.dsl.parser import Parser
from repro.errors import (
    AdnError,
    BackendError,
    CompileError,
    ControlPlaneError,
    DslSyntaxError,
    DslValidationError,
    HeaderLayoutError,
    PlacementError,
    RpcAborted,
    RuntimeFault,
    SimulationError,
    StateError,
)
from repro.ir.analysis import analyze_element
from repro.ir.builder import build_element_ir
from repro.ir.expr_utils import collect_refs, expr_cost_us, is_deterministic, op_count
from repro.ir.passes.parallelize import parallel_stages, stage_cost_us
from repro.platforms import (
    Platform,
    RESTRICTED_PLATFORMS,
    SOFTWARE_PLATFORMS,
)
from repro.sim import Resource, ResourceGroup, Simulator


def expr(text):
    return Parser(text).parse_expr()


class TestExprUtils:
    def test_collect_refs_fields_and_tables(self):
        refs = collect_refs(expr("input.a + t.b * hash(input.c)"))
        assert refs.input_fields == {"a", "c"}
        assert refs.table_columns == {("t", "b")}
        assert refs.functions == {"hash"}

    def test_collect_refs_table_arg_funcs(self):
        refs = collect_refs(expr("count(endpoints) + 1"))
        assert refs.tables_counted == {"endpoints"}
        # the table-name argument is not a column reference
        assert refs.input_fields == set()

    def test_collect_refs_contains_key_arg(self):
        refs = collect_refs(expr("contains(routes, input.method)"))
        assert refs.tables_counted == {"routes"}
        assert refs.input_fields == {"method"}

    def test_collect_refs_none(self):
        refs = collect_refs(None)
        assert refs.input_fields == set()

    def test_expr_cost_scales_with_size(self):
        registry = FunctionRegistry()
        small = expr_cost_us(expr("input.a"), registry)
        large = expr_cost_us(
            expr("hash(input.a) + hash(input.b) * len(input.c)"), registry
        )
        assert large > small

    def test_op_count(self):
        assert op_count(None) == 0
        assert op_count(expr("1")) == 1
        assert op_count(expr("1 + 2")) == 3

    def test_refs_answer_as_a_walk_on_every_stdlib_expression(self):
        """``op_count`` and ``is_deterministic`` read the refs kept on the
        node; they must answer as a walk of the tree does, every time."""
        from repro.dsl.ast_nodes import FuncCall
        from repro.ir.expr_utils import walk
        from repro.ir.nodes import statement_exprs

        registry = FunctionRegistry()
        checked = 0
        for element in load_stdlib().elements.values():
            ir = build_element_ir(element)
            statements = list(ir.init)
            for handler in ir.handlers.values():
                statements.extend(handler.statements)
            for stmt in statements:
                for node in statement_exprs(stmt):
                    nodes = list(walk(node))
                    for _ in range(2):
                        assert op_count(node) == len(nodes)
                        assert is_deterministic(node, registry) == all(
                            registry.get(n.name).deterministic
                            for n in nodes
                            if isinstance(n, FuncCall)
                        )
                    assert collect_refs(node) is collect_refs(node)
                    checked += 1
        assert checked > 40

    def test_is_deterministic(self):
        registry = FunctionRegistry()
        assert is_deterministic(expr("hash(input.a)"), registry)
        assert not is_deterministic(expr("rand()"), registry)
        assert not is_deterministic(expr("1 + now()"), registry)
        assert is_deterministic(None, registry)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_type",
        [
            BackendError,
            CompileError,
            ControlPlaneError,
            DslSyntaxError,
            DslValidationError,
            HeaderLayoutError,
            PlacementError,
            RpcAborted,
            RuntimeFault,
            SimulationError,
            StateError,
        ],
    )
    def test_all_derive_from_adn_error(self, error_type):
        assert issubclass(error_type, AdnError)

    def test_syntax_error_position(self):
        error = DslSyntaxError("bad token", line=3, column=7)
        assert error.line == 3
        assert error.column == 7
        assert "line 3" in str(error)

    def test_backend_error_reasons(self):
        error = BackendError("nope", reasons=["a", "b"])
        assert error.reasons == ["a", "b"]
        assert isinstance(error, CompileError)

    def test_rpc_aborted_element(self):
        error = RpcAborted("denied", element="Acl")
        assert error.element == "Acl"

    def test_header_error_is_compile_error(self):
        assert issubclass(HeaderLayoutError, CompileError)


class TestPlatforms:
    def test_partition_complete(self):
        assert SOFTWARE_PLATFORMS | RESTRICTED_PLATFORMS == frozenset(
            Platform
        ) - {Platform.RPC_LIB} | SOFTWARE_PLATFORMS
        # software and restricted are disjoint
        assert not SOFTWARE_PLATFORMS & RESTRICTED_PLATFORMS

    def test_hardware_flags(self):
        assert Platform.SWITCH_P4.is_hardware
        assert Platform.SMARTNIC.is_hardware
        assert not Platform.MRPC.is_hardware

    def test_app_binary_flag(self):
        assert Platform.RPC_LIB.in_app_binary
        assert not Platform.SIDECAR.in_app_binary

    def test_backend_mapping(self):
        assert Platform.MRPC.backend_name == "python"
        assert Platform.KERNEL_EBPF.backend_name == "ebpf"
        # the NIC runs the eBPF subset but under its own capacity
        # descriptor — a distinct backend, not an alias of the kernel's
        assert Platform.SMARTNIC.backend_name == "nic"
        assert Platform.SWITCH_P4.backend_name == "p4"
        assert Platform.SIDECAR.backend_name == "wasm"


class TestResourceGroup:
    def test_aggregate_busy_time(self):
        sim = Simulator()
        group = ResourceGroup()
        first = group.add(Resource(sim, capacity=1, name="a"))
        second = group.add(Resource(sim, capacity=1, name="b"))

        def worker(resource, duration):
            yield from resource.use(duration)

        sim.process(worker(first, 0.2))
        sim.process(worker(second, 0.3))
        sim.run()
        assert group.total_busy_time() == pytest.approx(0.5)

    def test_find_by_name(self):
        sim = Simulator()
        group = ResourceGroup()
        resource = group.add(Resource(sim, capacity=1, name="engine"))
        assert group.find("engine") is resource
        assert group.find("ghost") is None


class TestStageCost:
    def test_parallel_stage_cost_is_max(self):
        schema = RpcSchema.of(
            "t",
            payload=FieldType.BYTES,
            username=FieldType.STR,
            obj_id=FieldType.INT,
        )
        program = load_stdlib(schema=schema)
        analyses = {}
        for name in ("Acl", "Fault"):
            analyses[name] = analyze_element(
                build_element_ir(program.elements[name])
            )
        stages = parallel_stages(["Acl", "Fault"], analyses)
        assert stages == (("Acl", "Fault"),)
        cost = stage_cost_us(stages[0], analyses, "request")
        assert cost == max(
            analyses["Acl"].handler_cost_us("request"),
            analyses["Fault"].handler_cost_us("request"),
        )
