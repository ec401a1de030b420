"""Chain optimizer tests."""

import pytest

from repro.dsl import FieldType, RpcSchema, load_stdlib
from repro.ir.builder import build_element_ir
from repro.ir.dependency import ordering_violations
from repro.ir.optimizer import ChainContext, OptimizerOptions, optimize_chain


@pytest.fixture(scope="module")
def schema():
    return RpcSchema.of(
        "t", payload=FieldType.BYTES, username=FieldType.STR, obj_id=FieldType.INT
    )


@pytest.fixture(scope="module")
def program(schema):
    return load_stdlib(schema=schema)


def irs(program, *names):
    return [build_element_ir(program.elements[name]) for name in names]


class TestOptimizeChain:
    def test_paper_chain_shape(self, program):
        chain = optimize_chain(irs(program, "Logging", "Acl", "Fault"))
        # Logging stays first (effect barrier); Fault and Acl form a
        # parallel dropper stage
        assert chain.element_names[0] == "Logging"
        assert set(chain.stages[-1]) == {"Acl", "Fault"}

    def test_reorder_is_legal(self, program):
        original = ["LbKeyHash", "Compression", "Decompression", "AccessControl"]
        chain = optimize_chain(irs(program, *original))
        analyses = {e.name: e.analysis for e in chain.elements}
        assert (
            ordering_violations(list(chain.element_names), original, analyses)
            == []
        )

    def test_access_control_hoisted(self, program):
        chain = optimize_chain(
            irs(program, "LbKeyHash", "Compression", "AccessControl")
        )
        assert chain.element_names[0] == "AccessControl"
        assert chain.reordered

    def test_pinned_pairs_respected(self, program):
        context = ChainContext(
            pinned_pairs=(("Compression", "AccessControl"),)
        )
        chain = optimize_chain(
            irs(program, "Compression", "AccessControl"), context
        )
        assert chain.element_names == ("Compression", "AccessControl")

    def test_no_reorder_option(self, program):
        options = OptimizerOptions(reorder=False)
        chain = optimize_chain(
            irs(program, "Compression", "AccessControl"), options=options
        )
        assert chain.element_names == ("Compression", "AccessControl")
        assert not chain.reordered

    def test_no_parallel_option(self, program):
        options = OptimizerOptions(parallelize=False, reorder=False)
        chain = optimize_chain(irs(program, "Acl", "Fault"), options=options)
        assert chain.stages == (("Acl",), ("Fault",))

    def test_stages_cover_all_elements_exactly_once(self, program):
        chain = optimize_chain(
            irs(program, "Logging", "Acl", "Fault", "Metrics", "LbKeyHash")
        )
        flattened = [name for stage in chain.stages for name in stage]
        assert sorted(flattened) == sorted(chain.element_names)

    def test_chain_context_metadata(self, program):
        context = ChainContext(app="Shop", src="front", dst="cart")
        chain = optimize_chain(irs(program, "Acl"), context)
        assert (chain.app, chain.src, chain.dst) == ("Shop", "front", "cart")

    def test_element_lookup(self, program):
        chain = optimize_chain(irs(program, "Acl", "Fault"))
        assert chain.element("Acl").name == "Acl"
        with pytest.raises(KeyError):
            chain.element("Ghost")
