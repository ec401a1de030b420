"""Pinned placement and offload-split decisions.

One sha256 covers every plan :func:`solve_placement` returns for each
pinned chain under all four strategies, with
SmartNICs on and off, the programmable switch on and off, and
``replicas=2``; a second covers every :func:`solve_offload_plan`
decision for both tiers: prefix, suffix, boundary reason, table bytes,
the plan's segments and the diagnostics.

The pinned chains are every stdlib element as a one-element chain, a
few multi-element stdlib chains (the paper's, the section-2 chain the
solver reorders, the stateful benchmark chain and one with a filter),
the chains of the example apps, and two chains over a schema of seven
more text fields whose ``WideMatch`` element reads more of them than
fit the switch's parse window. Dicts are sorted before hashing, so the
digests do not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import _default_schema
from repro.compiler.compiler import AdnCompiler
from repro.control.placement import ClusterSpec, PlacementRequest, solve_placement
from repro.dsl import (
    FieldType,
    FunctionRegistry,
    RpcSchema,
    load_stdlib,
    parse,
)
from repro.dsl.ast_nodes import ChainDecl
from repro.dsl.stdlib import validate_over_stdlib
from repro.dsl.validator import validate_program
from repro.offload import solve_offload_plan

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = _default_schema()
STRATEGIES = ("software", "inapp", "offload", "scaleout")
TIERS = ("nic", "switch")
MULTI_CHAINS = (
    ("Logging", "Acl", "Fault"),
    ("LbKeyHash", "Compression", "Decompression", "AccessControl"),
    ("Metrics", "GlobalQuota", "Cache"),
    ("Retry", "Logging", "Acl"),
    ("Admission", "RateLimit", "Router", "Mirror"),
    ("Encryption", "Decryption", "SizeLimit", "LbRoundRobin"),
)
EXAMPLE_APPS = ("explain_demo.adn", "lint_demo.adn", "typecheck_demo.adn")

#: seven text fields the switch reads take 7 x 33 bytes of its
#: 200-byte parse window: WideMatch never fits, NarrowMatch does
WIDE_TAGS = tuple(f"tag{index}" for index in range(7))
WIDE_SCHEMA = RpcSchema.of(
    "wide",
    payload=FieldType.BYTES,
    username=FieldType.STR,
    obj_id=FieldType.INT,
    **{tag: FieldType.STR for tag in WIDE_TAGS},
)
WIDE_SOURCE = """
element WideMatch {
    on request { SELECT * FROM input WHERE %s; }
}
element NarrowMatch {
    on request { SELECT * FROM input WHERE input.tag0 != 'x'; }
}
""" % " AND ".join(f"input.{tag} != 'x'" for tag in WIDE_TAGS)
WIDE_CHAINS = (("WideMatch",), ("NarrowMatch", "WideMatch", "Acl"))

PLACEMENT_DIGEST = (
    "834054deaeb4c71ed38b75c2a63e7600fee9e077282fdf97558207416d1482d0"
)
OFFLOAD_DIGEST = (
    "23157a2703c8b5a816cfb41fd3612582626114e7de8edb8cce7125afd431c869"
)


def pinned_chains():
    """(label, schema, compiled chain) for every pinned input, in a
    fixed order."""
    compiler = AdnCompiler(registry=FunctionRegistry())
    stdlib = load_stdlib(schema=SCHEMA)

    def chain_of(names, program, schema):
        decl = ChainDecl(src="A", dst="B", elements=tuple(names))
        return compiler.compile_chain(decl, program, schema)

    for name in sorted(stdlib.elements):
        yield name, SCHEMA, chain_of((name,), stdlib, SCHEMA)
    for names in MULTI_CHAINS:
        yield ",".join(names), SCHEMA, chain_of(names, stdlib, SCHEMA)
    for file_name in EXAMPLE_APPS:
        own = parse((ROOT / "examples" / file_name).read_text())
        program = validate_over_stdlib(own, SCHEMA)
        for app_name in own.apps:
            for chain in compiler.compile_app(
                program, app_name, SCHEMA
            ).chains:
                label = f"{file_name}:{chain.decl.src}->{chain.decl.dst}"
                yield label, SCHEMA, chain
    wide = validate_program(
        load_stdlib(schema=WIDE_SCHEMA).merged(parse(WIDE_SOURCE)),
        schema=WIDE_SCHEMA,
    )
    for names in WIDE_CHAINS:
        label = "wide:" + ",".join(names)
        yield label, WIDE_SCHEMA, chain_of(names, wide, WIDE_SCHEMA)


@pytest.fixture(scope="module")
def chains():
    return list(pinned_chains())


def plan_record(plan):
    return {
        "segments": [
            [
                segment.platform.value,
                segment.machine,
                list(segment.elements),
                [list(stage) for stage in segment.stages],
                segment.replicas,
                segment.queue_limit,
            ]
            for segment in plan.segments
        ],
        "client_transport": plan.client_transport,
        "server_transport": plan.server_transport,
        "description": plan.description,
    }


def placement_records(chains):
    for label, schema, chain in chains:
        for strategy in STRATEGIES:
            for smartnics in (False, True):
                for switch in (False, True):
                    request = PlacementRequest(
                        chain=chain,
                        schema=schema,
                        cluster=ClusterSpec(
                            smartnics=smartnics, programmable_switch=switch
                        ),
                        strategy=strategy,
                        replicas=2,
                    )
                    plan = plan_record(solve_placement(request))
                    yield [label, strategy, smartnics, switch, plan]


def offload_records(chains):
    for label, schema, chain in chains:
        for tier in TIERS:
            plan, decision = solve_offload_plan(chain, schema, tier)
            yield [
                label,
                tier,
                list(decision.prefix),
                list(decision.suffix),
                decision.boundary_reason,
                decision.table_bytes,
                plan_record(plan),
                [diag.to_dict() for diag in decision.diagnostics],
            ]


def digest(records) -> str:
    text = json.dumps(records, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_placement_plans_pinned(chains):
    records = list(placement_records(chains))
    assert len(records) == len(chains) * len(STRATEGIES) * 4
    assert digest(records) == PLACEMENT_DIGEST


def test_offload_decisions_pinned(chains):
    records = list(offload_records(chains))
    assert len(records) == len(chains) * len(TIERS)
    assert digest(records) == OFFLOAD_DIGEST


def test_pinned_inputs_cover_both_rules(chains):
    """The pinned chains reach the switch-window rule both ways, in the
    solver and in the split, and place a parallel stage of two elements
    in one segment, which the local-stage rule keeps."""
    split_refused = split_taken = False
    for record in offload_records(chains):
        tier, prefix, reason = record[1], record[2], record[4]
        if tier == "switch":
            split_taken = split_taken or bool(prefix)
            split_refused = split_refused or "parse window" in reason
    on_switch = set()
    shared_stage = False
    for record in placement_records(chains):
        for segment in record[-1]["segments"]:
            if segment[0] == "switch_p4":
                on_switch.update(segment[2])
            shared_stage = shared_stage or any(
                len(stage) > 1 for stage in segment[3]
            )
    assert split_refused and split_taken and shared_stage
    assert "NarrowMatch" in on_switch and "WideMatch" not in on_switch
