#!/usr/bin/env python3
"""The placement solver across deployment environments (paper Figure 2).

One network program — the §2 chain — realized four different ways
depending on what the environment offers: plain hosts, eBPF-capable
kernels, SmartNICs, a programmable ToR switch, or extra cores for
scale-out. The solver also *re-orders* the chain where the compiler
proves it safe, which is what unlocks switch offload (config 3).

Run:  python examples/offload_planner.py
"""

from repro import AdnCompiler, FieldType, FunctionRegistry, RpcSchema
from repro.control.placement import ClusterSpec, PlacementRequest, solve_placement
from repro.dsl import load_stdlib
from repro.dsl.ast_nodes import ChainDecl

SECTION2 = ("LbKeyHash", "Compression", "Decompression", "AccessControl")

ENVIRONMENTS = {
    "config 1 — in-app (proxyless)": dict(
        strategy="inapp", cluster=ClusterSpec()
    ),
    "config 2 — kernel + SmartNIC": dict(
        strategy="offload",
        cluster=ClusterSpec(smartnics=True, programmable_switch=False),
    ),
    "config 3 — programmable switch": dict(
        strategy="offload",
        cluster=ClusterSpec(smartnics=True, programmable_switch=True),
    ),
    "config 4 — scale-out engines": dict(
        strategy="scaleout", replicas=4, cluster=ClusterSpec()
    ),
}


def main() -> None:
    schema = RpcSchema.of(
        "objectstore",
        payload=FieldType.BYTES,
        username=FieldType.STR,
        obj_id=FieldType.INT,
    )
    registry = FunctionRegistry()
    program = load_stdlib(schema=schema)
    compiler = AdnCompiler(registry=registry)
    chain = compiler.compile_chain(
        ChainDecl(src="A", dst="B", elements=SECTION2), program, schema
    )

    print("chain as written :", " -> ".join(SECTION2))
    print("after optimizer  :", " -> ".join(chain.element_order))
    print()
    print("element legality matrix:")
    for name, compiled in chain.elements.items():
        print(f"  {name:14s} {', '.join(compiled.legal_backends())}")

    for label, spec in ENVIRONMENTS.items():
        plan = solve_placement(
            PlacementRequest(
                chain=chain,
                schema=schema,
                strategy=spec["strategy"],
                cluster=spec["cluster"],
                replicas=spec.get("replicas", 1),
            )
        )
        print(f"\n{label}")
        for segment in plan.segments:
            where = f"{segment.platform.value}@{segment.machine}"
            replicas = f" x{segment.replicas}" if segment.replicas > 1 else ""
            print(f"  [{where}{replicas}] {', '.join(segment.elements)}")
        print(
            f"  transport: client={plan.client_transport} "
            f"server={plan.server_transport}"
        )


if __name__ == "__main__":
    main()
