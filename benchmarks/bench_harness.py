"""Shared harness for the paper-reproduction benchmarks.

Builds the three stacks of Figure 5 — gRPC+Envoy, ADN+mRPC (generated),
and hand-coded mRPC — on the simulated two-machine testbed and runs the
paper's workload: a single-threaded client keeping ``concurrency`` RPCs
in flight, short byte-string request/response (§6).

Two run modes per the figure's two panels:

* ``throughput`` — 128 concurrent RPCs, report completed krps;
* ``latency`` — concurrency 1 (unloaded), report median RTT in µs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.baselines import EnvoyMeshStack, GrpcStack
from repro.compiler.compiler import AdnCompiler, CompiledChain
from repro.control.placement import PlacementPlan
from repro.dsl import FieldType, FunctionRegistry, RpcSchema, load_stdlib
from repro.dsl.ast_nodes import ChainDecl
from repro.ir.analysis import analyze_element
from repro.ir.builder import build_element_ir
from repro.runtime import AdnMrpcStack
from repro.runtime.message import reset_rpc_ids
from repro.sim import ClosedLoopClient, RunMetrics, Simulator, two_machine_cluster

SCHEMA = RpcSchema.of(
    "bench",
    payload=FieldType.BYTES,
    username=FieldType.STR,
    obj_id=FieldType.INT,
)

#: the paper's evaluation elements (Figure 5's x axis)
PAPER_ELEMENTS = ("Logging", "Acl", "Fault")

#: which sidecar hosts each element's Envoy filter
ENVOY_FILTER_SIDE = {
    "Logging": "client",
    "Fault": "client",
    "Acl": "server",
    "LbKeyHash": "client",
    "Compression": "client",
    "Decompression": "server",
    "AccessControl": "server",
}

THROUGHPUT_CONCURRENCY = 128
THROUGHPUT_RPCS = 4000
LATENCY_RPCS = 400


@dataclass
class BenchResult:
    """One cell of a result table."""

    system: str
    workload: str
    metrics: RunMetrics

    @property
    def krps(self) -> float:
        return self.metrics.throughput_krps

    @property
    def median_us(self) -> float:
        return self.metrics.latency.median_us()


def compile_chain(
    elements: Sequence[str], registry: Optional[FunctionRegistry] = None
) -> CompiledChain:
    registry = registry or FunctionRegistry()
    program = load_stdlib(schema=SCHEMA)
    compiler = AdnCompiler(registry=registry)
    decl = ChainDecl(src="A", dst="B", elements=tuple(elements))
    return compiler.compile_chain(decl, program, SCHEMA)


def _run_client(
    sim, call, mode: str, seed: int = 1, fields_fn=None
) -> RunMetrics:
    if mode == "throughput":
        client = ClosedLoopClient(
            sim,
            call,
            concurrency=THROUGHPUT_CONCURRENCY,
            total_rpcs=THROUGHPUT_RPCS,
            warmup_rpcs=THROUGHPUT_RPCS // 10,
            seed=seed,
            fields_fn=fields_fn,
        )
    else:
        client = ClosedLoopClient(
            sim,
            call,
            concurrency=1,
            total_rpcs=LATENCY_RPCS,
            seed=seed,
            fields_fn=fields_fn,
        )
    return client.run()


#: object ids used by the §2 workload (small set so the AccessControl
#: whitelist can be seeded exactly)
SECTION2_OBJECT_IDS = tuple(range(0, 64))


def section2_fields(rng, index):
    """Workload for the §2 chain: keyed objects, mostly-writable users."""
    return {
        "payload": b"hello world " * 8,
        "username": "usr2" if rng.random() < 0.9 else "usr1",
        "obj_id": SECTION2_OBJECT_IDS[index % len(SECTION2_OBJECT_IDS)],
    }


def _seed_access_control(stack) -> None:
    """Whitelist every (user, object) pair the §2 workload uses."""
    for processor in stack.processors:
        if "AccessControl" not in processor.segment.elements:
            continue
        table = processor.element_state("AccessControl").table("acl")
        for username in ("usr1", "usr2"):
            for obj_id in SECTION2_OBJECT_IDS:
                table.insert(
                    {"username": username, "obj_id": obj_id, "allowed": True}
                )


def run_adn(
    elements: Sequence[str],
    mode: str,
    handcoded: bool = False,
    plan: Optional[PlacementPlan] = None,
    cluster_kwargs: Optional[dict] = None,
    seed: int = 1,
    fields_fn=None,
) -> RunMetrics:
    """One ADN+mRPC run; returns the metrics with CPU accounting."""
    reset_rpc_ids()
    registry = FunctionRegistry()
    chain = compile_chain(elements, registry)
    sim = Simulator()
    cluster = two_machine_cluster(sim, **(cluster_kwargs or {}))
    stack = AdnMrpcStack(
        sim,
        cluster,
        chain,
        SCHEMA,
        registry,
        plan=plan,
        handcoded=handcoded,
    )
    if "AccessControl" in elements:
        _seed_access_control(stack)
        fields_fn = fields_fn or section2_fields
    metrics = _run_client(sim, stack.call, mode, seed, fields_fn)
    metrics.cpu_busy_s = cluster.cpu_busy_by_machine()
    metrics.notes["wire_bytes"] = stack.wire_bytes_total
    return metrics


def run_envoy(
    elements: Sequence[str], mode: str, seed: int = 1
) -> RunMetrics:
    """One gRPC+Envoy run with the same elements as sidecar filters."""
    reset_rpc_ids()
    registry = FunctionRegistry()
    program = load_stdlib(schema=SCHEMA)
    client_filters = []
    server_filters = []
    for name in elements:
        ir = build_element_ir(program.elements[name])
        analyze_element(ir, registry)
        side = ENVOY_FILTER_SIDE.get(name, "client")
        (client_filters if side == "client" else server_filters).append(ir)
    sim = Simulator()
    cluster = two_machine_cluster(sim)
    stack = EnvoyMeshStack(
        sim,
        cluster,
        SCHEMA,
        client_filters=client_filters,
        server_filters=server_filters,
        registry=registry,
    )
    metrics = _run_client(sim, stack.call, mode, seed)
    metrics.cpu_busy_s = cluster.cpu_busy_by_machine()
    metrics.notes["wire_bytes"] = stack.wire_bytes_total
    return metrics


def run_plain_grpc(mode: str, seed: int = 1) -> RunMetrics:
    """Plain gRPC, no mesh (the mesh-overhead reference point)."""
    reset_rpc_ids()
    sim = Simulator()
    cluster = two_machine_cluster(sim)
    stack = GrpcStack(sim, cluster, SCHEMA)
    metrics = _run_client(sim, stack.call, mode, seed)
    metrics.cpu_busy_s = cluster.cpu_busy_by_machine()
    metrics.notes["wire_bytes"] = stack.wire_bytes_total
    return metrics


def fig5_matrix(mode: str) -> Dict[str, Dict[str, RunMetrics]]:
    """The full Figure 5 matrix: element → system → metrics."""
    matrix: Dict[str, Dict[str, RunMetrics]] = {}
    for element in PAPER_ELEMENTS:
        matrix[element] = {
            "gRPC+Envoy": run_envoy([element], mode),
            "ADN+mRPC": run_adn([element], mode),
            "Hand-coded mRPC": run_adn([element], mode, handcoded=True),
        }
    return matrix


def bench_assert(benchmark, fn):
    """Run assertions/reporting as a single-round pedantic benchmark, so
    the shape checks execute under ``pytest --benchmark-only``."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def print_table(
    title: str,
    rows: List[str],
    columns: List[str],
    cell,
    unit: str = "",
) -> str:
    """Format a paper-style table; returns (and prints) the text."""
    widths = [max(18, len(c) + 2) for c in columns]
    lines = [title, "=" * len(title)]
    header = f"{'':20s}" + "".join(
        f"{col:>{w}s}" for col, w in zip(columns, widths)
    )
    lines.append(header)
    for row in rows:
        cells = "".join(
            f"{cell(row, col):>{w}.1f}" for col, w in zip(columns, widths)
        )
        lines.append(f"{row:20s}" + cells)
    if unit:
        lines.append(f"(values in {unit})")
    text = "\n".join(lines)
    print("\n" + text)
    return text
