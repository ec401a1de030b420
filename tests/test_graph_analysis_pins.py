"""Pinned graph analysis: everything ``analyze_graph`` returns.

One sha256 covers the whole :class:`GraphAnalysis` except its wall-clock
``analysis_ms``, for the example topology specs, both demo graphs and
60 seeded random graphs: every edge's entry and exit environments, its
delivered fields, amplification bound and boundary findings, each
service's ingress environment, the mesh liveness, the diagnostics and
the worst path. Dicts and sets are sorted before hashing, so the digest
does not depend on ``PYTHONHASHSEED``.

The random graphs are layered DAGs. Their chains (0-3 elements or
filters) come from a small per-graph pool, so one chain meets several
different entry environments; services may declare ``reads``, and edges
draw retries, per-attempt timeouts, breakers, admission, ``hash_fields``
and deadline budgets. Besides the stdlib, the chains draw from a few
elements that reshape what they forward (a retyped field, a projection,
a sink that never forwards) or fault on a retyped or missing field, so
the delivered environments differ and ADN606 fires.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path

from repro.analysis.graph import analyze_graph, lower_edge_chains
from repro.dsl.functions import DEFAULT_REGISTRY
from repro.dsl.parser import parse
from repro.dsl.stdlib import load_stdlib
from repro.dsl.validator import validate_program
from repro.graph import (
    MESH_SCHEMA,
    GraphBuilder,
    bookinfo_graph,
    hotel_mesh_graph,
)
from repro.graph.lint import load_graph_spec

ROOT = Path(__file__).resolve().parent.parent
SPECS = ("bookinfo.graph.json", "double_charge.graph.json",
         "retry_storm.graph.json")
SEEDS = range(60)
APP_FIELDS = MESH_SCHEMA.application_field_names()

#: elements that change the environment they deliver downstream, and
#: elements that fault when a field arrives retyped or not at all
RESHAPING_ELEMENTS = """
element Corrupt {
    on request { SELECT input.*, 'oops' AS obj_id FROM input; }
    on response { SELECT * FROM input; }
}
element ObjMath {
    on request { SELECT * FROM input WHERE input.obj_id - 1 >= 0; }
    on response { SELECT * FROM input; }
}
element Narrow {
    on request { SELECT input.payload, input.obj_id FROM input; }
    on response { SELECT * FROM input; }
}
element UserLen {
    on request { SELECT * FROM input WHERE len(input.username) > 0; }
    on response { SELECT * FROM input; }
}
element Sink {
    state seen (obj_id: int);
    on request { INSERT INTO seen SELECT input.obj_id FROM input; }
    on response { SELECT * FROM input; }
}
"""
PROGRAM = validate_program(
    load_stdlib().merged(parse(RESHAPING_ELEMENTS)), schema=MESH_SCHEMA
)
CHAIN_NAMES = sorted(PROGRAM.elements) + sorted(PROGRAM.filters)
RESHAPERS = ("Corrupt", "Narrow", "Sink")
FAULTERS = ("ObjMath", "UserLen")

ANALYSIS_DIGEST = (
    "735bea70f32ea2a51ea09fc64d9b052f90f16f6b5798f47c7fdee8423e1a10f3"
)


def canonical(value):
    """A JSON-ready form of ``value`` with every dict and set sorted."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [type(value).__name__] + [
            [item.name, canonical(getattr(value, item.name))]
            for item in dataclasses.fields(value)
        ]
    if isinstance(value, dict):
        return sorted(
            ([canonical(key), canonical(item)] for key, item in value.items()),
            key=repr,
        )
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(item) for item in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return repr(value)


def analysis_record(analysis):
    record = dataclasses.replace(analysis, analysis_ms=0.0)
    return canonical(record)


def generated_graph(seed: int):
    """A layered random DAG over the stdlib (see the module docstring)."""
    rng = random.Random(seed)
    pool = [tuple(rng.sample(CHAIN_NAMES, rng.randint(0, 3)))
            for _ in range(rng.randint(1, 3))]
    pool += [(rng.choice(RESHAPERS),), (rng.choice(FAULTERS),)]
    layers = [[f"s{depth}x{index}" for index in range(rng.randint(1, 3))]
              for depth in range(rng.randint(2, 4))]
    builder = GraphBuilder(f"generated-{seed}")
    for layer in layers:
        for name in layer:
            reads = None
            if rng.random() < 0.5:
                reads = rng.sample(APP_FIELDS, rng.randint(0, 2))
            builder.service(name, reads=reads)
    for depth, layer in enumerate(layers[1:], start=1):
        above = [name for upper in layers[:depth] for name in upper]
        for name in layer:
            callers = rng.sample(above, rng.randint(1, min(2, len(above))))
            for caller in callers:
                knobs = {}
                if rng.random() < 0.4:
                    knobs["max_attempts"] = rng.randint(2, 3)
                if rng.random() < 0.4:
                    knobs["per_attempt_timeout_ms"] = rng.choice((2.0, 15.0))
                if rng.random() < 0.3:
                    knobs["breaker"] = True
                if rng.random() < 0.4:
                    knobs["admission"] = True
                    knobs["hash_fields"] = tuple(rng.sample(
                        APP_FIELDS + ("session",), rng.randint(0, 2)))
                if rng.random() < 0.5:
                    knobs["deadline_budget_ms"] = rng.choice((3.0, 20.0, 60.0))
                if rng.random() < 0.2:
                    knobs["required"] = False
                builder.edge(caller, name, elements=rng.choice(pool), **knobs)
    return builder.build()


def pinned_graphs():
    """(path, graph) for every pinned input, in a fixed order."""
    for name in SPECS:
        graph, diagnostics = load_graph_spec(str(ROOT / "examples" / name))
        assert graph is not None, diagnostics
        yield f"examples/{name}", graph
    yield "<demo:bookinfo>", bookinfo_graph()
    yield "<demo:hotel-mesh>", hotel_mesh_graph()
    for seed in SEEDS:
        yield f"<generated:{seed}>", generated_graph(seed)


def test_graph_analysis_pinned():
    records = [
        [path, analysis_record(
            analyze_graph(graph, PROGRAM, MESH_SCHEMA, path=path))]
        for path, graph in pinned_graphs()
    ]
    text = json.dumps(records)
    assert hashlib.sha256(text.encode()).hexdigest() == ANALYSIS_DIGEST


def test_pinned_inputs_cover_the_walk():
    """The pinned inputs exercise every case of the walk: a chain entering
    two edges under different environments and under the same one, an
    edge no request reaches, and an ADN606 boundary finding."""
    distinct = repeated = unreachable = boundary = False
    for _, graph in pinned_graphs():
        analysis = analyze_graph(graph, PROGRAM, MESH_SCHEMA)
        chains = lower_edge_chains(graph, PROGRAM, DEFAULT_REGISTRY)
        seen = {}
        for key, edge in analysis.edges.items():
            boundary = boundary or bool(edge.boundary_findings)
            if edge.entry_env is None:
                unreachable = True
                continue
            chain = tuple(ir.name for ir in chains[key])
            env = canonical(edge.entry_env)
            for other in seen.get(chain, []):
                if other == env:
                    repeated = True
                else:
                    distinct = True
            seen.setdefault(chain, []).append(env)
    assert distinct and repeated and unreachable and boundary
