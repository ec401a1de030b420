"""Topology-level lint for :class:`~repro.graph.model.ServiceGraph`.

Every graph command gets a spec's findings from :func:`lint_graph`:
``ADN600`` name resolution, ``ADN405``, ``ADN406``, ``ADN407`` and the
interprocedural suite of :mod:`repro.analysis.graph`, as ordinary
:class:`~repro.lint.diagnostics.Diagnostic` objects. The ``ADN405``
deadline-custody walk (:func:`deadline_custody`) reads ``EdgeSpec``
fields; the DSL-side rule (:mod:`repro.lint.rules.graph`) lowers
multi-chain apps to ``EdgeSpec``\\ s and runs the same walk.

This module also owns ``ADN600``: lifting spec-loading and
chain-resolution failures (malformed JSON, dangling edges, unknown
element names) into diagnostics instead of tracebacks, so
``repro graph``/``repro check --graph`` report them with a path, code,
and element like every other finding.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..dsl.ast_nodes import Program
from ..dsl.schema import RpcSchema
from ..lint.diagnostics import Diagnostic, Severity, sort_key
from .model import EdgeSpec, GraphError, ServiceGraph

if TYPE_CHECKING:
    from ..analysis.graph import GraphAnalysis


def deadline_custody(
    edges: Sequence[EdgeSpec],
) -> List[Tuple[EdgeSpec, Optional[EdgeSpec]]]:
    """Every deadline-sensitive edge not covered by a budget, as one
    ``(edge, parent)`` pair per upstream edge into its source that sets
    no ``deadline_budget_ms`` (the runtime derives a child budget from
    the parent's remainder), or ``(edge, None)`` for an entry edge that
    sets none itself. Needs no call order: cyclic edge sets are fine."""
    by_dst: Dict[str, List[EdgeSpec]] = {}
    for edge in edges:
        by_dst.setdefault(edge.dst, []).append(edge)
    out: List[Tuple[EdgeSpec, Optional[EdgeSpec]]] = []
    for edge in edges:
        if not (edge.retries or edge.admission):
            continue
        # an entry edge (no parent) must carry the budget itself
        for parent in by_dst.get(edge.src) or [None]:
            if (parent or edge).deadline_budget_ms is None:
                out.append((edge, parent))
    return out


def _sensitive(edge: EdgeSpec) -> str:
    reasons = []
    if edge.retries:
        reasons.append(f"retries (max_attempts={edge.max_attempts})")
    if edge.admission:
        reasons.append("admission control")
    return " and ".join(reasons)


def check_deadline_propagation(
    graph: ServiceGraph, path: str = "<graph>"
) -> List[Diagnostic]:
    """ADN405 over a graph spec: every deadline-sensitive edge must be
    reachable under a budget (see :func:`deadline_custody`)."""
    out: List[Diagnostic] = []
    for edge, parent in deadline_custody(graph.edges):
        reasons = _sensitive(edge)
        if parent is None:
            message = (
                f"entry edge {edge.name} uses {reasons} but sets no "
                "deadline_budget_ms — nothing bounds the work its "
                "elements act on"
            )
            fix = "set deadline_budget_ms on the edge"
        else:
            message = (
                f"edge {edge.name} uses {reasons} but upstream edge "
                f"{parent.name} propagates no deadline budget"
            )
            fix = (
                f"set deadline_budget_ms on {parent.name} so the "
                "remaining budget reaches the downstream elements"
            )
        out.append(
            Diagnostic(
                code="ADN405",
                severity=Severity.WARNING,
                message=message,
                path=path,
                element=edge.name,
                fix=fix,
            )
        )
    return out


def lint_graph(
    graph: ServiceGraph,
    program: Program,
    schema: RpcSchema,
    path: str = "<graph>",
    cluster: Optional[dict] = None,
    analyze: bool = True,
) -> Tuple[List[Diagnostic], List[Diagnostic], Optional[GraphAnalysis]]:
    """Every spec-side check over one graph.

    ``ADN600`` name resolution, ``ADN405`` and ``ADN407`` always run;
    ``ADN406`` and — with ``analyze`` — :func:`analyze_graph` only when
    every name resolves. ``cluster`` is the spec's deployment block
    (:func:`spec_cluster_block`). Returns (resolution errors, the other
    findings sorted by ``sort_key``, the analysis or ``None``).
    """
    errors = check_chain_resolution(graph, program, path)
    findings = check_deadline_propagation(graph, path)
    findings += check_control_plane_single_point(
        graph, cluster, program, path
    )
    analysis = None
    if not errors:
        findings += check_offload_capacity(graph, program, schema, path)
        if analyze:
            # imported here: repro.analysis.graph imports repro.graph
            from ..analysis.graph import analyze_graph

            analysis = analyze_graph(graph, program, schema, path=path)
            findings += analysis.diagnostics
    return errors, sorted(findings, key=sort_key), analysis


def spec_cluster_block(path: str) -> Optional[dict]:
    """Return a topology spec's optional top-level ``cluster`` block.

    ``ServiceGraph.from_dict`` deliberately ignores unknown top-level
    keys, so the deployment declaration rides alongside the graph
    without touching the model. Returns ``None`` when the file is
    unreadable, not JSON, or declares no object-valued ``cluster`` —
    load failures are ADN600's to report, not this helper's."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    if isinstance(payload, dict):
        block = payload.get("cluster")
        if isinstance(block, dict):
            return block
    return None


def check_control_plane_single_point(
    graph: ServiceGraph,
    cluster: Optional[dict],
    program: Optional[Program] = None,
    path: str = "<graph>",
) -> List[Diagnostic]:
    """ADN407 over a graph spec: the spec declares its deployment via a
    top-level ``cluster`` block, the mesh depends on the controller
    reacting to failures — retrying edges, or (when the element program
    is at hand) checkpointed chain elements — and the block sets no
    ``standby_controller``. A spec with no ``cluster`` block takes no
    position on deployment and stays silent; the DSL-side rule (with
    ``--standby-controller``) covers that path."""
    if not isinstance(cluster, dict) or cluster.get("standby_controller"):
        return []
    checkpointed: List[str] = []
    if program is not None:
        for edge in graph.edges:
            for name in edge.elements:
                decl = program.elements.get(name)
                if (
                    decl is not None
                    and decl.meta.get("checkpoint")
                    and name not in checkpointed
                ):
                    checkpointed.append(name)
    retrying = [edge.name for edge in graph.edges if edge.retries]
    reasons = []
    if checkpointed:
        reasons.append(
            "checkpointed element(s) " + ", ".join(checkpointed)
        )
    if retrying:
        reasons.append("retrying edge(s) " + ", ".join(retrying))
    if not reasons:
        return []
    return [
        Diagnostic(
            code="ADN407",
            severity=Severity.WARNING,
            message=(
                f"graph {graph.name!r} declares a cluster with no "
                "standby controller, but its mesh depends on "
                "controller-driven recovery: " + "; ".join(reasons)
            ),
            path=path,
            element=graph.name,
            fix="set 'standby_controller: true' in the spec's cluster "
            "block and deploy the warm-standby pair "
            "(repro.control.resilience)",
        )
    ]


# -- ADN600: spec loading and resolution as diagnostics -------------------


def _spec_error(message: str, path: str, element: str = "") -> Diagnostic:
    return Diagnostic(
        code="ADN600",
        severity=Severity.ERROR,
        message=message,
        path=path,
        element=element,
        fix="fix the topology spec; see docs/graph_analysis.md for the "
        "JSON shape",
    )


def load_graph_spec(
    path: str,
) -> Tuple[Optional[ServiceGraph], List[Diagnostic]]:
    """Load a JSON topology spec, turning every failure mode — unreadable
    file, invalid JSON, structural errors like dangling edges or
    duplicate services — into ``ADN600`` diagnostics instead of raised
    exceptions. Returns ``(graph, diagnostics)``; ``graph`` is ``None``
    exactly when loading failed."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        return None, [_spec_error(f"cannot read spec: {exc}", path)]
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [
            _spec_error(f"invalid JSON: {exc}", path)
        ]
    try:
        graph = ServiceGraph.from_dict(payload)
    except (GraphError, TypeError, ValueError, KeyError) as exc:
        return None, [_spec_error(str(exc), path)]
    return graph, []


def check_chain_resolution(
    graph: ServiceGraph,
    program: Program,
    path: str = "<graph>",
) -> List[Diagnostic]:
    """ADN600 for name resolution: every element named on an edge must
    resolve in the program (element or filter); each unknown name is
    reported with the edge that carries it."""
    out: List[Diagnostic] = []
    for edge in graph.edges:
        for name in edge.elements:
            if name in program.elements or name in program.filters:
                continue
            out.append(
                _spec_error(
                    f"edge {edge.name} names unknown element {name!r}",
                    path,
                    element=edge.name,
                )
            )
    return out


def check_offload_capacity(
    graph: ServiceGraph,
    program: Program,
    schema: RpcSchema,
    path: str = "<graph>",
) -> List[Diagnostic]:
    """ADN406 over a graph spec: edges that declare an offload tier get
    the same split-chain capacity walk the deploy-time solver runs, so
    a chain whose prefix cannot fit the device reports its host
    fallback while the spec is being reviewed, not at placement time.
    Shares the implementation with :func:`repro.offload.split.split_chain`
    — the diagnostics *are* the solver's."""
    from ..compiler.compiler import AdnCompiler
    from ..dsl.ast_nodes import ChainDecl
    from ..errors import AdnError
    from ..offload.split import split_chain

    out: List[Diagnostic] = []
    compiler = AdnCompiler()
    for edge in graph.edges:
        if edge.offload is None:
            continue
        try:
            chain = compiler.compile_chain(
                ChainDecl(src=edge.src, dst=edge.dst, elements=edge.elements),
                program,
                schema,
                app_name=graph.name,
            )
        except AdnError:
            continue  # resolution problems are ADN600's to report
        decision = split_chain(
            chain, schema, edge.offload, path=f"{path}:{edge.name}"
        )
        out.extend(decision.diagnostics)
    return out
