"""``ADN405``/``ADN601``/``ADN602`` — graph rules over multi-chain apps.

A multi-chain ``app`` is a service graph written in the DSL. These rules
lower it to :class:`~repro.graph.model.EdgeSpec`\\ s (:func:`lower_app`)
and reuse the spec-side facts: the deadline-custody walk of
:mod:`repro.graph.lint` and the amplification and budget facts of
:mod:`repro.analysis.graph`, so a DSL app and its equivalent spec get
the same verdicts. One chain is one edge: ``max_attempts`` is the
product over its ``retry`` filters of ``max_retries + 1`` (unset: the
runtime's ``DEFAULT_MAX_RETRIES``), ``deadline_budget_ms`` the first
budget one of them sets, ``admission`` whether it has an
``admission_control`` element. Of two chains for one service pair the
last is the edge, as in ``AdnController.installed``. Chains that form a
cycle have no call order: ``ADN601``/``ADN602`` skip the app.

The graph modules load only once a file has a multi-chain app.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from ...dsl.ast_nodes import AppDef, ChainDecl, Program
from ...errors import GraphError
from ..diagnostics import Diagnostic, Severity
from ..registry import rule

if TYPE_CHECKING:
    from ...graph.model import EdgeKey, EdgeSpec


def _resolution(context) -> Program:
    """Own elements and valid own filters over the run's stdlib (empty
    when disabled): an invalid filter's meta never reaches the lowering
    (its ADN102 already reports it)."""
    own = Program(elements=context.program.elements, filters=context.filters)
    return context.stdlib.merged(own)


def _retry_meta(name: str, namespace: Program) -> Optional[dict]:
    filter_def = namespace.filters.get(name)
    if filter_def is not None and filter_def.operator == "retry":
        return filter_def.meta
    return None


def _attempts(name: str, namespace: Program) -> int:
    """Attempts one call through the chain element ``name`` makes."""
    meta = _retry_meta(name, namespace)
    if meta is None:
        return 1
    from ...runtime.filters import DEFAULT_MAX_RETRIES

    return 1 + max(0, int(meta.get("max_retries", DEFAULT_MAX_RETRIES)))


def _admits(name: str, namespace: Program) -> bool:
    element = namespace.elements.get(name)
    return element is not None and bool(element.meta.get("admission_control"))


def lower_app(
    app: AppDef, namespace: Program
) -> Dict[EdgeKey, Tuple[ChainDecl, EdgeSpec]]:
    """The app's chains as edges: service pair -> (chain, EdgeSpec)."""
    from ...graph.model import EdgeSpec

    lowered: Dict[EdgeKey, Tuple[ChainDecl, EdgeSpec]] = {}
    for chain in app.chains:
        budgets = [
            meta.get("deadline_budget_ms")
            for meta in (_retry_meta(n, namespace) for n in chain.elements)
            if meta is not None and meta.get("deadline_budget_ms") is not None
        ]
        edge = EdgeSpec(
            src=chain.src,
            dst=chain.dst,
            elements=tuple(chain.elements),
            deadline_budget_ms=float(budgets[0]) if budgets else None,
            max_attempts=math.prod(
                _attempts(n, namespace) for n in chain.elements
            ),
            admission=any(_admits(n, namespace) for n in chain.elements),
        )
        lowered[edge.key] = (chain, edge)
    return lowered


def _lowered_apps(context) -> Iterator[tuple]:
    """``(name, app, namespace, lowered)`` per multi-chain app: a
    single-hop app has no upstream edge to check."""
    namespace = None
    for name, app in context.program.apps.items():
        if len(app.chains) >= 2:
            if namespace is None:
                namespace = _resolution(context)
            yield name, app, namespace, lower_app(app, namespace)


def _graphs(context) -> List[tuple]:
    """``(name, app, lowered, ServiceGraph)`` per multi-chain app whose
    chains form a DAG."""
    out = []
    for name, app, _namespace, lowered in _lowered_apps(context):
        from ...graph.model import ServiceGraph, ServiceSpec

        edges = [edge for _chain, edge in lowered.values()]
        services = {s: ServiceSpec(name=s) for e in edges for s in e.key}
        try:
            graph = ServiceGraph(name=name, services=services, edges=edges)
        except GraphError:
            continue  # a cycle: no call order to multiply or budget along
        out.append((name, app, lowered, graph))
    return out


@rule("ADN405", "edge-without-upstream-deadline", Severity.WARNING)
def check_edge_without_upstream_deadline(context) -> List[Diagnostic]:
    """A multi-chain app has an edge whose chain uses deadline-sensitive
    elements (``retry`` filters, admission control) while an upstream
    edge into its source service establishes no deadline budget — the
    downstream elements act on a deadline that never arrives. Give the
    upstream edge a retry filter with ``deadline_budget_ms`` so the
    remaining budget propagates to where it is consumed."""
    apps = list(_lowered_apps(context))
    if not apps:
        return []
    from ...graph.lint import deadline_custody

    out: List[Diagnostic] = []
    for name, app, namespace, lowered in apps:
        edges = [edge for _chain, edge in lowered.values()]
        for edge, parent in deadline_custody(edges):
            if parent is None:
                # entry-edge custody is the runtime caller's job in the
                # DSL view; only broken *propagation* is a finding here
                continue
            chain, upstream = lowered[edge.key][0], lowered[parent.key][0]
            sensitive = [
                n
                for n in chain.elements
                if _attempts(n, namespace) > 1 or _admits(n, namespace)
            ]
            out.append(
                context.diag(
                    "ADN405",
                    Severity.WARNING,
                    f"edge {chain.src} -> {chain.dst} uses "
                    f"deadline-sensitive element(s) "
                    f"{', '.join(repr(n) for n in sensitive)} but "
                    f"upstream edge {upstream.src} -> {upstream.dst} "
                    "propagates no deadline budget",
                    span=upstream.span or chain.span or app.span,
                    element=name,
                    fix="add a retry filter with "
                    "'deadline_budget_ms: <ms>;' to the upstream "
                    "chain so the remaining budget reaches the "
                    "downstream elements",
                )
            )
    return out


@rule("ADN601", "retry-amplification-bound", Severity.ERROR)
def check_retry_amplification(context) -> List[Diagnostic]:
    """A multi-chain app stacks retry filters along a call path such
    that the worst-case attempt count (the product of each chain's
    ``max_retries + 1``) exceeds the amplification bound — one slow leaf
    dependency then multiplies load on every service between it and the
    root, the classic retry storm. Retry near the root or near the leaf,
    not both."""
    graphs = _graphs(context)
    if not graphs:
        return []
    from ...analysis.graph import (
        GraphAnalysisOptions,
        amplification_crossings,
        retry_amplification,
    )

    threshold = GraphAnalysisOptions().amplification_threshold
    out: List[Diagnostic] = []
    for name, app, lowered, graph in graphs:
        bounds = retry_amplification(graph)[0]
        for edge in amplification_crossings(graph, bounds, threshold):
            chain = lowered[edge.key][0]
            out.append(
                context.diag(
                    "ADN601",
                    Severity.ERROR,
                    f"worst-case retry amplification through edge "
                    f"{chain.src} -> {chain.dst} is "
                    f"{bounds[edge.key]:g}x (product of retry attempts "
                    f"along the call path), above the bound of "
                    f"{threshold:g}x",
                    span=chain.span or app.span,
                    element=name,
                    fix="lower max_retries on the stacked retry filters "
                    "(attempts multiply across chained edges)",
                )
            )
    return out


@rule("ADN602", "deadline-budget-infeasible", Severity.WARNING)
def check_deadline_budget_feasibility(context) -> List[Diagnostic]:
    """A downstream chain's retry filter budgets more milliseconds than
    any upstream chain establishes — the surplus can never be used,
    because the propagated remaining budget is already smaller when the
    call arrives. Size nested budgets monotonically downward."""
    graphs = _graphs(context)
    if not graphs:
        return []
    from ...analysis.graph import deadline_budgets

    out: List[Diagnostic] = []
    for name, app, lowered, graph in graphs:
        inherited = deadline_budgets(graph)[0]
        for edge in graph.edges:
            own = edge.deadline_budget_ms
            if own is None or own <= inherited[edge.key]:
                continue
            chain = lowered[edge.key][0]
            out.append(
                context.diag(
                    "ADN602",
                    Severity.WARNING,
                    f"edge {chain.src} -> {chain.dst} budgets {own:g} ms "
                    f"but every upstream chain delivers at most "
                    f"{inherited[edge.key]:g} ms — the surplus is "
                    "unusable headroom",
                    span=chain.span or app.span,
                    element=name,
                    fix="lower the downstream deadline_budget_ms to what "
                    "the upstream chains actually propagate",
                )
            )
    return out
