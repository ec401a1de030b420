"""``ADN405`` — graph-safety: deadline-sensitive edge with no upstream
budget.

In a multi-service app, elements that act on deadlines — ``retry``
filters consuming a budget, admission control shedding expired work —
only help if a deadline actually *reaches* them. The budget is
established where an edge's chain sets ``deadline_budget_ms`` and then
propagated hop by hop (repro.overload carries the remaining budget on
the wire; repro.graph derives child budgets from the parent's
remainder). An upstream edge with no budget breaks the chain of
custody: the downstream retry retries work whose caller may have given
up, and admission cannot drop already-dead requests before service
time.
"""

from __future__ import annotations

from typing import List, Optional

from ...dsl.ast_nodes import ChainDecl, Program
from ..deadline import CustodyEdge, walk_deadline_custody
from ..diagnostics import Diagnostic, Severity
from ..registry import rule


def _resolution(context) -> Program:
    """Own definitions over the run's stdlib (empty when disabled) — the
    same namespace app chains validate against."""
    own = Program(
        elements=context.program.elements, filters=context.program.filters
    )
    return context.stdlib.merged(own)


def _deadline_sensitive(chain: ChainDecl, namespace: Program) -> List[str]:
    """Element names in the chain that *consume* a deadline: retry
    filters and admission-control elements."""
    sensitive: List[str] = []
    for name in chain.elements:
        filter_def = namespace.filters.get(name)
        if filter_def is not None and filter_def.operator == "retry":
            sensitive.append(name)
            continue
        element = namespace.elements.get(name)
        if element is not None and element.meta.get("admission_control"):
            sensitive.append(name)
    return sensitive


def _carries_budget(chain: ChainDecl, namespace: Program) -> bool:
    """Does this edge establish a deadline budget? In the DSL that is a
    retry filter with ``deadline_budget_ms`` — the value the runtime
    stamps on the call and propagates as remaining budget."""
    for name in chain.elements:
        filter_def = namespace.filters.get(name)
        if (
            filter_def is not None
            and filter_def.operator == "retry"
            and filter_def.meta.get("deadline_budget_ms") is not None
        ):
            return True
    return False


def _custody_edges(app, namespace: Program) -> List[CustodyEdge]:
    """Lower an app's chains into the shared traversal's edge shape:
    "sensitive" reasons are the deadline-consuming element names, and
    the ``ChainDecl`` rides along as payload for span extraction."""
    return [
        CustodyEdge(
            src=chain.src,
            dst=chain.dst,
            name=f"{chain.src} -> {chain.dst}",
            sensitive=tuple(_deadline_sensitive(chain, namespace)),
            carries_budget=_carries_budget(chain, namespace),
            payload=chain,
        )
        for chain in app.chains
    ]


@rule("ADN405", "edge-without-upstream-deadline", Severity.WARNING)
def check_edge_without_upstream_deadline(context) -> List[Diagnostic]:
    """A multi-chain app has an edge whose chain uses deadline-sensitive
    elements (``retry`` filters, admission control) while an upstream
    edge into its source service establishes no deadline budget — the
    downstream elements act on a deadline that never arrives. Give the
    upstream edge a retry filter with ``deadline_budget_ms`` so the
    remaining budget propagates to where it is consumed."""
    out: List[Diagnostic] = []
    namespace: Optional[Program] = None
    for app_name, app in context.program.apps.items():
        if len(app.chains) < 2:
            continue  # single-hop apps have no upstream edges
        if namespace is None:
            namespace = _resolution(context)
        for finding in walk_deadline_custody(_custody_edges(app, namespace)):
            if finding.parent is None:
                # entry-edge custody is the runtime caller's job in the
                # DSL view; only broken *propagation* is a finding here
                continue
            chain = finding.edge.payload
            upstream: ChainDecl = finding.parent.payload
            out.append(
                context.diag(
                    "ADN405",
                    Severity.WARNING,
                    f"edge {finding.edge.name} uses "
                    f"deadline-sensitive element(s) "
                    f"{', '.join(repr(n) for n in finding.edge.sensitive)}"
                    f" but upstream edge {finding.parent.name} "
                    "propagates no deadline budget",
                    span=upstream.span or chain.span or app.span,
                    element=app_name,
                    fix="add a retry filter with "
                    "'deadline_budget_ms: <ms>;' to the upstream "
                    "chain so the remaining budget reaches the "
                    "downstream elements",
                )
            )
    return out
