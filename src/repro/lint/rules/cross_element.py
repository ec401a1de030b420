"""``ADN310`` — why adjacent chain elements don't commute.

The optimizer silently declines to reorder/fuse/parallelize pairs that
fail the Bernstein checks in :mod:`repro.ir.dependency`. This rule turns
those refusals into findings so chain authors know which orderings are
load-bearing — and which cheap rewrite (e.g. narrowing a projection)
would unlock an optimization.
"""

from __future__ import annotations

from typing import List

from ...ir.dependency import commute
from ..diagnostics import Diagnostic, Severity
from ..registry import rule


@rule("ADN310", "non-commuting-pair", Severity.HINT)
def check_chain_pairs(context) -> List[Diagnostic]:
    """Adjacent elements in a declared chain do not commute; the
    optimizer must preserve their order. Reported once per pair with the
    dependency analysis's reasons."""
    out: List[Diagnostic] = []
    for app_name in context.own_apps:
        app = context.program.apps[app_name]
        for chain in app.chains:
            names = [
                name
                for name in chain.elements
                if name in context.irs  # filters/invalid skipped
            ]
            for first, second in zip(names, names[1:]):
                verdict = commute(
                    context.analysis(first), context.analysis(second)
                )
                if verdict.commutes:
                    continue
                reasons = "; ".join(verdict.reasons)
                out.append(
                    context.diag(
                        "ADN310",
                        Severity.HINT,
                        f"chain {chain.src} -> {chain.dst}: {first} and "
                        f"{second} do not commute ({reasons})",
                        span=chain.span,
                        element=app_name,
                        fix="order is preserved automatically; reorder "
                        "them yourself only if the listed dependency is "
                        "intended",
                    )
                )
    return out
