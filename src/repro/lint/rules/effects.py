"""``ADN70x`` — exactly-once / replica-divergence hazards (DSL side).

Surfaces the per-mutation-site proofs of the effect fold
(:mod:`repro.ir.state_access`, cached on each element's analysis) as
element-level findings. The spec-side variants in
:mod:`repro.analysis.graph` prove the same hazards *against a topology*
(a site only double-charges if some edge actually retries over it, so
there ADN700 is an error); without edge context the DSL side reports
them as hazards the element carries into any retrying or fan-out
deployment.
"""

from __future__ import annotations

from typing import List

from ..diagnostics import Diagnostic, Severity
from ..registry import rule


def _own_analyses(context):
    """Each analyzed own element, by name."""
    for name in sorted(context.own_elements):
        analysis = context.analysis(name)
        if analysis is not None:
            yield name, analysis


@rule("ADN700", "non-idempotent-under-retry", Severity.WARNING)
def check_non_idempotent(context) -> List[Diagnostic]:
    """A handler mutation is neither idempotent nor rpc_id-keyed: a
    retried attempt of one logical RPC re-applies it, so deploying the
    element under any retrying edge double-charges state."""
    out: List[Diagnostic] = []
    for name, analysis in _own_analyses(context):
        for site in analysis.effects.non_idempotent_sites():
            out.append(
                context.diag(
                    "ADN700",
                    Severity.WARNING,
                    f"{site.describe()} re-applies on every retried "
                    "attempt (at-least-once delivery duplicates it)",
                    span=site.span,
                    element=name,
                    fix="record input.rpc_id in the written row (dedup "
                    "key), or restructure the mutation into an "
                    "idempotent set of the same value",
                )
            )
    return out


@rule("ADN701", "non-commutative-mutation", Severity.HINT)
def check_non_commutative(context) -> List[Diagnostic]:
    """A mutation does not commute with itself: sibling RPCs racing
    through fan-out edges make the final state order-dependent."""
    out: List[Diagnostic] = []
    for name, analysis in _own_analyses(context):
        for site in analysis.effects.non_commutative_sites():
            out.append(
                context.diag(
                    "ADN701",
                    Severity.HINT,
                    f"{site.describe()} does not commute with itself; "
                    "parallel sibling RPCs leave order-dependent state",
                    span=site.span,
                    element=name,
                    fix="restructure to a commutative update "
                    "(col = col + delta with a state-free guard), or "
                    "serialize the element behind one instance",
                )
            )
    return out


@rule("ADN702", "replica-divergent-mutation", Severity.WARNING)
def check_replica_divergence(context) -> List[Diagnostic]:
    """The coarse replication classifier calls the element scalable, but
    a per-mutation-site proof shows a replica-divergent site: replicas
    would silently disagree, so scale-out must be refused."""
    out: List[Diagnostic] = []
    for name, analysis in _own_analyses(context):
        if not analysis.replication.shardable:
            continue  # already blocked coarsely (ADN301/302 report it)
        tightened = analysis.refined_replication
        if tightened.shardable:
            continue
        out.append(
            context.diag(
                "ADN702",
                Severity.WARNING,
                f"element scales by the coarse verdict but holds a "
                f"replica-divergent mutation site: "
                f"{'; '.join(tightened.reasons())}",
                element=name,
                fix="make the divergent site deterministic and "
                "idempotent, or accept single-instance scaling",
            )
        )
    return out


@rule("ADN703", "retry-visible-read", Severity.HINT)
def check_retry_visible_reads(context) -> List[Diagnostic]:
    """A response field derives from state a non-idempotent mutation
    changes: a duplicate attempt observes (and answers with) different
    state than the first, so retries are visible to the caller."""
    out: List[Diagnostic] = []
    for name, analysis in _own_analyses(context):
        for read, site in analysis.effects.retry_visible_reads():
            out.append(
                context.diag(
                    "ADN703",
                    Severity.HINT,
                    f"emitted field {read.output_field!r} ({read.handler} "
                    f"handler) reads {read.target_kind} "
                    f"{read.target!r}, which {site.describe()} changes "
                    "per attempt — a retry answers differently",
                    span=site.span,
                    element=name,
                    fix="derive the response from request fields or "
                    "rpc_id-keyed state so duplicate attempts observe "
                    "identical values",
                )
            )
    return out
