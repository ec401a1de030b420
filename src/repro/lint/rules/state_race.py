"""``ADN3xx`` — state races / replication safety.

Surfaces the coarse replication verdict (:mod:`repro.ir.state_access`)
as findings: an element whose state is read-modify-write cannot be
scaled out by replication (each replica would see a fraction of the
history), which is exactly what the controller's autoscaler and the
parallelize pass will refuse at deploy time. Better to hear it from the
linter first.
"""

from __future__ import annotations

from typing import List

from ...ir.state_access import AccessMode
from ..diagnostics import Diagnostic, Severity
from ..registry import rule


def _own_safety(context):
    for name in context.own_elements:
        analysis = context.analysis(name)
        if analysis is not None and analysis.replication is not None:
            yield name, analysis.replication


@rule("ADN301", "state-race-table", Severity.WARNING)
def check_rmw_tables(context) -> List[Diagnostic]:
    """A state table is read-modify-write: concurrent replicas would race
    on it, so the element pins scaling to a single instance."""
    out: List[Diagnostic] = []
    for name, safety in _own_safety(context):
        for access in safety.accesses:
            if access.kind != "table":
                continue
            if access.mode is not AccessMode.READ_MODIFY_WRITE:
                continue
            out.append(
                context.diag(
                    "ADN301",
                    Severity.WARNING,
                    f"state table {access.name!r} is read-modify-write "
                    f"({access.detail}); replicas would race on it",
                    span=access.span,
                    element=name,
                    fix="restructure to counter-style updates "
                    "(col = col + delta), or add a KEY column pinned by "
                    "every access so the table can shard",
                )
            )
    return out


@rule("ADN302", "state-race-var", Severity.WARNING)
def check_rmw_vars(context) -> List[Diagnostic]:
    """An element variable is written and read back: variables have no
    key to shard by, so read-modify-write variables block scale-out
    entirely."""
    out: List[Diagnostic] = []
    for name, safety in _own_safety(context):
        for access in safety.accesses:
            if access.kind != "var":
                continue
            if access.mode is not AccessMode.READ_MODIFY_WRITE:
                continue
            out.append(
                context.diag(
                    "ADN302",
                    Severity.WARNING,
                    f"var {access.name!r} is read-modify-write "
                    f"({access.detail}); it cannot be replicated or "
                    "sharded",
                    span=access.span,
                    element=name,
                    fix="move the value into a keyed state table, or "
                    "accept single-instance scaling for this element",
                )
            )
    return out


@rule("ADN303", "shard-only-state", Severity.HINT)
def check_partitioned_tables(context) -> List[Diagnostic]:
    """A keyed table is read-modify-write but every access pins the key:
    the element scales only by key-partitioning, not by plain
    replication. Informational — the runtime supports this."""
    out: List[Diagnostic] = []
    for name, safety in _own_safety(context):
        for access in safety.accesses:
            if access.mode is not AccessMode.PARTITIONED:
                continue
            out.append(
                context.diag(
                    "ADN303",
                    Severity.HINT,
                    f"state table {access.name!r} requires key-partitioned "
                    "scale-out (every access pins its KEY columns)",
                    span=access.span,
                    element=name,
                    fix="no action needed; the controller will shard by "
                    "key instead of replicating",
                )
            )
    return out
