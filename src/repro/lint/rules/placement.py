"""``ADN4xx`` — placement infeasibility, detected without the solver.

The placement solver raises at deploy time when an element has no legal
processor. Both of its per-element filters are statically checkable:
backend legality (does any available platform's code generator accept
the element?) and constraint consistency (does the app pin an element to
a side its own meta forbids?).

``ADN403`` extends the family beyond feasibility into durability: an
element whose state blocks replication (read-modify-write, per
:mod:`repro.ir.state_access`) has exactly one copy of that state at
runtime — if the machine hosting it crashes and the element never opted
into checkpointing (``meta { checkpoint: true; }``), recovery has no
source to restore from and the state is simply gone.

``ADN407`` closes the loop ``ADN403`` opens: the fix for
unrecoverable state is ``meta { checkpoint: true; }``, which makes the
element's recovery a *controller* responsibility — the
RecoveryOrchestrator restores the checkpoint and retargets the delta
stream after a crash. On a cluster with no standby controller
(:class:`~repro.control.placement.ClusterSpec.standby_controller`),
that controller is itself a single point of failure: a controller
crash mid-recovery orphans the mesh with the element's state in limbo.

``ADN406`` covers the capacity dimension the legality matrix cannot:
an element can be perfectly expressible in the device's instruction
subset and still not *fit* — its keyed tables, sized by the
``table_entries`` meta (default 65536 rows), exceed the SmartNIC's or
switch's table memory, or it needs more registers than the pipeline
has. The offload path handles this safely at deploy time (host
fallback with a diagnostic); this rule surfaces the same fact
statically, while the chain is being written.
"""

from __future__ import annotations

from typing import List

from ...compiler.backends import make_backends
from ...platforms import Platform
from ..diagnostics import Diagnostic, Severity
from ..registry import rule


def _platform_available(platform: Platform, cluster) -> bool:
    if platform is Platform.SMARTNIC:
        return cluster.smartnics
    if platform is Platform.SWITCH_P4:
        return cluster.programmable_switch
    if platform is Platform.KERNEL_EBPF:
        return cluster.kernel_offload
    if platform is Platform.SIDECAR:
        return cluster.sidecars_available
    if platform is Platform.MRPC:
        return cluster.engine_available
    return True  # RPC_LIB: the app binary always exists


@rule("ADN401", "no-feasible-processor", Severity.ERROR)
def check_feasible_processor(context) -> List[Diagnostic]:
    """No platform in the configured cluster can host the element: every
    available platform's backend rejects it, or the only backend that
    accepts it runs in the app binary and the element is ``mandatory``
    (must run outside the app's trust domain). The placement solver
    would raise ``PlacementError`` for any chain using it."""
    out: List[Diagnostic] = []
    backends = make_backends(context.registry)
    cluster = context.options.cluster
    for name in context.own_elements:
        ir = context.irs.get(name)
        if ir is None:
            continue
        # walk the platforms in order, asking a backend only when the
        # walk reaches it; the refusals are read only if none accepts
        refusals: List[str] = []
        for platform in Platform:
            if not _platform_available(platform, cluster):
                refusals.append(f"{platform.value}: not in this cluster")
                continue
            if platform.in_app_binary and ir.mandatory:
                refusals.append(
                    f"{platform.value}: element is 'mandatory' (must run "
                    "outside the app binary)"
                )
                continue
            report = backends[platform.backend_name].check(ir)
            if report.legal:
                break
            refusals.append(f"{platform.value}: {report.violations[0]}")
        else:
            out.append(
                context.diag(
                    "ADN401",
                    Severity.ERROR,
                    f"no feasible processor for element {name!r}: "
                    + "; ".join(refusals),
                    span=context.program.elements[name].span,
                    element=name,
                    fix="relax the element (drop 'mandatory', avoid "
                    "payload/loop constructs) or enable a platform "
                    "(engine, sidecars, kernel offload, SmartNIC, switch)",
                )
            )
    return out


@rule("ADN402", "contradictory-colocation", Severity.ERROR)
def check_colocation_contradictions(context) -> List[Diagnostic]:
    """An app constraint pins an element to one side while the element's
    own ``meta { position: ...; }`` pins it to the other — the placement
    solver can never satisfy both."""
    out: List[Diagnostic] = []
    for app_name in context.own_apps:
        app = context.program.apps[app_name]
        for constraint in app.constraints:
            if constraint.kind != "colocate":
                continue
            element_name, side = constraint.args[0], constraint.args[1]
            ir = context.irs.get(element_name)
            if ir is None:
                continue
            position = ir.position
            if position in ("sender", "receiver") and position != side:
                out.append(
                    context.diag(
                        "ADN402",
                        Severity.ERROR,
                        f"app {app_name!r} colocates {element_name!r} with "
                        f"the {side}, but the element declares "
                        f"position: {position}",
                        span=constraint.span,
                        element=app_name,
                        fix="drop the colocate constraint or change the "
                        "element's position meta",
                    )
                )
    return out


@rule("ADN403", "unrecoverable-state", Severity.WARNING)
def check_unrecoverable_state(context) -> List[Diagnostic]:
    """A chain places an element whose state cannot be replicated
    (read-modify-write tables or variables) and that never opted into
    checkpointing: its single copy of state lives on one machine, and a
    crash of that machine loses it with no recovery source. Elements
    with replicable state survive via replicas; elements with ``meta {
    checkpoint: true; }`` survive via the warm standby — this rule
    flags the gap between the two."""
    out: List[Diagnostic] = []
    reported = set()
    for app_name in context.own_apps:
        app = context.program.apps[app_name]
        for chain in app.chains:
            for name in chain.elements:
                if name in reported:
                    continue
                analysis = context.analysis(name)
                ir = context.irs.get(name)
                if analysis is None or ir is None:
                    continue
                safety = analysis.replication
                if safety is None or not safety.blocking:
                    continue
                if ir.meta.get("checkpoint"):
                    continue
                reported.add(name)
                element = context.program.elements.get(name)
                span = element.span if element is not None else chain.span
                reasons = "; ".join(safety.reasons())
                out.append(
                    context.diag(
                        "ADN403",
                        Severity.WARNING,
                        f"element {name!r} holds non-replicable state with "
                        f"no recovery source: {reasons} — a crash of its "
                        "host machine loses this state permanently",
                        span=span,
                        element=name,
                        fix="add 'meta { checkpoint: true; }' to stream "
                        "the state to a warm standby, or restructure the "
                        "state to be replicable (read-only, commutative, "
                        "or keyed partitioned)",
                    )
                )
    return out


#: subset-legality backend per hardware platform: capacity is checked
#: here against the device profile, so legality must come from the raw
#: instruction-subset check (the nic backend folds capacity into its own
#: legality and would mask exactly the elements this rule is about)
_SUBSET_BACKEND = {
    Platform.SMARTNIC: "ebpf",
    Platform.SWITCH_P4: "p4",
}


@rule("ADN406", "state-exceeds-device-memory", Severity.WARNING)
def check_device_capacity(context) -> List[Diagnostic]:
    """A chain element is expressible on the cluster's SmartNIC or
    programmable switch but its state does not fit the device: keyed
    tables sized by ``meta { table_entries: N; }`` (default 65536 rows)
    overflow the device's table memory, or the element declares more
    variables than the pipeline has registers. At deploy time the
    offload solver refuses the prefix and falls back to the host — this
    rule reports the same capacity arithmetic statically, so the
    fallback is a choice rather than a surprise."""
    from ...offload.device import (
        device_profile_for,
        element_registers,
        element_table_bytes,
    )

    cluster = context.options.cluster
    devices = [
        platform
        for platform in (Platform.SMARTNIC, Platform.SWITCH_P4)
        if _platform_available(platform, cluster)
    ]
    if not devices:
        return []
    out: List[Diagnostic] = []
    backends = make_backends(context.registry)
    reported = set()
    for app_name in context.own_apps:
        app = context.program.apps[app_name]
        for chain in app.chains:
            for name in chain.elements:
                ir = context.irs.get(name)
                if ir is None:
                    continue
                for platform in devices:
                    if (name, platform) in reported:
                        continue
                    subset = backends[_SUBSET_BACKEND[platform]]
                    if not subset.check(ir).legal:
                        continue  # never offloadable; capacity is moot
                    profile = device_profile_for(platform)
                    needed_bytes = element_table_bytes(ir)
                    needed_regs = element_registers(ir)
                    overflows = []
                    if needed_bytes > profile.table_bytes:
                        overflows.append(
                            f"tables need {needed_bytes} bytes, "
                            f"{profile.name} has {profile.table_bytes}"
                        )
                    if needed_regs > profile.registers:
                        overflows.append(
                            f"needs {needed_regs} registers, "
                            f"{profile.name} has {profile.registers}"
                        )
                    if not overflows:
                        continue
                    reported.add((name, platform))
                    element = context.program.elements.get(name)
                    span = element.span if element is not None else chain.span
                    out.append(
                        context.diag(
                            "ADN406",
                            Severity.WARNING,
                            f"element {name!r} fits the "
                            f"{platform.value} instruction subset but "
                            f"not its memory: " + "; ".join(overflows)
                            + " — placement will fall back to the host",
                            span=span,
                            element=name,
                            fix="lower 'meta { table_entries: N; }' to "
                            "the real working-set size, shrink the "
                            "table's row types, or keep the element on "
                            "a software platform",
                        )
                    )
    return out


@rule("ADN407", "control-plane-single-point", Severity.WARNING)
def check_control_plane_single_point(context) -> List[Diagnostic]:
    """A chain element opts into checkpointed recovery
    (``meta { checkpoint: true; }``) but the cluster deploys no standby
    controller. Checkpointing makes recovery a controller
    responsibility: after the host crashes, the controller restores the
    element's state from the delta log and retargets the stream. With a
    single controller, that recovery path is itself unprotected — a
    controller crash mid-recovery leaves the mesh orphaned, the
    element's state restored nowhere. Deploy a warm-standby controller
    pair (lease-based failover, ``repro.control.resilience``) or accept
    that the checkpoint buys durability against exactly one machine's
    failure."""
    cluster = context.options.cluster
    if cluster is None or getattr(cluster, "standby_controller", False):
        return []
    out: List[Diagnostic] = []
    reported = set()
    for app_name in context.own_apps:
        app = context.program.apps[app_name]
        for chain in app.chains:
            for name in chain.elements:
                if name in reported:
                    continue
                ir = context.irs.get(name)
                if ir is None or not ir.meta.get("checkpoint"):
                    continue
                reported.add(name)
                element = context.program.elements.get(name)
                span = element.span if element is not None else chain.span
                out.append(
                    context.diag(
                        "ADN407",
                        Severity.WARNING,
                        f"element {name!r} relies on controller-driven "
                        "checkpoint recovery, but the cluster has no "
                        "standby controller — the controller is a "
                        "single point of failure for this element's "
                        "state",
                        span=span,
                        element=name,
                        fix="deploy a warm-standby controller pair and "
                        "declare it (--standby-controller on the CLI, "
                        "'standby_controller: true' in the cluster "
                        "spec), or drop the checkpoint if the state is "
                        "expendable",
                    )
                )
    return out
