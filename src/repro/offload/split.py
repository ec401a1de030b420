"""Split-chain compilation: carve a device-legal prefix off a chain.

The placement solver already decides *where* elements go; this module
answers the harder operational question for ROADMAP item 5 — given a
chain assigned to an edge, which *prefix* can execute on the NIC or
switch **in front of** the host, and is that split provably sound?

The split is conservative by construction:

* elements join the prefix front-to-back only — an RPC crosses the
  device exactly once on its way to the host, so offloaded elements
  must form a contiguous prefix of the (already optimized and
  reordered) chain;
* an element joins only if the device's backend accepts it (the
  NIC runs the eBPF subset under SmartNIC capacity limits, the switch
  runs P4 within the hop's parse window) — a *fused* element is refused
  whole (backends keep hardware programs per-element), so a fusion
  straddling the ideal split boundary pins the whole fused group to
  the host rather than splitting it open;
* cumulative state-table bytes and registers are checked against the
  device's :class:`~repro.offload.device.DeviceProfile`; the element
  that would overflow produces an **ADN406** diagnostic and the walk
  stops — capacity refusals fall back to host placement, never crash;
* finally the split is **translation-validated**: the prefix+suffix
  recomposition must be semantically equal to the original chain
  (:func:`repro.analysis.validate.validate_rewrite`). A failed verdict
  cancels the offload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.validate import ValidationVerdict, validate_rewrite
from ..compiler.compiler import CompiledChain
from ..control.placement import (
    SWITCH_LOCATION,
    PlacementPlan,
    PlacementSegment,
    local_stages,
    switch_window_ok,
)
from ..dsl.schema import RpcSchema
from ..lint.diagnostics import Diagnostic, Severity
from ..platforms import Platform
from .device import DeviceProfile, check_capacity, device_profile_for

#: offload tier name → (device platform, backend that must accept the
#: element, host-side suffix platform)
OFFLOAD_TIERS: Dict[str, Tuple[Platform, str]] = {
    "nic": (Platform.SMARTNIC, "nic"),
    "switch": (Platform.SWITCH_P4, "p4"),
}


@dataclass
class SplitDecision:
    """The outcome of one split-chain solve."""

    tier: str
    platform: Platform
    profile: DeviceProfile
    #: element names executing on the device, in chain order
    prefix: Tuple[str, ...] = ()
    #: element names staying on the host, in chain order
    suffix: Tuple[str, ...] = ()
    #: why the walk stopped where it did ("" when the whole chain fits)
    boundary_reason: str = ""
    #: ADN406 etc. raised while solving (host fallback, not a crash)
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: translation-validation verdict for the split (None when there was
    #: nothing to validate, i.e. empty prefix)
    verdict: Optional[ValidationVerdict] = None
    #: device table bytes pinned by the prefix
    table_bytes: int = 0

    @property
    def offloaded(self) -> bool:
        return bool(self.prefix)

    def to_dict(self) -> dict:
        return {
            "tier": self.tier,
            "prefix": list(self.prefix),
            "suffix": list(self.suffix),
            "boundary_reason": self.boundary_reason,
            "table_bytes": self.table_bytes,
            "validated": None if self.verdict is None else self.verdict.ok,
            "diagnostics": [diag.to_dict() for diag in self.diagnostics],
        }


def _capacity_diagnostic(
    name: str, profile: DeviceProfile, why: str, path: str
) -> Diagnostic:
    return Diagnostic(
        code="ADN406",
        severity=Severity.WARNING,
        message=(
            f"element {name!r} does not fit the {profile.name} with "
            f"the prefix already placed there: {why}; falling back to "
            "host placement for it and everything after it"
        ),
        path=path,
        element=name,
        fix=(
            "shrink the element's state tables (lower its "
            "`table_entries` meta) or accept the host fallback"
        ),
    )


def split_chain(
    chain: CompiledChain,
    schema: RpcSchema,
    tier: str,
    path: str = "<chain>",
    registry=None,
) -> SplitDecision:
    """Carve the longest device-legal, capacity-fitting prefix off
    ``chain`` for the given offload tier ("nic" or "switch")."""
    if tier not in OFFLOAD_TIERS:
        raise ValueError(
            f"unknown offload tier {tier!r} "
            f"(choose from {sorted(OFFLOAD_TIERS)})"
        )
    platform, backend = OFFLOAD_TIERS[tier]
    profile = device_profile_for(platform)
    decision = SplitDecision(tier=tier, platform=platform, profile=profile)
    order = list(chain.element_order)

    prefix: List[str] = []
    for name in order:
        compiled = chain.elements[name]
        ir = compiled.ir
        # the device sits in front of the server; an element pinned to
        # the sender cannot run there
        if ir.position == "sender":
            decision.boundary_reason = (
                f"{name} is pinned to the sender side"
            )
            break
        if backend not in compiled.legal_backends():
            report = compiled.legality.get(backend)
            violations = list(report.violations) if report else ["illegal"]
            why = "; ".join(violations)
            if "fused_from" in ir.meta:
                why = (
                    "fused element straddles the split boundary "
                    f"({why})"
                )
            elif violations and all(
                v.startswith("device capacity:") for v in violations
            ):
                # the nic backend folds per-element capacity into its
                # legality; that refusal is still a capacity fallback
                # and deserves the same ADN406 the cumulative check emits
                decision.diagnostics.append(
                    _capacity_diagnostic(name, profile, why, path)
                )
            decision.boundary_reason = f"{name}: {why}"
            break
        if tier == "switch" and not switch_window_ok(chain, schema, name):
            decision.boundary_reason = (
                f"{name} reads fields outside the hop's P4 parse window"
            )
            break
        capacity = check_capacity(
            profile, [chain.elements[member].ir for member in prefix + [name]]
        )
        if not capacity.fits:
            why = "; ".join(capacity.violations)
            decision.boundary_reason = f"{name}: device capacity ({why})"
            decision.diagnostics.append(
                _capacity_diagnostic(name, profile, why, path)
            )
            break
        prefix.append(name)

    suffix = order[len(prefix):]
    decision.prefix = tuple(prefix)
    decision.suffix = tuple(suffix)
    decision.table_bytes = check_capacity(
        profile, [chain.elements[member].ir for member in prefix]
    ).table_bytes

    if prefix:
        before = [chain.elements[name].ir for name in order]
        after = [chain.elements[name].ir for name in prefix + suffix]
        decision.verdict = validate_rewrite(
            before,
            after,
            schema,
            registry=registry,
            pass_name=f"offload-split:{tier}",
        )
        if decision.verdict.ok is False:
            decision.boundary_reason = (
                "translation validation refused the split: "
                f"{decision.verdict.counterexample}"
            )
            decision.prefix = ()
            decision.suffix = tuple(order)
            decision.table_bytes = 0
    return decision


def solve_offload_plan(
    chain: CompiledChain,
    schema: RpcSchema,
    tier: str,
    server_machine: str = "server-host",
    queue_limit: Optional[int] = None,
    path: str = "<chain>",
    registry=None,
) -> Tuple[PlacementPlan, SplitDecision]:
    """Build a placement plan that runs the device-legal prefix on the
    offload tier in front of ``server_machine`` and the rest in the
    host's mRPC engine. An empty prefix degenerates to the all-host
    plan (the documented fallback)."""
    decision = split_chain(chain, schema, tier, path=path, registry=registry)
    segments: List[PlacementSegment] = []
    if decision.prefix:
        machine = (
            SWITCH_LOCATION
            if decision.platform is Platform.SWITCH_P4
            else server_machine
        )
        segments.append(
            PlacementSegment(
                platform=decision.platform,
                machine=machine,
                elements=decision.prefix,
                stages=local_stages(chain, decision.prefix),
                queue_limit=queue_limit,
            )
        )
    if decision.suffix or not decision.prefix:
        segments.append(
            PlacementSegment(
                platform=Platform.MRPC,
                machine=server_machine,
                elements=decision.suffix,
                stages=local_stages(chain, decision.suffix),
                queue_limit=queue_limit,
            )
        )
    label = (
        f"offload={tier} prefix={len(decision.prefix)}"
        if decision.prefix
        else f"offload={tier} host-fallback"
    )
    plan = PlacementPlan(segments=segments, description=label)
    return plan, decision
