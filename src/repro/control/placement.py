"""Placement solver: where should each element run? (paper Q3, Figure 2)

Given a compiled chain, the deployment environment's capabilities, and
the app's constraints, choose a platform and location for every element
such that:

* the element's backend accepts the platform (legality matrix);
* hardware the platform needs actually exists (SmartNICs, programmable
  switch);
* switch-placed elements read only fields inside the P4 parse window of
  the hop's minimal header;
* ``position: sender/receiver`` and ``colocate`` constraints hold;
* ``mandatory`` / ``outside_app`` elements never share the application
  binary (never RPC_LIB);
* the chosen locations are monotonic along the path (an element cannot
  run on the server after one that runs on the switch, etc. — RPCs flow
  one way).

Four strategies mirror Figure 2's configurations: ``software`` (config
0/prototype: everything in the sender's mRPC engine), ``inapp`` (config
1), ``offload`` (configs 2–3: kernel/SmartNIC/switch where legal), and
``scaleout`` (config 4: replicated engine processors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..compiler.compiler import CompiledChain
from ..compiler.headers import check_switch_window, plan_hop_headers
from ..dsl.schema import RpcSchema
from ..errors import HeaderLayoutError, PlacementError
from ..platforms import Platform

#: machine name used for on-switch segments
SWITCH_LOCATION = "switch"


@dataclass
class PlacementSegment:
    """A contiguous run of chain elements on one platform/location."""

    platform: Platform
    machine: str  # machine name, or SWITCH_LOCATION
    elements: Tuple[str, ...]
    #: parallel stages local to this segment (subset of the chain's)
    stages: Tuple[Tuple[str, ...], ...] = ()
    #: number of replicated processor instances (Figure 2 config 4)
    replicas: int = 1
    #: bound on the processor's wait queue (repro.overload): RPCs
    #: arriving past it are rejected explicitly (``QueueFull``) instead
    #: of waiting forever; None keeps the legacy unbounded queue
    queue_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.stages:
            self.stages = tuple((name,) for name in self.elements)


@dataclass
class PlacementPlan:
    """The full realization of one chain across processors."""

    segments: List[PlacementSegment]
    #: "engine" (mRPC owns the wire) or "proxyless" (the RPC library
    #: itself talks to the kernel), per side
    client_transport: str = "engine"
    server_transport: str = "engine"
    description: str = ""
    #: configuration epoch minted by the controller that solved this
    #: plan; the data plane fences installs whose epoch is not strictly
    #: newer than what it already runs (0 = legacy unfenced plan)
    epoch: int = 0

    def segments_on(self, machine: str) -> List[PlacementSegment]:
        return [seg for seg in self.segments if seg.machine == machine]

    def element_locations(self) -> Dict[str, Tuple[Platform, str]]:
        return {
            name: (segment.platform, segment.machine)
            for segment in self.segments
            for name in segment.elements
        }


#: Monotonic path positions: client side ascends toward the wire, then
#: the switch, then the server side descends toward the application.
_PATH_POSITION: Dict[Tuple[str, Platform], int] = {
    ("client", Platform.RPC_LIB): 0,
    ("client", Platform.MRPC): 1,
    ("client", Platform.SIDECAR): 2,
    ("client", Platform.KERNEL_EBPF): 3,
    ("client", Platform.SMARTNIC): 4,
    ("switch", Platform.SWITCH_P4): 5,
    ("server", Platform.SMARTNIC): 6,
    ("server", Platform.KERNEL_EBPF): 7,
    ("server", Platform.SIDECAR): 8,
    ("server", Platform.MRPC): 9,
    ("server", Platform.RPC_LIB): 10,
}


@dataclass
class ClusterSpec:
    """What hardware/software the deployment environment offers."""

    client_machine: str = "client-host"
    server_machine: str = "server-host"
    smartnics: bool = False
    programmable_switch: bool = False
    kernel_offload: bool = True
    sidecars_available: bool = True
    #: the mRPC-style userspace engine is deployed on the hosts; without
    #: it, elements that cannot run in-app or on an offload have no home
    engine_available: bool = True
    #: a warm-standby controller pair (lease-based leadership, journal
    #: handoff — repro.control.resilience) runs the recovery path;
    #: without it the single controller is itself a point of failure
    #: for every element whose recovery depends on it (lint ADN407)
    standby_controller: bool = False

    def machine_for(self, side: str) -> str:
        if side == "client":
            return self.client_machine
        if side == "server":
            return self.server_machine
        return SWITCH_LOCATION


@dataclass
class PlacementRequest:
    """Inputs to one solve."""

    chain: CompiledChain
    schema: RpcSchema
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    strategy: str = "software"  # software | inapp | offload | scaleout
    replicas: int = 1  # for scaleout
    #: element name → "sender"/"receiver" overrides (colocate constraints)
    colocate: Dict[str, str] = field(default_factory=dict)
    #: elements that must not share the app binary
    outside_app: Tuple[str, ...] = ()


_STRATEGIES = ("software", "inapp", "offload", "scaleout")


def switch_window_ok(
    chain: CompiledChain, schema: RpcSchema, name: str
) -> bool:
    """The P4 parse-window constraint: the element may only read fields
    inside the window of its hop's minimal header."""
    index = chain.element_order.index(name)
    try:
        plans = plan_hop_headers(chain.ir, schema, [index - 1])
    except HeaderLayoutError:
        return False
    analysis = chain.elements[name].analysis
    handler = analysis.handlers.get("request") if analysis else None
    reads = sorted(handler.fields_read) if handler else []
    try:
        check_switch_window(plans[0].layout, reads)
    except HeaderLayoutError:
        return False
    return True


def local_stages(
    chain: CompiledChain, elements: Sequence[str]
) -> Tuple[Tuple[str, ...], ...]:
    """Restrict the chain's parallel stages to one segment's elements,
    preserving stage grouping."""
    member_set = set(elements)
    local: List[Tuple[str, ...]] = []
    for stage in chain.ir.stages:
        members = tuple(name for name in stage if name in member_set)
        if members:
            local.append(members)
    return tuple(local)


class PlacementSolver:
    """Solves one placement request into a :class:`PlacementPlan`."""

    def __init__(self, request: PlacementRequest):
        if request.strategy not in _STRATEGIES:
            raise PlacementError(
                f"unknown strategy {request.strategy!r} "
                f"(choose from {_STRATEGIES})"
            )
        self.request = request
        self.chain = request.chain

    # -- per-element candidates ----------------------------------------------

    def _side_for(self, name: str) -> str:
        """'client', 'server', or 'any'."""
        override = self.request.colocate.get(name)
        if override == "sender":
            return "client"
        if override == "receiver":
            return "server"
        position = self.chain.elements[name].ir.position
        if position == "sender":
            return "client"
        if position == "receiver":
            return "server"
        return "any"

    def _legal_platforms(self, name: str) -> List[Platform]:
        compiled = self.chain.elements[name]
        legal_backends = set(compiled.legal_backends())
        platforms: List[Platform] = []
        for platform in Platform:
            if platform.backend_name not in legal_backends:
                continue
            if platform is Platform.SMARTNIC and not self.request.cluster.smartnics:
                continue
            if (
                platform is Platform.SWITCH_P4
                and not self.request.cluster.programmable_switch
            ):
                continue
            if (
                platform is Platform.KERNEL_EBPF
                and not self.request.cluster.kernel_offload
            ):
                continue
            if (
                platform is Platform.SIDECAR
                and not self.request.cluster.sidecars_available
            ):
                continue
            if (
                platform is Platform.MRPC
                and not self.request.cluster.engine_available
            ):
                continue
            if platform.in_app_binary and self._must_leave_app(name):
                continue
            platforms.append(platform)
        if not platforms:
            raise PlacementError(
                f"element {name!r} has no feasible platform in this "
                "environment"
            )
        return platforms

    def _must_leave_app(self, name: str) -> bool:
        if name in self.request.outside_app:
            return True
        return self.chain.elements[name].ir.mandatory

    def _preference(self, platform: Platform) -> int:
        """Lower = more preferred, per strategy."""
        strategy = self.request.strategy
        if strategy in ("software", "scaleout"):
            order = [
                Platform.MRPC,
                Platform.RPC_LIB,
                Platform.KERNEL_EBPF,
                Platform.SIDECAR,
                Platform.SMARTNIC,
                Platform.SWITCH_P4,
            ]
        elif strategy == "inapp":
            order = [
                Platform.RPC_LIB,
                Platform.MRPC,
                Platform.KERNEL_EBPF,
                Platform.SIDECAR,
                Platform.SMARTNIC,
                Platform.SWITCH_P4,
            ]
        else:  # offload
            order = [
                Platform.SWITCH_P4,
                Platform.SMARTNIC,
                Platform.KERNEL_EBPF,
                Platform.MRPC,
                Platform.RPC_LIB,
                Platform.SIDECAR,
            ]
        return order.index(platform)

    # -- the solve -------------------------------------------------------------

    def solve(self) -> PlacementPlan:
        order = list(self.chain.element_order)
        if self.request.strategy in ("offload", "inapp"):
            order = self._reorder_for_placement(order)
        # all feasible (pref, position, side, platform) per element
        per_element: List[List[Tuple[int, int, str, Platform]]] = []
        for name in order:
            side_constraint = self._side_for(name)
            candidates: List[Tuple[int, int, str, Platform]] = []
            for platform in self._legal_platforms(name):
                for side in self._sides_of(platform, side_constraint):
                    if platform is Platform.SWITCH_P4 and not switch_window_ok(
                        self.chain, self.request.schema, name
                    ):
                        continue
                    candidates.append(
                        (
                            self._preference(platform),
                            _PATH_POSITION[(side, platform)],
                            side,
                            platform,
                        )
                    )
            if not candidates:
                raise PlacementError(
                    f"element {name!r} has no feasible placement under the "
                    "side/legality constraints"
                )
            per_element.append(candidates)
        # pass 1 (right to left): the maximum position each element may
        # take so that every later element can still be placed after it
        ceilings = [0] * len(order)
        ceiling = max(_PATH_POSITION.values())
        for index in range(len(order) - 1, -1, -1):
            feasible = [
                position
                for _pref, position, _side, _platform in per_element[index]
                if position <= ceiling
            ]
            if not feasible:
                raise PlacementError(
                    f"no placement for {order[index]!r} satisfies path "
                    f"order (every candidate exceeds position {ceiling})"
                )
            ceilings[index] = max(feasible)
            ceiling = ceilings[index]
        # pass 2 (left to right): best preference within [floor, ceiling
        # of the next element]
        choices: List[Tuple[str, str, Platform]] = []
        floor = 0
        for index, name in enumerate(order):
            upper = (
                ceilings[index + 1]
                if index + 1 < len(order)
                else max(_PATH_POSITION.values())
            )
            viable = [
                candidate
                for candidate in per_element[index]
                if floor <= candidate[1] <= upper
            ]
            if not viable:
                raise PlacementError(
                    f"no placement for {name!r} satisfies path order and "
                    f"constraints (needs position in [{floor}, {upper}])"
                )
            viable.sort()
            _pref, position, side, platform = viable[0]
            floor = position
            choices.append((name, side, platform))
        return self._build_plan(choices)

    def _reorder_for_placement(self, order: List[str]) -> List[str]:
        """Placement-friendly reorder (paper Figure 2 config 3): sort
        elements toward their ideal path position — sender-pinned
        software first, offloadable elements toward the wire/switch,
        receiver-pinned last — swapping only commuting pairs. This is how
        "access control moves to the switch before decompression after
        the compiler determines the reorder preserves semantics"; for
        the in-app strategy it pushes mandatory (outside-binary) elements
        behind the in-app run."""
        from ..ir.passes.reorder import reorder_by_priority

        analyses = self.chain.analyses()
        offload = self.request.strategy == "offload"

        def desired_position(name: str) -> int:
            side = self._side_for(name)
            if side == "client":
                return 0
            if side == "server":
                return 9
            if not offload:  # inapp: in-app-able first, mandatory after
                return 1 if self._must_leave_app(name) else 0
            compiled = self.chain.elements[name]
            legal = set(compiled.legal_backends())
            if (
                "p4" in legal
                and self.request.cluster.programmable_switch
                and switch_window_ok(
                    self.chain, self.request.schema, name
                )
            ):
                return 5
            if ("ebpf" in legal or "nic" in legal) and (
                self.request.cluster.smartnics
                or self.request.cluster.kernel_offload
            ):
                return 3
            return 1

        reordered, _changed = reorder_by_priority(
            order, analyses, desired_position, ()
        )
        return reordered

    def _sides_of(self, platform: Platform, constraint: str) -> List[str]:
        if platform is Platform.SWITCH_P4:
            # the switch is on neither host; position constraints that pin
            # an element to a host exclude the switch
            return ["switch"] if constraint == "any" else []
        if constraint == "any":
            return ["client", "server"]
        return [constraint]

    def _build_plan(
        self, choices: Sequence[Tuple[str, str, Platform]]
    ) -> PlacementPlan:
        cluster = self.request.cluster
        segments: List[PlacementSegment] = []
        for name, side, platform in choices:
            machine = cluster.machine_for(side)
            replicas = (
                self.request.replicas
                if self.request.strategy == "scaleout"
                and platform in (Platform.MRPC, Platform.SIDECAR)
                else 1
            )
            if (
                segments
                and segments[-1].platform is platform
                and segments[-1].machine == machine
                and segments[-1].replicas == replicas
            ):
                last = segments[-1]
                segments[-1] = PlacementSegment(
                    platform=platform,
                    machine=machine,
                    elements=last.elements + (name,),
                    stages=local_stages(self.chain, last.elements + (name,)),
                    replicas=replicas,
                )
            else:
                segments.append(
                    PlacementSegment(
                        platform=platform,
                        machine=machine,
                        elements=(name,),
                        stages=((name,),),
                        replicas=replicas,
                    )
                )
        client_transport = self._transport_mode(
            cluster.client_machine, segments
        )
        server_transport = self._transport_mode(
            cluster.server_machine, segments
        )
        return PlacementPlan(
            segments=segments,
            client_transport=client_transport,
            server_transport=server_transport,
            description=f"strategy={self.request.strategy}",
        )

    def _transport_mode(
        self, machine: str, segments: Sequence[PlacementSegment]
    ) -> str:
        """Proxyless when the machine hosts only in-app/kernel elements
        (Figure 2 config 1: 'akin to gRPC proxyless'); engine otherwise."""
        local = [seg for seg in segments if seg.machine == machine]
        if not local:
            return "engine"
        if all(
            seg.platform in (Platform.RPC_LIB, Platform.KERNEL_EBPF)
            for seg in local
        ):
            return "proxyless"
        return "engine"


def solve_placement(request: PlacementRequest) -> PlacementPlan:
    """Convenience wrapper."""
    return PlacementSolver(request).solve()
