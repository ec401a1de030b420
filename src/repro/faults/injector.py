"""The fault injector: a simulation process that applies a FaultPlan.

Faults land on the *substrate* — machines, processors, the virtual L2 —
never on the data-plane code paths directly, so every observable effect
(blackholed RPCs, timeout storms, detector suspicion) emerges from the
same mechanisms a real deployment would exercise.

Determinism: events fire at their scheduled virtual times, transient
reverts at ``at_s + duration_s``, and the only stochastic fault effect
(link loss sampling) runs off the L2's RNG, reseeded from the plan seed
when the injector starts. Same plan + same workload ⇒ same timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Tuple

from ..sim.cluster import Cluster
from ..sim.engine import Event, Simulator
from .plan import (
    CONTROL_PARTITION,
    GRAY_DEGRADE,
    LINK_LATENCY,
    LINK_LOSS,
    LINK_PARTITION,
    MACHINE_CRASH,
    PROCESSOR_HANG,
    PROCESSOR_SLOWDOWN,
    FaultEvent,
    FaultPlan,
    FaultPlanError,
)


@dataclass(frozen=True)
class TimelineEntry:
    """One thing the injector did, for reports and determinism checks."""

    at_s: float
    action: str  # "inject" | "revert"
    kind: str
    target: str
    detail: str = ""


@dataclass
class FaultInjector:
    """Applies a :class:`FaultPlan` to a cluster and its stacks."""

    sim: Simulator
    cluster: Cluster
    stacks: List[object] = field(default_factory=list)  # AdnMrpcStack
    timeline: List[TimelineEntry] = field(default_factory=list)
    #: ground-truth crash instants, keyed by machine — what detector
    #: latency is measured against
    crash_times: Dict[str, float] = field(default_factory=dict)
    #: processors currently hung, with the gate each is parked on
    _hung: Dict[str, List[Tuple[object, Event]]] = field(default_factory=dict)
    #: failure detectors to re-prime when a healed CONTROL_PARTITION
    #: brings a silenced machine back onto the heartbeat channel
    detectors: List[object] = field(default_factory=list)
    #: ground-truth gray-degrade onsets, keyed by machine (mirrors
    #: ``crash_times`` for detection-latency measurement)
    gray_times: Dict[str, float] = field(default_factory=dict)

    def register_stack(self, stack) -> None:
        """Stacks registered here get processor-level faults (hang,
        slowdown) and instance resets on machine restart."""
        self.stacks.append(stack)

    def register_detector(self, detector) -> None:
        """Detectors registered here get ``expect()`` re-primed for a
        machine whose control partition heals: its first post-heal
        heartbeat is *late* by the whole partition, and without a
        re-prime the stale arrival stats would instantly re-declare the
        healthy machine dead."""
        self.detectors.append(detector)

    def _processors_on(self, machine: str) -> List[object]:
        return [
            processor
            for stack in self.stacks
            for processor in stack.processors
            if processor.segment.machine == machine
        ]

    def _log(self, action: str, event: FaultEvent, detail: str = "") -> None:
        self.timeline.append(
            TimelineEntry(
                at_s=self.sim.now,
                action=action,
                kind=event.kind,
                target=event.target,
                detail=detail,
            )
        )

    # -- the process ---------------------------------------------------------

    def run(self, plan: FaultPlan) -> Generator:
        """Simulation process: apply every event at its time; schedule
        reverts for duration-bounded faults."""
        self.cluster.l2.reseed(plan.seed)
        for event in plan.events:
            if event.at_s > self.sim.now:
                yield event.at_s - self.sim.now
            self._apply(event)
            if event.duration_s is not None:
                self.sim.process(self._revert_after(event))

    def _revert_after(self, event: FaultEvent) -> Generator:
        yield float(event.duration_s)
        self._revert(event)

    # -- apply / revert ------------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        kind = event.kind
        conditions = self.cluster.l2.conditions
        if kind == MACHINE_CRASH:
            self.cluster.machine(event.target).crash()
            self.crash_times[event.target] = self.sim.now
            self._log("inject", event)
        elif kind == PROCESSOR_HANG:
            hung = self._hung.setdefault(event.target, [])
            for processor in self._processors_on(event.target):
                gate = self.sim.event()
                processor.hang_event = gate
                hung.append((processor, gate))
            self._log("inject", event, detail=f"{len(hung)} processors")
        elif kind == PROCESSOR_SLOWDOWN:
            processors = self._processors_on(event.target)
            for processor in processors:
                processor.slowdown_factor = event.magnitude
            self._log(
                "inject", event, detail=f"x{event.magnitude:.2f} on "
                f"{len(processors)} processors"
            )
        elif kind == LINK_PARTITION:
            conditions.partitioned = True
            self._log("inject", event)
        elif kind == LINK_LOSS:
            conditions.loss_probability = event.magnitude
            self._log("inject", event, detail=f"p={event.magnitude:.3f}")
        elif kind == LINK_LATENCY:
            conditions.extra_latency_us = event.magnitude
            self._log("inject", event, detail=f"+{event.magnitude:.0f}us/hop")
        elif kind == CONTROL_PARTITION:
            # dataplane traffic keeps flowing; only the controller's
            # heartbeat/command channel to this machine is severed
            self.cluster.machine(event.target).control_reachable = False
            self._log("inject", event)
        elif kind == GRAY_DEGRADE:
            processors = self._processors_on(event.target)
            for processor in processors:
                processor.slowdown_factor = event.magnitude
            self.gray_times.setdefault(event.target, self.sim.now)
            self._log(
                "inject", event, detail=f"x{event.magnitude:.1f} on "
                f"{len(processors)} processors (heartbeats keep flowing)"
            )
        else:  # pragma: no cover - FaultEvent validates kinds
            raise FaultPlanError(f"unhandled fault kind {kind!r}")

    def _revert(self, event: FaultEvent) -> None:
        kind = event.kind
        conditions = self.cluster.l2.conditions
        if kind == MACHINE_CRASH:
            machine = self.cluster.machine(event.target)
            machine.restart()
            # the host is back with empty memory: every processor it
            # hosted re-creates its element instances (init re-runs;
            # runtime-accumulated state is gone unless restored)
            reset = 0
            for processor in self._processors_on(event.target):
                processor.reset_instances()
                reset += 1
            self._log("revert", event, detail=f"reset {reset} processors")
        elif kind == PROCESSOR_HANG:
            hung = self._hung.pop(event.target, [])
            for processor, gate in hung:
                if processor.hang_event is gate:
                    processor.hang_event = None
                gate.succeed()
            self._log("revert", event, detail=f"{len(hung)} resumed")
        elif kind == PROCESSOR_SLOWDOWN:
            for processor in self._processors_on(event.target):
                processor.slowdown_factor = 1.0
            self._log("revert", event)
        elif kind == LINK_PARTITION:
            conditions.partitioned = False
            self._log("revert", event)
        elif kind == LINK_LOSS:
            conditions.loss_probability = 0.0
            self._log("revert", event)
        elif kind == LINK_LATENCY:
            conditions.extra_latency_us = 0.0
            self._log("revert", event)
        elif kind == CONTROL_PARTITION:
            self.cluster.machine(event.target).control_reachable = True
            # rehabilitation: the machine was healthy all along, only
            # silenced — re-prime every registered detector so its
            # first (late) post-heal heartbeat is a fresh baseline, not
            # instant grounds for a second death sentence
            for detector in self.detectors:
                detector.expect(event.target)
            self._log(
                "revert", event,
                detail=f"re-primed {len(self.detectors)} detector(s)",
            )
        elif kind == GRAY_DEGRADE:
            for processor in self._processors_on(event.target):
                processor.slowdown_factor = 1.0
            # gray_times keeps the onset: it is ground truth for
            # detection latency, exactly like crash_times
            self._log("revert", event)
