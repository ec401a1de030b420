"""Autoscaling: watch utilization, scale processors out/in without
disrupting the application (paper Q3, Figure 2 configuration 4).

``Autoscaler`` is a policy loop: it samples a processor resource's
utilization over a window and decides scale-out (split state, add
capacity) or scale-in (merge state, remove capacity). Scaling uses
:class:`repro.state.migration.Migrator`, so the only data-plane impact
is the flip pause, during which the processor's queue buffers —
requests are delayed, never dropped.

Overload escalation (repro.overload): the loop also watches the
resource's estimated queueing delay — the signal that rises before
utilization windows saturate — and follows the degradation order
*autoscale before shedding, shed before collapse*: queue pressure first
triggers scale-out; only once capacity is pinned at ``max_capacity``
(or scale-out is refused for replication safety) does the loop engage
the processor's admission controller, and it releases shedding as soon
as the pressure clears.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence, Tuple

from ..ir.state_access import ReplicationSafety
from ..overload.admission import AdmissionController
from ..sim.engine import Simulator
from ..sim.resources import Resource
from ..state.migration import MigrationReport, MigrationTiming, Migrator


@dataclass
class ScalingEvent:
    """One scaling action taken (or refused) by the autoscaler."""

    at_s: float
    #: "scale_out" | "scale_in" | "refused_out" | "engaged_shedding"
    #: | "released_shedding"
    action: str
    capacity_before: int
    capacity_after: int
    utilization: float
    migration: Optional[MigrationReport] = None
    #: why a scale-out was refused (replication-safety verdicts)
    reasons: Tuple[str, ...] = ()


@dataclass
class AutoscalerConfig:
    """Policy knobs."""

    high_watermark: float = 0.85  # scale out above this utilization
    low_watermark: float = 0.25  # scale in below this
    sample_interval_s: float = 0.05
    max_capacity: int = 8
    min_capacity: int = 1
    cooldown_s: float = 0.2
    #: estimated queueing delay that also demands scale-out (None
    #: disables the delay trigger); the same threshold decides when a
    #: capacity-pinned processor must fall back to shedding
    queue_delay_high_ms: Optional[float] = None


class Autoscaler:
    """Scales one processor resource, migrating element state as needed.

    ``stateful_tables`` lists the state tables that must be split/merged
    when capacity changes (the controller passes the keyed tables of the
    elements hosted on the processor).

    ``safety`` carries the hosted elements' replication-safety verdicts,
    folds over each element's state-access summary
    (:mod:`repro.ir.state_access`). When any hosted element is not
    shardable — it holds read-modify-write state that key-partitioning
    cannot isolate — the autoscaler refuses to add replicas: scale-out
    would silently change semantics (each replica would see a fraction
    of the element's history). Refusals are recorded as ``refused_out``
    events with the blocking reasons. Scale-in is always allowed.

    The autoscaler gates on exactly the verdicts it is handed: the
    coarse ones (``analysis.replication``) judge each table and var, the
    refined ones (``analysis.refined_replication``) also refuse an
    element with a replica-divergent mutation site (ADN702), giving that
    site as the reason.
    """

    def __init__(
        self,
        sim: Simulator,
        resource: Resource,
        config: Optional[AutoscalerConfig] = None,
        stateful_tables: Optional[List] = None,
        migration_timing: Optional[MigrationTiming] = None,
        safety: Optional[Sequence[ReplicationSafety]] = None,
        admission: Optional[AdmissionController] = None,
    ):
        self.sim = sim
        self.resource = resource
        self.config = config or AutoscalerConfig()
        self.stateful_tables = stateful_tables or []
        self.safety = list(safety or [])
        self.migrator = Migrator(sim, migration_timing)
        #: the processor's admission controller, engaged only as the
        #: last escalation step (shed before collapse)
        self.admission = admission
        self.events: List[ScalingEvent] = []
        self._last_busy = 0.0
        self._last_sample_at = 0.0
        self._last_action_at = -1e9
        self._running = False

    # -- utilization sampling ---------------------------------------------

    def _window_utilization(self) -> float:
        elapsed = self.sim.now - self._last_sample_at
        if elapsed <= 0:
            return 0.0
        busy = self.resource.busy_time - self._last_busy
        self._last_busy = self.resource.busy_time
        self._last_sample_at = self.sim.now
        return busy / (elapsed * self.resource.capacity)

    # -- the control loop --------------------------------------------------------

    def run(self, duration_s: float) -> Generator:
        """Simulation process: sample and react for ``duration_s``."""
        self._running = True
        self._last_sample_at = self.sim.now
        self._last_busy = self.resource.busy_time
        deadline = self.sim.now + duration_s
        while self.sim.now < deadline:
            yield float(self.config.sample_interval_s)
            utilization = self._window_utilization()
            delay_high = self._queue_delay_high()
            pressed = utilization > self.config.high_watermark or delay_high
            if not pressed:
                self._release_shedding(utilization)
            if self.sim.now - self._last_action_at < self.config.cooldown_s:
                continue
            if pressed:
                if self.resource.capacity >= self.config.max_capacity:
                    # cannot scale away the load: degrade gracefully by
                    # shedding instead of letting the queue collapse
                    self._engage_shedding(utilization)
                    continue
                blockers = self._scale_out_blockers()
                if blockers:
                    self._refuse_scale_out(utilization, blockers)
                    self._engage_shedding(utilization)
                    continue
                yield from self._scale(utilization, out=True)
            elif (
                utilization < self.config.low_watermark
                and self.resource.capacity > self.config.min_capacity
            ):
                yield from self._scale(utilization, out=False)
        self._running = False

    def _queue_delay_high(self) -> bool:
        threshold_ms = self.config.queue_delay_high_ms
        if threshold_ms is None:
            return False
        return self.resource.estimated_sojourn_s() * 1e3 > threshold_ms

    # -- graceful-degradation escalation ----------------------------------

    def _engage_shedding(self, utilization: float) -> None:
        if self.admission is None or self.admission.engaged:
            return
        self.admission.engage(True)
        capacity = self.resource.capacity
        self.events.append(
            ScalingEvent(
                at_s=self.sim.now,
                action="engaged_shedding",
                capacity_before=capacity,
                capacity_after=capacity,
                utilization=utilization,
            )
        )

    def _release_shedding(self, utilization: float) -> None:
        if self.admission is None or not self.admission.engaged:
            return
        self.admission.engage(False)
        capacity = self.resource.capacity
        self.events.append(
            ScalingEvent(
                at_s=self.sim.now,
                action="released_shedding",
                capacity_before=capacity,
                capacity_after=capacity,
                utilization=utilization,
            )
        )

    def _scale(self, utilization: float, out: bool) -> Generator:
        before = self.resource.capacity
        after = before + 1 if out else before - 1
        migration: Optional[MigrationReport] = None
        for table in self.stateful_tables:
            if out:
                # split one way further; in this single-instance model the
                # migration cost is what matters — rows stay addressable
                parts, report = yield from self.migrator.scale_out(table, 2)
                merged = table.merge(table.decl, parts)
                table.load_snapshot(merged.snapshot())
                migration = report
            else:
                # scale-in: warm-merge while serving, pause only for the
                # routing flip (same discipline as scale-out)
                report = MigrationReport(
                    table=table.name, started_at=self.sim.now
                )
                report.rows_copied = len(table)
                warm_s = (
                    len(table) * self.migrator.timing.per_row_copy_us * 1e-6
                )
                if warm_s > 0:
                    yield warm_s
                report.warm_copy_s = warm_s
                pause_started = self.sim.now
                yield self.migrator.timing.flip_fixed_us * 1e-6
                report.pause_s = self.sim.now - pause_started
                report.finished_at = self.sim.now
                migration = report
        self.resource.set_capacity(after)
        self._last_action_at = self.sim.now
        self.events.append(
            ScalingEvent(
                at_s=self.sim.now,
                action="scale_out" if out else "scale_in",
                capacity_before=before,
                capacity_after=after,
                utilization=utilization,
                migration=migration,
            )
        )

    def _scale_out_blockers(self) -> List[str]:
        """Replication-safety reasons that forbid adding a replica."""
        reasons: List[str] = []
        for verdict in self.safety:
            if verdict.shardable:
                continue
            for reason in verdict.reasons():
                reasons.append(f"element {verdict.element!r}: {reason}")
        return reasons

    def _refuse_scale_out(
        self, utilization: float, reasons: List[str]
    ) -> None:
        capacity = self.resource.capacity
        self.events.append(
            ScalingEvent(
                at_s=self.sim.now,
                action="refused_out",
                capacity_before=capacity,
                capacity_after=capacity,
                utilization=utilization,
                reasons=tuple(reasons),
            )
        )
        # refusals honour the cooldown too, so a saturated processor does
        # not spam one refusal per sample
        self._last_action_at = self.sim.now

    @property
    def scale_out_count(self) -> int:
        return sum(1 for e in self.events if e.action == "scale_out")

    @property
    def scale_in_count(self) -> int:
        return sum(1 for e in self.events if e.action == "scale_in")
