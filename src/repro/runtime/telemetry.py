"""Data-plane telemetry (paper §5.3).

"Each processor acquires the compiled version of the RPC processing
logic from the control plane and periodically sends reports of logging,
tracing, and runtime statistical information back to the controller."

:class:`TelemetryCollector` is a simulation process that samples every
registered processor on an interval, computes per-window deltas
(throughput, drop rate, utilization), and delivers
:class:`ProcessorReport` objects to sinks — typically the controller,
whose autoscaling and placement decisions they inform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional

from ..sim.engine import Simulator
from .processor import ProcessorRuntime


@dataclass(frozen=True)
class ProcessorReport:
    """One telemetry sample from one processor."""

    at_s: float
    platform: str
    machine: str
    elements: tuple
    window_s: float
    rpcs_in_window: int
    drops_in_window: int
    utilization: float  # of the processor's resource over the window
    element_processed: Dict[str, int] = field(default_factory=dict)
    element_dropped: Dict[str, int] = field(default_factory=dict)
    #: overload signals (repro.overload): instantaneous queue depth,
    #: mean queueing delay of grants in the window, and the window's
    #: overload drops by class — what the autoscaler and admission
    #: controllers act on before throughput collapses
    queue_depth: int = 0
    queue_delay_ms: float = 0.0
    sheds_in_window: int = 0
    queue_rejects_in_window: int = 0
    deadline_drops_in_window: int = 0
    #: mean CPU service time per RPC over the window (ms) — the latency
    #: telemetry the gray-failure score runs on: a machine that is alive
    #: but 10-50x slow keeps heartbeating on schedule, and only this
    #: signal gives it away (repro.faults GRAY_DEGRADE)
    service_ms_per_rpc: float = 0.0

    @property
    def rate_rps(self) -> float:
        if self.window_s <= 0:
            return 0.0
        return self.rpcs_in_window / self.window_s

    @property
    def drop_rate(self) -> float:
        if self.rpcs_in_window == 0:
            return 0.0
        return self.drops_in_window / self.rpcs_in_window

    @property
    def overload_drops_in_window(self) -> int:
        return (
            self.sheds_in_window
            + self.queue_rejects_in_window
            + self.deadline_drops_in_window
        )


ReportSink = Callable[[ProcessorReport], None]


class TelemetryCollector:
    """Samples processors on an interval and feeds report sinks."""

    def __init__(self, sim: Simulator, interval_s: float = 0.05):
        self.sim = sim
        self.interval_s = interval_s
        self._processors: List[ProcessorRuntime] = []
        self._sinks: List[ReportSink] = []
        # keyed by the processor object, not id(): a deregistered
        # processor's id can be reused by a brand-new one (CPython
        # recycles addresses), which would silently inherit the dead
        # processor's counters as its baseline
        self._last: Dict[ProcessorRuntime, Dict[str, float]] = {}
        self.reports: List[ProcessorReport] = []
        self.skipped_down = 0
        self.skipped_partitioned = 0

    def register(self, processor: ProcessorRuntime) -> None:
        if processor in self._last:
            return  # idempotent: re-registering must not reset baselines
        self._processors.append(processor)
        self._last[processor] = {
            "processed": 0.0,
            "dropped": 0.0,
            "busy": 0.0,
            "wait": 0.0,
            "grants": 0.0,
            "shed": 0.0,
            "qrej": 0.0,
            "dexp": 0.0,
            "at": self.sim.now,
        }

    def register_stack(self, stack) -> None:
        """Register every processor of an :class:`AdnMrpcStack`."""
        for processor in stack.processors:
            self.register(processor)

    def deregister(self, processor: ProcessorRuntime) -> None:
        """Forget a processor (torn down by migration or recovery).
        Unknown processors are ignored — callers may race a crash."""
        if processor in self._last:
            del self._last[processor]
            self._processors.remove(processor)

    def deregister_stack(self, stack) -> None:
        for processor in list(stack.processors):
            self.deregister(processor)

    def add_sink(self, sink: ReportSink) -> None:
        self._sinks.append(sink)

    def sample(self) -> List[ProcessorReport]:
        """Take one sample of every processor right now."""
        samples: List[ProcessorReport] = []
        # iterate a snapshot: a sink may deregister processors (the
        # recovery orchestrator does, reacting to a suspect report)
        for processor in list(self._processors):
            last = self._last.get(processor)
            if last is None:
                continue  # deregistered by an earlier sink this window
            if not getattr(processor, "live", True):
                # a crashed host sends no heartbeats; skipping (rather
                # than emitting a zero-rate report) is what lets the
                # failure detector see silence
                self.skipped_down += 1
                continue
            if not getattr(processor, "control_reachable", True):
                # CONTROL_PARTITION: the machine is alive and serving,
                # but its reports cannot reach us — the detector sees
                # the same silence a crash produces, which is exactly
                # the ambiguity partition tolerance has to live with
                self.skipped_partitioned += 1
                continue
            window = self.sim.now - last["at"]
            busy = (
                processor.resource.busy_time
                if processor.resource is not None
                else 0.0
            )
            capacity = (
                processor.resource.capacity
                if processor.resource is not None
                else 1
            )
            utilization = (
                (busy - last["busy"]) / (window * capacity)
                if window > 0
                else 0.0
            )
            resource = processor.resource
            wait = resource.queue_wait_s_total if resource is not None else 0.0
            grants = resource.grants if resource is not None else 0
            grants_in_window = grants - last["grants"]
            queue_delay_ms = (
                (wait - last["wait"]) / grants_in_window * 1e3
                if grants_in_window > 0
                else 0.0
            )
            rpcs_in_window = int(processor.rpcs_processed - last["processed"])
            service_ms_per_rpc = (
                (busy - last["busy"]) / rpcs_in_window * 1e3
                if rpcs_in_window > 0
                else 0.0
            )
            report = ProcessorReport(
                at_s=self.sim.now,
                platform=processor.segment.platform.value,
                machine=processor.segment.machine,
                elements=processor.segment.elements,
                window_s=window,
                rpcs_in_window=rpcs_in_window,
                drops_in_window=int(processor.rpcs_dropped - last["dropped"]),
                utilization=utilization,
                element_processed=dict(processor.element_processed),
                element_dropped=dict(processor.element_dropped),
                queue_depth=(
                    resource.queue_length if resource is not None else 0
                ),
                queue_delay_ms=queue_delay_ms,
                sheds_in_window=int(processor.rpcs_shed - last["shed"]),
                queue_rejects_in_window=int(
                    processor.rpcs_queue_rejected - last["qrej"]
                ),
                deadline_drops_in_window=int(
                    processor.rpcs_deadline_expired - last["dexp"]
                ),
                service_ms_per_rpc=service_ms_per_rpc,
            )
            last.update(
                processed=float(processor.rpcs_processed),
                dropped=float(processor.rpcs_dropped),
                busy=busy,
                wait=wait,
                grants=float(grants),
                shed=float(processor.rpcs_shed),
                qrej=float(processor.rpcs_queue_rejected),
                dexp=float(processor.rpcs_deadline_expired),
                at=self.sim.now,
            )
            samples.append(report)
            self.reports.append(report)
            for sink in self._sinks:
                sink(report)
        return samples

    def run(self, duration_s: float) -> Generator:
        """Simulation process: sample on the configured interval."""
        deadline = self.sim.now + duration_s
        while self.sim.now < deadline:
            yield float(self.interval_s)
            self.sample()


class TelemetryStore:
    """Controller-side aggregation of processor reports."""

    def __init__(self) -> None:
        self.by_processor: Dict[tuple, List[ProcessorReport]] = {}

    def sink(self, report: ProcessorReport) -> None:
        key = (report.machine, report.platform, report.elements)
        self.by_processor.setdefault(key, []).append(report)

    def latest(self) -> List[ProcessorReport]:
        return [series[-1] for series in self.by_processor.values() if series]

    def hottest(self) -> Optional[ProcessorReport]:
        """The most utilized processor in the latest window — the
        controller's scale-out candidate."""
        latest = self.latest()
        if not latest:
            return None
        return max(latest, key=lambda report: report.utilization)

    def total_drop_rate(self) -> float:
        latest = self.latest()
        rpcs = sum(report.rpcs_in_window for report in latest)
        drops = sum(report.drops_in_window for report in latest)
        return drops / rpcs if rpcs else 0.0
