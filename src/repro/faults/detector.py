"""Heartbeat failure detection over telemetry reports (paper §5.3).

Processors already "periodically send reports … back to the controller";
those reports double as heartbeats. :class:`HeartbeatFailureDetector` is
a telemetry sink plus a polling process: it tracks per-machine report
inter-arrival statistics and computes a **phi-accrual** suspicion level
(Hayashibara et al.) under an exponential inter-arrival model::

    phi(machine) = (time_since_last_report / mean_interval) * log10(e)

Phi crossing ``phi_threshold`` — or silence beyond the hard timeout
floor, which bounds detection time while statistics are still thin —
marks the machine *suspect* and fires the registered callbacks (the
recovery orchestrator's trigger).

A crashed machine stops heartbeating because :meth:`TelemetryCollector.
sample` skips non-live processors; the detector only ever sees silence,
never the fault itself.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Generator, List

from ..runtime.telemetry import ProcessorReport
from ..sim.engine import Simulator

_LOG10_E = math.log10(math.e)


@dataclass(frozen=True)
class Suspicion:
    """One machine going suspect.

    ``kind`` separates the two detection modes: ``"crash"`` is the
    classic phi-accrual silence verdict; ``"gray"`` means the machine
    is heartbeating on schedule but its per-window service latency
    blew past the healthy baseline — alive, just uselessly slow.
    """

    machine: str
    at_s: float
    phi: float
    silent_for_s: float
    kind: str = "crash"


@dataclass
class _Arrivals:
    last_at: float
    intervals: Deque[float] = field(default_factory=lambda: deque(maxlen=32))

    def mean_interval(self, fallback: float) -> float:
        if not self.intervals:
            return fallback
        return sum(self.intervals) / len(self.intervals)


@dataclass
class _GrayStats:
    """Per-machine latency telemetry for the gray-failure score."""

    baseline_ms: float = 0.0  # EWMA of healthy service_ms_per_rpc
    samples: int = 0
    bad_streak: int = 0
    last_ratio: float = 0.0


SuspectCallback = Callable[[Suspicion], None]


class HeartbeatFailureDetector:
    """Phi-accrual failure detector fed by telemetry reports."""

    def __init__(
        self,
        sim: Simulator,
        heartbeat_interval_s: float = 0.05,
        phi_threshold: float = 8.0,
        hard_timeout_s: float = 0.0,
        poll_interval_s: float = 0.0,
        gray_factor: float = 0.0,
        gray_consecutive: int = 3,
        gray_min_samples: int = 5,
    ):
        self.sim = sim
        self.heartbeat_interval_s = heartbeat_interval_s
        self.phi_threshold = phi_threshold
        #: silence floor that suspects regardless of phi (covers the
        #: cold start, when one missing report barely moves phi)
        self.hard_timeout_s = hard_timeout_s or 4.0 * heartbeat_interval_s
        self.poll_interval_s = poll_interval_s or heartbeat_interval_s / 2.0
        #: gray-failure score (0 = crash-only detection, the legacy
        #: behavior): suspect a machine whose per-window service latency
        #: runs ``gray_factor``x over its healthy EWMA baseline for
        #: ``gray_consecutive`` windows — the degradation mode that
        #: never stops heartbeating, so phi alone never fires
        self.gray_factor = gray_factor
        self.gray_consecutive = max(1, gray_consecutive)
        self.gray_min_samples = max(1, gray_min_samples)
        self._arrivals: Dict[str, _Arrivals] = {}
        self._gray: Dict[str, _GrayStats] = {}
        self.suspects: Dict[str, Suspicion] = {}
        self._callbacks: List[SuspectCallback] = []

    # -- telemetry side ------------------------------------------------------

    def expect(self, machine: str) -> None:
        """Start — or *re-prime* — watching a machine. Without priming,
        a machine that dies before it ever heartbeats is invisible to
        the detector — the classic cold-start hole; the hard timeout
        then runs from now.

        Re-priming matters after a healed control partition: the
        machine was healthy all along, but its last recorded arrival is
        partition-old, so without a reset its first late heartbeat
        would land on poisoned statistics and the very next poll would
        re-declare it dead. ``expect()`` therefore always restarts the
        arrival clock, clears the interval history, and withdraws any
        standing suspicion."""
        self._arrivals[machine] = _Arrivals(last_at=self.sim.now)
        self.suspects.pop(machine, None)
        gray = self._gray.get(machine)
        if gray is not None:
            gray.bad_streak = 0

    def sink(self, report: ProcessorReport) -> None:
        """Feed one telemetry report in (register with
        ``collector.add_sink(detector.sink)``)."""
        arrivals = self._arrivals.get(report.machine)
        if arrivals is None:
            self._arrivals[report.machine] = _Arrivals(last_at=report.at_s)
            self._score_gray(report)
            return
        if report.at_s > arrivals.last_at:
            interval = report.at_s - arrivals.last_at
            # two reports at (numerically) the same instant carry no
            # cadence information — e.g. the first heartbeat after a
            # partition-heal re-prime arriving a float-epsilon after
            # expect() restarted the clock. Folding such a degenerate
            # interval into the mean would drive phi to infinity and
            # re-declare the healthy machine dead on the next poll.
            if interval > 1e-9:
                arrivals.intervals.append(interval)
            arrivals.last_at = report.at_s
        self._score_gray(report)
        # a heartbeat from a suspect rehabilitates it (restart, or a
        # false positive under load) — but only crash suspicions:
        # a gray machine keeps heartbeating, that is the whole point
        standing = self.suspects.get(report.machine)
        if standing is not None and standing.kind != "gray":
            self.suspects.pop(report.machine, None)

    def _score_gray(self, report: ProcessorReport) -> None:
        """Update the latency baseline and fire a gray suspicion when
        the window's service time runs hot for long enough."""
        if self.gray_factor <= 0.0:
            return
        value = report.service_ms_per_rpc
        if report.rpcs_in_window <= 0 or value <= 0.0:
            return  # an idle window carries no latency evidence
        stats = self._gray.setdefault(report.machine, _GrayStats())
        primed = stats.samples >= self.gray_min_samples
        if primed and value >= self.gray_factor * stats.baseline_ms:
            stats.bad_streak += 1
            stats.last_ratio = value / stats.baseline_ms
            if (
                stats.bad_streak >= self.gray_consecutive
                and report.machine not in self.suspects
            ):
                suspicion = Suspicion(
                    machine=report.machine,
                    at_s=self.sim.now,
                    phi=stats.last_ratio,
                    silent_for_s=0.0,
                    kind="gray",
                )
                self.suspects[report.machine] = suspicion
                for callback in self._callbacks:
                    callback(suspicion)
            return
        # a healthy window: absorb it into the baseline, reset the
        # streak, and rehabilitate a standing gray suspicion (the
        # degradation passed — e.g. the transient fault reverted)
        stats.bad_streak = 0
        alpha = 0.2
        stats.baseline_ms = (
            value
            if stats.samples == 0
            else (1 - alpha) * stats.baseline_ms + alpha * value
        )
        stats.samples += 1
        standing = self.suspects.get(report.machine)
        if standing is not None and standing.kind == "gray":
            self.suspects.pop(report.machine, None)

    # -- suspicion -----------------------------------------------------------

    def phi(self, machine: str) -> float:
        """Current suspicion level for a machine (0 = just heard from)."""
        arrivals = self._arrivals.get(machine)
        if arrivals is None:
            return 0.0
        elapsed = self.sim.now - arrivals.last_at
        mean = arrivals.mean_interval(self.heartbeat_interval_s)
        if mean <= 0:
            mean = self.heartbeat_interval_s
        return (elapsed / mean) * _LOG10_E

    def check(self) -> List[Suspicion]:
        """Evaluate every tracked machine once; returns new suspicions."""
        fresh: List[Suspicion] = []
        for machine, arrivals in self._arrivals.items():
            if machine in self.suspects:
                continue
            elapsed = self.sim.now - arrivals.last_at
            phi = self.phi(machine)
            if phi >= self.phi_threshold or elapsed >= self.hard_timeout_s:
                suspicion = Suspicion(
                    machine=machine,
                    at_s=self.sim.now,
                    phi=phi,
                    silent_for_s=elapsed,
                )
                self.suspects[machine] = suspicion
                fresh.append(suspicion)
        for suspicion in fresh:
            for callback in self._callbacks:
                callback(suspicion)
        return fresh

    def on_suspect(self, callback: SuspectCallback) -> None:
        self._callbacks.append(callback)

    def clear(self, machine: str) -> None:
        """Forget a suspicion (the orchestrator finished recovering)."""
        self.suspects.pop(machine, None)
        arrivals = self._arrivals.get(machine)
        if arrivals is not None:
            arrivals.last_at = self.sim.now
        gray = self._gray.get(machine)
        if gray is not None:
            gray.bad_streak = 0

    def run(self, duration_s: float) -> Generator:
        """Simulation process: poll suspicion on an interval."""
        deadline = self.sim.now + duration_s
        while self.sim.now < deadline:
            yield float(self.poll_interval_s)
            self.check()
