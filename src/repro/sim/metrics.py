"""Metric collection: latency samples, throughput, CPU accounting.

The recorders are deliberately simple (lists + sorting) because bench
runs are a few thousand RPCs; exactness beats streaming quantile sketches
at this scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class LatencySeries:
    """Latency samples with percentile queries (values in seconds)."""

    def __init__(self):
        self.samples: List[float] = []

    def record(self, value: float) -> None:
        self.samples.append(value)

    def __len__(self) -> int:
        return len(self.samples)

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile, ``p`` in [0, 100]."""
        if not self.samples:
            return math.nan
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100.0) * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = min(low + 1, len(ordered) - 1)
        fraction = rank - low
        return ordered[low] * (1 - fraction) + ordered[high] * fraction

    @property
    def median(self) -> float:
        return self.percentile(50)

    @property
    def mean(self) -> float:
        if not self.samples:
            return math.nan
        return sum(self.samples) / len(self.samples)

    def median_us(self) -> float:
        return self.median * 1e6


@dataclass
class RunMetrics:
    """Everything measured in one experiment run: the one outcome record
    every workload driver fills through :meth:`issue` and :meth:`record`.

    An answered RPC is ``completed`` whether it succeeded or was aborted
    (the network answered it); it then counts as ``ok`` or under the
    element that aborted it in ``aborted_by``."""

    #: end-to-end request→response latency at the client
    latency: LatencySeries = field(default_factory=LatencySeries)
    #: latency of the successful RPCs only (the admitted work)
    ok_latency: LatencySeries = field(default_factory=LatencySeries)
    issued: int = 0
    completed: int = 0
    ok: int = 0
    aborted: int = 0
    aborted_by: Dict[str, int] = field(default_factory=dict)
    #: goodput accounting by the request's ``priority`` field
    issued_by_priority: Dict[int, int] = field(default_factory=dict)
    ok_by_priority: Dict[int, int] = field(default_factory=dict)
    #: warmup RPCs: issued and answered, but deliberately not recorded
    warmup: int = 0
    elapsed_s: float = 0.0
    #: cumulative CPU busy seconds by machine name
    cpu_busy_s: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    def issue(self, priority: int = 0) -> None:
        self.issued += 1
        self.issued_by_priority[priority] = (
            self.issued_by_priority.get(priority, 0) + 1
        )

    def record(self, outcome, priority: int = 0) -> None:
        """Tally one answered RPC, an
        :class:`~repro.runtime.message.RpcOutcome`."""
        self.completed += 1
        latency = outcome.latency_s
        self.latency.record(latency)
        if outcome.ok:
            self.ok += 1
            self.ok_latency.record(latency)
            self.ok_by_priority[priority] = (
                self.ok_by_priority.get(priority, 0) + 1
            )
        else:
            self.aborted += 1
            reason = outcome.aborted_by
            self.aborted_by[reason] = self.aborted_by.get(reason, 0) + 1

    @property
    def in_flight(self) -> int:
        """RPCs issued but not yet answered (at the run's horizon)."""
        return self.issued - self.warmup - self.completed

    def finish(self, elapsed_s: float) -> "RunMetrics":
        """Close the record at the run's horizon, checking conservation:
        every answered RPC is ok or aborted by someone, and no more RPCs
        are answered than were issued."""
        self.elapsed_s = elapsed_s
        aborted = sum(self.aborted_by.values())
        if not (self.ok + aborted == self.completed and self.in_flight >= 0):
            raise AssertionError(
                f"outcome record does not conserve RPCs: ok={self.ok} "
                f"aborted_by={aborted} completed={self.completed} "
                f"warmup={self.warmup} issued={self.issued}"
            )
        return self

    @property
    def goodput_rps(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.ok / self.elapsed_s

    def goodput_ratio(self, priority: Optional[int] = None) -> float:
        """Fraction of issued requests answered ok (optionally for one
        priority tier)."""
        if priority is None:
            issued, ok = self.issued, self.ok
        else:
            issued = self.issued_by_priority.get(priority, 0)
            ok = self.ok_by_priority.get(priority, 0)
        return ok / issued if issued else 0.0

    @property
    def throughput_rps(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.completed / self.elapsed_s

    @property
    def throughput_krps(self) -> float:
        return self.throughput_rps / 1e3

    def cpu_us_per_rpc(self, machine: Optional[str] = None) -> float:
        """Average CPU microseconds consumed per completed RPC."""
        if self.completed == 0:
            return math.nan
        if machine is not None:
            busy = self.cpu_busy_s.get(machine, 0.0)
        else:
            busy = sum(self.cpu_busy_s.values())
        return busy / self.completed * 1e6

    def check_littles_law(self, concurrency: int, tolerance: float = 0.25) -> bool:
        """Sanity invariant for closed-loop runs: N ≈ X · R."""
        if self.completed == 0 or not self.latency.samples:
            return False
        implied = self.throughput_rps * self.latency.mean
        return abs(implied - concurrency) / concurrency <= tolerance
