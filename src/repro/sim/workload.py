"""Workload generators.

The paper's evaluation uses a closed-loop client: one thread keeping 128
concurrent RPCs in flight, short byte-string request/response (§6). The
closed-loop generator reproduces that; the open-loop (Poisson) generator
drives latency-vs-load sweeps, stepped load for the autoscaling
experiment, and the diurnal mesh workload. Both fill one outcome record,
:class:`~repro.sim.metrics.RunMetrics`.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..runtime.message import RpcOutcome
from .engine import Simulator
from .metrics import RunMetrics

#: An RPC path: a generator function taking per-call app fields and
#: yielding simulation events, returning an RpcOutcome.
CallFn = Callable[..., Generator]
#: Draws one RPC's app fields from the workload's RNG, given its index.
FieldsFn = Callable[[random.Random, int], Dict[str, object]]


def _default_fields(rng: random.Random, index: int) -> Dict[str, object]:
    """The paper's workload: short byte strings, with the fields the
    evaluated elements inspect."""
    return {
        "payload": b"x" * 64,
        "username": "usr2" if rng.random() < 0.9 else "usr1",
        "obj_id": rng.randrange(1 << 16),
    }


def _priority(fields: Dict[str, object]) -> int:
    return int(fields.get("priority", 0))


class ClosedLoopClient:
    """``concurrency`` logical workers, each looping issue→wait→repeat
    until ``total_rpcs`` complete across all workers."""

    def __init__(
        self,
        sim: Simulator,
        call: CallFn,
        concurrency: int = 128,
        total_rpcs: int = 2000,
        seed: int = 1,
        fields_fn: Optional[FieldsFn] = None,
        warmup_rpcs: int = 0,
        think_s: float = 0.0,
    ):
        self.sim = sim
        self.call = call
        self.concurrency = concurrency
        self.total_rpcs = total_rpcs
        self.warmup_rpcs = warmup_rpcs
        #: per-worker pause between completions. Zero keeps the paper's
        #: tight closed loop; a positive think time matters when the path
        #: can answer instantly (an open circuit breaker short-circuits
        #: with no simulated delay, and a zero-think loop would then
        #: drain the whole workload in zero simulated time)
        self.think_s = think_s
        self.rng = random.Random(seed)
        self.fields_fn = fields_fn or _default_fields
        self.metrics = RunMetrics()
        self._remaining = total_rpcs + warmup_rpcs
        self._started_at: Optional[float] = None

    def run(self, limit_s: float = 300.0) -> RunMetrics:
        """Run to completion; returns the metrics."""
        workers = [
            self.sim.process(self._worker()) for _ in range(self.concurrency)
        ]
        done = self.sim.all_of(workers)
        self.sim.run_until_complete(
            self.sim.process(self._await(done)), limit=limit_s
        )
        started = self._started_at
        return self.metrics.finish(
            self.sim.now - started if started is not None else 0.0
        )

    def _await(self, event) -> Generator:
        yield event

    def _worker(self) -> Generator:
        while self._remaining > 0:
            self._remaining -= 1
            index = (self.total_rpcs + self.warmup_rpcs) - self._remaining
            warmup = index <= self.warmup_rpcs
            if not warmup and self._started_at is None:
                self._started_at = self.sim.now
            fields = self.fields_fn(self.rng, index)
            priority = _priority(fields)
            self.metrics.issue(priority)
            outcome: RpcOutcome = yield self.sim.process(self.call(**fields))
            if warmup:
                self.metrics.warmup += 1
                continue
            self.metrics.record(outcome, priority)
            if self.think_s > 0:
                yield float(self.think_s)


class OpenLoopClient:
    """Open-loop Poisson arrivals through ``(rate_rps, duration_s)``
    phases, with unbounded concurrency. One phase is plain Poisson load;
    several step the load (the autoscaling experiment's spike), and
    ``per_phase`` holds one outcome record per phase.

    ``rate_fn(t)`` thins the arrivals into a nonhomogeneous Poisson
    process: candidates arrive at the phase rate, which must bound
    ``rate_fn``, and each is kept with probability ``rate_fn(t) / rate``,
    ``t`` being seconds since the run started. Thinning preserves the
    Poisson property exactly, with no time-discretization artifacts.
    """

    def __init__(
        self,
        sim: Simulator,
        call: CallFn,
        phases: Sequence[Tuple[float, float]],
        seed: int = 1,
        fields_fn: Optional[FieldsFn] = None,
        rate_fn: Optional[Callable[[float], float]] = None,
    ):
        self.sim = sim
        self.call = call
        self.phases = list(phases)
        self.rng = random.Random(seed)
        self.fields_fn = fields_fn or _default_fields
        self.rate_fn = rate_fn
        self.metrics = RunMetrics()
        self.per_phase: List[RunMetrics] = [RunMetrics() for _ in self.phases]

    def run(self, drain_s: float = 1.0) -> RunMetrics:
        total = sum(duration for _rate, duration in self.phases)
        self.sim.process(self._arrivals())
        self.sim.run(until=self.sim.now + total + drain_s)
        for (_rate, duration), phase in zip(self.phases, self.per_phase):
            phase.finish(duration)
        return self.metrics.finish(total)

    def _arrivals(self) -> Generator:
        sim, rng = self.sim, self.rng
        begin = sim.now
        index = 0
        for (rate, duration), phase in zip(self.phases, self.per_phase):
            started = sim.now
            while sim.now - started < duration:
                yield rng.expovariate(rate)
                if self.rate_fn is not None and (
                    rng.random() * rate > self.rate_fn(sim.now - begin)
                ):
                    continue
                index += 1
                fields = self.fields_fn(rng, index)
                priority = _priority(fields)
                self.metrics.issue(priority)
                phase.issue(priority)
                sim.process(self._one(fields, priority, phase))

    def _one(
        self, fields: Dict[str, object], priority: int, phase: RunMetrics
    ) -> Generator:
        outcome: RpcOutcome = yield self.sim.process(self.call(**fields))
        self.metrics.record(outcome, priority)
        phase.record(outcome, priority)
