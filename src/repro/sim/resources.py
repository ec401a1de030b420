"""Simulation resources: FCFS servers (CPU cores, NIC engines) and
FIFO stores (queues between processes).

``Resource`` tracks cumulative busy time, which the benchmarks use for
the CPU-overhead comparison (the paper cites 1.6–7x CPU inflation for
service meshes).

Overload control (repro.overload) builds on two properties here:

* **bounded queues** — a ``queue_limit`` turns the silent infinite wait
  of a saturated resource into an explicit, observable reject
  (``can_enqueue`` / the ``rejected`` counter), which is what lets a
  processor shed cheap instead of queueing forever;
* **queueing-delay accounting** — every grant records how long the
  waiter sat in the queue, so admission controllers (CoDel-style
  shedding) and autoscalers can act on *sojourn time*, the signal that
  rises before throughput collapses.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, List, Optional

from ..errors import SimulationError
from .engine import Event, Simulator, WaitQueue


class Resource:
    """A server pool with ``capacity`` identical slots and a FIFO queue.

    With ``queue_limit`` set, at most that many waiters may queue; the
    caller must check :attr:`can_enqueue` before ``request()`` and count
    the reject via :meth:`reject` instead of waiting.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: int = 1,
        name: str = "",
        queue_limit: Optional[int] = None,
    ):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        if queue_limit is not None and queue_limit < 0:
            raise SimulationError(
                f"queue_limit must be >= 0, got {queue_limit}"
            )
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.queue_limit = queue_limit
        self._in_use = 0
        #: ``(wake, enqueued_at)`` per queued waiter; see ``WaitQueue``
        self._waiters = WaitQueue()
        self.busy_time = 0.0  # cumulative seconds of slot occupancy
        self.served = 0
        #: requests turned away because the queue was at its limit
        self.rejected = 0
        #: queueing-delay accounting: total seconds waiters spent queued
        #: before their grant, the number of grants, and the most recent
        #: grant's wait (the CoDel sojourn signal)
        self.queue_wait_s_total = 0.0
        self.grants = 0
        self.last_grant_wait_s = 0.0
        #: capacity-seconds accounting across ``set_capacity`` resizes
        self._created_at = sim.now
        self._capacity_integral = 0.0
        self._capacity_since = sim.now

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    @property
    def can_enqueue(self) -> bool:
        """Would a ``request()`` right now be admitted (granted or
        queued within the limit)?"""
        if self._in_use < self.capacity:
            return True
        if self.queue_limit is None:
            return True
        return len(self._waiters) < self.queue_limit

    def reject(self) -> None:
        """Record one explicit queue-full reject (the caller sheds the
        work instead of waiting)."""
        self.rejected += 1

    def request(self) -> Event:
        """Event that triggers when a slot is granted to the caller."""
        event = self.sim.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            self._record_grant(0.0)
            event.succeed()
        else:
            self._waiters.append((event.succeed, self.sim.now))
        return event

    def acquire(self) -> Generator[object, None, None]:
        """``yield from resource.acquire()`` — wait for a slot exactly as
        ``yield resource.request()`` does, without the grant event: a
        free slot is taken at once and the caller resumes one heap turn
        later (the turn ``succeed`` would have scheduled); otherwise the
        caller parks in the queue until a release hands it the slot."""
        if self._in_use < self.capacity:
            self._in_use += 1
            self._record_grant(0.0)
            yield 0.0
        else:
            yield self._waiters

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters and self._in_use <= self.capacity:
            self._hand_over()  # the slot transfers to the next waiter
        else:
            # no waiter, or capacity was shrunk below current occupancy:
            # let the slot drain
            self._in_use -= 1

    def _hand_over(self) -> None:
        """Grant a held slot to the longest waiter: its wake-up schedules
        it at the current instant, as ``succeed`` on its grant would."""
        wake, enqueued_at = self._waiters.popleft()
        self._record_grant(self.sim.now - enqueued_at)
        wake()

    def _record_grant(self, waited_s: float) -> None:
        self.grants += 1
        self.queue_wait_s_total += waited_s
        self.last_grant_wait_s = waited_s

    def set_capacity(self, capacity: int) -> None:
        """Resize the pool (autoscaling). Growing wakes queued waiters;
        shrinking lets occupied slots drain naturally."""
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self._capacity_integral += self.capacity * (
            self.sim.now - self._capacity_since
        )
        self._capacity_since = self.sim.now
        self.capacity = capacity
        while self._waiters and self._in_use < self.capacity:
            self._in_use += 1
            self._hand_over()

    def use(self, duration: float) -> Generator[object, None, None]:
        """``yield from resource.use(t)`` — acquire, hold for ``t``
        seconds, release; accounts busy time. A free slot is taken on
        the spot (the same bookkeeping as ``request()``, which adds no
        wait time to ``queue_wait_s_total``); only a caller that must
        queue parks for a grant."""
        if duration < 0:
            raise SimulationError(f"negative service time {duration}")
        if self._in_use < self.capacity:
            self._in_use += 1
            self.grants += 1
            self.last_grant_wait_s = 0.0
        else:
            yield self._waiters
        try:
            if duration > 0:
                yield float(duration)
            self.busy_time += duration
            self.served += 1
        finally:
            # release(), less its idle check: this use holds a slot
            if self._waiters and self._in_use <= self.capacity:
                self._hand_over()
            else:
                self._in_use -= 1

    def capacity_seconds(self) -> float:
        """Integral of capacity over this resource's lifetime — the
        correct denominator for utilization across resizes."""
        return self._capacity_integral + self.capacity * (
            self.sim.now - self._capacity_since
        )

    def mean_service_s(self) -> float:
        """Average observed service time per completed use."""
        if self.served == 0:
            return 0.0
        return self.busy_time / self.served

    def estimated_sojourn_s(self) -> float:
        """Instantaneous estimate of the queueing delay a request
        admitted *now* would see: work ahead of it (queued + in service)
        served at the observed mean rate across all slots. This is the
        shed-before-queueing signal — unlike measured grant waits it
        rises the moment a burst lands, not one service time later."""
        mean = self.mean_service_s()
        if mean <= 0.0:
            return 0.0
        ahead = len(self._waiters) + self._in_use
        return ahead * mean / self.capacity

    def utilization(self, elapsed: float) -> float:
        """Average fraction of capacity busy over ``elapsed`` seconds.

        Integrates capacity-seconds across ``set_capacity`` resizes: a
        resource that ran half the window at capacity 1 and half at 3
        divides by 2 capacity-seconds per second, not by the current
        capacity (which would misreport utilization after any autoscale
        event).
        """
        if elapsed <= 0:
            return 0.0
        lifetime = self.sim.now - self._created_at
        if lifetime <= 0:
            # no simulated time has passed since creation: fall back to
            # the current capacity (nothing to integrate)
            return self.busy_time / (elapsed * self.capacity)
        mean_capacity = self.capacity_seconds() / lifetime
        return self.busy_time / (elapsed * mean_capacity)


class Store:
    """FIFO queue with blocking ``get`` — unbounded by default, bounded
    when ``queue_limit`` is set (``put`` then reports the reject instead
    of growing without bound)."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "",
        queue_limit: Optional[int] = None,
    ):
        if queue_limit is not None and queue_limit < 1:
            raise SimulationError(
                f"queue_limit must be >= 1, got {queue_limit}"
            )
        self.sim = sim
        self.name = name
        self.queue_limit = queue_limit
        self._items: Deque[object] = deque()
        self._getters: Deque[Event] = deque()
        self.put_count = 0
        self.rejected = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def can_put(self) -> bool:
        if self._getters:
            return True  # hand-off, never queued
        if self.queue_limit is None:
            return True
        return len(self._items) < self.queue_limit

    def put(self, item: object) -> bool:
        """Deposit one item; returns False (an explicit reject) when the
        store is bounded and full."""
        if not self.can_put:
            self.rejected += 1
            return False
        self.put_count += 1
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)
        return True

    def get(self) -> Event:
        event = self.sim.event()
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event


class ResourceGroup:
    """Named resources with aggregate accounting (e.g. all cores of one
    machine)."""

    def __init__(self) -> None:
        self._resources: List[Resource] = []

    def add(self, resource: Resource) -> Resource:
        self._resources.append(resource)
        return resource

    def total_busy_time(self) -> float:
        return sum(resource.busy_time for resource in self._resources)

    def find(self, name: str) -> Optional[Resource]:
        for resource in self._resources:
            if resource.name == name:
                return resource
        return None
