"""Discrete-event simulation engine.

A small process-based DES kernel (in the style of SimPy, implemented from
scratch): *processes* are Python generators that yield what they wait
for; the simulator advances virtual time, firing callbacks in timestamp
order with FIFO tie-breaking. A process may yield

* an :class:`Event`: it resumes with the event's value once the event
  fires (or the failure is thrown into it);
* a bare delay, a ``float`` number of seconds: it resumes with ``None``
  after that long. ``yield d`` takes the same single sequence draw, at
  the same point, as ``yield sim.timeout(d)`` would, so the two fire in
  the same order; the bare delay just allocates no event;
* a :class:`WaitQueue`: it parks there until whoever holds the queue
  pops its entry and calls its wake-up (a resource handing over a slot).

Everything in the data-plane substrate — CPU cores, NICs, links, RPC
queues — is built from three primitives here: :class:`Event`,
:class:`Process`, and the resources in :mod:`repro.sim.resources`.

Time is in **seconds** (floats); cost-model constants are microseconds
and converted at the call site via :data:`US`.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from typing import Callable, Generator, List, Optional, Tuple

from ..errors import SimulationError, SimulationTimeout

#: one microsecond, in simulator seconds
US = 1e-6
#: one millisecond
MS = 1e-3


class Event:
    """A one-shot occurrence processes can wait on.

    An event is *triggered* once (``succeed``/``fail``); callbacks run at
    the simulated time of triggering. Yielding an event from a process
    suspends the process until the event triggers.
    """

    __slots__ = ("sim", "callbacks", "value", "triggered", "fired", "ok")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self.value: object = None
        self.triggered = False  # outcome decided (or scheduled, for timeouts)
        self.fired = False  # callbacks have run
        self.ok = True

    def succeed(self, value: object = None) -> "Event":
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        sim = self.sim
        heappush(sim._heap, (sim.now, next(sim._sequence), self._fire))
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.ok = False
        self.value = exception
        sim = self.sim
        heappush(sim._heap, (sim.now, next(sim._sequence), self._fire))
        return self

    def _fire(self) -> None:
        self.fired = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.fired:
            self.sim._schedule_at(self.sim.now, lambda: callback(self))
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that triggers after a fixed delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: object = None):
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        super().__init__(sim)
        self.triggered = True  # scheduled, cannot be re-succeeded
        self.value = value
        sim._schedule_at(sim.now + delay, self._fire)


class _Start:
    """What a process resumes from when it first runs, after a bare delay
    and when it is woken from a :class:`WaitQueue`: an ok ``None``."""

    value = None
    ok = True


_START = _Start()


class WaitQueue(deque):
    """A FIFO of parked waiters, each entry ``(wake, parked_at)``.

    A process parks by yielding the queue: the kernel appends the
    process's wake-up and the current time. Calling a popped entry's
    ``wake()`` schedules that process to resume with ``None`` at the
    current instant; it pushes one heap entry with one sequence draw,
    exactly what ``Event.succeed`` pushes. So handing something over
    to a parked process fires in the same order as succeeding an event
    it waits on, without allocating, subscribing to and firing one.
    Other waiters may append their own entries, such as
    ``(event.succeed, now)``.
    """

    __slots__ = ()


class Process(Event):
    """A running generator; also an event that triggers when it returns."""

    __slots__ = ("generator", "_resume_callback")

    def __init__(self, sim: "Simulator", generator: Generator):
        super().__init__(sim)
        self.generator = generator
        # bound once: the heap entry of every bare delay and wake-up, and
        # the callback of every event the process waits on
        self._resume_callback = self._resume
        heappush(
            sim._heap, (sim.now, next(sim._sequence), self._resume_callback)
        )

    def _resume(self, event: Event | _Start = _START) -> None:
        """Send the outcome of ``event`` into the generator and wait on
        whatever it yields next."""
        try:
            if event.ok:
                target = self.generator.send(event.value)
            else:
                target = self.generator.throw(event.value)  # type: ignore[arg-type]
        except StopIteration as stop:
            # drop the self-reference so that refcounting, not the cycle
            # collector, frees the finished process
            self._resume_callback = None
            if not self.triggered:
                self.triggered = True
                self.value = stop.value
                sim = self.sim
                heappush(sim._heap, (sim.now, next(sim._sequence), self._fire))
            return
        if target.__class__ is float:
            if not target >= 0.0:
                raise SimulationError(f"negative or NaN delay {target!r}")
            sim = self.sim
            heappush(
                sim._heap,
                (sim.now + target, next(sim._sequence), self._resume_callback),
            )
        elif isinstance(target, Event):
            target.add_callback(self._resume_callback)
        elif target.__class__ is WaitQueue:
            target.append((self._wake, self.sim.now))
        else:
            raise SimulationError(
                f"process yielded {target!r}; processes must yield Events, "
                "float delays or WaitQueues"
            )

    def _wake(self) -> None:
        """Resume this parked process at the current instant."""
        sim = self.sim
        heappush(
            sim._heap, (sim.now, next(sim._sequence), self._resume_callback)
        )


class AllOf(Event):
    """Triggers when every child event has triggered."""

    __slots__ = ("_pending",)

    def __init__(self, sim: "Simulator", events: List[Event]):
        super().__init__(sim)
        self._pending = len(events)
        if self._pending == 0:
            self.succeed([])
            return
        self.value = [None] * len(events)
        for index, event in enumerate(events):
            event.add_callback(self._make_child_callback(index))

    def _make_child_callback(self, index: int):
        def on_child(event: Event) -> None:
            self.value[index] = event.value  # type: ignore[index]
            self._pending -= 1
            if self._pending == 0 and not self.triggered:
                self.triggered = True
                self.sim._schedule_at(self.sim.now, self._fire)

        return on_child


class AnyOf(Event):
    """Triggers when the first child event triggers (others are ignored)."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: List[Event]):
        super().__init__(sim)
        for event in events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if not self.triggered:
            self.triggered = True
            self.value = event.value
            self.sim._schedule_at(self.sim.now, self._fire)


class Simulator:
    """The event loop: a time-ordered heap of callbacks."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()

    # -- scheduling ---------------------------------------------------------

    def _schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        if when < self.now - 1e-15:
            raise SimulationError(
                f"cannot schedule at {when} (now is {self.now})"
            )
        heappush(self._heap, (when, next(self._sequence), callback))

    def timeout(self, delay: float, value: object = None) -> Timeout:
        return Timeout(self, delay, value)

    def event(self) -> Event:
        return Event(self)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def all_of(self, events: List[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: List[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- running -------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or simulated time reaches ``until``."""
        heap = self._heap
        pop = heappop
        if until is None:
            while heap:
                self.now, _seq, callback = pop(heap)
                callback()
            return
        while heap:
            if heap[0][0] > until:
                self.now = until
                return
            self.now, _seq, callback = pop(heap)
            callback()
        # when the heap drains before ``until``, time stays at the last
        # event — advancing to an arbitrary horizon would corrupt
        # elapsed-time metrics

    def run_until_complete(self, process: Process, limit: float = 1e6) -> object:
        """Run until ``process`` finishes; returns its value."""
        self.run(until=limit)
        if not process.triggered:
            raise SimulationTimeout(
                f"process did not finish within {limit} simulated seconds"
            )
        return process.value
