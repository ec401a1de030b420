"""Simulation engine tests: event ordering, processes, resources,
stores, metrics."""

import pytest

from repro.errors import SimulationError
from repro.sim import (
    US,
    LatencySeries,
    Resource,
    RunMetrics,
    Simulator,
    Store,
)
from repro.sim.engine import Timeout


class TestEventsAndTime:
    def test_timeout_ordering(self):
        sim = Simulator()
        trace = []
        sim.process(self._ticker(sim, 0.3, "late", trace))
        sim.process(self._ticker(sim, 0.1, "early", trace))
        sim.run()
        assert trace == [("early", 0.1), ("late", 0.3)]

    @staticmethod
    def _ticker(sim, delay, tag, trace):
        yield sim.timeout(delay)
        trace.append((tag, sim.now))

    def test_fifo_tie_breaking(self):
        sim = Simulator()
        trace = []

        def proc(tag):
            yield sim.timeout(1.0)
            trace.append(tag)

        for tag in "abc":
            sim.process(proc(tag))
        sim.run()
        assert trace == ["a", "b", "c"]

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_run_until_pauses(self):
        sim = Simulator()
        fired = []
        sim.process(self._ticker(sim, 5.0, "x", fired))
        sim.run(until=1.0)
        assert sim.now == 1.0
        assert fired == []
        sim.run()
        assert fired

    def test_time_stays_at_last_event(self):
        sim = Simulator()
        sim.process(self._ticker(sim, 2.0, "x", []))
        sim.run(until=100.0)
        assert sim.now == 2.0

    def test_event_double_trigger_rejected(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)


class TestTieOrder:
    """The kernel's contract at one simulated instant: callbacks fire in
    the order they were scheduled, and taking a free resource slot
    schedules nothing. Every simulated result depends on this order."""

    def test_same_instant_firing_order(self):
        sim = Simulator()
        log = []
        busy = Resource(sim, capacity=1, name="busy")
        free = Resource(sim, capacity=1, name="free")

        def note(tag):
            assert sim.now == 1.0  # everything below shares one instant
            log.append(tag)

        def holder():
            yield from busy.use(1.0)  # uncontended: no grant event
            note("holder released")

        def contender():
            yield from busy.use(0.0)  # queued at t=0, granted at t=1
            note("contended use done")

        def waiter(tag, event):
            value = yield event
            note(f"{tag} got {value!r}")

        def child(tag):
            note(f"{tag} started")
            yield sim.timeout(0)
            note(f"{tag} finishing")
            return tag

        def main():
            yield sim.timeout(1.0)
            note("main woke")
            fired = sim.event()
            fired.succeed("early")
            sim.process(waiter("pending", fired))
            yield sim.timeout(0)
            note("timeout(0) resumed")
            sim.process(waiter("all", sim.all_of([fired, sim.timeout(0, "z")])))
            sim.process(waiter("any", sim.any_of([fired, sim.event()])))
            spawned = sim.process(child("child"))
            yield from free.use(0.0)
            note("uncontended use done")
            result = yield spawned
            note(f"joined {result}")

        sim.process(holder())
        sim.process(contender())
        sim.process(main())
        sim.run()
        assert log == [
            # the holder's hold was scheduled at t=0 before main's
            # timeout: its free slot was taken without a grant event
            "holder released",
            "main woke",
            # release scheduled the queued contender's grant
            "contended use done",
            "timeout(0) resumed",
            # a free slot at the same instant: no suspension at all
            "uncontended use done",
            # waiting on an already-fired event takes one more turn
            "pending got 'early'",
            "child started",
            "all got ['early', 'z']",
            "any got 'early'",
            "child finishing",
            "joined child",
        ]

    def test_only_a_queued_use_waits_for_a_grant(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        first = resource.use(1.0)
        # the free slot is taken on the spot: the first wait is the hold
        assert isinstance(next(first), Timeout)
        assert (resource.in_use, resource.grants) == (1, 1)
        second = resource.use(1.0)
        grant = next(second)
        assert not isinstance(grant, Timeout) and not grant.triggered
        assert resource.queue_length == 1
        # a zero-length use of a free slot never suspends its caller
        idle = Resource(sim, capacity=1)
        with pytest.raises(StopIteration):
            next(idle.use(0.0))
        assert (idle.in_use, idle.grants, idle.served) == (0, 1, 1)


class TestProcesses:
    def test_process_return_value(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(1.0)
            return 42

        process = sim.process(worker())
        assert sim.run_until_complete(process) == 42

    def test_nested_processes(self):
        sim = Simulator()

        def inner():
            yield sim.timeout(1.0)
            return "inner-done"

        def outer():
            result = yield sim.process(inner())
            return result + "!"

        assert sim.run_until_complete(sim.process(outer())) == "inner-done!"

    def test_all_of(self):
        sim = Simulator()

        def worker(delay, value):
            yield sim.timeout(delay)
            return value

        def main():
            results = yield sim.all_of(
                [sim.process(worker(0.2, "a")), sim.process(worker(0.1, "b"))]
            )
            return results

        assert sim.run_until_complete(sim.process(main())) == ["a", "b"]

    def test_any_of(self):
        sim = Simulator()

        def worker(delay, value):
            yield sim.timeout(delay)
            return value

        def main():
            winner = yield sim.any_of(
                [sim.process(worker(0.5, "slow")), sim.process(worker(0.1, "fast"))]
            )
            return winner

        assert sim.run_until_complete(sim.process(main())) == "fast"

    def test_exception_propagates(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(0.1)
            raise ValueError("boom")

        sim.process(worker())
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_yielding_non_event_rejected(self):
        sim = Simulator()

        def worker():
            yield 42

        sim.process(worker())
        with pytest.raises(SimulationError, match="must yield Events"):
            sim.run()

    def test_unfinished_process_reported(self):
        sim = Simulator()

        def forever():
            while True:
                yield sim.timeout(1.0)

        process = sim.process(forever())
        with pytest.raises(SimulationError, match="did not finish"):
            sim.run_until_complete(process, limit=10.0)


class TestResource:
    def test_serializes_access(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        finish_times = []

        def worker():
            yield from resource.use(1.0)
            finish_times.append(sim.now)

        for _ in range(3):
            sim.process(worker())
        sim.run()
        assert finish_times == [1.0, 2.0, 3.0]

    def test_capacity_parallelism(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2)
        finish_times = []

        def worker():
            yield from resource.use(1.0)
            finish_times.append(sim.now)

        for _ in range(4):
            sim.process(worker())
        sim.run()
        assert finish_times == [1.0, 1.0, 2.0, 2.0]

    def test_busy_time_accounting(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)

        def worker():
            yield from resource.use(0.5)

        sim.process(worker())
        sim.process(worker())
        sim.run()
        assert resource.busy_time == pytest.approx(1.0)
        assert resource.served == 2
        assert resource.utilization(elapsed=2.0) == pytest.approx(0.5)

    def test_release_idle_rejected(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            resource.release()

    def test_grow_capacity_wakes_waiters(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        finish_times = []

        def worker():
            yield from resource.use(1.0)
            finish_times.append(sim.now)

        def grower():
            yield sim.timeout(0.1)
            resource.set_capacity(3)

        for _ in range(3):
            sim.process(worker())
        sim.process(grower())
        sim.run()
        # after growth at t=0.1, the two queued workers start immediately
        assert finish_times == [1.0, 1.1, 1.1]

    def test_shrink_capacity_drains(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2)
        finish_times = []

        def worker():
            yield from resource.use(1.0)
            finish_times.append(sim.now)

        def shrinker():
            yield sim.timeout(0.1)
            resource.set_capacity(1)

        for _ in range(4):
            sim.process(worker())
        sim.process(shrinker())
        sim.run()
        # first two run together; afterwards strictly one at a time
        assert finish_times == [1.0, 1.0, 2.0, 3.0]


class TestStore:
    def test_fifo(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer():
            for _ in range(2):
                item = yield store.get()
                got.append(item)

        sim.process(consumer())
        store.put("a")
        store.put("b")
        sim.run()
        assert got == ["a", "b"]

    def test_blocking_get(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer():
            item = yield store.get()
            got.append((item, sim.now))

        def producer():
            yield sim.timeout(1.5)
            store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [("late", 1.5)]


class TestMetrics:
    def test_percentiles(self):
        series = LatencySeries()
        for value in range(1, 101):
            series.record(value / 1000)
        assert series.median == pytest.approx(0.0505, abs=1e-3)
        assert series.percentile(99) == pytest.approx(0.1, abs=2e-3)
        assert series.percentile(0) == pytest.approx(0.001)

    def test_empty_series_nan(self):
        import math

        assert math.isnan(LatencySeries().median)

    def test_run_metrics_throughput(self):
        metrics = RunMetrics()
        metrics.completed = 1000
        metrics.elapsed_s = 0.5
        assert metrics.throughput_rps == 2000
        assert metrics.throughput_krps == 2.0

    def test_littles_law_check(self):
        metrics = RunMetrics()
        metrics.completed = 1000
        metrics.elapsed_s = 1.0
        for _ in range(100):
            metrics.latency.record(0.128)  # N = X*R = 1000 * 0.128 = 128
        assert metrics.check_littles_law(concurrency=128)
        assert not metrics.check_littles_law(concurrency=32)

    def test_cpu_per_rpc(self):
        metrics = RunMetrics()
        metrics.completed = 100
        metrics.cpu_busy_s = {"m1": 0.001, "m2": 0.003}
        assert metrics.cpu_us_per_rpc() == pytest.approx(40.0)
        assert metrics.cpu_us_per_rpc("m1") == pytest.approx(10.0)

    def test_us_constant(self):
        assert US == pytest.approx(1e-6)
