"""Overload control & graceful degradation (repro.overload).

Unit coverage for every link of the control loop: bounded queues and
queueing-delay accounting in the sim resources, the CoDel + utilization
admission controller, the token-bucket retry budget and circuit breaker,
the retry-policy wrapper that composes them, deadline propagation
through the real wire codec, the processor's overload gates, telemetry's
overload signals, and the autoscaler's shed-before-collapse escalation.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.compiler import AdnCompiler
from repro.control.placement import PlacementPlan, PlacementSegment
from repro.control.scaling import Autoscaler, AutoscalerConfig
from repro.dsl import FieldType, FunctionRegistry, RpcSchema, load_stdlib
from repro.dsl.ast_nodes import ChainDecl
from repro.overload import (
    CIRCUIT_OPEN,
    DEADLINE_EXPIRED,
    DEADLINE_FIELD,
    OVERLOAD_ABORTS,
    QUEUE_FULL,
    SHED,
    AdmissionConfig,
    AdmissionController,
    CircuitBreaker,
    CircuitBreakerPolicy,
    RetryBudget,
    RetryBudgetConfig,
    admission_from_meta,
)
from repro.platforms import Platform
from repro.runtime import AdnMrpcStack
from repro.runtime.filters import RetryPolicy, wrap_retry_policy
from repro.runtime.message import RpcOutcome, make_request, reset_rpc_ids
from repro.runtime.processor import ProcessorRuntime
from repro.runtime.telemetry import TelemetryCollector
from repro.sim import Simulator, two_machine_cluster
from repro.sim.resources import Resource, Store

SCHEMA = RpcSchema.of(
    "t", payload=FieldType.BYTES, username=FieldType.STR, obj_id=FieldType.INT
)


def build_chain(*names, registry=None):
    registry = registry or FunctionRegistry()
    program = load_stdlib(schema=SCHEMA)
    compiler = AdnCompiler(registry=registry)
    decl = ChainDecl(src="A", dst="B", elements=tuple(names))
    return compiler.compile_chain(decl, program, SCHEMA), registry


def advance(sim: Simulator, dt: float) -> None:
    """Move simulated time forward by ``dt``."""

    def waiter():
        yield sim.timeout(dt)

    sim.run_until_complete(sim.process(waiter()))


def complete(sim: Simulator, generator):
    return sim.run_until_complete(sim.process(generator))


def request(**overrides):
    reset_rpc_ids()
    fields = {"payload": b"x", "username": "u", "obj_id": 1}
    fields.update(overrides)
    return make_request(SCHEMA, "A.0", "B", **fields)


# -- bounded queues & queueing-delay accounting -------------------------------


class TestBoundedResource:
    def test_queue_limit_makes_rejects_explicit(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1, queue_limit=1)
        resource.request()  # granted immediately
        assert resource.can_enqueue  # one queue slot left
        resource.request()  # queued
        assert not resource.can_enqueue
        resource.reject()
        assert resource.rejected == 1

    def test_unbounded_queue_always_admits(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        for _ in range(100):
            resource.request()
        assert resource.can_enqueue

    def test_grant_wait_accounting(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)

        def one():
            yield from resource.use(0.010)

        sim.process(one())
        sim.process(one())
        sim.run(until=0.05)
        assert resource.grants == 2
        assert resource.queue_wait_s_total == pytest.approx(0.010)
        assert resource.last_grant_wait_s == pytest.approx(0.010)

    def test_estimated_sojourn_tracks_backlog(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)

        def one():
            yield from resource.use(0.010)

        sim.process(one())
        sim.run(until=0.02)  # establishes mean service time = 10 ms
        assert resource.estimated_sojourn_s() == 0.0
        resource.request()  # in service
        resource.request()  # queued
        resource.request()  # queued
        assert resource.estimated_sojourn_s() == pytest.approx(0.030)

    def test_utilization_integrates_capacity_across_resizes(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)

        def one():
            yield from resource.use(1.0)

        sim.process(one())
        sim.run(until=1.0)
        resource.set_capacity(3)
        advance(sim, 1.0)
        # half the window fully busy at capacity 1, half idle at 3:
        # mean capacity is 2, so utilization is 1.0s / (2.0s * 2) = 0.25
        # (dividing by the current capacity would misreport ~0.167)
        assert resource.capacity_seconds() == pytest.approx(4.0)
        assert resource.utilization(elapsed=2.0) == pytest.approx(0.25)

    def test_bounded_store_rejects_when_full(self):
        sim = Simulator()
        store = Store(sim, queue_limit=1)
        assert store.put("a") is True
        assert store.put("b") is False
        assert store.rejected == 1
        store.get()  # drains the slot
        assert store.can_put


# -- admission control --------------------------------------------------------


def loaded_resource(sim: Simulator, queued: int) -> Resource:
    """A resource with a 1 ms mean service time, one RPC in service and
    ``queued - 1`` more waiting (sojourn estimate = queued ms)."""
    resource = Resource(sim, capacity=1)

    def one():
        yield from resource.use(0.001)

    sim.process(one())
    sim.run(until=0.01)
    for _ in range(queued):
        resource.request()
    return resource


class TestAdmissionController:
    def test_codel_sheds_after_sustained_delay(self):
        sim = Simulator()
        resource = loaded_resource(sim, queued=7)  # sojourn ~7 ms
        controller = AdmissionController(
            sim,
            resource,
            AdmissionConfig(
                target_delay_ms=2.0, interval_ms=10.0, util_threshold=2.0
            ),
        )
        # first above-target observation only starts the clock
        assert controller.admit({}) is None
        advance(sim, 0.011)
        assert controller.admit({}) == SHED
        assert controller.sheds_by_reason["codel"] == 1
        # immediately after a shed, the next drop waits for the cadence
        assert controller.admit({}) is None
        advance(sim, 0.011)
        assert controller.admit({}) == SHED

    def test_codel_resets_when_delay_clears(self):
        sim = Simulator()
        resource = loaded_resource(sim, queued=7)
        controller = AdmissionController(
            sim,
            resource,
            AdmissionConfig(
                target_delay_ms=2.0, interval_ms=10.0, util_threshold=2.0
            ),
        )
        controller.admit({})
        advance(sim, 0.011)
        assert controller.admit({}) == SHED
        # drain the backlog: sojourn drops under target
        for _ in range(7):
            resource.release()
        assert controller.admit({}) is None
        assert controller._dropping is False

    def test_priority_gets_double_delay_allowance(self):
        sim = Simulator()
        resource = loaded_resource(sim, queued=3)  # sojourn ~3 ms
        config = AdmissionConfig(
            target_delay_ms=2.0, interval_ms=5.0, util_threshold=2.0
        )
        low = AdmissionController(sim, resource, config)
        high = AdmissionController(sim, resource, config)
        low.admit({})
        high.admit({"priority": 1})
        advance(sim, 0.006)
        # 3 ms sojourn: above the 2 ms target for low priority, under
        # the doubled 4 ms allowance for high priority
        assert low.admit({}) == SHED
        assert high.admit({"priority": 1}) is None

    def test_engaged_shedding_is_seeded_and_partial(self):
        sim = Simulator()
        config = AdmissionConfig(
            target_delay_ms=1e9, max_shed_probability=0.5, seed=7
        )
        first = AdmissionController(sim, Resource(sim), config)
        second = AdmissionController(sim, Resource(sim), config)
        first.engage(True)
        second.engage(True)
        verdicts = [first.admit({}) for _ in range(200)]
        assert verdicts == [second.admit({}) for _ in range(200)]
        sheds = verdicts.count(SHED)
        assert 0 < sheds < 200  # probabilistic, not all-or-nothing
        assert first.sheds_by_reason["utilization"] == sheds
        assert first.admitted == 200 - sheds

    def test_priority_bypasses_probabilistic_shedding(self):
        sim = Simulator()
        controller = AdmissionController(
            sim,
            Resource(sim),
            AdmissionConfig(target_delay_ms=1e9, max_shed_probability=1.0),
        )
        controller.engage(True)
        assert controller.admit({}) == SHED
        for _ in range(50):
            assert controller.admit({"priority": 1}) is None

    def test_utilization_window_has_a_floor(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        controller = AdmissionController(
            sim, resource, AdmissionConfig(util_window_ms=5.0)
        )

        def one():
            yield from resource.use(0.001)

        complete(sim, one())
        # a sub-window refresh keeps the cached estimate instead of
        # saturating to ~1.0 the moment anything is in service
        advance(sim, 0.0001)
        assert controller.observe_utilization() == 0.0
        advance(sim, 0.01)
        assert 0.0 < controller.observe_utilization() < 0.5

    def test_admission_from_meta(self):
        sim = Simulator()
        assert admission_from_meta(sim, None, {}) is None
        controller = admission_from_meta(
            sim,
            None,
            {"admission_control": True, "target_delay_ms": 5.0, "priority": 2},
        )
        assert controller is not None
        assert controller.config.target_delay_ms == 5.0
        assert controller.config.priority_threshold == 2


# -- retry budget & circuit breaker -------------------------------------------


class TestRetryBudget:
    def test_token_bucket_math(self):
        budget = RetryBudget(
            RetryBudgetConfig(ratio=0.25, min_tokens=2.0, max_tokens=3.0)
        )
        assert budget.tokens == 2.0
        assert budget.try_spend() and budget.try_spend()
        assert not budget.try_spend()
        assert budget.exhausted == 1
        for _ in range(4):  # 4 calls x 0.25 = one whole retry token
            budget.on_call()
        assert budget.try_spend()
        assert budget.spent == 3

    def test_balance_is_capped(self):
        budget = RetryBudget(
            RetryBudgetConfig(ratio=1.0, min_tokens=0.0, max_tokens=2.0)
        )
        for _ in range(10):
            budget.on_call()
        assert budget.tokens == 2.0
        assert budget.deposits == 10


class TestCircuitBreaker:
    def test_full_state_cycle(self):
        sim = Simulator()
        breaker = CircuitBreaker(
            sim,
            CircuitBreakerPolicy(
                failure_threshold=3, open_ms=10.0, half_open_probes=1
            ),
        )
        for _ in range(3):
            assert breaker.allow()
            breaker.record(ok=False)
        assert breaker.state == "open"
        assert breaker.opens == 1
        assert not breaker.allow()
        assert breaker.short_circuited == 1
        advance(sim, 0.011)
        assert breaker.state == "half-open"
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # only one probe at a time
        breaker.record(ok=False)  # failed probe: re-open
        assert breaker.state == "open"
        assert breaker.opens == 2
        advance(sim, 0.011)
        assert breaker.allow()
        breaker.record(ok=True)
        assert breaker.state == "closed"
        assert breaker.closes == 1
        assert [state for _, state in breaker.transitions] == [
            "open",
            "open",
            "closed",
        ]

    def test_success_resets_failure_streak(self):
        sim = Simulator()
        breaker = CircuitBreaker(
            sim, CircuitBreakerPolicy(failure_threshold=2)
        )
        breaker.record(ok=False)
        breaker.record(ok=True)
        breaker.record(ok=False)
        assert breaker.state == "closed"


# -- the retry wrapper composing budget + breaker + deadline ------------------


def failing_call(sim: Simulator, reason: str = "Fault"):
    def call(**fields):
        yield sim.timeout(1e-6)
        return RpcOutcome(
            request=dict(fields),
            response={"status": f"aborted:{reason}", "kind": "response"},
            issued_at=sim.now,
            completed_at=sim.now,
            aborted_by=reason,
        )

    return call


class TestWrapRetryPolicy:
    def test_open_breaker_answers_locally(self):
        sim = Simulator()
        breaker = CircuitBreaker(
            sim, CircuitBreakerPolicy(failure_threshold=1, open_ms=1000.0)
        )
        breaker.record(ok=False)  # trip it
        calls = {"n": 0}

        def call(**fields):
            calls["n"] += 1
            yield sim.timeout(1e-6)
            return RpcOutcome(
                request=dict(fields),
                response={"status": "ok", "kind": "response"},
                issued_at=sim.now,
                completed_at=sim.now,
            )

        shaped = wrap_retry_policy(
            sim, call, RetryPolicy(max_attempts=1), breaker=breaker
        )
        outcome = complete(sim, shaped(payload=b"x"))
        assert outcome.aborted_by == CIRCUIT_OPEN
        assert calls["n"] == 0  # zero downstream cost
        assert shaped.stats.short_circuited == 1

    def test_budget_exhaustion_stops_retrying(self):
        sim = Simulator()
        budget = RetryBudget(
            RetryBudgetConfig(ratio=0.0, min_tokens=1.0, max_tokens=1.0)
        )
        shaped = wrap_retry_policy(
            sim,
            failing_call(sim),
            RetryPolicy(
                max_attempts=5,
                per_attempt_timeout_ms=100.0,
                base_backoff_ms=0.0,
                jitter=0.0,
            ),
            budget=budget,
        )
        outcome = complete(sim, shaped(payload=b"x"))
        assert not outcome.ok
        # one try plus the single budgeted retry, then surrender
        assert shaped.stats.attempts == 2
        assert shaped.stats.budget_exhausted == 1
        assert budget.spent == 1

    def test_overload_rejects_are_not_retryable_by_default(self):
        sim = Simulator()
        for reason in sorted(OVERLOAD_ABORTS):
            shaped = wrap_retry_policy(
                sim,
                failing_call(sim, reason=reason),
                RetryPolicy(max_attempts=5, base_backoff_ms=0.0, jitter=0.0),
            )
            outcome = complete(sim, shaped(payload=b"x"))
            assert outcome.aborted_by == reason
            assert shaped.stats.attempts == 1  # no storm amplification

    def test_deadline_budget_is_injected_for_propagation(self):
        sim = Simulator()
        seen = {}

        def call(**fields):
            seen.update(fields)
            yield sim.timeout(1e-6)
            return RpcOutcome(
                request=dict(fields),
                response={"status": "ok", "kind": "response"},
                issued_at=sim.now,
                completed_at=sim.now,
            )

        shaped = wrap_retry_policy(
            sim,
            call,
            RetryPolicy(max_attempts=1, deadline_budget_ms=50.0),
            propagate_deadline=True,
        )
        complete(sim, shaped(payload=b"x"))
        assert seen["deadline_at"] == pytest.approx(0.050)

    def test_amplification_counts_attempts_per_call(self):
        sim = Simulator()
        shaped = wrap_retry_policy(
            sim,
            failing_call(sim),
            RetryPolicy(max_attempts=4, base_backoff_ms=0.0, jitter=0.0),
        )
        for _ in range(3):
            complete(sim, shaped(payload=b"x"))
        assert shaped.stats.amplification() == pytest.approx(4.0)


class TestBackoffProperty:
    """Satellite: the backoff cap applies *after* jitter."""

    @settings(max_examples=120, deadline=None)
    @given(
        attempt=st.integers(min_value=1, max_value=30),
        base=st.floats(min_value=0.1, max_value=100.0),
        multiplier=st.floats(min_value=1.0, max_value=4.0),
        cap=st.floats(min_value=0.1, max_value=200.0),
        jitter=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_backoff_bounded_and_deterministic(
        self, attempt, base, multiplier, cap, jitter, seed
    ):
        policy = RetryPolicy(
            base_backoff_ms=base,
            backoff_multiplier=multiplier,
            max_backoff_ms=cap,
            jitter=jitter,
            seed=seed,
        )
        first = policy.backoff_s(attempt, random.Random(seed))
        again = policy.backoff_s(attempt, random.Random(seed))
        assert first == again  # deterministic per seed
        assert 0.0 <= first <= cap * 1e-3  # never negative, never past cap


# -- processor overload gates -------------------------------------------------


def build_processor(sim, elements=("Logging",), machine="client-host", **kw):
    chain, registry = build_chain(*elements)
    cluster = two_machine_cluster(sim)
    segment = PlacementSegment(
        platform=Platform.MRPC,
        machine=machine,
        elements=chain.element_order,
        **kw,
    )
    return ProcessorRuntime(sim, cluster, segment, chain, registry)


class TestProcessorGates:
    def test_expired_deadline_drops_before_service_time(self):
        sim = Simulator()
        processor = build_processor(sim)
        advance(sim, 0.010)
        result = complete(
            sim, processor.execute("request", request(), deadline_at=0.001)
        )
        assert result.dropped_by == DEADLINE_EXPIRED
        assert not result.dropped_after_entry
        assert processor.rpcs_deadline_expired == 1
        assert processor.rpcs_dropped == 1
        assert processor.resource.served == 0  # no service time spent

    def test_live_deadline_passes(self):
        sim = Simulator()
        processor = build_processor(sim)
        result = complete(
            sim,
            processor.execute("request", request(), deadline_at=sim.now + 1.0),
        )
        assert result.dropped_by is None

    def test_full_queue_rejects_explicitly(self):
        sim = Simulator()
        processor = build_processor(sim, queue_limit=0)
        assert processor.resource.queue_limit == 0
        processor.resource.request()  # occupy the only slot
        result = complete(sim, processor.execute("request", request()))
        assert result.dropped_by == QUEUE_FULL
        assert processor.rpcs_queue_rejected == 1
        assert processor.resource.rejected == 1
        processor.resource.release()
        result = complete(sim, processor.execute("request", request()))
        assert result.dropped_by is None

    def test_installed_admission_sheds_requests_only(self):
        sim = Simulator()
        processor = build_processor(sim)
        controller = AdmissionController(
            sim,
            processor.resource,
            AdmissionConfig(target_delay_ms=1e9, max_shed_probability=1.0),
        )
        controller.engage(True)
        processor.install_admission(controller)
        result = complete(sim, processor.execute("request", request()))
        assert result.dropped_by == SHED
        assert processor.rpcs_shed == 1
        # the response path is never admission-gated
        result = complete(sim, processor.execute("response", request()))
        assert result.dropped_by is None

    def test_stdlib_admission_element_installs_controller(self):
        sim = Simulator()
        processor = build_processor(
            sim, elements=("AdmissionControl", "Logging")
        )
        assert processor.admission is not None
        assert processor.admission.config.target_delay_ms == 2.0
        assert processor.admission.config.priority_threshold == 1


# -- deadline propagation through the real wire -------------------------------


def build_stack(sim, retry_policy=None, elements=("Logging",), **kw):
    chain, registry = build_chain(*elements)
    cluster = two_machine_cluster(sim)
    plan = PlacementPlan(
        segments=[
            PlacementSegment(
                platform=Platform.MRPC,
                machine="server-host",
                elements=chain.element_order,
            )
        ],
        description="all elements server-side",
    )
    return AdnMrpcStack(
        sim,
        cluster,
        chain,
        SCHEMA,
        registry,
        plan=plan,
        retry_policy=retry_policy,
        **kw,
    )


class TestDeadlinePropagation:
    def test_deadline_field_rides_the_request_header_only(self):
        sim = Simulator()
        stack = build_stack(sim, RetryPolicy(deadline_budget_ms=20.0))
        assert DEADLINE_FIELD in stack.hop_plan.layout.field_names
        assert (
            DEADLINE_FIELD not in stack.response_hop_plan.layout.field_names
        )

    def test_no_budget_means_no_wire_field(self):
        sim = Simulator()
        stack = build_stack(sim, RetryPolicy())  # no deadline budget
        assert DEADLINE_FIELD not in stack.hop_plan.layout.field_names
        bare = build_stack(Simulator())  # no retry policy at all
        assert DEADLINE_FIELD not in bare.hop_plan.layout.field_names

    def test_expired_deadline_is_dropped_at_the_server(self):
        sim = Simulator()
        stack = build_stack(
            sim, RetryPolicy(max_attempts=1, deadline_budget_ms=1000.0)
        )
        # call the raw path with a deadline that is already due: by the
        # time the server has paid transport CPU it has expired, and the
        # server answers with a cheap abort instead of serving
        outcome = complete(
            sim,
            stack.call_raw(
                payload=b"x", username="u", obj_id=1, deadline_at=sim.now
            ),
        )
        assert outcome.aborted_by == DEADLINE_EXPIRED
        assert stack.deadline_expired_at_server == 1
        assert stack.server_app.served == 0  # no application service time

    def test_live_deadline_completes_normally(self):
        sim = Simulator()
        stack = build_stack(
            sim, RetryPolicy(max_attempts=2, deadline_budget_ms=1000.0)
        )
        outcome = complete(
            sim, stack.call(payload=b"x", username="u", obj_id=1)
        )
        assert outcome.ok
        assert stack.deadline_expired_at_server == 0

    def test_overload_reasons_position_the_abort_turnaround(self):
        sim = Simulator()
        chain, registry = build_chain("Logging", "Acl")
        cluster = two_machine_cluster(sim)
        plan = PlacementPlan(
            segments=[
                PlacementSegment(
                    platform=Platform.MRPC,
                    machine="client-host",
                    elements=("Logging",),
                ),
                PlacementSegment(
                    platform=Platform.MRPC,
                    machine="server-host",
                    elements=("Acl",),
                ),
            ]
        )
        stack = AdnMrpcStack(sim, cluster, chain, SCHEMA, registry, plan=plan)
        first, second = stack.processors
        # synthetic reasons name no element: position comes from the
        # dropping processor (they gate at entry, nothing inside ran)
        assert stack._before_drop(first, SHED, second) is True
        assert stack._before_drop(second, SHED, first) is False
        # a server-boundary drop (no dropping processor) was seen by all
        assert stack._before_drop(first, DEADLINE_EXPIRED, None) is True
        assert stack._before_drop(second, DEADLINE_EXPIRED, None) is True

    def test_stack_level_overload_config_reaches_every_processor(self):
        sim = Simulator()
        stack = build_stack(
            sim,
            RetryPolicy(deadline_budget_ms=20.0),
            queue_limit=8,
            admission=AdmissionConfig(target_delay_ms=3.0),
            retry_budget=RetryBudgetConfig(ratio=0.2),
            circuit_breaker=CircuitBreakerPolicy(failure_threshold=10),
        )
        for processor in stack.processors:
            assert processor.resource.queue_limit == 8
            assert processor.admission is not None
            assert processor.admission.config.target_delay_ms == 3.0
        assert stack.retry_budget is not None
        assert stack.breaker is not None
        assert stack.call.budget is stack.retry_budget
        assert stack.call.breaker is stack.breaker


# -- telemetry overload signals -----------------------------------------------


class TestTelemetrySignals:
    def test_reports_carry_overload_drop_classes(self):
        sim = Simulator()
        processor = build_processor(sim, queue_limit=0)
        collector = TelemetryCollector(sim, interval_s=0.01)
        collector.register(processor)
        controller = AdmissionController(
            sim,
            processor.resource,
            AdmissionConfig(target_delay_ms=1e9, max_shed_probability=1.0),
        )
        controller.engage(True)
        processor.install_admission(controller)
        complete(sim, processor.execute("request", request()))  # shed
        processor.admission = None
        processor.resource.request()  # occupy: next request sees a full queue
        complete(sim, processor.execute("request", request()))  # queue-full
        processor.resource.release()
        advance(sim, 0.01)
        (report,) = collector.sample()
        assert report.sheds_in_window == 1
        assert report.queue_rejects_in_window == 1
        assert report.deadline_drops_in_window == 0
        assert report.overload_drops_in_window == 2
        advance(sim, 0.01)
        (quiet,) = collector.sample()
        assert quiet.overload_drops_in_window == 0

    def test_queue_delay_is_measured_per_window(self):
        sim = Simulator()
        processor = build_processor(sim)
        collector = TelemetryCollector(sim, interval_s=0.01)
        collector.register(processor)
        resource = processor.resource

        def one():
            yield from resource.use(0.010)

        sim.process(one())
        sim.process(one())
        sim.run(until=0.05)
        (report,) = collector.sample()
        # two grants: one immediate, one after a 10 ms wait
        assert report.queue_delay_ms == pytest.approx(5.0)
        assert report.queue_depth == 0


# -- autoscaler escalation: autoscale before shedding, shed before collapse ---


class TestAutoscalerEscalation:
    def test_sheds_at_max_capacity_and_releases_after(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)

        def one():
            yield from resource.use(0.010)

        sim.process(one())
        sim.run(until=0.02)  # mean service 10 ms
        for _ in range(4):
            resource.request()  # backlog: sojourn ~40 ms
        controller = AdmissionController(sim, resource)
        scaler = Autoscaler(
            sim,
            resource,
            AutoscalerConfig(
                max_capacity=1,
                sample_interval_s=0.01,
                cooldown_s=0.0,
                queue_delay_high_ms=5.0,
            ),
            admission=controller,
        )
        sim.process(scaler.run(0.1))

        def drain():
            yield sim.timeout(0.045)
            for _ in range(4):
                resource.release()

        sim.process(drain())
        sim.run(until=0.15)
        actions = [event.action for event in scaler.events]
        assert "engaged_shedding" in actions
        assert "released_shedding" in actions
        assert actions.index("engaged_shedding") < actions.index(
            "released_shedding"
        )
        assert not controller.engaged

    def test_prefers_scale_out_when_capacity_remains(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)

        def one():
            yield from resource.use(0.010)

        sim.process(one())
        sim.run(until=0.02)
        for _ in range(4):
            resource.request()
        controller = AdmissionController(sim, resource)
        scaler = Autoscaler(
            sim,
            resource,
            AutoscalerConfig(
                max_capacity=4,
                sample_interval_s=0.01,
                cooldown_s=0.0,
                queue_delay_high_ms=5.0,
            ),
            admission=controller,
        )
        sim.process(scaler.run(0.05))
        sim.run(until=0.1)
        # the escalation order: capacity first, shedding only at the cap
        assert scaler.scale_out_count >= 1
        first_action = scaler.events[0].action
        assert first_action == "scale_out"
