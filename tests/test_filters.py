"""Stream-shaping filter operator tests (paper §5.1): timeout, retry,
rate shaping, congestion control — standalone and composed onto the ADN
data plane."""

import pytest

from repro.compiler.compiler import AdnCompiler
from repro.control.controller import AdnController
from repro.control.k8s import MiniKube
from repro.dsl import FieldType, FunctionRegistry, RpcSchema, load_stdlib
from repro.dsl.ast_nodes import ChainDecl, FilterDef
from repro.errors import RuntimeFault
from repro.runtime import (
    AdnMrpcStack,
    apply_filter,
    apply_filters,
    wrap_congestion_control,
    wrap_rate_shaper,
    wrap_retry,
    wrap_timeout,
)
from repro.runtime.message import RpcOutcome, reset_rpc_ids
from repro.sim import ClosedLoopClient, Simulator, two_machine_cluster

SCHEMA = RpcSchema.of(
    "t", payload=FieldType.BYTES, username=FieldType.STR, obj_id=FieldType.INT
)


def slow_call(sim, service_s, abort_first=0):
    """A call taking ``service_s``, aborting its first N invocations."""
    state = {"count": 0}

    def call(**fields):
        issued = sim.now
        state["count"] += 1
        yield sim.timeout(service_s)
        aborted = "Fault" if state["count"] <= abort_first else ""
        return RpcOutcome(
            request=dict(fields),
            response={"status": f"aborted:{aborted}" if aborted else "ok"},
            issued_at=issued,
            completed_at=sim.now,
            aborted_by=aborted,
        )

    call.state = state
    return call


def run_one(sim, call, **fields):
    return sim.run_until_complete(sim.process(call(**fields)))


class TestTimeout:
    def test_fast_call_unaffected(self):
        sim = Simulator()
        shaped = wrap_timeout(sim, slow_call(sim, 1e-3), timeout_ms=10.0)
        outcome = run_one(sim, shaped)
        assert outcome.ok

    def test_slow_call_aborted(self):
        sim = Simulator()
        shaped = wrap_timeout(sim, slow_call(sim, 0.1), timeout_ms=10.0)
        outcome = run_one(sim, shaped)
        assert outcome.aborted_by == "Timeout"
        assert outcome.latency_s == pytest.approx(10e-3)

    def test_late_work_still_happens(self):
        sim = Simulator()
        call = slow_call(sim, 0.1)
        shaped = wrap_timeout(sim, call, timeout_ms=10.0)
        run_one(sim, shaped)
        sim.run()  # let the abandoned attempt finish
        assert call.state["count"] == 1


class TestRetry:
    def test_retries_transient_faults(self):
        sim = Simulator()
        call = slow_call(sim, 1e-4, abort_first=2)
        shaped = wrap_retry(sim, call, max_retries=3)
        outcome = run_one(sim, shaped)
        assert outcome.ok
        assert call.state["count"] == 3

    def test_budget_exhausted(self):
        sim = Simulator()
        call = slow_call(sim, 1e-4, abort_first=10)
        shaped = wrap_retry(sim, call, max_retries=2)
        outcome = run_one(sim, shaped)
        assert outcome.aborted_by == "Fault"
        assert call.state["count"] == 3  # original + 2 retries

    def test_non_retryable_abort_returned_immediately(self):
        sim = Simulator()
        calls = []

        def denied(**fields):
            calls.append(fields)
            yield sim.timeout(1e-5)
            return RpcOutcome(
                request={},
                response={"status": "aborted:Acl"},
                issued_at=sim.now,
                completed_at=sim.now,
                aborted_by="Acl",
            )

        shaped = wrap_retry(sim, denied, max_retries=5)
        outcome = run_one(sim, shaped)
        assert outcome.aborted_by == "Acl"
        assert len(calls) == 1

    def test_backoff_spaces_attempts(self):
        sim = Simulator()
        call = slow_call(sim, 1e-5, abort_first=2)
        shaped = wrap_retry(sim, call, max_retries=3, backoff_ms=5.0)
        outcome = run_one(sim, shaped)
        assert outcome.ok
        assert sim.now >= 10e-3  # two backoffs

    def test_retry_wraps_timeout(self):
        """A retry filter with timeout_ms retries timed-out attempts."""
        sim = Simulator()
        call = slow_call(sim, 0.05)  # always slower than the deadline
        filter_def = FilterDef(
            name="Retry",
            operator="retry",
            meta={"max_retries": 2, "timeout_ms": 1.0},
        )
        shaped = apply_filter(sim, call, filter_def)
        outcome = run_one(sim, shaped)
        assert outcome.aborted_by == "Timeout"
        assert call.state["count"] == 3


class TestRateShaper:
    def test_paces_issues(self):
        sim = Simulator()
        call = slow_call(sim, 1e-6)
        shaped = wrap_rate_shaper(sim, call, rate_rps=1000)
        finish = []

        def worker():
            outcome = yield sim.process(shaped())
            finish.append(sim.now)
            return outcome

        for _ in range(5):
            sim.process(worker())
        sim.run()
        # issues spaced 1ms apart
        gaps = [b - a for a, b in zip(finish, finish[1:])]
        for gap in gaps:
            assert gap == pytest.approx(1e-3, rel=0.05)

    def test_zero_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(RuntimeFault):
            wrap_rate_shaper(sim, slow_call(sim, 1e-6), rate_rps=0)


class TestCongestionControl:
    def test_window_grows_on_success(self):
        sim = Simulator()
        shaped = wrap_congestion_control(
            sim, slow_call(sim, 1e-5), initial_window=2.0
        )
        for _ in range(20):
            run_one(sim, shaped)
        assert shaped.window.cwnd > 2.0

    def test_window_halves_on_abort(self):
        sim = Simulator()
        shaped = wrap_congestion_control(
            sim, slow_call(sim, 1e-5, abort_first=1000), initial_window=8.0
        )
        run_one(sim, shaped)
        assert shaped.window.cwnd == pytest.approx(4.0)

    def test_window_gates_concurrency(self):
        sim = Simulator()
        shaped = wrap_congestion_control(
            sim, slow_call(sim, 1e-3), initial_window=2.0
        )
        finish = []

        def worker():
            yield sim.process(shaped())
            finish.append(sim.now)

        for _ in range(4):
            sim.process(worker())
        sim.run()
        # only 2 in flight at once: two waves
        assert finish[0] == pytest.approx(1e-3, rel=0.01)
        assert finish[-1] == pytest.approx(2e-3, rel=0.01)


class TestOnAdnStack:
    def build_stack(self, sim, cluster, filters=None, order=None):
        registry = FunctionRegistry()
        program = load_stdlib(schema=SCHEMA)
        compiler = AdnCompiler(registry=registry)
        decl = ChainDecl(src="A", dst="B", elements=("Fault",))
        chain = compiler.compile_chain(decl, program, SCHEMA)
        return AdnMrpcStack(
            sim,
            cluster,
            chain,
            SCHEMA,
            registry,
            filters=filters,
            filter_order=order,
        )

    def test_retry_masks_injected_faults(self):
        reset_rpc_ids()
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        retry = FilterDef(name="Retry", operator="retry", meta={"max_retries": 4})
        stack = self.build_stack(sim, cluster, filters=[retry], order=["Retry"])
        client = ClosedLoopClient(sim, stack.call, concurrency=16, total_rpcs=800)
        metrics = client.run()
        # 2% fault rate with 4 retries: abort probability ~0.02^5
        assert metrics.aborted == 0
        assert metrics.completed == 800

    def test_no_filters_means_raw_path(self):
        reset_rpc_ids()
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        stack = self.build_stack(sim, cluster)
        assert stack.call == stack.call_raw

    def test_controller_wires_filters_from_app_spec(self):
        reset_rpc_ids()
        app = """
        app Shop {
            service A;
            service B;
            chain A -> B { Retry, Fault }
        }
        """
        kube = MiniKube()
        controller = AdnController(kube, SCHEMA)
        kube.apply_adn_config("shop", app, "Shop")
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        stack = controller.install_stack(sim, cluster, "A", "B")
        assert stack.call != stack.call_raw  # Retry filter applied
        client = ClosedLoopClient(sim, stack.call, concurrency=8, total_rpcs=500)
        metrics = client.run()
        # stdlib Retry has max_retries 3: residual abort rate ~0.02^4
        assert metrics.aborted <= 1


class TestComposition:
    def test_apply_filters_order(self):
        sim = Simulator()
        call = slow_call(sim, 0.05)
        filters = [
            FilterDef(name="Retry", operator="retry", meta={"max_retries": 1}),
            FilterDef(name="Timeout", operator="timeout", meta={"timeout_ms": 1.0}),
        ]
        shaped = apply_filters(
            sim, call, filters, order=["Retry", "Timeout"]
        )
        outcome = run_one(sim, shaped)
        # Retry is outermost: the timed-out attempt is retried once
        assert outcome.aborted_by == "Timeout"
        assert call.state["count"] == 2

    def test_unknown_operator_rejected(self):
        sim = Simulator()
        bogus = FilterDef(name="X", operator="dedup", meta={})
        with pytest.raises(RuntimeFault, match="no runtime"):
            apply_filter(sim, slow_call(sim, 1e-6), bogus)


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        from repro.runtime import wrap_circuit_breaker

        sim = Simulator()
        call = slow_call(sim, 1e-5, abort_first=1000)
        shaped = wrap_circuit_breaker(
            sim, call, failure_threshold=3, reset_ms=100.0
        )
        for _ in range(3):
            run_one(sim, shaped)
        assert shaped.breaker.state == "open"
        outcome = run_one(sim, shaped)
        assert outcome.aborted_by == "CircuitBreaker"
        assert call.state["count"] == 3  # the downstream was spared

    def test_half_open_probe_recloses(self):
        from repro.runtime import wrap_circuit_breaker

        sim = Simulator()
        call = slow_call(sim, 1e-5, abort_first=3)
        shaped = wrap_circuit_breaker(
            sim, call, failure_threshold=3, reset_ms=1.0
        )
        for _ in range(3):
            run_one(sim, shaped)
        assert shaped.breaker.state == "open"

        def wait_and_probe():
            yield sim.timeout(2e-3)  # past the reset window
            outcome = yield sim.process(shaped())
            return outcome

        outcome = sim.run_until_complete(sim.process(wait_and_probe()))
        assert outcome.ok
        assert shaped.breaker.state == "closed"

    def test_half_open_admits_one_probe(self):
        """Two callers arrive together after the cool-down: only the
        probe reaches the downstream, and its success re-closes."""
        from repro.runtime import wrap_circuit_breaker

        sim = Simulator()
        call = slow_call(sim, 1e-5, abort_first=3)
        shaped = wrap_circuit_breaker(
            sim, call, failure_threshold=3, reset_ms=1.0
        )
        for _ in range(3):
            run_one(sim, shaped)
        assert shaped.breaker.state == "open"

        def after_cool_down():
            yield sim.timeout(2e-3)
            outcome = yield sim.process(shaped())
            return outcome

        callers = [sim.process(after_cool_down()) for _ in range(2)]
        sim.run()
        assert [caller.value.aborted_by for caller in callers] == [
            "", "CircuitBreaker"
        ]
        assert call.state["count"] == 4
        assert shaped.breaker.state == "closed"

    def test_from_filter_def(self):
        from repro.dsl import load_stdlib

        program = load_stdlib(["CircuitBreaker"])
        filter_def = program.filters["CircuitBreaker"]
        sim = Simulator()
        call = slow_call(sim, 1e-5, abort_first=100)
        shaped = apply_filter(sim, call, filter_def)
        for _ in range(5):
            run_one(sim, shaped)
        outcome = run_one(sim, shaped)
        assert outcome.aborted_by == "CircuitBreaker"

    def test_stdlib_pacer_loads(self):
        from repro.dsl import load_stdlib

        program = load_stdlib(["Pacer"])
        filter_def = program.filters["Pacer"]
        sim = Simulator()
        shaped = apply_filter(sim, slow_call(sim, 1e-6), filter_def)
        outcome = run_one(sim, shaped)
        assert outcome.ok
