"""Chaos soak: random chains × random placements × random workloads.

Each trial builds a random element chain, solves a random placement
strategy on random hardware, runs a random closed-loop workload, and
checks the global invariants: every issued RPC completes, Little's law
holds, CPU accounting is conservative, and the data plane's drop
counters agree with the client's view. Seeded: failures reproduce.
"""

import random

import pytest

from repro.compiler.compiler import AdnCompiler
from repro.control.placement import ClusterSpec, PlacementRequest, solve_placement
from repro.dsl import FieldType, FunctionRegistry, RpcSchema, load_stdlib
from repro.dsl.ast_nodes import ChainDecl
from repro.ir.optimizer import OptimizerOptions
from repro.runtime import AdnMrpcStack
from repro.runtime.message import reset_rpc_ids
from repro.sim import ClosedLoopClient, Simulator, two_machine_cluster

SCHEMA = RpcSchema.of(
    "t", payload=FieldType.BYTES, username=FieldType.STR, obj_id=FieldType.INT
)

#: pool excludes the §2 payload pairs (order-coupled by design) and
#: GlobalQuota (quota exhaustion makes "all complete" trivially false)
POOL = [
    "Logging",
    "Acl",
    "Fault",
    "LbKeyHash",
    "Metrics",
    "Admission",
    "Encryption",
    "Router",
    "Mirror",
    "SizeLimit",
]

STRATEGIES = ["software", "inapp", "offload", "scaleout"]


def run_trial(seed: int):
    rng = random.Random(seed)
    names = rng.sample(POOL, k=rng.randint(1, 5))
    strategy = rng.choice(STRATEGIES)
    smartnics = rng.random() < 0.5
    programmable_switch = rng.random() < 0.5
    fuse = rng.random() < 0.5
    concurrency = rng.choice([1, 4, 16, 64])
    total = rng.choice([100, 300])

    reset_rpc_ids()
    registry = FunctionRegistry(rng=random.Random(seed))
    program = load_stdlib(schema=SCHEMA)
    # fusion is now a compile-time IR pass, not a placement flag
    compiler = AdnCompiler(
        registry=registry, options=OptimizerOptions(fusion=fuse)
    )
    chain = compiler.compile_chain(
        ChainDecl(src="A", dst="B", elements=tuple(names)), program, SCHEMA
    )
    plan = solve_placement(
        PlacementRequest(
            chain=chain,
            schema=SCHEMA,
            strategy=strategy,
            cluster=ClusterSpec(
                smartnics=smartnics,
                programmable_switch=programmable_switch,
            ),
            replicas=rng.choice([2, 4]) if strategy == "scaleout" else 1,
        )
    )
    sim = Simulator()
    cluster = two_machine_cluster(
        sim, smartnics=smartnics, programmable_switch=programmable_switch
    )
    stack = AdnMrpcStack(
        sim, cluster, chain, SCHEMA, registry, plan=plan, server_replicas=2
    )

    def fields(workload_rng, index):
        return {
            "payload": b"x" * workload_rng.choice([16, 128, 1024]),
            "username": workload_rng.choice(["usr1", "usr2", "ghost"]),
            "obj_id": workload_rng.randrange(1 << 12),
        }

    client = ClosedLoopClient(
        sim,
        stack.call,
        concurrency=concurrency,
        total_rpcs=total,
        seed=seed,
        fields_fn=fields,
    )
    metrics = client.run()
    return names, plan, stack, cluster, metrics, concurrency, total, sim


@pytest.mark.parametrize("seed", range(30))
def test_chaos_trial(seed):
    (
        names,
        plan,
        stack,
        cluster,
        metrics,
        concurrency,
        total,
        sim,
    ) = run_trial(seed)
    context = f"seed={seed} chain={names} plan={plan.description}"
    # 1. every issued RPC is answered
    assert metrics.completed == total, context
    # 2. the client's abort count equals the data plane's drop count
    drops = sum(p.rpcs_dropped for p in stack.processors)
    assert drops == metrics.aborted, context
    # 3. Little's law (generous tolerance: short runs, small N)
    if total >= 300 and concurrency >= 4:
        assert metrics.check_littles_law(concurrency, tolerance=0.5), context
    # 4. CPU accounting is conservative: busy time never exceeds
    #    capacity x elapsed for any thread
    for machine in cluster.machines.values():
        for resource in machine.threads.values():
            assert (
                resource.busy_time
                <= sim.now * resource.capacity + 1e-9
            ), (context, resource.name)
    # 5. latencies are sane
    assert metrics.latency.percentile(0) > 0
    assert metrics.latency.percentile(100) < 1.0, context


# -- fault soak: the same invariants must survive injected trouble -----------

#: machine-crash soak targets; faults are transient so no recovery
#: orchestrator is needed, just retries riding out the blackout
SOAK_MACHINES = ["client-host", "server-host"]


def run_fault_trial(seed: int):
    """A chaos trial plus one random transient fault and a retry policy
    generous enough to outlive it. Seeded: failures reproduce."""
    from repro.faults import FaultInjector, random_single_fault_plan
    from repro.runtime import RetryPolicy

    rng = random.Random(10_000 + seed)
    names = rng.sample(POOL, k=rng.randint(1, 4))
    strategy = rng.choice(STRATEGIES)
    concurrency = rng.choice([1, 4, 16])
    total = 300
    horizon_s = 0.01

    reset_rpc_ids()
    registry = FunctionRegistry(rng=random.Random(seed))
    program = load_stdlib(schema=SCHEMA)
    compiler = AdnCompiler(registry=registry)
    chain = compiler.compile_chain(
        ChainDecl(src="A", dst="B", elements=tuple(names)), program, SCHEMA
    )
    plan = solve_placement(
        PlacementRequest(
            chain=chain, schema=SCHEMA, strategy=strategy,
            cluster=ClusterSpec(),
        )
    )
    sim = Simulator()
    cluster = two_machine_cluster(sim)
    # the blackout tops out at horizon/4; 20 x 5ms attempts dwarf it.
    # only timeouts retry: element-level aborts (Acl, Fault) must keep
    # flowing through so the drop accounting stays meaningful
    policy = RetryPolicy(
        max_attempts=20,
        per_attempt_timeout_ms=5.0,
        base_backoff_ms=0.5,
        max_backoff_ms=5.0,
        retry_on=("Timeout",),
        seed=seed,
    )
    stack = AdnMrpcStack(
        sim, cluster, chain, SCHEMA, registry, plan=plan,
        server_replicas=2, retry_policy=policy,
    )
    fault_plan = random_single_fault_plan(seed, horizon_s, SOAK_MACHINES)
    injector = FaultInjector(sim, cluster)
    injector.register_stack(stack)
    sim.process(injector.run(fault_plan))
    client = ClosedLoopClient(
        sim, stack.call, concurrency=concurrency, total_rpcs=total, seed=seed
    )
    metrics = client.run()
    return names, fault_plan, stack, cluster, metrics, total, sim


@pytest.mark.parametrize("seed", range(15))
def test_fault_soak_trial(seed):
    names, fault_plan, stack, cluster, metrics, total, sim = run_fault_trial(
        seed
    )
    (event,) = fault_plan.events
    context = f"seed={seed} chain={names} fault={event.kind}@{event.at_s:.4f}"
    # 1. no silent loss: with retries enabled every issued RPC is
    #    answered, even the ones the fault blackholed mid-flight
    assert metrics.completed == total, context
    # 2. whatever the fault ate was converted into timeouts, never
    #    silence: lost attempts <= timed-out attempts
    assert stack.rpcs_lost <= stack.retry_stats.timeouts, context
    # 3. CPU accounting stays conservative under faults (slowdowns
    #    included): busy time never exceeds capacity x elapsed
    for machine in cluster.machines.values():
        for resource in machine.threads.values():
            assert (
                resource.busy_time <= sim.now * resource.capacity + 1e-9
            ), (context, resource.name)
    # 4. transient faults fully healed: machines back up, no processor
    #    left hung or slowed
    for name in SOAK_MACHINES:
        assert cluster.machine_up(name), context
    for processor in stack.processors:
        assert processor.hang_event is None, context
        assert processor.slowdown_factor == 1.0, context


# -- crash under overload protection: the breaker rides the blackout ---------


def run_overloaded_crash_trial(seed: int):
    """The canonical recovery scenario, but with the full overload kit
    armed: a tight retry policy (so the blackout surfaces as fast logical
    failures instead of being absorbed by patient retries), a circuit
    breaker in front of the stack, a retry budget, and bounded queues.
    The breaker must open while ``stats-host`` is dark and re-close once
    recovery restores the element from the warm standby."""
    from repro.faults import run_recovery_scenario
    from repro.overload import CircuitBreakerPolicy, RetryBudgetConfig
    from repro.runtime import RetryPolicy

    return run_recovery_scenario(
        seed=seed,
        total_rpcs=1200,
        concurrency=4,
        table_rows=100,
        retry_policy=RetryPolicy(
            max_attempts=3,
            per_attempt_timeout_ms=2.0,
            base_backoff_ms=0.2,
            max_backoff_ms=1.0,
            retry_on=("Timeout",),
            seed=seed,
        ),
        circuit_breaker=CircuitBreakerPolicy(
            failure_threshold=2, open_ms=5.0, half_open_probes=1
        ),
        retry_budget=RetryBudgetConfig(
            ratio=0.5, min_tokens=20.0, max_tokens=50.0
        ),
        queue_limit=32,
        # pace the loop: an open breaker answers with no simulated
        # delay, and a zero-think closed loop would drain the whole
        # workload at one sim instant while the breaker is open
        client_think_s=0.0005,
    )


def test_crash_mid_overload_recovers():
    result = run_overloaded_crash_trial(seed=5)
    breaker = result.stack.breaker
    # 1. every issued RPC is answered — aborts are explicit, not silent
    assert result.metrics.completed == result.total_rpcs
    # 2. the breaker opened during the blackout (fast local failure
    #    instead of hammering a dead machine) ...
    assert breaker.opens >= 1
    assert breaker.short_circuited > 0
    # 3. ... and re-closed once recovery restored the element
    assert breaker.closes >= 1
    assert breaker.state == "closed"
    # 4. recovery actually ran: re-homed off the dead machine and
    #    restored the tally from the warm standby
    report = result.report
    assert report is not None
    assert report.rows_restored > 0
    # 5. the service finished healthy: the tail of the workload (after
    #    the breaker re-closed) completed without aborts
    assert result.metrics.completed > result.metrics.aborted


def test_crash_mid_overload_reproducible():
    """Same seed, same storm: breaker timeline and metrics replay."""

    def signature(seed):
        result = run_overloaded_crash_trial(seed)
        breaker = result.stack.breaker
        return (
            result.metrics.completed,
            result.metrics.aborted,
            result.metrics.elapsed_s,
            breaker.opens,
            breaker.closes,
            tuple(breaker.transitions),
            result.stack.retry_stats.attempts,
            result.stack.retry_stats.logical_calls,
        )

    assert signature(5) == signature(5)


def test_fault_soak_reproducible():
    """Same seed, same trouble: the soak replays bit-identically."""
    def signature(seed):
        _, fault_plan, stack, _, metrics, _, sim = run_fault_trial(seed)
        return (
            tuple(event.to_dict().items() for event in fault_plan.events),
            metrics.completed,
            metrics.aborted,
            metrics.elapsed_s,
            stack.rpcs_lost,
            stack.retry_stats.timeouts,
            stack.retry_stats.retries,
        )

    assert signature(3) == signature(3)
