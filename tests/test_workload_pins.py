"""Bit-identity pins for every open-loop workload and for the closed-loop
SessionTally fault scenarios.

Each test runs a small seeded experiment and compares a sha256 digest of
everything it reports (counters, per-priority tallies and the raw latency
samples) with a digest captured before the arrival loops were merged into
one driver. Any change to the order of RNG draws, the arrival clock or
the outcome accounting moves a digest.

The closed-loop pins cover the crash-recovery scenario (one recovery
orchestrator) and the control-resilience scenario (a leased controller
pair), the chaos soak over the latter, and the ``repro faults`` and
``repro chaos`` commands. Each run hashes its metrics and latency
samples, the simulated clock, data-plane loss and retry accounting,
breaker opens, the stale-plan counters, the injector timeline, every
recovery and failover report, the detector's suspects, the checkpointer's
lost tail, the tally and where SessionTally ended up. Every run has its
own digest, so a mismatch names the run that moved. Set-up order is part
of these results: the simulator breaks time ties by sequence number, so
starting a process earlier or adding a machine later can move them all.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

import repro.sim
from repro.cli import main
from repro.control.resilience import (
    CTRL_A,
    STATS_MACHINE,
    run_chaos_soak,
    run_control_resilience_scenario,
)
from repro.faults import (
    GRAY_DEGRADE,
    FaultEvent,
    FaultPlan,
    controller_crash_during_failover_plan,
    default_crash_plan,
    partition_during_recovery_plan,
    run_recovery_scenario,
)
from repro.graph import bookinfo_graph, run_graph_scenario
from repro.offload.sweep import OffloadSweepConfig, run_offload_comparison
from repro.overload import CircuitBreakerPolicy, RetryBudgetConfig
from repro.overload.sweep import SweepConfig, run_overload_sweep
from repro.runtime import RetryPolicy
from repro.runtime.message import RpcOutcome
from repro.sim import OpenLoopClient, Simulator

PINS = {
    "overload": (
        "645987551d9fc7e915fa0b94b91d14b9"
        "11ed8a31d96c67bb182a56078fd4c812"
    ),
    "offload": (
        "8a075efde5361d9d1bbb8f7d851e6168"
        "e031e29c5ba693db02024dc6dad01784"
    ),
    "graph": (
        "b0e5f977446771ae87c8746f46790c1f"
        "aaa9a7e216b0b94ebbd2cfc7ba436618"
    ),
    "open_loop_single": (
        "0a587c061a11d598f296ef9df5cf0e08"
        "0cd45ced752009d07d94183aaf7817f6"
    ),
    "open_loop_two_phase": (
        "d17c8865554c63e088982f8947d5603f"
        "003e410d73e6659ec9ebf39f9d1f5fe1"
    ),
    "recovery-seed1": (
        "943b457390001f69671a694f69e4c738"
        "868f5c2b80901070a2a9c154838268de"
    ),
    "recovery-never-fold": (
        "b26ff7ee695782bce5d47c7ef032e32c"
        "81568ecce0af8e79a747d926987eb2ae"
    ),
    "recovery-overloaded": (
        "6064e0c7d58ca54a8e56d9f4f8c43715"
        "5d0e1fbc18b1e54fce7a212b25cc9b00"
    ),
    "resilience-crash-standby": (
        "90e49609a0102bcaf3c7a93c0c8213b5"
        "ae7dbb39d3b53a1b4239b89c20ef6cca"
    ),
    "resilience-crash-no-standby": (
        "681655070b716e1f6ccba1f02ca11d28"
        "af1c74aba1bc430dc43e6a7c65fb8738"
    ),
    "resilience-partition-fenced": (
        "1a9ec3533074b1a5fcc393ab84cab04a"
        "44612f0be547625fd95ff9845cd30fc6"
    ),
    "resilience-partition-unfenced": (
        "46052f09c92196f250ac7ba7ebbda0d7"
        "698d604412f5b7e300181ee0a17c9e1b"
    ),
    "resilience-gray": (
        "c4a604097e53b168fab7acf0f59c6723"
        "186c23cbd3a80a5bc166191cb855d50f"
    ),
    "chaos-soak": (
        "15ed609277b0da705fb4823f2e7da982"
        "756318d2acfaa50e8a99c36de4c15076"
    ),
    "cli-faults": (
        "19d110b1a6120552536ea923e86889cf"
        "f7e1829090d6044e8abcc8598d6ae25e"
    ),
    "cli-chaos": (
        "b6e5f53999f6d84966633c02df74ea94"
        "8ab08021fbaf8f1d0984f0dfca38b136"
    ),
}


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _fixed_call(sim, service_s):
    def call(**fields):
        issued = sim.now
        yield sim.timeout(service_s)
        return RpcOutcome(
            request=dict(fields),
            response=dict(fields),
            issued_at=issued,
            completed_at=sim.now,
        )

    return call


def _open_loop(sim, call, phases, seed):
    """The open-loop driver over ``phases``. Before the merge a single
    phase was spelled ``rate_rps``/``duration_s`` and several phases were
    a separate ``SteppedLoadClient``; the digests hold for either API."""
    stepped = getattr(repro.sim, "SteppedLoadClient", None)
    if stepped is None:
        return OpenLoopClient(sim, call, phases, seed=seed)
    if len(phases) == 1:
        ((rate, duration),) = phases
        return OpenLoopClient(
            sim, call, rate_rps=rate, duration_s=duration, seed=seed
        )
    return stepped(sim, call, phases=phases, seed=seed)


def _tallies(metrics):
    return {
        "issued": metrics.issued,
        "completed": metrics.completed,
        "latency": metrics.latency.samples,
    }


def test_overload_sweep_pinned():
    config = SweepConfig(multipliers=(0.5, 3.0), duration_s=0.05)
    points = [
        asdict(point)
        for protected in (False, True)
        for point in run_overload_sweep(protected, config)
    ]
    assert _digest(points) == PINS["overload"]


def test_offload_comparison_pinned():
    config = OffloadSweepConfig(multipliers=(0.5, 3.0), duration_s=0.05)
    results = run_offload_comparison(config)
    payload = {
        shed_at: [point.to_dict() for point in points]
        for shed_at, points in results.items()
    }
    assert _digest(payload) == PINS["offload"]


def test_graph_scenario_pinned():
    result = run_graph_scenario(
        bookinfo_graph(), duration_s=0.1, drain_s=0.05
    )
    metrics = result.metrics
    # the per-priority tallies live on the outcome record; older trees
    # kept them on the mesh workload itself
    holder = (
        metrics if hasattr(metrics, "issued_by_priority") else result.workload
    )
    payload = {
        "issued": metrics.issued,
        "completed": metrics.completed,
        "aborted": metrics.aborted,
        "latency": metrics.latency.samples,
        "issued_by_priority": sorted(holder.issued_by_priority.items()),
        "ok_by_priority": sorted(holder.ok_by_priority.items()),
        "mesh": result.runtime.mesh_stats(),
    }
    assert _digest(payload) == PINS["graph"]


def test_single_phase_open_loop_pinned():
    sim = Simulator()
    client = _open_loop(sim, _fixed_call(sim, 2e-4), [(2000.0, 0.1)], seed=5)
    client.run()
    assert _digest(_tallies(client.metrics)) == PINS["open_loop_single"]


def test_two_phase_open_loop_pinned():
    sim = Simulator()
    client = _open_loop(
        sim, _fixed_call(sim, 2e-4), [(1000.0, 0.05), (4000.0, 0.05)], seed=5
    )
    client.run()
    payload = [_tallies(phase) for phase in client.per_phase]
    assert _digest(payload) == PINS["open_loop_two_phase"]


# -- closed-loop fault scenarios ----------------------------------------------


def _scenario_payload(result, reports, failovers=()):
    """Everything a SessionTally scenario run reports, as JSON-ready data.
    ``reports`` is the recovery result's ``report`` (in a list) or the
    resilience result's ``reports``."""
    metrics, stack = result.metrics, result.stack
    breaker = stack.breaker
    return {
        "now": result.sim.now,
        "metrics": {
            "issued": metrics.issued,
            "completed": metrics.completed,
            "ok": metrics.ok,
            "aborted": metrics.aborted,
            "aborted_by": sorted(metrics.aborted_by.items()),
            "warmup": metrics.warmup,
            "elapsed_s": metrics.elapsed_s,
            "latency": metrics.latency.samples,
        },
        "rpcs_lost": stack.rpcs_lost,
        "lost_by": sorted(stack.lost_by.items()),
        "duplicates": stack.duplicate_server_executions,
        "retry_stats": repr(stack.retry_stats),
        "breaker_opens": None if breaker is None else breaker.opens,
        "stale_plans": [stack.stale_plans_rejected, stack.stale_plans_applied],
        "timeline": [repr(entry) for entry in result.timeline],
        "reports": [repr(report) for report in reports],
        "failovers": [repr(failover) for failover in failovers],
        "suspects": [repr(s) for _, s in sorted(result.detector.suspects.items())],
        "tail_writes_lost": result.checkpointer.tail_writes_lost,
        "tally_hits": result.tally_hits(),
        "tally_at": repr(stack.plan.element_locations()["SessionTally"]),
    }


def _recovery(**kwargs):
    result = run_recovery_scenario(**kwargs)
    return _scenario_payload(result, [result.report])


def _resilience(**kwargs):
    result = run_control_resilience_scenario(**kwargs)
    payload = _scenario_payload(result, result.reports, result.failovers)
    payload["timed_out"] = result.timed_out
    payload["signature"] = result.signature()
    return payload


def _overloaded_crash():
    """The overloaded crash trial of ``tests/test_chaos.py``, shortened."""
    return _recovery(
        seed=5,
        total_rpcs=600,
        concurrency=4,
        table_rows=100,
        retry_policy=RetryPolicy(
            max_attempts=3,
            per_attempt_timeout_ms=2.0,
            base_backoff_ms=0.2,
            max_backoff_ms=1.0,
            retry_on=("Timeout",),
            seed=5,
        ),
        circuit_breaker=CircuitBreakerPolicy(
            failure_threshold=2, open_ms=5.0, half_open_probes=1
        ),
        retry_budget=RetryBudgetConfig(
            ratio=0.5, min_tokens=20.0, max_tokens=50.0
        ),
        queue_limit=32,
        client_think_s=0.0005,
    )


def _crash_mid_recovery(standby):
    return _resilience(
        seed=2,
        total_rpcs=800,
        fault_plan=controller_crash_during_failover_plan(
            STATS_MACHINE, CTRL_A, crash_at_s=0.01, leader_crash_at_s=0.032
        ),
        run_limit_s=4.0,
        standby=standby,
    )


def _partition_mid_recovery(fence_epochs):
    return _resilience(
        seed=3,
        total_rpcs=800,
        fault_plan=partition_during_recovery_plan(
            STATS_MACHINE, CTRL_A, crash_at_s=0.01, partition_at_s=0.031,
            partition_for_s=0.06,
        ),
        fence_epochs=fence_epochs,
    )


def _gray():
    plan = FaultPlan(
        events=[
            FaultEvent(
                at_s=0.1, kind=GRAY_DEGRADE, target=STATS_MACHINE,
                duration_s=0.5, magnitude=20.0,
            )
        ],
        seed=4,
    )
    return _resilience(
        seed=4, total_rpcs=600, fault_plan=plan, client_think_s=0.002,
        horizon_s=1.0, gray_factor=3.0,
    )


SCENARIO_RUNS = {
    "recovery-seed1": lambda: _recovery(seed=1, total_rpcs=800),
    "recovery-never-fold": lambda: _recovery(
        seed=2,
        total_rpcs=800,
        table_rows=100,
        fault_plan=default_crash_plan(seed=2, crash_at_s=0.008),
        fold_every=10**6,
    ),
    "recovery-overloaded": _overloaded_crash,
    "resilience-crash-standby": lambda: _crash_mid_recovery(True),
    "resilience-crash-no-standby": lambda: _crash_mid_recovery(False),
    "resilience-partition-fenced": lambda: _partition_mid_recovery(True),
    "resilience-partition-unfenced": lambda: _partition_mid_recovery(False),
    "resilience-gray": _gray,
    "chaos-soak": lambda: run_chaos_soak(
        trials=2, base_seed=100, total_rpcs=400
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIO_RUNS))
def test_fault_scenario_pinned(name):
    assert _digest(SCENARIO_RUNS[name]()) == PINS[name], name


@pytest.mark.parametrize(
    "name, argv",
    [
        ("cli-faults", ["faults", "--rpcs", "800"]),
        ("cli-chaos", ["chaos", "--trials", "2", "--rpcs", "400"]),
    ],
)
def test_fault_command_pinned(name, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(argv + ["--json", "out.json"])
    payload = {
        "code": code,
        "stdout": capsys.readouterr().out,
        "json": (tmp_path / "out.json").read_text(),
    }
    assert _digest(payload) == PINS[name], name
