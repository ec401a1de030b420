"""Bit-identity pins for every open-loop workload.

Each test runs a small seeded experiment and compares a sha256 digest of
everything it reports (counters, per-priority tallies and the raw latency
samples) with a digest captured before the arrival loops were merged into
one driver. Any change to the order of RNG draws, the arrival clock or
the outcome accounting moves a digest.
"""

import hashlib
import json
from dataclasses import asdict

import repro.sim
from repro.graph import bookinfo_graph, run_graph_scenario
from repro.offload.sweep import OffloadSweepConfig, run_offload_comparison
from repro.overload.sweep import SweepConfig, run_overload_sweep
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
