"""Control-plane resilience: failover, fencing, partition tolerance.

The recovery machinery of :mod:`repro.control.controller` assumes the
controller itself survives. This module drops that assumption and makes
the *control plane* a fault domain of its own:

* **Lease-based leadership** (:class:`LeaseStore`): a warm-standby
  controller pair arbitrates through a lease over the simulation clock.
  The leader renews on a tick; a leader that crashes — or loses its
  control channel — stops renewing, the lease expires, and the standby
  acquires it under a *higher term*.

* **Epoch-fenced configuration**: every plan a controller installs
  carries an epoch minted as ``term * 1_000_000 + seq``, so any plan
  from a newer leadership term outranks every plan an older term could
  ever mint. The data plane (:meth:`AdnMrpcStack.apply_plan`) rejects
  stale epochs with :class:`~repro.errors.StaleEpochError` — the fence
  that turns a split brain from silent double-application into a
  counted, harmless rejection.

* **Recovery journaling** (:class:`RecoveryJournal`): the leader writes
  every recovery it starts into a journal whose state store rides the
  existing delta-log :class:`~repro.state.checkpoint.Checkpointer`.
  A standby taking over restores the journal from the warm standby and
  *resumes* any recovery its dead predecessor left open — the
  crash-mid-recovery case that would otherwise orphan the mesh.

* **Chaos soak** (:func:`run_chaos_soak`): seeded multi-fault trials
  over the full fault universe (crashes, hangs, link faults, control
  partitions, gray degradation) with invariant checks — notably that
  the split-brain counter stays zero — and a per-trial determinism
  signature.

:func:`run_control_resilience_scenario` wires the controller pair over
:class:`~repro.faults.scenario.SessionTallyScenario`, the data plane
that :func:`~repro.faults.scenario.run_recovery_scenario` runs under a
single orchestrator, and its :class:`ResilienceResult` extends that
scenario's record. Everything is deterministic in the seeds: same
inputs, same timeline, bit-identical signatures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dsl.ast_nodes import ColumnDef, StateDecl
from ..dsl.schema import FieldType
from ..errors import SimulationTimeout
from ..faults.detector import HeartbeatFailureDetector
from ..faults.plan import FAULT_KINDS, FaultPlan, random_multi_fault_plan
from ..faults.scenario import (
    STATS_MACHINE,
    ScenarioResult,
    SessionTallyScenario,
)
from ..runtime.filters import RetryPolicy
from ..sim.cluster import Cluster, Simulator
from ..state.checkpoint import Checkpointer
from ..state.table import StateStore
from .controller import RecoveryOrchestrator

#: the controller pair's machine names in the scenario cluster
CTRL_A = "ctrl-a"
CTRL_B = "ctrl-b"

#: controller-side re-solve and push latency before a recovery's plan
#: lands: the window a controller crash or partition can fall into
PRE_APPLY_DELAY_S = 0.01

#: the journal's element name under the checkpointer
JOURNAL_ELEMENT = "recovery-journal"


# -- leadership --------------------------------------------------------------


@dataclass
class LeaseStore:
    """A single lease over the simulation clock (the moral equivalent of
    an etcd lease, minus the network: the store itself is assumed
    reliable; the *controllers* are not).

    ``term`` increments exactly when leadership changes hands, which is
    what makes it safe to build fencing epochs on: a term is never
    reused, and a deposed leader keeps minting under its old term.
    """

    sim: Simulator
    duration_s: float = 0.03
    holder: Optional[str] = None
    expires_at: float = float("-inf")
    term: int = 0

    def acquire(self, node: str) -> Optional[int]:
        """Take the lease if it is free or expired (or already ours).
        Returns the term held under, or None if someone else holds a
        live lease."""
        if self.holder != node and self.expires_at > self.sim.now:
            return None
        if self.holder != node:
            self.term += 1
            self.holder = node
        self.expires_at = self.sim.now + self.duration_s
        return self.term

    def renew(self, node: str) -> bool:
        """Extend a still-valid lease; an expired one must re-acquire."""
        if self.holder == node and self.expires_at > self.sim.now:
            self.expires_at = self.sim.now + self.duration_s
            return True
        return False

    def valid(self, node: str) -> bool:
        return self.holder == node and self.expires_at > self.sim.now


# -- the recovery journal ----------------------------------------------------


class RecoveryJournal:
    """Write-ahead record of recoveries, as a state store.

    Implements the same store protocol element state does (``tables`` /
    ``vars`` / ``table()``), so the existing delta-log
    :class:`Checkpointer` replicates it to the warm standby with zero
    new machinery: ``open()`` and ``close()`` are ordinary keyed-table
    writes, and they stream out with the next checkpoint tick."""

    def __init__(self) -> None:
        decl = StateDecl(
            name="recoveries",
            columns=(
                ColumnDef(name="machine", type=FieldType.STR, is_key=True),
                ColumnDef(name="suspected_at", type=FieldType.FLOAT),
                ColumnDef(name="status", type=FieldType.STR),
            ),
        )
        self._store = StateStore([decl], {})

    # the StateStore protocol the checkpointer consumes
    @property
    def tables(self):
        return self._store.tables

    @property
    def vars(self):
        return self._store.vars

    def table(self, name: str):
        return self._store.table(name)

    # journal semantics
    def open(self, machine: str, suspected_at: float) -> None:
        table = self.table("recoveries")
        if table.get(machine) is None:
            table.insert(
                {
                    "machine": machine,
                    "suspected_at": suspected_at,
                    "status": "open",
                }
            )
        else:
            table.update_where(
                lambda row: row["machine"] == machine,
                lambda row: {"suspected_at": suspected_at, "status": "open"},
            )

    def close(self, machine: str) -> None:
        table = self.table("recoveries")
        if table.get(machine) is not None:
            table.update_where(
                lambda row: row["machine"] == machine,
                lambda row: {"status": "closed"},
            )

    def open_entries(self) -> List[Tuple[str, float]]:
        """(machine, suspected_at) for every recovery still open —
        what a standby must resume after taking over."""
        return sorted(
            (str(row["machine"]), float(row["suspected_at"]))
            for row in self.table("recoveries").rows()
            if row["status"] == "open"
        )


# -- controller nodes --------------------------------------------------------


class ControllerNode:
    """One controller process: a machine in the cluster, a lease
    client, an epoch mint, and a :class:`RecoveryOrchestrator` it drives
    while it leads."""

    def __init__(
        self, name: str, sim: Simulator, cluster: Cluster, lease: LeaseStore
    ):
        self.name = name
        self.sim = sim
        self.cluster = cluster
        self.lease = lease
        self.journal = RecoveryJournal()
        self.orchestrator: Optional[RecoveryOrchestrator] = None
        #: the leadership term this node last held (a deposed node keeps
        #: minting under it — that is exactly what the fence catches)
        self.term = 0
        self._seq = 0
        self.takeovers = 0

    @property
    def up(self) -> bool:
        """The machine is powered: a crashed controller computes nothing."""
        return self.cluster.machine_up(self.name)

    @property
    def reachable(self) -> bool:
        """The control channel works: a partitioned controller still
        computes, but cannot renew its lease or land a plan push."""
        return self.cluster.control_reachable(self.name)

    def mint_epoch(self) -> int:
        """``term * 1_000_000 + seq``: any epoch from a newer term
        outranks every epoch an older term could ever mint."""
        self._seq += 1
        return self.term * 1_000_000 + self._seq


@dataclass(frozen=True)
class FailoverReport:
    """One leadership takeover, with what the new leader inherited."""

    node: str
    at_s: float
    term: int
    #: journaled recoveries the predecessor left open, now resumed
    resumed: Tuple[str, ...] = ()
    #: standing detector suspicions the predecessor never acted on
    swept: Tuple[str, ...] = ()
    journal_rows_restored: int = 0
    journal_deltas_replayed: int = 0


class ControllerPair:
    """Warm-standby controller replication over a :class:`LeaseStore`.

    One tick process drives both nodes: the leader renews, a standby
    that sees an expired lease acquires it (bumping the term) and runs
    the takeover — journal restore, resumption of open recoveries, and
    a sweep of standing suspicions the dead leader never acted on.
    Suspicions route to the node holding a *valid* lease; while no such
    node is alive and reachable they are dropped, which is precisely the
    window failover exists to bound."""

    def __init__(
        self,
        sim: Simulator,
        lease: LeaseStore,
        nodes: List[ControllerNode],
        checkpointer: Optional[Checkpointer] = None,
        detector: Optional[HeartbeatFailureDetector] = None,
        renew_interval_s: float = 0.01,
    ):
        self.sim = sim
        self.lease = lease
        self.nodes = nodes
        self.checkpointer = checkpointer
        self.detector = detector
        self.renew_interval_s = renew_interval_s
        self.failovers: List[FailoverReport] = []
        self.dropped_suspicions = 0
        # bootstrap: the first node starts as leader (term 1)
        term = lease.acquire(nodes[0].name)
        nodes[0].term = term if term is not None else 0

    def leader(self) -> Optional[ControllerNode]:
        for node in self.nodes:
            if self.lease.valid(node.name) and node.up and node.reachable:
                return node
        return None

    def suspect_sink(self, suspicion) -> None:
        """Route a detector suspicion to the current leader; with no
        live leader the message has no recipient and is lost."""
        node = self.leader()
        if node is None or node.orchestrator is None:
            self.dropped_suspicions += 1
            return
        node.orchestrator.suspect_sink(suspicion)

    def run(self, duration_s: float):
        """Simulation process: lease renewal and takeover on a tick."""
        deadline = self.sim.now + duration_s
        while self.sim.now < deadline:
            yield float(self.renew_interval_s)
            for node in self.nodes:
                if not (node.up and node.reachable):
                    continue
                if self.lease.valid(node.name):
                    self.lease.renew(node.name)
                    continue
                if self.lease.expires_at <= self.sim.now:
                    term = self.lease.acquire(node.name)
                    if term is None or term == node.term:
                        # re-acquired our own lapsed lease: same term,
                        # nothing to take over
                        continue
                    node.term = term
                    yield from self._takeover(node)

    def _takeover(self, node: ControllerNode):
        started = self.sim.now
        node.takeovers += 1
        rows = deltas = 0
        if self.checkpointer is not None and self.checkpointer.watches(
            JOURNAL_ELEMENT
        ):
            restore = yield self.sim.process(
                self.checkpointer.restore(JOURNAL_ELEMENT, node.journal)
            )
            rows = restore.rows_restored
            deltas = restore.deltas_replayed
            self.checkpointer.retarget(
                JOURNAL_ELEMENT,
                node.journal,
                live_of=lambda n=node: n.up and n.reachable,
            )
        resumed: List[str] = []
        if node.orchestrator is not None:
            for machine, suspected_at in node.journal.open_entries():
                if node.orchestrator.recover_now(machine, suspected_at):
                    resumed.append(machine)
        # suspicions raised while no leader was reachable were dropped;
        # the detector still holds them — sweep what is still standing
        swept: List[str] = []
        if self.detector is not None and node.orchestrator is not None:
            for machine in sorted(self.detector.suspects):
                if machine in resumed:
                    continue
                node.orchestrator.suspect_sink(self.detector.suspects[machine])
                if node.orchestrator.recovering(machine):
                    swept.append(machine)
        self.failovers.append(
            FailoverReport(
                node=node.name,
                at_s=started,
                term=node.term,
                resumed=tuple(resumed),
                swept=tuple(swept),
                journal_rows_restored=rows,
                journal_deltas_replayed=deltas,
            )
        )


# -- the scenario ------------------------------------------------------------


class ResilienceResult(ScenarioResult):
    """The SessionTally record plus what the controller pair did."""

    def __init__(self, scenario, metrics, total_rpcs, pair, timed_out):
        super().__init__(scenario, metrics, total_rpcs)
        self.pair = pair
        #: the workload hit the simulation-time limit before completing
        #: (the orphaned-mesh signature of the no-failover baseline)
        self.timed_out = timed_out

    @property
    def failovers(self) -> List[FailoverReport]:
        return self.pair.failovers

    @property
    def ok_rpcs(self) -> int:
        return self.metrics.completed - self.metrics.aborted

    @property
    def goodput_fraction(self) -> float:
        """Successfully answered RPCs over the offered total — the
        number the controller-blackout benchmark pins."""
        if self.total_rpcs <= 0:
            return 0.0
        return self.ok_rpcs / self.total_rpcs

    @property
    def stale_plans_rejected(self) -> int:
        return self.stack.stale_plans_rejected

    @property
    def stale_plans_applied(self) -> int:
        """The split-brain counter: stale plans that *landed*. Zero
        whenever the epoch fence is on."""
        return self.stack.stale_plans_applied

    @property
    def abandoned_recoveries(self) -> int:
        return sum(
            node.orchestrator.abandoned_recoveries for node in self.pair.nodes
        )

    def signature(self) -> str:
        """A deterministic digest of everything observable: equal
        signatures mean bit-identical replays."""
        record = (
            round(self.sim.now, 9),
            self.metrics.issued,
            self.metrics.completed,
            self.metrics.aborted,
            self.stack.rpcs_lost,
            self.stack.stale_plans_rejected,
            self.stack.stale_plans_applied,
            self.pair.dropped_suspicions,
            tuple(
                (round(entry.at_s, 9), entry.action, entry.kind, entry.target)
                for entry in self.timeline
            ),
            tuple(
                (report.node, round(report.at_s, 9), report.term,
                 report.resumed, report.swept)
                for report in self.failovers
            ),
            tuple(
                (report.machine, report.kind, round(report.recovered_at, 9),
                 report.elements_moved)
                for report in self.reports
            ),
        )
        return hashlib.blake2b(
            repr(record).encode("utf-8"), digest_size=16
        ).hexdigest()


def run_control_resilience_scenario(
    seed: int = 1,
    total_rpcs: int = 3000,
    concurrency: int = 4,
    table_rows: int = 200,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    fold_every: int = 4,
    horizon_s: float = 2.0,
    standby: bool = True,
    fence_epochs: bool = True,
    gray_factor: float = 0.0,
    client_think_s: float = 0.0,
    run_limit_s: Optional[float] = None,
) -> ResilienceResult:
    """The SessionTally scenario of :mod:`repro.faults.scenario`, with
    the control plane made mortal: ``ctrl-a`` (leader) and optionally
    ``ctrl-b`` (warm standby) drive detection and recovery under a
    lease, a journal, and epoch-fenced plan pushes. Fully deterministic
    in ``seed`` and the plan."""
    scenario = SessionTallyScenario(
        seed,
        table_rows,
        fault_plan,
        retry_policy,
        fold_every,
        extra_machines=(CTRL_A, CTRL_B),
        gray_factor=gray_factor,
    )
    sim, checkpointer, detector = (
        scenario.sim, scenario.checkpointer, scenario.detector
    )
    scenario.stack.fence_epochs = fence_epochs
    scenario.injector.register_detector(detector)

    lease = LeaseStore(sim)
    nodes = [
        ControllerNode(name, sim, scenario.cluster, lease)
        for name in ((CTRL_A, CTRL_B) if standby else (CTRL_A,))
    ]
    for node in nodes:
        node.orchestrator = scenario.orchestrator(
            epoch_source=node.mint_epoch,
            alive_fn=lambda n=node: n.up,
            push_ok_fn=lambda n=node: n.reachable,
            pre_apply_delay_s=PRE_APPLY_DELAY_S,
            journal=node.journal,
        )
    pair = ControllerPair(
        sim, lease, nodes, checkpointer=checkpointer, detector=detector
    )
    # the leader's journal is checkpointed exactly like element state:
    # its delta log streams to the warm standby on the same cadence
    checkpointer.watch(
        JOURNAL_ELEMENT,
        nodes[0].journal,
        live_of=lambda n=nodes[0]: n.up and n.reachable,
    )
    detector.on_suspect(pair.suspect_sink)

    client = scenario.start(
        total_rpcs, concurrency, horizon_s, client_think_s,
        processes=[pair.run(horizon_s)],
    )
    limit = run_limit_s if run_limit_s is not None else max(horizon_s * 4, 8.0)
    timed_out = False
    try:
        metrics = client.run(limit_s=limit)
    except SimulationTimeout:
        # an orphaned mesh never finishes the workload: the baseline
        # without failover is *supposed* to end up here
        timed_out = True
        metrics = client.metrics
        metrics.elapsed_s = sim.now
    return ResilienceResult(scenario, metrics, total_rpcs, pair, timed_out)


# -- chaos soak --------------------------------------------------------------

#: machines the multi-fault chaos schedule may target: the stateful
#: data host and the leader controller
CHAOS_MACHINES = [STATS_MACHINE, CTRL_A]


def run_chaos_trial(
    seed: int,
    horizon_s: float = 2.0,
    events: int = 3,
    total_rpcs: int = 800,
    standby: bool = True,
    fence_epochs: bool = True,
) -> Dict[str, object]:
    """One seeded multi-fault trial: overlapping faults across the data
    host and the leader controller, gray detection armed. Returns a
    JSON-ready record with the trial's invariant counters and its
    determinism signature."""
    plan = random_multi_fault_plan(
        seed,
        horizon_s * 0.6,
        CHAOS_MACHINES,
        kinds=FAULT_KINDS,
        events=events,
    )
    result = run_control_resilience_scenario(
        seed=seed,
        total_rpcs=total_rpcs,
        fault_plan=plan,
        horizon_s=horizon_s,
        standby=standby,
        fence_epochs=fence_epochs,
        gray_factor=4.0,
        # stretch the closed loop across ~70% of the horizon (4 workers,
        # total_rpcs/4 each) so the fault windows land on live traffic,
        # not on an already-finished workload
        client_think_s=horizon_s * 0.7 * 4 / max(1, total_rpcs),
    )
    return {
        "seed": seed,
        "events": [event.to_dict() for event in plan.events],
        "issued": result.metrics.issued,
        "completed": result.metrics.completed,
        "aborted": result.metrics.aborted,
        "ok_rate": (
            result.ok_rpcs / result.metrics.completed
            if result.metrics.completed
            else 0.0
        ),
        "goodput_fraction": result.goodput_fraction,
        "timed_out": result.timed_out,
        "recoveries": len(result.reports),
        "failovers": len(result.failovers),
        "abandoned_recoveries": result.abandoned_recoveries,
        "dropped_suspicions": result.pair.dropped_suspicions,
        "stale_plans_rejected": result.stale_plans_rejected,
        "stale_plans_applied": result.stale_plans_applied,
        "signature": result.signature(),
    }


def run_chaos_soak(
    trials: int = 10,
    base_seed: int = 0,
    horizon_s: float = 2.0,
    events: int = 3,
    total_rpcs: int = 800,
    standby: bool = True,
    fence_epochs: bool = True,
) -> Dict[str, object]:
    """N seeded multi-fault trials plus the soak-level invariants: the
    split-brain counter (stale plans *applied*) must be zero across the
    whole soak whenever fencing is on."""
    results = [
        run_chaos_trial(
            base_seed + index,
            horizon_s=horizon_s,
            events=events,
            total_rpcs=total_rpcs,
            standby=standby,
            fence_epochs=fence_epochs,
        )
        for index in range(trials)
    ]
    return {
        "trials": results,
        "total_recoveries": sum(r["recoveries"] for r in results),
        "total_failovers": sum(r["failovers"] for r in results),
        "total_stale_rejected": sum(
            r["stale_plans_rejected"] for r in results
        ),
        "total_stale_applied": sum(r["stale_plans_applied"] for r in results),
        "min_goodput_fraction": min(
            (r["goodput_fraction"] for r in results), default=0.0
        ),
    }
