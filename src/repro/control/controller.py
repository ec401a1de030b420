"""The ADN runtime controller (paper Figure 3, §5.2).

A logically centralized component that:

* watches the cluster manager for ``ADNConfig`` (the DSL program) and
  ``Deployment`` (service replica sets) changes;
* compiles the program and solves placement for every chain;
* installs/updates data-plane processors — pushing replica sets into
  load-balancer state tables, and hot-swapping element code while
  preserving element state (the state/code decoupling of §5.2).

The controller is deliberately synchronous: reconciliation runs to
completion on each watch event, which is the level-triggered model real
operators use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from ..compiler.compiler import AdnCompiler, CompiledApp, CompiledChain
from ..dsl.parser import parse
from ..dsl.schema import RpcSchema
from ..dsl.stdlib import load_stdlib
from ..dsl.validator import validate_program
from ..errors import AdnError, ControlPlaneError, StaleEpochError
from ..runtime.mrpc import AdnMrpcStack
from .k8s import (
    DELETED,
    KIND_ADN_CONFIG,
    KIND_DEPLOYMENT,
    MiniKube,
    ResourceObject,
)
from .placement import (
    ClusterSpec,
    PlacementPlan,
    PlacementRequest,
    solve_placement,
)


@dataclass
class InstalledChain:
    """A chain the controller currently manages on the data plane."""

    chain: CompiledChain
    plan: PlacementPlan
    stack: Optional[AdnMrpcStack] = None


@dataclass
class ReconcileRecord:
    """Audit trail entry for one reconciliation."""

    generation: int
    trigger: str
    actions: List[str] = field(default_factory=list)


class AdnController:
    """Watches the cluster manager and keeps the data plane in sync."""

    def __init__(
        self,
        kube: MiniKube,
        schema: RpcSchema,
        cluster_spec: Optional[ClusterSpec] = None,
        compiler: Optional[AdnCompiler] = None,
        strategy: str = "software",
    ):
        self.kube = kube
        self.schema = schema
        self.cluster_spec = cluster_spec or ClusterSpec()
        self.compiler = compiler or AdnCompiler()
        self.strategy = strategy
        self.generation = 0
        self.compiled: Optional[CompiledApp] = None
        self.installed: Dict[Tuple[str, str], InstalledChain] = {}
        self.history: List[ReconcileRecord] = []
        self._unsubscribe = kube.watch(
            self._on_event, kinds=[KIND_ADN_CONFIG, KIND_DEPLOYMENT]
        )

    def close(self) -> None:
        self._unsubscribe()

    # -- watch handling ------------------------------------------------------

    def _on_event(self, event: str, obj: ResourceObject) -> None:
        trigger = f"{event} {obj.kind}/{obj.name}"
        if obj.kind == KIND_ADN_CONFIG:
            if event == DELETED:
                self.compiled = None
                self.installed.clear()
                self._record(trigger, ["uninstalled all chains"])
                return
            self._reconcile_config(obj, trigger)
        elif obj.kind == KIND_DEPLOYMENT:
            self._reconcile_deployment(obj, trigger)

    def _reconcile_config(self, obj: ResourceObject, trigger: str) -> None:
        try:
            self._reconcile_config_inner(obj, trigger)
        except AdnError as error:
            # a bad program must not take down the controller or the
            # running data plane: record the failure, keep serving the
            # last good configuration
            self._record(trigger, [f"REJECTED: {error}"])

    def _reconcile_config_inner(
        self, obj: ResourceObject, trigger: str
    ) -> None:
        source = str(obj.spec["program"])
        app_name = str(obj.spec["app"])
        if "strategy" in obj.spec:
            self.strategy = str(obj.spec["strategy"])
        program = load_stdlib().merged(parse(source))
        program = validate_program(
            program, schema=self.schema, registry=self.compiler.registry
        )
        compiled = self.compiler.compile_app(program, app_name, self.schema)
        self.compiled = compiled
        actions: List[str] = []
        for chain in compiled.chains:
            plan = self._solve(chain)
            key = (chain.decl.src, chain.decl.dst)
            previous = self.installed.get(key)
            self.installed[key] = InstalledChain(chain=chain, plan=plan)
            if previous is not None and previous.stack is not None:
                self._hot_update(previous, self.installed[key])
                actions.append(
                    f"hot-updated chain {key[0]}->{key[1]} "
                    f"({len(chain.element_order)} elements)"
                )
            else:
                actions.append(
                    f"installed chain {key[0]}->{key[1]}: "
                    f"{', '.join(chain.element_order)}"
                )
        self._push_endpoints(actions)
        self._record(trigger, actions)

    def _reconcile_deployment(self, obj: ResourceObject, trigger: str) -> None:
        actions: List[str] = []
        self._push_endpoints(actions)
        self._record(trigger, actions)

    def _record(self, trigger: str, actions: List[str]) -> None:
        self.generation += 1
        self.history.append(
            ReconcileRecord(
                generation=self.generation, trigger=trigger, actions=actions
            )
        )

    # -- placement & data-plane updates --------------------------------------------

    def _solve(self, chain: CompiledChain) -> PlacementPlan:
        outside_app = tuple(
            constraint.args[0]
            for constraint in (
                self.compiled.app.constraints if self.compiled else ()
            )
            if constraint.kind == "outside_app"
        )
        colocate = {
            constraint.args[0]: constraint.args[1]
            for constraint in (
                self.compiled.app.constraints if self.compiled else ()
            )
            if constraint.kind == "colocate"
        }
        request = PlacementRequest(
            chain=chain,
            schema=self.schema,
            cluster=self.cluster_spec,
            strategy=self.strategy,
            colocate=colocate,
            outside_app=outside_app,
        )
        return solve_placement(request)

    def replicas_of(self, service: str) -> int:
        obj = self.kube.get(KIND_DEPLOYMENT, service)
        if obj is None:
            return 1
        return int(obj.spec.get("replicas", 1))

    def _push_endpoints(self, actions: List[str]) -> None:
        """Install replica sets into every running load balancer's
        endpoints table (hot, no pause: keyed upsert)."""
        for (_src, dst), installed in self.installed.items():
            if installed.stack is None:
                continue
            replicas = [
                f"{dst}.{index + 1}"
                for index in range(self.replicas_of(dst))
            ]
            for processor in installed.stack.processors:
                for name in processor.segment.elements:
                    element_ir = installed.chain.elements[name].ir
                    if any(
                        decl.name == "endpoints" for decl in element_ir.states
                    ):
                        processor.seed_endpoints(name, replicas)
                        actions.append(
                            f"updated {name} endpoints to {replicas}"
                        )

    def _hot_update(
        self, previous: InstalledChain, current: InstalledChain
    ) -> None:
        """Swap element code on a live stack, carrying state across
        (paper §5.2: state decoupling enables hot update)."""
        stack = previous.stack
        assert stack is not None
        old_state: Dict[str, object] = {}
        for processor in stack.processors:
            for name in processor.segment.elements:
                old_state[name] = processor.element_state(name).snapshot()
        new_stack_needed = (
            current.plan.segments != previous.plan.segments
            or current.chain.element_order != previous.chain.element_order
        )
        if new_stack_needed:
            # placement changed: the caller must re-install; keep the old
            # stack serving until then
            current.stack = None
            return
        for processor in stack.processors:
            for name in processor.segment.elements:
                artifact = current.chain.elements[name].artifact("python")
                fresh = artifact.factory(on_func_call=processor._on_func_call)
                snapshot = old_state.get(name)
                if snapshot is not None:
                    try:
                        fresh.state.load_snapshot(snapshot)
                    except Exception:
                        pass  # schema changed: fresh state is correct
                processor.instances[name] = fresh
        current.stack = stack

    # -- data-plane installation ---------------------------------------------------

    def install_stack(
        self,
        sim,
        cluster,
        src: str,
        dst: str,
        handcoded: bool = False,
    ) -> AdnMrpcStack:
        """Build a runnable stack for one managed chain."""
        key = (src, dst)
        if key not in self.installed:
            raise ControlPlaneError(f"no chain {src} -> {dst} installed")
        installed = self.installed[key]
        stack = AdnMrpcStack(
            sim,
            cluster,
            installed.chain,
            self.schema,
            self.compiler.registry,
            plan=installed.plan,
            handcoded=handcoded,
            client_service=src,
            server_service=dst,
            server_replicas=self.replicas_of(dst),
            filters=list(installed.chain.filters.values()),
            filter_order=list(installed.chain.decl.elements),
            guarantees=(
                self.compiled.app.guarantees if self.compiled else None
            ),
        )
        installed.stack = stack
        self._push_endpoints([])
        return stack


# -- self-healing recovery (repro.faults) -----------------------------------


@dataclass
class RecoveryReport:
    """What one recovery did, in the §5.2 vocabulary: the blackout the
    application saw, split into detection and repair, with the state
    volumes that explain it."""

    machine: str
    suspected_at: float
    recovered_at: float
    #: ground-truth crash instant when the injector shared it (a real
    #: controller only knows ``suspected_at``)
    crashed_at: Optional[float] = None
    #: "crash" (restore from the warm standby) or "gray" (the machine
    #: is alive but degraded: state migrates off it directly)
    kind: str = "crash"
    rows_restored: int = 0
    deltas_replayed: int = 0
    elements_moved: Tuple[str, ...] = ()
    plan_description: str = ""
    restore_s: float = 0.0
    #: data-plane counters at recovery completion (cumulative per stack)
    rpcs_lost: int = 0
    rpcs_retried: int = 0
    duplicate_server_executions: int = 0

    @property
    def detection_latency_s(self) -> Optional[float]:
        if self.crashed_at is None:
            return None
        return self.suspected_at - self.crashed_at

    @property
    def unavailability_s(self) -> float:
        """The application-visible window: from the crash (or, without
        ground truth, the suspicion) until the re-solved plan with
        restored state is serving."""
        start = self.crashed_at if self.crashed_at is not None else self.suspected_at
        return self.recovered_at - start

    def summary(self) -> str:
        lines = [
            f"machine {self.machine} recovered in "
            f"{self.unavailability_s * 1e3:.2f} ms",
        ]
        if self.detection_latency_s is not None:
            lines.append(
                f"  detection latency: {self.detection_latency_s * 1e3:.2f} ms"
            )
        lines.append(
            f"  state restored: {self.rows_restored} rows, "
            f"{self.deltas_replayed} deltas replayed "
            f"({self.restore_s * 1e6:.1f} us blackout restore)"
        )
        lines.append(
            f"  elements moved: {', '.join(self.elements_moved) or '(none)'}"
        )
        lines.append(f"  new plan: {self.plan_description}")
        lines.append(
            f"  data plane: {self.rpcs_lost} attempts lost, "
            f"{self.rpcs_retried} retries, "
            f"{self.duplicate_server_executions} duplicate server executions"
        )
        return "\n".join(lines)


#: how often an orchestrator whose plan push cannot land (a control
#: partition) tries it again
PUSH_RETRY_INTERVAL_S = 0.005


class RecoveryOrchestrator:
    """Reacts to failure-detector suspicions by healing one stack:
    re-solve placement on the surviving cluster (the default
    :class:`ClusterSpec`, software strategy), swap the plan in, and
    restore displaced element state from the checkpointer's warm
    standby (shadow + delta backlog).

    Wire it up with ``detector.on_suspect(orchestrator.suspect_sink)``.
    Recovery only re-homes elements; if the suspect machine is one of
    the ClusterSpec hosts themselves (the apps' homes), the re-solve
    still targets them — this orchestrator heals the *element* layer,
    matching the paper's controller scope.
    """

    def __init__(
        self,
        sim,
        stack: AdnMrpcStack,
        schema: RpcSchema,
        checkpointer=None,
        telemetry=None,
        detector=None,
        crash_times: Optional[Dict[str, float]] = None,
        epoch_source=None,
        alive_fn=None,
        push_ok_fn=None,
        pre_apply_delay_s: float = 0.0,
        journal=None,
    ):
        self.sim = sim
        self.stack = stack
        self.schema = schema
        self.checkpointer = checkpointer
        self.telemetry = telemetry
        self.detector = detector
        #: injector ground truth (FaultInjector.crash_times), if shared
        self.crash_times = crash_times if crash_times is not None else {}
        #: resilience hooks (repro.control.resilience). ``epoch_source``
        #: mints the epoch stamped on every re-solved plan (None keeps
        #: legacy unfenced epoch-0 plans). ``alive_fn`` is this
        #: controller's own liveness — checked across every yield so a
        #: controller crash *abandons* the recovery mid-flight instead
        #: of impossibly completing it. ``pre_apply_delay_s`` models the
        #: controller-side re-solve/push latency (the window a crash or
        #: partition can land in). ``journal`` is a write-ahead record
        #: of open recoveries a warm standby resumes from.
        self.epoch_source = epoch_source
        self.alive_fn = alive_fn
        #: ``push_ok_fn`` is the controller→data-plane channel: a
        #: control-partitioned controller keeps computing (it does not
        #: know it is cut off) but its plan push cannot land until the
        #: partition heals — by which time a new leader's epoch fences it
        self.push_ok_fn = push_ok_fn
        self.pre_apply_delay_s = pre_apply_delay_s
        self.journal = journal
        self.reports: List[RecoveryReport] = []
        self.abandoned_recoveries = 0
        self.stale_plan_rejections = 0
        self._in_progress: set = set()

    def _alive(self) -> bool:
        return self.alive_fn() if self.alive_fn is not None else True

    def recovering(self, machine: str) -> bool:
        """Whether a recovery of ``machine`` is running here."""
        return machine in self._in_progress

    def suspect_sink(self, suspicion) -> None:
        """Detector callback: start recovery if the suspect machine
        hosts any of our stack's processors."""
        machine = suspicion.machine
        if machine in self._in_progress:
            return
        hosted = [
            seg for seg in self.stack.plan.segments if seg.machine == machine
        ]
        if not hosted:
            return
        self._in_progress.add(machine)
        graceful = getattr(suspicion, "kind", "crash") == "gray"
        self.sim.process(
            self._recover(machine, suspicion.at_s, graceful=graceful)
        )

    def recover_now(self, machine: str, suspected_at: float) -> bool:
        """Explicitly (re)start recovery for a machine — the takeover
        path: a standby resuming a journaled recovery its dead
        predecessor left open. Returns False if one is already
        running here."""
        if machine in self._in_progress:
            return False
        self._in_progress.add(machine)
        self.sim.process(self._recover(machine, suspected_at))
        return True

    def _recover(
        self, machine: str, suspected_at: float, graceful: bool = False
    ) -> Generator:
        stack = self.stack
        if self.journal is not None:
            self.journal.open(machine, suspected_at)
        if self.pre_apply_delay_s > 0.0:
            # controller-side work (re-solve, validation, push) takes
            # real time; a controller death inside this window is what
            # orphans a recovery without a warm standby
            yield float(self.pre_apply_delay_s)
        if not self._alive():
            self.abandoned_recoveries += 1
            self._in_progress.discard(machine)
            return None
        if self.push_ok_fn is not None:
            # the push channel is severed (control partition): keep
            # retrying — the stale-controller-wakes-up case the epoch
            # fence exists for
            while not self.push_ok_fn():
                yield PUSH_RETRY_INTERVAL_S
                if not self._alive():
                    self.abandoned_recoveries += 1
                    self._in_progress.discard(machine)
                    return None
        old_locations = stack.plan.element_locations()
        displaced = tuple(
            name
            for name, (_platform, location) in old_locations.items()
            if location == machine
        )
        # re-solve on the surviving cluster: the solver only ever places
        # on the ClusterSpec hosts and the switch, so a crashed third
        # machine drops out of the plan naturally
        new_plan = solve_placement(
            PlacementRequest(chain=stack.chain, schema=self.schema)
        )
        if self.epoch_source is not None:
            new_plan.epoch = self.epoch_source()
        try:
            old_processors = stack.apply_plan(new_plan)
        except StaleEpochError:
            # a newer controller already reconfigured the mesh while we
            # were working (we are the deposed half of a split brain):
            # stand down, our whole view is superseded
            self.stale_plan_rejections += 1
            self._in_progress.discard(machine)
            return None
        # the dead host's un-streamed delta-log tail is gone; account it
        # — only after the fence admitted us, so a deposed controller
        # never drains a watch its successor already retargeted. A gray
        # machine is alive and its log still drains; nothing is marked.
        if self.checkpointer is not None and not graceful:
            for element in displaced:
                if self.checkpointer.watches(element):
                    self.checkpointer.mark_crashed(element)
        if self.telemetry is not None:
            for processor in old_processors:
                self.telemetry.deregister(processor)
            self.telemetry.register_stack(stack)
        # survivors keep their state: their machines never lost memory,
        # so the rebuild carries it over directly (a warm local copy,
        # off the blackout path). In a graceful (gray) recovery the
        # "displaced" elements are survivors too — their host is slow,
        # not dead — so their state migrates directly as well.
        old_state: Dict[str, object] = {}
        for processor in old_processors:
            for name in processor.segment.elements:
                if graceful or name not in displaced:
                    old_state[name] = processor.element_state(name).snapshot()
        for processor in stack.processors:
            for name in processor.segment.elements:
                if name in old_state:
                    processor.element_state(name).load_snapshot(
                        old_state[name]
                    )
        # displaced elements restore from the warm standby: shadow is
        # already resident, the blackout pays only the backlog replay
        rows_restored = 0
        deltas_replayed = 0
        restore_s = 0.0
        if self.checkpointer is not None:
            for element in displaced:
                if not self.checkpointer.watches(element):
                    continue
                target = self._store_of(element)
                if target is None:
                    continue
                if not graceful:
                    restore = yield self.sim.process(
                        self.checkpointer.restore(element, target)
                    )
                    rows_restored += restore.rows_restored
                    deltas_replayed += restore.deltas_replayed
                    restore_s += restore.restore_s
                    if not self._alive():
                        # died between restore and retarget: leave the
                        # journal entry open so a standby re-runs it
                        self.abandoned_recoveries += 1
                        self._in_progress.discard(machine)
                        return None
                new_home = stack.plan.element_locations()[element][1]
                self.checkpointer.retarget(
                    element,
                    target,
                    live_of=lambda home=new_home: stack.cluster.machine_up(
                        home
                    ),
                )
        if self.detector is not None:
            self.detector.clear(machine)
        if self.journal is not None:
            self.journal.close(machine)
        report = RecoveryReport(
            machine=machine,
            suspected_at=suspected_at,
            recovered_at=self.sim.now,
            crashed_at=self.crash_times.get(machine),
            kind="gray" if graceful else "crash",
            rows_restored=rows_restored,
            deltas_replayed=deltas_replayed,
            elements_moved=displaced,
            plan_description=new_plan.description,
            restore_s=restore_s,
            rpcs_lost=stack.rpcs_lost,
            rpcs_retried=(
                stack.retry_stats.retries
                if stack.retry_stats is not None
                else 0
            ),
            duplicate_server_executions=stack.duplicate_server_executions,
        )
        self.reports.append(report)
        self._in_progress.discard(machine)
        return report

    def _store_of(self, element: str):
        for processor in self.stack.processors:
            if element in processor.segment.elements:
                return processor.element_state(element)
        return None
