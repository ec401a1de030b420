"""The ADN data-plane path over mRPC (the paper's prototype processor).

``AdnMrpcStack`` wires a compiled chain + placement plan into a runnable
RPC path on the simulated cluster:

.. code-block:: text

    client app ──shm──▶ [client-side segments] ──wire──▶ [switch segment]
        ──wire──▶ [server-side segments] ──shm──▶ server app
    (response traverses the same segments in reverse)

Key fidelity points:

* messages are *really* encoded with the hop's minimal header layout
  (:class:`~repro.net.wire.AdnWireCodec`), once per wire crossing — wire
  sizes are the exact encoded sizes, not assumed;
* elements *really* execute (drops, rewrites, state);
* transport CPU is charged to whoever owns the wire on each side: the
  mRPC engine (default) or the RPC library itself ("proxyless", Figure 2
  config 1);
* an RPC aborted by an element turns around at that processor and pays
  only the return hops it actually crossed.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Generator, List, Optional, Sequence, Tuple

from ..compiler.compiler import CompiledChain
from ..compiler.headers import plan_hop_headers
from ..dsl.functions import FunctionRegistry
from ..dsl.schema import RpcSchema
from ..errors import StaleEpochError
from ..net.addresses import FlatId
from ..net.l2 import L2Frame
from ..net.tcp import wire_bytes_for_message
from ..net.wire import AdnWireCodec
from ..overload import DEADLINE_EXPIRED, DEADLINE_FIELD, OVERLOAD_ABORTS
from ..overload.admission import AdmissionConfig, AdmissionController
from ..overload.budget import (
    CircuitBreaker,
    CircuitBreakerPolicy,
    RetryBudget,
    RetryBudgetConfig,
)
from ..platforms import Platform
from ..sim.cluster import Cluster
from ..sim.engine import US, Simulator
from ..sim.resources import Resource
from .message import (
    Row,
    RpcOutcome,
    make_abort,
    make_request,
    make_response,
    payload_bytes,
)
from .processor import (
    SWITCH_LOCATION,
    PlacementPlan,
    PlacementSegment,
    ProcessorRuntime,
)

#: key a server handler may put in its overrides dict to abort the RPC
#: at the server boundary instead of answering it (the value becomes the
#: ``aborted_by`` reason) — how a graph service fails upward when a
#: required downstream call failed
ABORT_KEY = "__abort__"


def _handler_arity(handler) -> int:
    """Positional parameters a server handler accepts (1 = legacy
    request-only, 2 = request + propagated absolute deadline)."""
    import inspect

    try:
        parameters = inspect.signature(handler).parameters.values()
    except (TypeError, ValueError):  # builtins, odd callables
        return 1
    count = 0
    for parameter in parameters:
        if parameter.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            count += 1
        elif parameter.kind is inspect.Parameter.VAR_POSITIONAL:
            return 2
    return count


def default_plan(
    chain: CompiledChain, machine: str = "client-host"
) -> PlacementPlan:
    """The prototype's placement: every element in the client-side mRPC
    engine (the paper's §6 setup compiles the chain into engine modules
    on the sender)."""
    segment = PlacementSegment(
        platform=Platform.MRPC,
        machine=machine,
        elements=chain.element_order,
        stages=chain.ir.stages,
    )
    return PlacementPlan(
        segments=[segment],
        description="all elements in the client-side mRPC engine",
    )


class AdnMrpcStack:
    """A runnable ADN RPC path. Use ``stack.call(**fields)`` as the
    workload generator's call function."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        chain: CompiledChain,
        schema: RpcSchema,
        registry: FunctionRegistry,
        plan: Optional[PlacementPlan] = None,
        handcoded: bool = False,
        client_service: str = "A",
        server_service: str = "B",
        server_replicas: int = 1,
        filters: Optional[Sequence] = None,
        filter_order: Optional[Sequence[str]] = None,
        guarantees=None,
        server_handler=None,
        tracing: bool = False,
        retry_policy=None,
        queue_limit: Optional[int] = None,
        admission: Optional[AdmissionConfig] = None,
        retry_budget: Optional[RetryBudgetConfig] = None,
        circuit_breaker: Optional[CircuitBreakerPolicy] = None,
        client_machine: str = "client-host",
        server_machine: str = "server-host",
        client_thread: str = "client-app",
        server_thread: str = "server-app",
        l2_tag: str = "",
        propagate_deadline: bool = False,
        app_reads: Optional[FrozenSet[str]] = None,
        sanitizer=None,
    ):
        self.sim = sim
        self.cluster = cluster
        self.chain = chain
        self.schema = schema
        self.registry = registry
        #: which hosts this hop's two endpoints live on. The historical
        #: single-hop stack always spanned client-host -> server-host;
        #: a service graph instantiates one stack per RPC edge, each on
        #: the machines its placement assigned (repro.graph).
        self.client_machine = client_machine
        self.server_machine = server_machine
        self.client_thread = client_thread
        self.server_thread = server_thread
        #: distinguishes this stack's L2 endpoints when several stacks
        #: share a service name on one cluster (fan-out edges out of one
        #: service each need their own inbox)
        self.l2_tag = l2_tag
        self.plan = plan or default_plan(chain, machine=client_machine)
        #: epoch fence (repro.control.resilience): the newest
        #: configuration epoch this stack has accepted. ``apply_plan``
        #: rejects epoch-carrying plans that are not strictly newer —
        #: the defense against a deposed controller double-applying a
        #: superseded placement. Legacy epoch-0 plans stay unfenced.
        self.config_epoch = self.plan.epoch
        self.fence_epochs = True
        self.stale_plans_rejected = 0
        #: only ever nonzero with ``fence_epochs`` off (the split-brain
        #: baseline the resilience benchmark compares against)
        self.stale_plans_applied = 0
        self.costs = cluster.costs
        self.handcoded = handcoded
        self.client_service = client_service
        self.server_service = server_service
        self.server_replicas = server_replicas
        #: requested delivery guarantees (GuaranteeDecl or None): ordered
        #: adds a seq field to every hop header, reliable an ack field
        self.guarantees = guarantees
        #: optional application logic at the destination: a generator
        #: function(request_row) that may itself call other stacks (a
        #: microservice calling downstream services) and returns a dict
        #: of application-field overrides for the response
        self.server_handler = server_handler
        #: when set, every outcome carries notes["trace"]: a list of
        #: (span_name, enter_s, exit_s) covering processors and hops
        #: (§5.3: processors report tracing information)
        self.tracing = tracing
        self._next_seq = 0
        self._last_seq_seen = -1
        self.out_of_order_detected = 0
        registry.bind_clock(lambda: sim.now)
        #: does the handler want the propagated absolute deadline too?
        #: (graph service handlers derive child-RPC budgets from it)
        self._handler_takes_deadline = (
            server_handler is not None
            and _handler_arity(server_handler) >= 2
        )

        self.client_app: Resource = cluster.machine(client_machine).thread(
            self.client_thread
        )
        self.server_app: Resource = cluster.machine(server_machine).thread(
            self.server_thread, capacity=max(1, server_replicas)
        )
        #: shadow exactly-once/divergence checker (repro.state), shared
        #: across the path's processors; replicas of this stack's element
        #: instances group under the stack identity (its l2 tag, else the
        #: service pair) so independent per-edge instances never compare
        self.sanitizer = sanitizer
        self._sanitizer_instance = (
            l2_tag or f"{client_service}->{server_service}"
        )
        self.processors: List[ProcessorRuntime] = [
            ProcessorRuntime(
                sim, cluster, segment, chain, registry, handcoded,
                sanitizer=sanitizer,
                sanitizer_instance=self._sanitizer_instance,
            )
            for segment in self.plan.segments
        ]
        #: overload-control configuration (repro.overload): bounded
        #: queues + admission control on every processor, and deadline
        #: propagation on the wire whenever the retry policy carries a
        #: deadline budget (the budget IS the deadline being propagated).
        self._queue_limit = queue_limit
        self._admission_config = admission
        self._propagate_deadline = propagate_deadline or (
            retry_policy is not None
            and getattr(retry_policy, "deadline_budget_ms", None) is not None
        )
        #: mesh-proven application reads at the destination (None:
        #: assume every schema field) — narrows the request hop header
        #: exactly like repro.analysis.graph computed it
        self._app_reads = app_reads
        self._nic_rx_processor = self._find_nic_rx(self.processors)
        self._configure_overload(self.processors)
        self._transport: Dict[str, Resource] = {}
        for side, machine_name, mode in (
            ("client", client_machine, self.plan.client_transport),
            ("server", server_machine, self.plan.server_transport),
        ):
            machine = cluster.machine(machine_name)
            if mode == "engine":
                self._transport[side] = machine.thread("mrpc-engine")
            else:  # proxyless: the app thread owns the wire
                self._transport[side] = (
                    self.client_app if side == "client" else self.server_app
                )
        #: execution order along the path (the plan may have reordered
        #: elements relative to the chain, e.g. for switch offload)
        self._traversal_order = [
            name
            for segment in self.plan.segments
            for name in segment.elements
        ]
        self._seed_load_balancers()
        self._codec = self._build_codec()
        self.wire_bytes_total = 0
        self.mirrored_total = 0
        #: fault observability (repro.faults): attempts that vanished
        #: into a crashed machine / dropped frame, by where they died,
        #: and server-side logic runs beyond the first per logical RPC
        self.rpcs_lost = 0
        self.lost_by: Dict[str, int] = {}
        #: requests whose propagated deadline expired in flight, caught
        #: at the server boundary before application service time
        self.deadline_expired_at_server = 0
        self.duplicate_server_executions = 0
        self._server_executions: Dict[object, int] = {}
        self._attach_l2()
        # stream-shaping filters (retries, timeouts, ...) wrap the path;
        # ``call`` is what workload generators should drive. The retry
        # policy sits innermost (closest to the raw path) so declared
        # filters shape already-reliable calls.
        base = self.call_raw
        self.retry_stats = None
        self.retry_budget: Optional[RetryBudget] = (
            RetryBudget(retry_budget) if retry_budget is not None else None
        )
        self.breaker: Optional[CircuitBreaker] = (
            CircuitBreaker(sim, circuit_breaker)
            if circuit_breaker is not None
            else None
        )
        if retry_policy is not None:
            from .filters import RetryStats, wrap_retry_policy

            self.retry_stats = RetryStats()
            base = wrap_retry_policy(
                self.sim,
                base,
                retry_policy,
                stats=self.retry_stats,
                budget=self.retry_budget,
                breaker=self.breaker,
                propagate_deadline=self._propagate_deadline,
                sanitizer=sanitizer,
            )
        if filters:
            from .filters import apply_filters

            self.call = apply_filters(
                self.sim, base, list(filters), order=filter_order
            )
        else:
            self.call = base

    # -- setup -----------------------------------------------------------

    def _configure_overload(
        self, processors: List[ProcessorRuntime]
    ) -> None:
        """Apply stack-level overload controls to a processor set (also
        re-applied after a failover re-plan): bound every processor's
        queue and install an admission controller per processor. Meta-
        driven installs (the stdlib ``AdmissionControl`` element) happen
        inside ProcessorRuntime and win only when the stack itself does
        not configure admission."""
        for processor in processors:
            if processor.resource is None:
                continue  # switch pipeline: line rate, nothing queues
            if self._queue_limit is not None:
                processor.resource.queue_limit = self._queue_limit
                if processor.segment.queue_limit is None:
                    processor.segment.queue_limit = self._queue_limit
            if self._admission_config is not None:
                monitor = processor.resource
                if (
                    processor.segment.platform is Platform.SMARTNIC
                    and processor.segment.machine == self.server_machine
                ):
                    # receive-side dispatching: the NIC sits in front of
                    # the host and sheds on the *host engine's*
                    # backpressure, not its own (its match-action cores
                    # are never the bottleneck) — that is what makes a
                    # NIC shed nearly free for the host
                    monitor = self.cluster.machine(
                        self.server_machine
                    ).thread("mrpc-engine")
                processor.install_admission(
                    AdmissionController(
                        self.sim, monitor, self._admission_config
                    )
                )

    def _find_nic_rx(
        self, processors: List[ProcessorRuntime]
    ) -> Optional[ProcessorRuntime]:
        """The server-side SmartNIC processor, if the plan placed one —
        it owns receive-side dispatch for this hop."""
        for processor in processors:
            segment = processor.segment
            if (
                segment.platform is Platform.SMARTNIC
                and segment.machine == self.server_machine
            ):
                return processor
        return None

    def _seed_load_balancers(self) -> None:
        replicas = [
            f"{self.server_service}.{index + 1}"
            for index in range(self.server_replicas)
        ]
        for processor in self.processors:
            for name in processor.segment.elements:
                if "endpoints" in {
                    decl.name for decl in self.chain.elements[name].ir.states
                }:
                    processor.seed_endpoints(name, replicas)

    def _build_codec(self) -> AdnWireCodec:
        """Codecs for the client→server wire hop, from the minimal
        header plans (per direction) at the last client-side chain
        position."""
        boundary = -1
        for index, name in enumerate(self.chain.element_order):
            location = self.plan.element_locations().get(name)
            if location and location[1] == self.client_machine:
                boundary = index
        plans = plan_hop_headers(
            self.chain.ir, self.schema, [boundary],
            guarantees=self.guarantees,
            deadline=self._propagate_deadline,
            app_reads=self._app_reads,
        )
        self.hop_plan = plans[0]
        response_plans = plan_hop_headers(
            self.chain.ir, self.schema, [boundary], kind="response",
            guarantees=self.guarantees,
        )
        self.response_hop_plan = response_plans[0]
        self._response_codec = AdnWireCodec(self.response_hop_plan.layout)
        codec = AdnWireCodec(self.hop_plan.layout)
        #: transport CPU per message on either side of the wire: it
        #: depends only on the codec's field count, never on the bytes
        self._codec_cpu_us = {
            each: self.costs.mrpc_tcp_batched_us
            + self.costs.header_codec_us(len(each.layout.fields))
            for each in (codec, self._response_codec)
        }
        return codec

    def _attach_l2(self) -> None:
        """Attach both hosts' engines to the cluster's flat-identifier
        virtual link layer (the only network service ADN assumes, §3).
        Frames delivered to an endpoint land in its inbox; the path
        runner consumes them after paying the wire latency."""
        self._l2_inbox: Dict[str, List[bytes]] = {"client": [], "server": []}
        l2 = self.cluster.l2
        tag = f"#{self.l2_tag}" if self.l2_tag else ""
        names = {
            "client": f"{self.client_service}.0/engine{tag}",
            "server": f"{self.server_service}/engine{tag}",
        }
        #: each side's flat id, resolved once instead of per frame
        self._l2_ids: Dict[str, FlatId] = {}
        for side, name in names.items():
            flat_id = l2.resolve(name)
            if flat_id is None:
                flat_id = l2.attach(
                    name,
                    lambda frame, side=side: self._l2_inbox[side].append(
                        frame.payload
                    ),
                )
            self._l2_ids[side] = flat_id

    def _l2_transmit(
        self, from_side: str, payload: bytes
    ) -> Optional[bytes]:
        """Push one encoded message over the virtual L2 to the other
        side; returns the bytes as delivered there, or None when the
        frame died en route (partition, loss, or a crashed far host)."""
        to_side = "server" if from_side == "client" else "client"
        to_machine = (
            self.server_machine if to_side == "server" else self.client_machine
        )
        if not self.cluster.machine_up(to_machine):
            return None  # blackholed: nothing is listening
        frame = L2Frame(
            src=self._l2_ids[from_side], dst=self._l2_ids[to_side],
            payload=payload,
        )
        if not self.cluster.l2.transmit(frame):
            return None
        return self._l2_inbox[to_side].pop()

    def _codec_for(self, message: Row) -> AdnWireCodec:
        if message.get("kind") == "response":
            return self._response_codec
        return self._codec

    # -- helpers ------------------------------------------------------------

    def _transport_cpu_us(self, message: Row) -> float:
        """Transport CPU for putting one message on the wire, or for
        taking it off (receive costs are symmetric)."""
        return self._codec_cpu_us[self._codec_for(message)]

    def _send_hop(
        self,
        sender: Optional[Resource],
        message: Row,
        span: str,
        trace: List[Tuple[str, float, float]],
        deadline_at: Optional[float] = None,
    ) -> Generator:
        """Carry one message across the wire and return what the far
        side receives: ``sender`` pays the transport CPU (nobody does on
        a line-rate switch), the wire holds it for its arithmetic size,
        and :meth:`_cross_wire` makes the one real encode and decode. A
        frame that dies en route parks the attempt under ``span``."""
        codec = self._codec_for(message)
        wire = wire_bytes_for_message(codec.encoded_size(message))
        if sender is not None:
            yield from sender.use(self._codec_cpu_us[codec] * US)
        extra = self.costs.mrpc_tcp_unbatched_extra_us
        if extra:
            yield self.sim.timeout(extra * US)
        hop_started = self.sim.now
        self.wire_bytes_total += wire
        # a latency-spike fault stretches every hop while it is active
        extra_us = self.cluster.l2.conditions.extra_latency_us
        yield self.sim.timeout(
            (self.costs.wire_us(wire, 1) + extra_us) * US
        )
        received = self._cross_wire(message, deadline_at=deadline_at)
        if received is None:
            yield from self._lost(span)
        if self.tracing:
            trace.append((span, hop_started, self.sim.now))
        return received

    def _cross_wire(
        self, message: Row, deadline_at: Optional[float] = None
    ) -> Optional[Row]:
        """What the far side of the hop actually receives: the tuple
        encoded with the hop's minimal header layout and decoded again.
        Fields the compiler proved unnecessary downstream really do not
        cross — a layout bug shows up as behavioural divergence, not
        just a wrong byte count.

        With deadline propagation on, the *remaining* budget (ms) rides
        the request header (gRPC-style — relative budgets survive clock
        skew that absolute timestamps would not); the receiver rebuilds
        an absolute deadline via :meth:`_deadline_after_wire`. -1 is the
        "no deadline" sentinel, distinct from 0 = already expired.
        """
        codec = self._codec_for(message)
        outbound = dict(message)
        if self.guarantees is not None and getattr(
            self.guarantees, "ordered", False
        ):
            if outbound.get("kind") != "response":
                self._next_seq += 1
                outbound["seq"] = self._next_seq
        if self._propagate_deadline and outbound.get("kind") != "response":
            outbound[DEADLINE_FIELD] = (
                max(0.0, (deadline_at - self.sim.now) * 1e3)
                if deadline_at is not None
                else -1.0
            )
        from_side = (
            "client" if outbound.get("kind") != "response" else "server"
        )
        delivered = self._l2_transmit(from_side, codec.encode(outbound))
        if delivered is None:
            return None
        received = codec.decode(delivered)
        if "seq" in received and received.get("kind") != "response":
            if received["seq"] <= self._last_seq_seen:
                self.out_of_order_detected += 1
            self._last_seq_seen = received["seq"]
        # transport-external context (e.g. `method`, if no downstream
        # element reads it) is intentionally absent; readers get the
        # layout's defaults
        return received

    def _deadline_after_wire(self, received: Row) -> Optional[float]:
        """Absolute deadline as the *receiver* computes it — strictly
        from the wire field, so the layout really carries the budget."""
        if not self._propagate_deadline:
            return None
        remaining_ms = received.get(DEADLINE_FIELD)
        if remaining_ms is None or float(remaining_ms) < 0.0:
            return None
        return self.sim.now + float(remaining_ms) * 1e-3

    def _lost(self, where: str) -> Generator:
        """This attempt just vanished (crashed host or dropped frame):
        park its process forever, like a real blackholed packet. Only a
        caller-side per-attempt timeout (:class:`RetryPolicy`) turns the
        silence into a visible, retryable abort — which is exactly the
        "no silent loss requires retries" property the fault tests pin.

        Never call this while holding a Resource — lost attempts must
        not wedge a thread pool.
        """
        self.rpcs_lost += 1
        self.lost_by[where] = self.lost_by.get(where, 0) + 1
        yield self.sim.event()  # never fires

    # -- the path -----------------------------------------------------------------

    def call_raw(self, **fields: object) -> Generator:
        """Issue one RPC through the raw path (no stream-shaping
        filters); returns an :class:`RpcOutcome`."""
        issued_at = self.sim.now
        # the caller's absolute deadline (wrap_retry_policy injects it
        # when the policy has a deadline budget); it crosses the wire as
        # a remaining-ms header field, never as an application field
        raw_deadline = fields.pop("deadline_at", None)
        deadline_at: Optional[float] = (
            float(raw_deadline) if raw_deadline is not None else None  # type: ignore[arg-type]
        )
        request = make_request(
            self.schema,
            src=f"{self.client_service}.0",
            dst=self.server_service,
            **fields,
        )
        if self.sanitizer is not None:
            # attempts of one logical RPC share an rpc_id (the retry
            # wrapper pins it), so the counter makes attempt 2+ visible
            # to the sanitizer as duplicate executions; scoped by stack
            # because each stack's wrapper numbers ids independently
            self.sanitizer.note_attempt(
                request.get("rpc_id"), scope=self._sanitizer_instance
            )
        mirrored = 0
        # client app issues into shared memory
        yield from self.client_app.use(
            (self.costs.client_issue_us + self.costs.mrpc_shm_post_us) * US
        )
        # engine picks it up
        yield from self._transport["client"].use(
            self.costs.mrpc_dispatch_us * US
        )

        trace: List[Tuple[str, float, float]] = []
        current: Row = request
        crossed_wire = False
        dropped_by: Optional[str] = None
        dropping_processor: Optional[ProcessorRuntime] = None
        dropped_after_entry = False
        for processor in self.processors:
            if processor.segment.machine != self.client_machine and (
                not crossed_wire
            ):
                # leave the client host
                current = yield from self._send_hop(
                    self._transport["client"], current, "wire:forward",
                    trace, deadline_at=deadline_at,
                )
                deadline_at = self._deadline_after_wire(current)
                crossed_wire = True
            if not processor.live:
                yield from self._lost(f"crash:{processor.segment.machine}")
            span_started = self.sim.now
            result = yield from processor.execute(
                "request", current, deadline_at=deadline_at
            )
            if self.tracing:
                trace.append(
                    (
                        f"request:{processor.segment.platform.value}"
                        f"@{processor.segment.machine}",
                        span_started,
                        self.sim.now,
                    )
                )
            mirrored += result.mirrored
            if result.dropped_by:
                dropped_by = result.dropped_by
                dropping_processor = processor
                dropped_after_entry = result.dropped_after_entry
                break
            current = result.outputs[0]

        if dropped_by is None:
            if not crossed_wire:
                current = yield from self._send_hop(
                    self._transport["client"], current, "wire:forward",
                    trace, deadline_at=deadline_at,
                )
                deadline_at = self._deadline_after_wire(current)
                crossed_wire = True
            if not self.cluster.machine_up(self.server_machine):
                yield from self._lost(f"crash:{self.server_machine}")
            # server engine receives and hands to the app; a server-side
            # NIC segment has already parsed the header and steers the
            # message to its core (receive-side dispatching): the host
            # wakeup shrinks and the dispatch CPU lands on the NIC
            nic = self._nic_rx_processor
            if nic is not None and nic.resource is not None:
                yield from nic.resource.use(
                    self.costs.nic_rx_dispatch_us * US
                )
                yield self.sim.timeout(
                    self.costs.nic_rx_wakeup_extra_us * US
                )
            else:
                yield self.sim.timeout(
                    self.costs.mrpc_rx_wakeup_extra_us * US
                )
            yield from self._transport["server"].use(
                self._transport_cpu_us(current) * US
            )
            if deadline_at is not None and self.sim.now > deadline_at:
                # the propagated deadline expired in flight: the caller
                # has already given up, so answer with a cheap abort
                # instead of spending application service time
                self.deadline_expired_at_server += 1
                dropped_by = DEADLINE_EXPIRED
                response = make_abort(current, dropped_by)
            else:
                yield from self._transport["server"].use(
                    self.costs.mrpc_shm_post_us * US
                )
                # decode exactly what the wire carried (fidelity check
                # lives in tests: the server sees only header-plan fields)
                yield from self.server_app.use(self.costs.app_logic_us * US)
                # at-least-once bookkeeping: with a retry policy, attempts
                # of one logical RPC share an rpc_id — a retry after the
                # server already ran (response lost coming back) shows here
                executions = (
                    self._server_executions.get(request["rpc_id"], 0) + 1
                )
                self._server_executions[request["rpc_id"]] = executions
                if executions > 1:
                    self.duplicate_server_executions += 1
                if self.server_handler is not None:
                    if self._handler_takes_deadline:
                        overrides = yield from self.server_handler(
                            current, deadline_at
                        )
                    else:
                        overrides = yield from self.server_handler(current)
                    overrides = dict(overrides or {})
                    # a service handler may fail the whole RPC (e.g. a
                    # required downstream call aborted): it turns into
                    # an abort at the server boundary, so the caller's
                    # retry/breaker machinery sees a real failure
                    abort_reason = overrides.pop(ABORT_KEY, None)
                    if abort_reason is not None:
                        dropped_by = str(abort_reason)
                        response = make_abort(current, dropped_by)
                    else:
                        response = make_response(current, **overrides)
                else:
                    response = make_response(current)
        else:
            response = make_abort(current, dropped_by)

        # response path: reverse traversal from where we turned around.
        # The dropping processor itself re-runs iff anything inside it
        # (an earlier element, or an earlier member of a fused element)
        # already executed — its response handlers must see the abort.
        reverse_processors = [
            processor
            for processor in reversed(self.processors)
            if dropped_by is None
            or (
                dropped_after_entry
                if processor is dropping_processor
                else self._before_drop(
                    processor, dropped_by, dropping_processor
                )
            )
        ]
        returned_wire = crossed_wire
        for processor in reverse_processors:
            if (
                returned_wire
                and processor.segment.machine == self.client_machine
            ):
                response = yield from self._send_hop(
                    self._return_wire_resource(dropped_by, dropping_processor),
                    response, "wire:return", trace,
                )
                returned_wire = False
            if not processor.live:
                yield from self._lost(f"crash:{processor.segment.machine}")
            span_started = self.sim.now
            result = yield from processor.execute("response", response)
            if self.tracing:
                trace.append(
                    (
                        f"response:{processor.segment.platform.value}"
                        f"@{processor.segment.machine}",
                        span_started,
                        self.sim.now,
                    )
                )
            if result.outputs:
                response = result.outputs[0]
        if returned_wire:
            response = yield from self._send_hop(
                self._return_wire_resource(dropped_by, dropping_processor),
                response, "wire:return", trace,
            )
        if crossed_wire:
            # client engine receives the response off the wire
            yield self.sim.timeout(self.costs.mrpc_rx_wakeup_extra_us * US)
            yield from self._transport["client"].use(
                self._transport_cpu_us(response) * US
            )
        # client engine delivers to the app
        yield from self._transport["client"].use(
            self.costs.mrpc_dispatch_us * US
        )
        yield from self.client_app.use(
            (self.costs.client_complete_us + self.costs.mrpc_shm_post_us) * US
        )
        self.mirrored_total += mirrored
        outcome = RpcOutcome(
            request=request,
            response=response,
            issued_at=issued_at,
            completed_at=self.sim.now,
            aborted_by=dropped_by or "",
            mirrored=mirrored,
        )
        if self.tracing:
            outcome.notes["trace"] = trace
        return outcome

    def _return_wire_resource(
        self,
        dropped_by: Optional[str],
        dropping_processor: Optional[ProcessorRuntime],
    ) -> Optional[Resource]:
        """Who pays CPU to put the return message on the wire from the
        server side: normally the host engine; an RPC aborted at a
        server-side hardware processor never reached the host — the
        device itself answers, so its cores (NIC) or nobody (switch,
        line rate) pay for the abort turnaround. This is the entire
        economics of shedding in the network instead of on the server.
        """
        if dropped_by and dropping_processor is not None:
            segment = dropping_processor.segment
            if (
                segment.platform.is_hardware
                and segment.machine != self.client_machine
            ):
                return dropping_processor.resource  # None on the switch
        return self._transport["server"]

    def _before_drop(
        self,
        processor: ProcessorRuntime,
        dropped_by: str,
        dropping_processor: Optional[ProcessorRuntime] = None,
    ) -> bool:
        """True when ``processor`` was traversed before the dropper (its
        elements see the response on the way back).

        ``dropped_by`` is usually an element name, but overload-control
        drops carry a synthetic reason (``Shed``/``QueueFull``/
        ``DeadlineExpired``) that names no element — those gate at
        processor entry, so position is decided by the dropping
        processor itself (or the server boundary when it is None: every
        processor was traversed)."""
        order = self._traversal_order
        if dropped_by in OVERLOAD_ABORTS or dropped_by not in order:
            if dropping_processor is None:
                return True  # dropped at the server: everyone saw it
            return self.processors.index(processor) < self.processors.index(
                dropping_processor
            )
        drop_index = order.index(dropped_by)
        indices = [order.index(n) for n in processor.segment.elements if n in order]
        if not indices:
            return False
        return min(indices) < drop_index

    # -- reconfiguration (repro.faults) ---------------------------------------

    def apply_plan(self, new_plan: PlacementPlan) -> List[ProcessorRuntime]:
        """Swap in a re-solved placement (the recovery orchestrator's
        failover step). Returns the replaced processors so the caller
        can deregister them and, for survivors, migrate state out.

        In-flight attempts keep walking the *old* processors; ones
        routed at a crashed machine die at their next liveness
        checkpoint and come back through the new plan via retries —
        exactly how a real data plane drains a superseded config.

        Epoch fence: a plan carrying an epoch must be strictly newer
        than ``config_epoch`` or it is refused with
        :class:`~repro.errors.StaleEpochError` (counted in
        ``stale_plans_rejected``). Plans with epoch 0 against an
        epoch-0 stack are legacy installs and bypass the fence.
        """
        if new_plan.epoch or self.config_epoch:
            if new_plan.epoch <= self.config_epoch:
                if self.fence_epochs:
                    self.stale_plans_rejected += 1
                    raise StaleEpochError(
                        f"stale plan epoch {new_plan.epoch} <= installed "
                        f"epoch {self.config_epoch}: refusing to apply "
                        "a superseded configuration"
                    )
                self.stale_plans_applied += 1
            self.config_epoch = max(self.config_epoch, new_plan.epoch)
        old = self.processors
        for processor in old:
            processor.detach_sanitizer()
        self.plan = new_plan
        self.processors = [
            ProcessorRuntime(
                self.sim,
                self.cluster,
                segment,
                self.chain,
                self.registry,
                self.handcoded,
                sanitizer=self.sanitizer,
                sanitizer_instance=self._sanitizer_instance,
            )
            for segment in new_plan.segments
        ]
        for side, machine_name, mode in (
            ("client", self.client_machine, new_plan.client_transport),
            ("server", self.server_machine, new_plan.server_transport),
        ):
            machine = self.cluster.machine(machine_name)
            if mode == "engine":
                self._transport[side] = machine.thread("mrpc-engine")
            else:
                self._transport[side] = (
                    self.client_app if side == "client" else self.server_app
                )
        self._traversal_order = [
            name
            for segment in new_plan.segments
            for name in segment.elements
        ]
        self._nic_rx_processor = self._find_nic_rx(self.processors)
        self._configure_overload(self.processors)
        self._seed_load_balancers()
        self._codec = self._build_codec()
        return old

    # -- accounting -----------------------------------------------------------

    def cpu_busy_by_machine(self) -> Dict[str, float]:
        return self.cluster.cpu_busy_by_machine()
