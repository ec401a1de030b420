"""Runtime tests: messages, placed processors, and the ADN/mRPC path."""

import random

import pytest

from repro.compiler.compiler import AdnCompiler
from repro.control.placement import PlacementPlan, PlacementSegment
from repro.dsl import FieldType, FunctionRegistry, RpcSchema, load_stdlib
from repro.dsl.ast_nodes import ChainDecl
from repro.platforms import Platform
from repro.runtime import AdnMrpcStack, ProcessorRuntime, default_plan
from repro.runtime.filters import RetryPolicy
from repro.runtime.message import (
    is_aborted,
    make_abort,
    make_request,
    make_response,
    payload_bytes,
    reset_rpc_ids,
)
from repro.sim import ClosedLoopClient, Simulator, two_machine_cluster

SCHEMA = RpcSchema.of(
    "t", payload=FieldType.BYTES, username=FieldType.STR, obj_id=FieldType.INT
)


def build_chain(*names, registry=None):
    registry = registry or FunctionRegistry()
    program = load_stdlib(schema=SCHEMA)
    compiler = AdnCompiler(registry=registry)
    decl = ChainDecl(src="A", dst="B", elements=tuple(names))
    return compiler.compile_chain(decl, program, SCHEMA), registry


class TestMessages:
    def test_request_has_meta_and_app_fields(self):
        reset_rpc_ids()
        request = make_request(SCHEMA, "A.0", "B", payload=b"x", obj_id=1)
        assert request["kind"] == "request"
        assert request["rpc_id"] == 1
        assert request["username"] is None  # unset app field present as None

    def test_ids_increment(self):
        reset_rpc_ids()
        first = make_request(SCHEMA, "A.0", "B")
        second = make_request(SCHEMA, "A.0", "B")
        assert second["rpc_id"] == first["rpc_id"] + 1

    def test_response_swaps_endpoints(self):
        request = make_request(SCHEMA, "A.0", "B", payload=b"x")
        response = make_response(request)
        assert response["src"] == "B"
        assert response["dst"] == "A.0"
        assert response["kind"] == "response"

    def test_abort_marks_element(self):
        request = make_request(SCHEMA, "A.0", "B", payload=b"x")
        abort = make_abort(request, "Acl")
        assert is_aborted(abort)
        assert abort["status"] == "aborted:Acl"

    def test_payload_bytes(self):
        assert payload_bytes({"payload": b"abcd"}) == 4
        assert payload_bytes({"payload": None}) == 0
        assert payload_bytes({}) == 0

    def test_type_validation(self):
        from repro.errors import DslValidationError

        with pytest.raises(DslValidationError):
            make_request(SCHEMA, "A.0", "B", obj_id="not-an-int")


class TestProcessorRuntime:
    def run_one(self, processor, sim, rpc, kind="request"):
        process = sim.process(processor.execute(kind, rpc))
        return sim.run_until_complete(process)

    def make(self, sim, cluster, chain, registry, platform=Platform.MRPC):
        segment = PlacementSegment(
            platform=platform,
            machine="client-host",
            elements=chain.element_order,
            stages=chain.ir.stages,
        )
        return ProcessorRuntime(sim, cluster, segment, chain, registry)

    def rpc(self, **overrides):
        base = make_request(
            SCHEMA, "A.0", "B", payload=b"x" * 16, username="usr2", obj_id=3
        )
        base.update(overrides)
        return base

    def test_forwarding_and_cost(self):
        chain, registry = build_chain("Logging")
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        processor = self.make(sim, cluster, chain, registry)
        result = self.run_one(processor, sim, self.rpc())
        assert len(result.outputs) == 1
        assert result.dropped_by is None
        assert result.cpu_us > 0
        assert sim.now > 0

    def test_drop_aborts(self):
        chain, registry = build_chain("Acl")
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        processor = self.make(sim, cluster, chain, registry)
        result = self.run_one(processor, sim, self.rpc(username="usr1"))
        assert result.dropped_by == "Acl"
        assert result.outputs == []
        assert processor.rpcs_dropped == 1

    def test_lb_seeding_and_routing(self):
        chain, registry = build_chain("LbKeyHash")
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        processor = self.make(sim, cluster, chain, registry)
        processor.seed_endpoints("LbKeyHash", ["B.1", "B.2", "B.3"])
        destinations = set()
        for obj in range(30):
            result = self.run_one(processor, sim, self.rpc(obj_id=obj))
            destinations.add(result.outputs[0]["dst"])
        assert destinations == {"B.1", "B.2", "B.3"}

    def test_switch_platform_needs_programmable_tor(self):
        from repro.errors import PlacementError

        chain, registry = build_chain("Acl")
        sim = Simulator()
        cluster = two_machine_cluster(sim)  # switch not programmable
        segment = PlacementSegment(
            platform=Platform.SWITCH_P4, machine="switch",
            elements=chain.element_order,
        )
        with pytest.raises(PlacementError, match="not programmable"):
            ProcessorRuntime(sim, cluster, segment, chain, registry)

    def test_switch_platform_charges_no_cpu(self):
        chain, registry = build_chain("Acl")
        sim = Simulator()
        cluster = two_machine_cluster(sim, programmable_switch=True)
        segment = PlacementSegment(
            platform=Platform.SWITCH_P4, machine="switch",
            elements=chain.element_order,
        )
        processor = ProcessorRuntime(sim, cluster, segment, chain, registry)
        result = self.run_one(processor, sim, self.rpc())
        assert result.cpu_us == 0.0
        assert cluster.machine("client-host").cpu_busy_s() == 0.0

    def test_handcoded_cheaper(self):
        chain, registry = build_chain("Logging", "Acl", "Fault")
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        generated = self.make(sim, cluster, chain, registry)
        segment = PlacementSegment(
            platform=Platform.MRPC,
            machine="server-host",
            elements=chain.element_order,
            stages=chain.ir.stages,
        )
        hand = ProcessorRuntime(
            sim, cluster, segment, chain, registry, handcoded=True
        )
        rpc = self.rpc()
        generated_result = generated._run_functionally("request", rpc)
        hand_result = hand._run_functionally("request", rpc)
        assert hand_result.cpu_us < generated_result.cpu_us


class TestAdnMrpcStack:
    def run_client(self, stack, sim, concurrency=8, total=200):
        client = ClosedLoopClient(
            sim, stack.call, concurrency=concurrency, total_rpcs=total
        )
        return client.run()

    def test_end_to_end_paper_chain(self):
        reset_rpc_ids()
        chain, registry = build_chain("Logging", "Acl", "Fault")
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        stack = AdnMrpcStack(sim, cluster, chain, SCHEMA, registry)
        metrics = self.run_client(stack, sim)
        assert metrics.completed == 200
        # ~10% usr1 denials + ~2% faults
        assert 5 <= metrics.aborted <= 50
        assert metrics.latency.median_us() > 20

    def test_wire_actually_carries_minimal_headers(self):
        reset_rpc_ids()
        chain, registry = build_chain("Logging", "Acl", "Fault")
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        stack = AdnMrpcStack(sim, cluster, chain, SCHEMA, registry)
        # the codec's layout contains only needed fields
        names = set(stack.hop_plan.layout.field_names)
        assert "username" in names  # Acl reads it downstream? (client-side chain)
        assert "payload" in names  # the app consumes it

    def test_default_plan_places_on_client_engine(self):
        chain, _registry = build_chain("Acl")
        plan = default_plan(chain)
        assert plan.segments[0].machine == "client-host"
        assert plan.segments[0].platform is Platform.MRPC

    def test_aborted_rpc_cheaper_than_completed(self):
        reset_rpc_ids()
        chain, registry = build_chain("Acl")
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        stack = AdnMrpcStack(sim, cluster, chain, SCHEMA, registry)

        def one(username):
            process = sim.process(
                stack.call(payload=b"x", username=username, obj_id=1)
            )
            return sim.run_until_complete(process)

        ok = one("usr2")
        denied = one("usr1")
        assert denied.aborted_by == "Acl"
        assert denied.latency_s < ok.latency_s  # never crossed the wire

    def test_split_placement_across_hosts(self):
        reset_rpc_ids()
        chain, registry = build_chain("Logging", "Acl", "Fault")
        order = chain.element_order
        plan = PlacementPlan(
            segments=[
                PlacementSegment(
                    platform=Platform.MRPC,
                    machine="client-host",
                    elements=order[:1],
                ),
                PlacementSegment(
                    platform=Platform.MRPC,
                    machine="server-host",
                    elements=order[1:],
                ),
            ]
        )
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        stack = AdnMrpcStack(sim, cluster, chain, SCHEMA, registry, plan=plan)
        metrics = self.run_client(stack, sim, total=100)
        assert metrics.completed == 100
        busy = cluster.cpu_busy_by_machine()
        assert busy["client-host"] > 0
        assert busy["server-host"] > 0

    def test_mirrored_copies_counted(self):
        reset_rpc_ids()
        chain, registry = build_chain("Mirror")
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        stack = AdnMrpcStack(sim, cluster, chain, SCHEMA, registry)
        self.run_client(stack, sim, total=500)
        assert stack.mirrored_total > 0

    def test_handcoded_faster_end_to_end(self):
        def run(handcoded):
            reset_rpc_ids()
            chain, registry = build_chain("Logging", "Acl", "Fault")
            sim = Simulator()
            cluster = two_machine_cluster(sim)
            stack = AdnMrpcStack(
                sim, cluster, chain, SCHEMA, registry, handcoded=handcoded
            )
            return self.run_client(stack, sim, concurrency=64, total=600)

        generated = run(False)
        hand = run(True)
        assert hand.throughput_rps > generated.throughput_rps


class TestFusion:
    """Cross-element fusion (paper Q2): the fuse_elements IR pass merges
    adjacent compatible elements into one, so a fused chain pays a single
    module dispatch where the unfused chain pays one per element."""

    @staticmethod
    def build_fusable(*names, fusion, seed=7):
        import random

        from repro.ir.optimizer import OptimizerOptions

        registry = FunctionRegistry(rng=random.Random(seed))
        program = load_stdlib(schema=SCHEMA)
        compiler = AdnCompiler(
            registry=registry, options=OptimizerOptions(fusion=fusion)
        )
        decl = ChainDecl(src="A", dst="B", elements=tuple(names))
        return compiler.compile_chain(decl, program, SCHEMA), registry

    def run_cost(self, chain, registry):
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        segment = PlacementSegment(
            platform=Platform.MRPC,
            machine="client-host",
            elements=chain.element_order,
            stages=chain.ir.stages,
        )
        processor = ProcessorRuntime(sim, cluster, segment, chain, registry)
        rpc = make_request(
            SCHEMA, "A.0", "B", payload=b"x", username="usr2", obj_id=1
        )
        result = processor._run_functionally("request", dict(rpc))
        return result, cluster

    def test_fused_chain_cheaper(self):
        reset_rpc_ids()
        plain_chain, plain_reg = self.build_fusable(
            "Logging", "Acl", "Fault", fusion=False
        )
        fused_chain, fused_reg = self.build_fusable(
            "Logging", "Acl", "Fault", fusion=True
        )
        plain, cluster = self.run_cost(plain_chain, plain_reg)
        fused, _ = self.run_cost(fused_chain, fused_reg)
        # seeded registries: both runs see the same rand() stream, so the
        # request survives (or drops) identically in both
        assert plain.dropped_by is None and fused.dropped_by is None
        # exactly two dispatches saved (3 elements -> 1 dispatch); the
        # handler work itself is identical by construction
        saved = plain.cpu_us - fused.cpu_us
        assert saved == pytest.approx(
            2 * cluster.costs.element_dispatch_us, rel=0.01
        )

    def test_single_element_fusion_is_noop(self):
        reset_rpc_ids()
        plain_chain, plain_reg = self.build_fusable("Acl", fusion=False)
        fused_chain, fused_reg = self.build_fusable("Acl", fusion=True)
        assert fused_chain.element_order == plain_chain.element_order
        plain, _ = self.run_cost(plain_chain, plain_reg)
        fused, _ = self.run_cost(fused_chain, fused_reg)
        assert fused.cpu_us == pytest.approx(plain.cpu_us)

    def test_fusion_merges_compatible_run(self):
        plain_chain, _ = self.build_fusable(
            "Logging", "Acl", "Fault", fusion=False
        )
        fused_chain, _ = self.build_fusable(
            "Logging", "Acl", "Fault", fusion=True
        )
        assert len(plain_chain.element_order) == 3
        assert len(fused_chain.element_order) == 1
        (fused_name,) = fused_chain.element_order
        fused_ir = fused_chain.elements[fused_name].ir
        members = fused_ir.meta["fused_from"]
        assert sorted(members) == sorted(plain_chain.element_order)
        # the fused element still places: the solver treats it as one
        # ordinary element
        from repro.control.placement import PlacementRequest, solve_placement

        plan = solve_placement(
            PlacementRequest(chain=fused_chain, schema=SCHEMA)
        )
        placed = [name for seg in plan.segments for name in seg.elements]
        assert placed == [fused_name]

    def test_fusion_preserves_behaviour(self):
        def run(fusion):
            reset_rpc_ids()
            chain, registry = self.build_fusable(
                "Logging", "Acl", "Fault", fusion=fusion, seed=42
            )
            sim = Simulator()
            cluster = two_machine_cluster(sim)
            stack = AdnMrpcStack(sim, cluster, chain, SCHEMA, registry)
            client = ClosedLoopClient(
                sim, stack.call, concurrency=8, total_rpcs=300
            )
            return client.run()

        plain = run(False)
        fused = run(True)
        assert plain.completed == fused.completed == 300
        # same seeded rand() stream -> identical drop decisions
        assert fused.aborted == plain.aborted
        assert 5 <= fused.aborted <= 60


class TestVirtualL2Integration:
    """Wire crossings really traverse the flat-identifier virtual L2
    (the only network service ADN assumes, paper §3)."""

    def test_frames_flow_over_l2(self):
        reset_rpc_ids()
        chain, registry = build_chain("Acl")
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        stack = AdnMrpcStack(sim, cluster, chain, SCHEMA, registry)
        client = ClosedLoopClient(sim, stack.call, concurrency=4, total_rpcs=100)
        metrics = client.run()
        ok = metrics.completed - metrics.aborted
        # one forward + one return frame per non-aborted RPC (aborts
        # from the client-side ACL never cross)
        assert cluster.l2.frames_delivered == 2 * ok
        assert cluster.l2.bytes_delivered > 0

    def test_endpoints_registered_by_name(self):
        reset_rpc_ids()
        chain, registry = build_chain("Acl")
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        AdnMrpcStack(sim, cluster, chain, SCHEMA, registry)
        assert cluster.l2.resolve("A.0/engine") is not None
        assert cluster.l2.resolve("B/engine") is not None


class TestReproducibility:
    """Identical seeds must give bit-identical runs — the property every
    benchmark number in EXPERIMENTS.md rests on."""

    def run_once(self, seed=7):
        reset_rpc_ids()
        chain, registry = build_chain("Logging", "Acl", "Fault")
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        stack = AdnMrpcStack(sim, cluster, chain, SCHEMA, registry)
        client = ClosedLoopClient(
            sim, stack.call, concurrency=16, total_rpcs=400, seed=seed
        )
        metrics = client.run()
        return metrics

    def test_same_seed_identical(self):
        first = self.run_once()
        second = self.run_once()
        assert first.latency.samples == second.latency.samples
        assert first.aborted == second.aborted
        assert first.elapsed_s == second.elapsed_s

    def test_different_seed_differs(self):
        first = self.run_once(seed=1)
        second = self.run_once(seed=2)
        assert first.latency.samples != second.latency.samples


class TestServerComposition:
    """A service whose handler calls a downstream service before
    responding — chained ADNs forming a microservice topology."""

    def test_two_tier_call_graph(self):
        reset_rpc_ids()
        front_chain, registry = build_chain("Logging")
        back_chain, registry2 = build_chain("Acl")
        sim = Simulator()
        cluster = two_machine_cluster(sim)

        back_stack = AdnMrpcStack(
            sim, cluster, back_chain, SCHEMA, registry2,
            client_service="B", server_service="C",
        )

        def cart_handler(request):
            outcome = yield sim.process(
                back_stack.call(
                    payload=request.get("payload", b""),
                    username=request.get("username"),
                    obj_id=request.get("obj_id"),
                )
            )
            return {
                "payload": b"backed:" + bytes(outcome.response.get("payload") or b"")
            }

        front_stack = AdnMrpcStack(
            sim, cluster, front_chain, SCHEMA, registry,
            server_handler=cart_handler,
        )
        process = sim.process(
            front_stack.call(payload=b"x", username="usr2", obj_id=1)
        )
        outcome = sim.run_until_complete(process)
        assert outcome.ok
        assert bytes(outcome.response["payload"]).startswith(b"backed:")
        # the end-to-end latency includes both tiers
        assert outcome.latency_s > 100e-6

    def test_downstream_denial_visible_upstream(self):
        reset_rpc_ids()
        front_chain, registry = build_chain("Logging")
        back_chain, registry2 = build_chain("Acl")
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        back_stack = AdnMrpcStack(
            sim, cluster, back_chain, SCHEMA, registry2,
            client_service="B", server_service="C",
        )

        def handler(request):
            outcome = yield sim.process(
                back_stack.call(
                    payload=b"", username="usr1", obj_id=1  # will be denied
                )
            )
            return {
                "payload": (
                    b"downstream-denied" if not outcome.ok else b"ok"
                )
            }

        front_stack = AdnMrpcStack(
            sim, cluster, front_chain, SCHEMA, registry,
            server_handler=handler,
        )
        process = sim.process(
            front_stack.call(payload=b"x", username="usr2", obj_id=1)
        )
        outcome = sim.run_until_complete(process)
        assert outcome.ok  # the front tier itself succeeded
        assert bytes(outcome.response["payload"]) == b"downstream-denied"


def split_plan(chain):
    """The chain's first element on the client host, the rest on the
    server host."""
    order = chain.element_order
    return PlacementPlan(
        segments=[
            PlacementSegment(
                platform=Platform.MRPC,
                machine="client-host",
                elements=order[:1],
            ),
            PlacementSegment(
                platform=Platform.MRPC,
                machine="server-host",
                elements=order[1:],
            ),
        ]
    )


def spans_by_rpc(spans):
    """A span sink's ``(rpc_id, name, enter, exit)`` tuples grouped into
    one ``(name, enter, exit)`` list per RPC id, in sink order."""
    by_rpc = {}
    for rpc_id, name, enter, exit_ in spans:
        by_rpc.setdefault(rpc_id, []).append((name, enter, exit_))
    return by_rpc


class TestTracing:
    """Per-RPC spans (§5.3: processors report tracing information)."""

    def run_traced(self, username="usr2"):
        """One RPC through a stack with a span sink: its outcome and its
        spans, the only RPC id in the sink."""
        reset_rpc_ids()
        chain, registry = build_chain("Logging", "Acl", "Fault")
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        spans = []
        stack = AdnMrpcStack(
            sim, cluster, chain, SCHEMA, registry, spans=spans
        )
        process = sim.process(
            stack.call(payload=b"x", username=username, obj_id=1)
        )
        outcome = sim.run_until_complete(process)
        assert {span[0] for span in spans} == {outcome.request["rpc_id"]}
        return outcome, [span[1:] for span in spans]

    def test_trace_covers_path(self):
        _outcome, trace = self.run_traced()
        names = [span[0] for span in trace]
        assert "request:mrpc@client-host" in names
        assert "wire:forward" in names
        assert "response:mrpc@client-host" in names

    def test_spans_are_ordered_and_nonnegative(self):
        _outcome, trace = self.run_traced()
        for _name, enter, exit_ in trace:
            assert exit_ >= enter
        enters = [span[1] for span in trace]
        assert enters == sorted(enters)

    def test_span_time_within_total(self):
        outcome, trace = self.run_traced()
        spanned = sum(exit_ - enter for _n, enter, exit_ in trace)
        assert spanned <= outcome.latency_s + 1e-12

    def test_aborted_rpc_has_short_trace(self):
        _ok, ok_trace = self.run_traced("usr2")
        denied, denied_trace = self.run_traced("usr1")
        assert denied.aborted_by == "Acl"
        assert len(denied_trace) < len(ok_trace)

    def test_split_placement_spans_are_pinned(self):
        """Span names and times of three concurrent RPCs (one denied on
        the server host, one queued behind another) across a client and a
        server processor. Processors run inside the RPC's own process;
        these values are what the path produced when every visit was a
        separate process, so the move must leave them bit-identical."""
        reset_rpc_ids()
        chain, registry = build_chain("Logging", "Acl", "Fault")
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        spans = []
        stack = AdnMrpcStack(
            sim, cluster, chain, SCHEMA, registry, plan=split_plan(chain),
            spans=spans,
        )
        processes = [
            sim.process(stack.call(payload=b"x", username=user, obj_id=index))
            for index, user in enumerate(["usr2", "usr1", "usr2"])
        ]
        sim.run()
        by_rpc = spans_by_rpc(spans)
        got = [
            (
                process.value.aborted_by,
                process.value.completed_at,
                by_rpc[process.value.request["rpc_id"]],
            )
            for process in processes
        ]
        client, server = "mrpc@client-host", "mrpc@server-host"
        assert got == [
            ("", 6.478780000000002e-05, [
                (f"request:{client}", 4.2000000000000004e-06, 4.7540000000000006e-06),
                ("wire:forward", 1.3154e-05, 1.82388e-05),
                (f"request:{server}", 1.82388e-05, 1.90798e-05),
                (f"response:{server}", 3.47748e-05, 3.5474799999999994e-05),
                ("wire:return", 4.3874799999999995e-05, 4.896039999999999e-05),
                (f"response:{client}", 4.896039999999999e-05, 5.0133800000000004e-05),
            ]),
            ("Acl", 5.4333800000000005e-05, [
                (f"request:{client}", 8.854e-06, 9.408e-06),
                ("wire:forward", 1.9007999999999998e-05, 2.4092799999999997e-05),
                (f"request:{server}", 2.4092799999999997e-05, 2.49338e-05),
                (f"response:{server}", 2.49338e-05, 2.56338e-05),
                ("wire:return", 3.40338e-05, 3.91258e-05),
                (f"response:{client}", 3.91258e-05, 3.96798e-05),
            ]),
            ("", 7.468780000000001e-05, [
                (f"request:{client}", 1.0608e-05, 1.4062e-05),
                ("wire:forward", 2.2462000000000003e-05, 2.7546800000000002e-05),
                (f"request:{server}", 2.7546800000000002e-05, 3.22748e-05),
                (f"response:{server}", 4.46748e-05, 4.53748e-05),
                ("wire:return", 5.37748e-05, 5.8860399999999996e-05),
                (f"response:{client}", 5.8860399999999996e-05, 6.058780000000001e-05),
            ]),
        ]

    def test_sink_changes_no_simulated_result(self):
        """A closed loop over a split chain whose retry policy's
        per-attempt timeout fires, so attempts share an rpc_id and some
        time out: the same run with the sink off and on."""

        def run(spans):
            reset_rpc_ids()
            chain, registry = build_chain(
                "Logging", "Acl", "Fault",
                registry=FunctionRegistry(rng=random.Random(5)),
            )
            sim = Simulator()
            cluster = two_machine_cluster(sim)
            stack = AdnMrpcStack(
                sim, cluster, chain, SCHEMA, registry,
                plan=split_plan(chain), spans=spans,
                retry_policy=RetryPolicy(
                    max_attempts=3, per_attempt_timeout_ms=0.2
                ),
            )
            issued = set()

            def call(**fields):
                outcome = yield sim.process(stack.call(**fields))
                issued.add(outcome.request["rpc_id"])
                return outcome

            metrics = ClosedLoopClient(
                sim, call, concurrency=32, total_rpcs=300, seed=3
            ).run()
            sim.run()  # the attempts that timed out finish too
            return (
                metrics.issued,
                metrics.completed,
                metrics.aborted_by,
                metrics.latency.samples,
                stack.wire_bytes_total,
                stack.cpu_busy_by_machine(),
                stack.retry_stats,
            ), issued

        spans = []
        untraced, _ = run(None)
        traced, issued = run(spans)
        assert traced == untraced
        assert traced[-1].timeouts > 0
        assert {span[0] for span in spans} == issued
        assert all(enter <= exit_ for _id, _n, enter, exit_ in spans)
        # a retried attempt enters the client processor under its
        # logical call's id again
        entries = [
            rpc_id for rpc_id, name, _enter, _exit in spans
            if name == "request:mrpc@client-host"
        ]
        assert len(entries) > len(set(entries))

    def test_tracing_off_by_default(self):
        reset_rpc_ids()
        chain, registry = build_chain("Acl")
        sim = Simulator()
        cluster = two_machine_cluster(sim)
        stack = AdnMrpcStack(sim, cluster, chain, SCHEMA, registry)
        assert stack.spans is None
        process = sim.process(
            stack.call(payload=b"x", username="usr2", obj_id=1)
        )
        assert sim.run_until_complete(process).ok
