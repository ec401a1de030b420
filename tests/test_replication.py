"""Replication-safety classification (paper §5 "decoupled tabular
state") and its consumers: the parallelize pass and the autoscaler."""

import pytest

from repro.control.scaling import Autoscaler, AutoscalerConfig
from repro.dsl import load_stdlib, parse, validate_element
from repro.ir.analysis import analyze_element
from repro.ir.builder import build_element_ir
from repro.ir.dependency import can_parallelize
from repro.ir.passes.parallelize import parallel_stages
from repro.ir.state_access import AccessMode
from repro.sim import Resource, Simulator


def analysis_of(source, name=None):
    program = parse(source)
    element = validate_element(
        program.elements[name or next(iter(program.elements))]
    )
    return analyze_element(build_element_ir(element))


def safety_of(source, name=None):
    return analysis_of(source, name).replication


COMMUTATIVE_COUNTER = """
element HitCounter {
    state hits (route: str, n: int);
    on request {
        UPDATE hits SET n = n + 1;
        SELECT * FROM input;
    }
}
"""

RMW_ELEMENT = """
element Dedup {
    state seen (rpc: int KEY);
    on request {
        SELECT * FROM input WHERE not contains(seen, input.obj_id);
        INSERT INTO seen SELECT input.obj_id FROM input;
    }
}
"""


class TestClassifier:
    def test_read_only_table(self):
        safety = safety_of(
            """
            element R {
                state acl (user: str KEY, ok: bool);
                init { INSERT INTO acl VALUES ("alice", true); }
                on request {
                    SELECT input.* FROM input
                        JOIN acl ON acl.user == input.username;
                }
            }
            """
        )
        (access,) = safety.accesses
        assert access.mode is AccessMode.READ_ONLY
        assert safety.replicable and safety.shardable

    def test_append_only_insert_is_commutative(self):
        safety = safety_of(
            """
            element L {
                state log (ts: float);
                on request {
                    INSERT INTO log SELECT now() FROM input;
                    SELECT * FROM input;
                }
            }
            """
        )
        (access,) = safety.accesses
        assert access.mode is AccessMode.COMMUTATIVE
        assert safety.replicable

    def test_counter_update_is_commutative(self):
        safety = safety_of(COMMUTATIVE_COUNTER)
        (access,) = safety.accesses
        assert access.mode is AccessMode.COMMUTATIVE
        assert safety.replicable

    def test_non_commutative_update_is_rmw(self):
        safety = safety_of(
            """
            element W {
                state q (used: int);
                on request {
                    UPDATE q SET used = used * 2;
                    SELECT * FROM input;
                }
            }
            """
        )
        (access,) = safety.accesses
        assert access.mode is AccessMode.READ_MODIFY_WRITE
        assert not safety.replicable and not safety.shardable

    def test_aggregate_read_plus_write_is_rmw(self):
        safety = safety_of(RMW_ELEMENT)
        (access,) = safety.accesses
        assert access.mode is AccessMode.READ_MODIFY_WRITE
        assert not safety.replicable
        # the span points at real source (the WHERE that aggregates)
        assert access.span is not None and access.span.line >= 4

    def test_key_pinned_accesses_are_partitioned(self):
        safety = safety_of(
            """
            element P {
                state sess (user: str KEY, n: int);
                on request {
                    UPDATE sess SET n = 99
                        WHERE sess.user == input.username;
                    SELECT * FROM input;
                }
            }
            """
        )
        (access,) = safety.accesses
        assert access.mode is AccessMode.PARTITIONED
        assert not safety.replicable  # plain copies would still race
        assert safety.shardable  # but key-sharding is sound

    def test_unpinned_keyed_update_is_rmw(self):
        safety = safety_of(
            """
            element U {
                state sess (user: str KEY, n: int);
                on request {
                    UPDATE sess SET n = 99;
                    SELECT * FROM input;
                }
            }
            """
        )
        (access,) = safety.accesses
        assert access.mode is AccessMode.READ_MODIFY_WRITE

    def test_self_increment_var_is_commutative(self):
        safety = safety_of(
            """
            element C {
                var n: int = 0;
                on request {
                    SET n = n + 1;
                    SELECT * FROM input;
                }
            }
            """
        )
        (access,) = safety.accesses
        assert access.mode is AccessMode.COMMUTATIVE

    def test_read_back_var_is_rmw(self):
        safety = safety_of(
            """
            element V {
                var n: int = 0;
                on request {
                    SET n = n + 1;
                    SELECT input.*, n AS seq FROM input;
                }
            }
            """
        )
        (access,) = safety.accesses
        assert access.mode is AccessMode.READ_MODIFY_WRITE
        assert not safety.shardable  # vars have no key to shard by

    def test_stdlib_expectations(self):
        program = load_stdlib()
        verdicts = {}
        for name, element in program.elements.items():
            analysis = analyze_element(build_element_ir(element))
            verdicts[name] = analysis.replication
        assert verdicts["Acl"].replicable  # init-populated, read-only
        assert verdicts["Logging"].replicable  # append-only log
        assert not verdicts["RateLimit"].replicable  # token bucket
        assert not verdicts["Metrics"].replicable  # contains() guard
        assert not verdicts["LbRoundRobin"].replicable  # rr counter
        assert verdicts["Compression"].replicable  # stateless

    def test_analysis_carries_replication(self):
        analysis = analysis_of(COMMUTATIVE_COUNTER)
        assert analysis.replication is not None
        assert analysis.replication.replicable


class TestParallelizeGating:
    def test_rmw_element_refused_commutative_allowed(self):
        """The acceptance pair: a read-modify-write element may not join
        a parallel group, while a commutative counter may."""
        rmw = analysis_of(RMW_ELEMENT)
        counter = analysis_of(COMMUTATIVE_COUNTER)
        stateless = analysis_of(
            """
            element Pass {
                on request { SELECT * FROM input; }
            }
            """
        )
        refused = can_parallelize(stateless, rmw)
        assert not refused
        assert any("unsafe to replicate" in r for r in refused.reasons)
        assert can_parallelize(stateless, counter)

    def test_stage_grouping_respects_replication(self):
        analyses = {
            "Pass": analysis_of(
                "element Pass { on request { SELECT * FROM input; } }"
            ),
            "Counter": analysis_of(COMMUTATIVE_COUNTER),
            "Dedup": analysis_of(RMW_ELEMENT),
        }
        stages = parallel_stages(["Pass", "Counter", "Dedup"], analyses)
        # Pass+Counter group; Dedup is forced into its own stage
        assert ("Pass", "Counter") in stages
        assert ("Dedup",) in stages


class TestAutoscalerGating:
    def _saturate(self, sim, resource, duration_s=1.0):
        import random

        rng = random.Random(7)

        def arrivals():
            deadline = sim.now + duration_s
            while sim.now < deadline:
                yield sim.timeout(rng.expovariate(10_000))
                sim.process(one())

        def one():
            yield from resource.use(200e-6)

        sim.process(arrivals())

    def test_rmw_element_refused_scale_out(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1, name="engine")
        self._saturate(sim, resource)
        rmw = analysis_of(RMW_ELEMENT)
        autoscaler = Autoscaler(
            sim,
            resource,
            AutoscalerConfig(sample_interval_s=0.05, cooldown_s=0.1),
            safety=[rmw.replication],
        )
        sim.process(autoscaler.run(1.0))
        sim.run()
        assert resource.capacity == 1  # never scaled out
        refusals = [e for e in autoscaler.events if e.action == "refused_out"]
        assert refusals
        assert any("Dedup" in r for r in refusals[0].reasons)
        assert autoscaler.scale_out_count == 0

    def test_commutative_element_allowed_scale_out(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1, name="engine")
        self._saturate(sim, resource)
        counter = analysis_of(COMMUTATIVE_COUNTER)
        autoscaler = Autoscaler(
            sim,
            resource,
            AutoscalerConfig(sample_interval_s=0.05, cooldown_s=0.1),
            safety=[counter.replication],
        )
        sim.process(autoscaler.run(1.0))
        sim.run()
        assert autoscaler.scale_out_count >= 1
        assert resource.capacity >= 2
        assert not [e for e in autoscaler.events if e.action == "refused_out"]

    def test_partitioned_element_allowed_scale_out(self):
        """Shardable-but-not-replicable state does not block scale-out:
        the runtime shards keyed tables on capacity changes."""
        sim = Simulator()
        resource = Resource(sim, capacity=1, name="engine")
        self._saturate(sim, resource)
        partitioned = analysis_of(
            """
            element P {
                state sess (user: str KEY, n: int);
                on request {
                    UPDATE sess SET n = 99
                        WHERE sess.user == input.username;
                    SELECT * FROM input;
                }
            }
            """
        )
        assert not partitioned.replication.replicable
        autoscaler = Autoscaler(
            sim,
            resource,
            AutoscalerConfig(sample_interval_s=0.05, cooldown_s=0.1),
            safety=[partitioned.replication],
        )
        sim.process(autoscaler.run(1.0))
        sim.run()
        assert autoscaler.scale_out_count >= 1
