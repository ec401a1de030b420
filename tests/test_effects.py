"""Effect folds of the state-access summary (`repro.ir.state_access`):
per-handler mutation-site proofs, the ADN700-family facts derived from
them, and the refined replication verdict an Autoscaler can gate on
(ADN702)."""

import pytest

from repro.control.scaling import Autoscaler, AutoscalerConfig
from repro.dsl import load_stdlib, parse, validate_element
from repro.ir.analysis import analyze_element
from repro.ir.builder import build_element_ir
from repro.ir.interp import ElementInstance
from repro.ir.state_access import AccessMode
from repro.lint import lint_source
from repro.sim import Resource, Simulator
from repro.state.table import StateSanitizer


def ir_of(source, name=None):
    program = parse(source)
    element = validate_element(
        program.elements[name or next(iter(program.elements))]
    )
    return build_element_ir(element)


def analysis_of(source, name=None):
    return analyze_element(ir_of(source, name))


def effects_of(source, name=None):
    return analysis_of(source, name).effects


def stdlib_effects(name):
    program = load_stdlib()
    element = validate_element(program.elements[name])
    return analyze_element(build_element_ir(element)).effects


def site_ids(sites):
    return sorted(s.target_id for s in sites)


# -- shape classification -------------------------------------------------


class TestShapes:
    def test_plain_increment(self):
        effects = effects_of(
            """
            element Counter {
                state hits (route: str KEY, n: int);
                on request {
                    UPDATE hits SET n = n + 1 WHERE route == input.username;
                    SELECT * FROM input;
                }
            }
            """
        )
        (site,) = effects.sites
        assert site.shape == "increment"
        assert not site.idempotent
        assert site.commutative
        assert site.deterministic
        assert not site.rpc_keyed

    def test_keyed_insert_is_idempotent_set(self):
        effects = effects_of(
            """
            element CachePut {
                state entries (k: str KEY, v: str);
                on request {
                    INSERT INTO entries
                        SELECT input.username, input.username FROM input;
                    SELECT * FROM input;
                }
            }
            """
        )
        (site,) = effects.sites
        assert site.shape == "set"
        assert site.idempotent
        assert site.commutative

    def test_nondeterministic_keyed_insert_not_idempotent(self):
        effects = effects_of(
            """
            element Stamp {
                state stamps (k: str KEY, at: float);
                on request {
                    INSERT INTO stamps SELECT input.username, now() FROM input;
                    SELECT * FROM input;
                }
            }
            """
        )
        (site,) = effects.sites
        assert site.shape == "set"
        assert not site.deterministic
        assert not site.idempotent

    def test_append_without_rpc_id(self):
        effects = effects_of(
            """
            element Audit {
                state log_tab (user: str) APPEND;
                on request {
                    INSERT INTO log_tab SELECT input.username FROM input;
                    SELECT * FROM input;
                }
            }
            """
        )
        (site,) = effects.sites
        assert site.shape == "append"
        assert not site.idempotent
        assert site.commutative
        assert not site.rpc_keyed
        assert effects.non_idempotent_sites() == [site]

    def test_append_with_rpc_id_is_dedupable(self):
        effects = effects_of(
            """
            element Audit {
                state log_tab (rpc: int, user: str) APPEND;
                on request {
                    INSERT INTO log_tab
                        SELECT input.rpc_id, input.username FROM input;
                    SELECT * FROM input;
                }
            }
            """
        )
        (site,) = effects.sites
        assert site.shape == "append"
        assert site.rpc_keyed
        assert effects.non_idempotent_sites() == []

    def test_literal_append_is_not_idempotent(self):
        """Literal rows into an append-only table are appended on every
        attempt: the static site, ADN700 and the sanitizer agree."""
        source = """
            element Stamp {
                state log_tab (x: int) APPEND;
                on request {
                    INSERT INTO log_tab VALUES (1);
                    SELECT * FROM input;
                }
            }
            """
        effects = effects_of(source)
        (site,) = effects.sites
        assert (site.shape, site.key) == ("append", "")
        assert not site.idempotent and site.commutative
        assert not site.rpc_keyed and site.deterministic
        assert effects.non_idempotent_sites() == [site]

        codes = [d.code for d in lint_source(source).diagnostics]
        assert codes == ["ADN700"]

        instance = ElementInstance(ir_of(source))
        sanitizer = StateSanitizer()
        sanitizer.attach(instance.state, element="Stamp")
        for _attempt in range(2):
            sanitizer.note_attempt(42)
            sanitizer.enter(42)
            instance.process({"obj_id": 1}, "request")
            sanitizer.exit()
        (violation,) = sanitizer.violations
        assert (violation.rule, violation.attempt) == ("ADN700", 2)
        assert violation.target == site.target_id

    def test_literal_keyed_insert_stays_idempotent_set(self):
        effects = effects_of(
            """
            element Pin {
                state pins (k: int KEY, v: int);
                on request {
                    INSERT INTO pins VALUES (1, 2);
                    SELECT * FROM input;
                }
            }
            """
        )
        (site,) = effects.sites
        assert (site.shape, site.key) == ("set", "literal rows")
        assert site.idempotent and site.commutative
        assert effects.non_idempotent_sites() == []

    def test_aggregated_guard_makes_cas(self):
        effects = effects_of(
            """
            element Quota {
                state usage (user: str KEY, used: int);
                on request {
                    UPDATE usage SET used = used + 1
                        WHERE user == input.username
                          AND sum_of(usage, used) < 100;
                    SELECT * FROM input;
                }
            }
            """
        )
        (site,) = effects.sites
        assert site.shape == "cas"
        assert not site.commutative
        assert effects.non_commutative_sites() == [site]

    def test_var_self_increment(self):
        effects = effects_of(
            """
            element Seq {
                var seq: int = 0;
                on request {
                    SET seq = seq + 1;
                    SELECT * FROM input;
                }
            }
            """
        )
        (site,) = effects.sites
        assert site.target_kind == "var"
        assert site.shape == "increment"
        assert site.commutative and not site.idempotent

    def test_var_plain_set_is_idempotent(self):
        effects = effects_of(
            """
            element Flag {
                var armed: bool = false;
                on request {
                    SET armed = true;
                    SELECT * FROM input;
                }
            }
            """
        )
        (site,) = effects.sites
        assert site.shape == "set"
        assert site.idempotent
        assert effects.non_idempotent_sites() == []

    def test_delete_is_idempotent(self):
        effects = effects_of(
            """
            element Evict {
                state entries (k: str KEY, v: str);
                on request {
                    DELETE FROM entries WHERE k == input.username;
                    SELECT * FROM input;
                }
            }
            """
        )
        (site,) = effects.sites
        assert site.shape == "delete"
        assert site.idempotent

    def test_init_blocks_excluded(self):
        effects = effects_of(
            """
            element Seeded {
                state acl (user: str KEY, ok: bool);
                init { INSERT INTO acl VALUES ("alice", true); }
                on request {
                    SELECT * FROM input JOIN acl ON input.username == acl.user;
                }
            }
            """
        )
        assert effects.sites == ()
        assert "table:acl" in effects.observable_reads


# -- retry-visible reads (ADN703) -----------------------------------------


class TestRetryVisibleReads:
    def test_emitted_counter_is_retry_visible(self):
        effects = effects_of(
            """
            element Seq {
                var seq: int = 0;
                on request {
                    SET seq = seq + 1;
                    SELECT input.username, seq AS seq_no FROM input;
                }
            }
            """
        )
        pairs = effects.retry_visible_reads()
        assert len(pairs) == 1
        read, site = pairs[0]
        assert read.output_field == "seq_no"
        assert read.target_id == "var:seq" == site.target_id

    def test_emitted_items_precede_star_tables(self):
        effects = effects_of(
            """
            element Echo {
                state hits (k: int KEY, n: int);
                on request {
                    UPDATE hits SET n = n + 1 WHERE k == input.obj_id;
                    SELECT input.*, hits.*, hits.n AS priority FROM input
                        JOIN hits ON hits.k == input.obj_id;
                }
            }
            """
        )
        assert [
            (read.output_field, read.target_id)
            for read in effects.output_reads
        ] == [("priority", "table:hits"), ("hits.*", "table:hits")]
        assert [
            read.output_field for read, _site in effects.retry_visible_reads()
        ] == ["priority", "hits.*"]

    def test_idempotent_state_read_not_flagged(self):
        effects = effects_of(
            """
            element Flag {
                var armed: bool = false;
                on request {
                    SET armed = true;
                    SELECT input.username, armed AS is_armed FROM input;
                }
            }
            """
        )
        assert effects.retry_visible_reads() == []


# -- stdlib classifications (pins the sanitizer/static correspondence) ----


class TestStdlib:
    def test_logging_is_rpc_keyed(self):
        effects = stdlib_effects("Logging")
        assert all(s.rpc_keyed for s in effects.sites)
        assert effects.non_idempotent_sites() == []

    def test_metrics_increment_not_idempotent(self):
        effects = stdlib_effects("Metrics")
        risky = effects.non_idempotent_sites()
        assert risky, "Metrics must carry a non-idempotent site"
        assert any(s.shape == "increment" for s in risky)

    def test_global_quota_is_non_commutative(self):
        effects = stdlib_effects("GlobalQuota")
        assert any(
            s.shape == "cas" for s in effects.non_commutative_sites()
        )

    def test_cache_put_idempotent(self):
        effects = stdlib_effects("Cache")
        table_sites = [
            s for s in effects.sites if s.target_kind == "table"
        ]
        assert table_sites
        assert all(s.idempotent for s in table_sites)

    def test_acl_has_no_mutation_sites(self):
        assert stdlib_effects("Acl").sites == ()

    def test_summarize_all_stdlib(self):
        program = load_stdlib()
        for name, element in program.elements.items():
            ir = build_element_ir(validate_element(element))
            effects = analyze_element(ir).effects
            assert effects.element == name
            assert all(site.element == name for site in effects.sites)


# -- replication refinement (ADN702) --------------------------------------


NONDET_KEYED_INSERT = """
element Drifting {
    state cache_tab (obj_id: int KEY, stamp: float);
    on request {
        INSERT INTO cache_tab SELECT input.obj_id, now() FROM input;
        SELECT * FROM input;
    }
}
"""


class TestRefinement:
    def test_coarse_shardable_tightened(self):
        analysis = analysis_of(NONDET_KEYED_INSERT)
        assert analysis.replication.shardable, (
            "coarse verdict must start permissive"
        )
        refined = analysis.refined_replication
        assert not refined.shardable
        assert any(
            "replica-divergent" in reason for reason in refined.reasons()
        )

    def test_refined_safety_one_call(self):
        refined = analysis_of(NONDET_KEYED_INSERT).refined_replication
        assert not refined.shardable

    def test_clean_element_untouched(self):
        analysis = analysis_of(
            """
            element Pure {
                state acl (user: str KEY, ok: bool);
                on request {
                    SELECT * FROM input
                        JOIN acl ON input.username == acl.user;
                }
            }
            """
        )
        assert analysis.refined_replication is analysis.replication

    def test_rmw_access_not_double_demoted(self):
        analysis = analysis_of(
            """
            element Guarded {
                state seen (k: int KEY);
                on request {
                    SELECT * FROM input
                        WHERE not contains(seen, input.obj_id);
                    INSERT INTO seen SELECT input.obj_id FROM input;
                }
            }
            """
        )
        modes = [a.mode for a in analysis.refined_replication.accesses]
        assert AccessMode.READ_MODIFY_WRITE in modes


# -- autoscaler gating ----------------------------------------------------


class TestAutoscalerGating:
    def _scaler(self, safety):
        sim = Simulator()
        resource = Resource(sim, capacity=1, name="engine")
        return Autoscaler(
            sim, resource, AutoscalerConfig(max_capacity=4), safety=[safety]
        )

    def test_coarse_verdict_alone_allows_scale_out(self):
        analysis = analysis_of(NONDET_KEYED_INSERT)
        scaler = self._scaler(analysis.replication)
        assert scaler._scale_out_blockers() == []

    def test_effects_refinement_blocks_scale_out(self):
        analysis = analysis_of(NONDET_KEYED_INSERT)
        scaler = self._scaler(analysis.refined_replication)
        blockers = scaler._scale_out_blockers()
        assert blockers
        assert any("replica-divergent" in b for b in blockers)
