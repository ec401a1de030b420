"""Runtime shadow sanitizer (`repro.state.table.StateSanitizer`).

Unit tests drive the sanitizer directly against hand-built stores;
integration tests run whole mesh trials under faults and pin the
soundness contract both ways:

* analysis-clean graphs (bookinfo, hotel mesh) run sanitizer-SILENT
  even with real retries in flight;
* `examples/double_charge.graph.json` trips dynamic ADN700 violations,
  and every violation maps back to a static ADN700-family finding.
"""

from repro.dsl.ast_nodes import ColumnDef, StateDecl
from repro.dsl.schema import FieldType
from repro.faults.plan import FaultEvent, FaultPlan
from repro.state.table import SanitizerViolation, StateSanitizer, StateStore


def decl(name="t", keyed=True, append=False):
    if append:
        return StateDecl(
            name=name,
            columns=(
                ColumnDef("rpc", FieldType.INT),
                ColumnDef("user", FieldType.STR),
            ),
            append_only=True,
        )
    return StateDecl(
        name=name,
        columns=(
            ColumnDef("k", FieldType.STR, is_key=keyed),
            ColumnDef("n", FieldType.INT),
        ),
    )


def store_of(*decls, variables=None):
    return StateStore(decls, variables or {})


class TestDuplicateDetection:
    def test_duplicate_increment_flagged(self):
        sanitizer = StateSanitizer()
        store = store_of(decl())
        sanitizer.attach(store, element="Counter")
        table = store.table("t")
        table.insert({"k": "a", "n": 0})

        def bump():
            table.update_where(
                lambda row: row["k"] == "a",
                lambda row: {"n": row["n"] + 1},
            )

        sanitizer.note_attempt(7)
        sanitizer.enter(7)
        bump()
        sanitizer.exit()
        assert sanitizer.violations == []

        sanitizer.note_attempt(7)  # the retry of the same logical RPC
        sanitizer.enter(7)
        bump()
        sanitizer.exit()
        (violation,) = sanitizer.violations
        assert violation.rule == "ADN700"
        assert violation.element == "Counter"
        assert violation.target == "table:t"
        assert violation.rpc_id == 7
        assert violation.attempt == 2
        assert "ADN700" in violation.describe()

    def test_same_attempt_may_mutate_twice(self):
        """Two statements of ONE attempt touching one table is normal."""
        sanitizer = StateSanitizer()
        store = store_of(decl())
        sanitizer.attach(store, element="E")
        table = store.table("t")
        table.insert({"k": "a", "n": 0})
        sanitizer.note_attempt(1)
        sanitizer.enter(1)
        table.update_where(lambda r: True, lambda r: {"n": r["n"] + 1})
        table.update_where(lambda r: True, lambda r: {"n": r["n"] + 1})
        sanitizer.exit()
        assert sanitizer.violations == []

    def test_idempotent_keyed_reinsert_silent(self):
        """A retried upsert writing identical content re-applies
        silently — the runtime mirror of the static `idempotent` bit."""
        sanitizer = StateSanitizer()
        store = store_of(decl())
        sanitizer.attach(store, element="CachePut")
        table = store.table("t")
        for _ in range(2):
            sanitizer.note_attempt(3)
            sanitizer.enter(3)
            table.insert({"k": "x", "n": 42})
            sanitizer.exit()
        assert sanitizer.violations == []

    def test_keyed_reinsert_with_new_content_flagged(self):
        sanitizer = StateSanitizer()
        store = store_of(decl())
        sanitizer.attach(store, element="Stamp")
        table = store.table("t")
        for value in (1, 2):  # e.g. now() differs per attempt
            sanitizer.note_attempt(3)
            sanitizer.enter(3)
            table.insert({"k": "x", "n": value})
            sanitizer.exit()
        (violation,) = sanitizer.violations
        assert violation.rule == "ADN700"

    def test_rpc_keyed_append_excused(self):
        """An appended row that records the rpc_id is dedup-able
        downstream — the runtime mirror of the static `rpc_keyed` bit."""
        sanitizer = StateSanitizer()
        store = store_of(decl(append=True))
        sanitizer.attach(store, element="Logging")
        table = store.table("t")
        for _ in range(2):
            sanitizer.note_attempt(9)
            sanitizer.enter(9)
            table.insert({"rpc": 9, "user": "alice"})
            sanitizer.exit()
        assert sanitizer.violations == []

    def test_plain_append_flagged(self):
        sanitizer = StateSanitizer()
        store = store_of(decl(append=True))
        sanitizer.attach(store, element="Audit")
        table = store.table("t")
        for _ in range(2):
            sanitizer.note_attempt(9)
            sanitizer.enter(9)
            table.insert({"rpc": 0, "user": "alice"})  # no rpc_id recorded
            sanitizer.exit()
        (violation,) = sanitizer.violations
        assert violation.rule == "ADN700"

    def test_var_rewrite_flagged(self):
        sanitizer = StateSanitizer()
        store = store_of(decl(), variables={"seq": 0})
        sanitizer.attach(store, element="Seq")
        for attempt in range(2):
            sanitizer.note_attempt(5)
            sanitizer.enter(5)
            store.vars["seq"] = store.vars["seq"] + 1
            sanitizer.exit()
        (violation,) = sanitizer.violations
        assert violation.target == "var:seq"

    def test_scopes_do_not_collide(self):
        """Two stacks reuse rpc_id values for unrelated logical calls;
        scoping keeps them from conflating into false duplicates."""
        sanitizer = StateSanitizer()
        store = store_of(decl())
        sanitizer.attach(store, element="E")
        table = store.table("t")
        table.insert({"k": "a", "n": 0})
        for scope in ("a->b", "b->c"):
            sanitizer.note_attempt(1_000_001, scope=scope)
            sanitizer.enter(1_000_001, scope=scope)
            table.update_where(lambda r: True, lambda r: {"n": r["n"] + 1})
            sanitizer.exit()
        assert sanitizer.violations == []

    def test_no_context_mutations_ignored(self):
        """Init/migration writes (no rpc context) never violate."""
        sanitizer = StateSanitizer()
        store = store_of(decl())
        sanitizer.attach(store, element="E")
        store.table("t").insert({"k": "a", "n": 0})
        store.table("t").insert({"k": "a", "n": 1})
        assert sanitizer.violations == []

    def test_disabled_sanitizer_silent(self):
        sanitizer = StateSanitizer(enabled=False)
        store = store_of(decl())
        sanitizer.attach(store, element="E")
        table = store.table("t")
        table.insert({"k": "a", "n": 0})
        for _ in range(2):
            sanitizer.note_attempt(1)
            sanitizer.enter(1)
            table.update_where(lambda r: True, lambda r: {"n": r["n"] + 1})
            sanitizer.exit()
        assert sanitizer.violations == []

    def test_reset_clears_trial_state(self):
        sanitizer = StateSanitizer()
        store = store_of(decl())
        sanitizer.attach(store, element="E")
        table = store.table("t")
        table.insert({"k": "a", "n": 0})
        for _ in range(2):
            sanitizer.note_attempt(1)
            sanitizer.enter(1)
            table.update_where(lambda r: True, lambda r: {"n": r["n"] + 1})
            sanitizer.exit()
        assert sanitizer.violations
        sanitizer.reset()
        assert sanitizer.violations == []
        assert sanitizer.retries_observed == 0
        # stores stay attached: mutations are still observed post-reset
        sanitizer.note_attempt(2)
        sanitizer.enter(2)
        table.update_where(lambda r: True, lambda r: {"n": r["n"] + 1})
        sanitizer.exit()
        sanitizer.note_attempt(2)
        sanitizer.enter(2)
        table.update_where(lambda r: True, lambda r: {"n": r["n"] + 1})
        sanitizer.exit()
        assert len(sanitizer.violations) == 1


class TestDivergence:
    def _replicas(self, sanitizer, variables=None):
        stores = []
        for tag in ("m1/engine", "m2/engine"):
            store = store_of(decl(), variables=dict(variables or {}))
            sanitizer.attach(
                store, element="E", instance="svc", tag=tag
            )
            stores.append(store)
        return stores

    def _mark_rmw(self, sanitizer, store):
        """Run one RMW mutation under rpc context so the target lands in
        the runtime RMW set the divergence check is restricted to."""
        sanitizer.note_attempt(1)
        sanitizer.enter(1)
        store.table("t").update_where(
            lambda r: True, lambda r: {"n": r["n"] + 1}
        )
        sanitizer.exit()

    def test_diverged_keyed_rows_flagged(self):
        sanitizer = StateSanitizer()
        a, b = self._replicas(sanitizer)
        a.table("t").insert({"k": "x", "n": 0})
        b.table("t").insert({"k": "x", "n": 5})
        self._mark_rmw(sanitizer, a)
        found = sanitizer.check_divergence()
        (violation,) = found
        assert violation.rule == "ADN702"
        assert violation.target == "table:t"
        assert violation in sanitizer.violations

    def test_identical_replicas_silent(self):
        sanitizer = StateSanitizer()
        a, b = self._replicas(sanitizer)
        a.table("t").insert({"k": "x", "n": 1})
        b.table("t").insert({"k": "x", "n": 1})
        self._mark_rmw(sanitizer, a)
        # the RMW bumped replica a's row to n=2: align b the same way
        b.table("t").update_where(
            lambda r: True, lambda r: {"n": r["n"] + 1}
        )
        assert sanitizer.check_divergence() == []

    def test_disjoint_keys_are_partitioning_not_divergence(self):
        """Replicas holding different keys (sharding) never disagree —
        only a shared key mapping to different rows does."""
        sanitizer = StateSanitizer()
        a, b = self._replicas(sanitizer)
        a.table("t").insert({"k": "x", "n": 1})
        b.table("t").insert({"k": "y", "n": 2})
        self._mark_rmw(sanitizer, a)
        assert sanitizer.check_divergence() == []

    def test_non_rmw_targets_not_compared(self):
        """Targets only ever written insert-style (no runtime RMW) may
        legitimately differ per replica (partitioned caches, logs)."""
        sanitizer = StateSanitizer()
        a, b = self._replicas(sanitizer)
        a.table("t").insert({"k": "x", "n": 0})
        b.table("t").insert({"k": "x", "n": 5})
        assert sanitizer.check_divergence() == []

    def test_var_divergence_flagged(self):
        sanitizer = StateSanitizer()
        a, b = self._replicas(sanitizer, variables={"seq": 0})
        sanitizer.note_attempt(1)
        sanitizer.enter(1)
        a.vars["seq"] = 3
        sanitizer.exit()
        found = sanitizer.check_divergence()
        (violation,) = found
        assert violation.target == "var:seq"

    def test_single_replica_never_diverges(self):
        sanitizer = StateSanitizer()
        store = store_of(decl())
        sanitizer.attach(store, element="E", instance="svc", tag="m1")
        self._mark_rmw(sanitizer, store)
        assert sanitizer.check_divergence() == []

    def test_detach_removes_replica_from_check(self):
        sanitizer = StateSanitizer()
        a, b = self._replicas(sanitizer)
        a.table("t").insert({"k": "x", "n": 0})
        b.table("t").insert({"k": "x", "n": 5})
        self._mark_rmw(sanitizer, a)
        sanitizer.detach("E", instance="svc", tag="m2/engine")
        assert sanitizer.check_divergence() == []


# -- integration: mesh trials under faults --------------------------------


LINK_LOSS = FaultPlan(
    events=[
        FaultEvent(
            at_s=0.02, kind="link_loss", magnitude=0.3, duration_s=0.08
        )
    ],
    seed=3,
)


def run_trial(graph, sanitizer, duration_s=0.15, base_rps=1_200.0):
    from repro.graph.scenario import run_graph_scenario

    return run_graph_scenario(
        graph=graph,
        duration_s=duration_s,
        base_rps=base_rps,
        fault_plan=LINK_LOSS,
        sanitizer=sanitizer,
        seed=3,
    )


class TestMeshSoundness:
    def test_bookinfo_chaos_sanitizer_silent(self):
        from repro.graph.scenario import bookinfo_graph

        sanitizer = StateSanitizer()
        run_trial(bookinfo_graph(), sanitizer)
        assert sanitizer.retries_observed > 0, (
            "the fault plan must exercise real retries for silence "
            "to mean anything"
        )
        sanitizer.check_divergence()
        assert sanitizer.violations == [], [
            v.describe() for v in sanitizer.violations
        ]

    def test_hotel_mesh_chaos_sanitizer_silent(self):
        from repro.graph.scenario import hotel_mesh_graph

        sanitizer = StateSanitizer()
        run_trial(hotel_mesh_graph(), sanitizer)
        sanitizer.check_divergence()
        assert sanitizer.violations == [], [
            v.describe() for v in sanitizer.violations
        ]

    def test_double_charge_trips_sanitizer(self):
        from repro.graph.model import ServiceGraph

        graph = ServiceGraph.load("examples/double_charge.graph.json")
        sanitizer = StateSanitizer()
        run_trial(graph, sanitizer)
        assert sanitizer.retries_observed > 0
        flagged = [v for v in sanitizer.violations if v.rule == "ADN700"]
        assert flagged, "retried Metrics increments must be caught"
        assert {v.element for v in flagged} == {"Metrics"}
        assert all(v.attempt >= 2 for v in flagged)

    def test_dynamic_violations_map_to_static_findings(self):
        """Soundness, dynamic -> static: every sanitizer violation's
        element carries a matching non-empty static site set, and the
        static graph analysis flags the same hazard (ADN700)."""
        from repro.analysis.graph import analyze_graph
        from repro.graph.model import ServiceGraph
        from repro.graph.scenario import MESH_SCHEMA, mesh_program
        from repro.dsl import validate_element
        from repro.ir.analysis import analyze_element
        from repro.ir.builder import build_element_ir

        graph = ServiceGraph.load("examples/double_charge.graph.json")
        sanitizer = StateSanitizer()
        run_trial(graph, sanitizer)
        sanitizer.check_divergence()
        assert sanitizer.violations

        program = mesh_program()
        summaries = {}
        for name, element in program.elements.items():
            summaries[name] = analyze_element(
                build_element_ir(validate_element(element))
            ).effects
        for violation in sanitizer.violations:
            effects = summaries[violation.element]
            if violation.rule == "ADN700":
                sites = effects.non_idempotent_sites()
            else:  # ADN702
                sites = effects.divergent_sites()
            assert sites, (
                f"dynamic {violation.rule} on {violation.element!r} has "
                "no static counterpart — the analysis is unsound"
            )

        analysis = analyze_graph(graph, program, MESH_SCHEMA)
        static_adn700 = {
            d.element
            for d in analysis.diagnostics
            if d.code == "ADN700"
        }
        dynamic_adn700 = {
            v.element
            for v in sanitizer.violations
            if v.rule == "ADN700"
        }
        assert dynamic_adn700 <= static_adn700
