"""Property-based tests for state tables: split/merge inverses, delta
replay equivalence, upsert semantics, and running totals that equal a
fresh scan, under random op sequences."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsl.ast_nodes import ColumnDef, StateDecl
from repro.dsl.schema import FieldType
from repro.errors import StateError
from repro.ir.expr_utils import run_column_aggregate
from repro.state.table import StateTable


def decl(keyed=True):
    return StateDecl(
        name="t",
        columns=(
            ColumnDef("k", FieldType.INT, is_key=keyed),
            ColumnDef("v", FieldType.INT),
        ),
    )


def rows_of(table):
    return sorted(((row["k"], row["v"]) for row in table.rows()), key=repr)


keys = st.integers(min_value=0, max_value=50)
values = st.one_of(st.none(), st.integers(min_value=-1000, max_value=1000))
#: values the int column rejects: an update setting one must write nothing
mistyped = st.sampled_from((0.5, "1", True))

#: a random mutation: ("insert", k, v) | ("update", k, v) | ("delete", k)
operations = st.one_of(
    st.tuples(st.just("insert"), keys, values),
    st.tuples(st.just("update"), keys, values | mistyped),
    st.tuples(st.just("delete"), keys, values),
)


def apply_op(table, op):
    kind, key, value = op
    if kind == "insert":
        table.insert({"k": key, "v": value})
    elif kind == "update":
        try:
            table.update_where(
                lambda row: row["k"] == key, lambda row: {"v": value}
            )
        except StateError:
            assert not FieldType.INT.accepts(value)
    else:
        table.delete_where(lambda row: row["k"] == key)


def assert_totals_match_scan(table):
    """``sum_of``/``avg_of`` from the running totals equal the
    interpreter's scan, value and type, on every int column."""
    for col in table.decl.columns:
        if col.type is FieldType.INT:
            for name in ("sum_of", "avg_of"):
                got = table.aggregate(name, col.name)
                want = run_column_aggregate(name, table, col.name)
                assert (type(got), got) == (type(want), want), (name, col.name)


class TestSplitMergeProperties:
    @given(
        contents=st.lists(st.tuples(keys, values), max_size=60),
        ways=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=80)
    def test_split_merge_identity(self, contents, ways):
        table = StateTable(decl())
        for key, value in contents:
            table.insert({"k": key, "v": value})
        parts = table.split(ways)
        merged = StateTable.merge(decl(), parts)
        assert rows_of(merged) == rows_of(table)

    @given(
        contents=st.lists(st.tuples(keys, values), max_size=60),
        ways=st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=80)
    def test_split_parts_are_disjoint_and_complete(self, contents, ways):
        table = StateTable(decl())
        for key, value in contents:
            table.insert({"k": key, "v": value})
        parts = table.split(ways)
        seen = []
        for part in parts:
            seen.extend(row["k"] for row in part.rows())
        assert sorted(seen) == sorted(row["k"] for row in table.rows())
        assert len(seen) == len(set(seen))

    @given(contents=st.lists(st.tuples(keys, values), max_size=60))
    @settings(max_examples=50)
    def test_partition_routing_matches_split(self, contents):
        """The router-side hash (partition_key_for) must agree with where
        split() actually put each row — otherwise scale-out would route
        lookups to the wrong shard."""
        table = StateTable(decl())
        for key, value in contents:
            table.insert({"k": key, "v": value})
        ways = 3
        parts = table.split(ways)
        for index, part in enumerate(parts):
            for row in part.rows():
                assert table.partition_key_for(row) % ways == index


class TestDeltaReplayProperties:
    @given(
        initial=st.lists(st.tuples(keys, values), max_size=30),
        mutations=st.lists(operations, max_size=40),
    )
    @settings(max_examples=80)
    def test_snapshot_plus_deltas_equals_source(self, initial, mutations):
        source = StateTable(decl())
        for key, value in initial:
            source.insert({"k": key, "v": value})
        target = StateTable(decl())
        source.start_delta_log()
        target.load_snapshot(source.snapshot())
        for op in mutations:
            apply_op(source, op)
        assert_totals_match_scan(target)
        target.apply_deltas(source.drain_delta_log())
        assert rows_of(target) == rows_of(source)
        assert_totals_match_scan(target)

    @given(
        initial=st.lists(st.tuples(keys, values), max_size=30),
        mutations=st.lists(
            operations.filter(lambda op: op[0] != "update"), max_size=40
        ),
    )
    @settings(max_examples=60)
    def test_bag_replay_of_inserts_and_deletes(self, initial, mutations):
        # a bag replays a delete by removing one equal row
        source = StateTable(decl(keyed=False))
        for key, value in initial:
            source.insert({"k": key, "v": value})
        target = StateTable(decl(keyed=False))
        target.load_snapshot(source.snapshot())
        source.start_delta_log()
        for op in mutations:
            apply_op(source, op)
        target.apply_deltas(source.drain_delta_log())
        assert rows_of(target) == rows_of(source)
        assert_totals_match_scan(target)

    @given(mutations=st.lists(operations, max_size=40))
    @settings(max_examples=60)
    def test_upsert_means_keys_unique(self, mutations):
        table = StateTable(decl())
        for op in mutations:
            apply_op(table, op)
        all_keys = [row["k"] for row in table.rows()]
        assert len(all_keys) == len(set(all_keys))


class TestRunningTotalProperties:
    @pytest.mark.parametrize("keyed", [True, False], ids=["keyed", "bag"])
    @given(
        initial=st.lists(st.tuples(keys, values), max_size=20),
        mutations=st.lists(operations, max_size=40),
        ways=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60)
    def test_totals_equal_a_fresh_scan(self, keyed, initial, mutations, ways):
        table = StateTable(decl(keyed))
        for key, value in initial:
            table.insert({"k": key, "v": value})
        assert_totals_match_scan(table)
        for op in mutations:
            apply_op(table, op)
            assert_totals_match_scan(table)
        parts = table.split(ways)
        for part in parts:
            assert_totals_match_scan(part)
        merged = StateTable.merge(decl(keyed), parts)
        assert_totals_match_scan(merged)
        snapshot = table.snapshot()
        table.clear()
        assert_totals_match_scan(table)
        assert table.aggregate("sum_of", "v") == 0
        assert table.aggregate("avg_of", "v") is None
        table.load_snapshot(snapshot)
        assert_totals_match_scan(table)
