"""State table tests: CRUD, schema checking, split/merge, delta logs."""

from unittest import mock

import pytest

from repro.dsl.ast_nodes import ColumnDef, StateDecl
from repro.dsl.schema import FieldType
from repro.errors import StateError
from repro.state.table import StateStore, StateTable


def keyed_decl():
    return StateDecl(
        name="t",
        columns=(
            ColumnDef("k", FieldType.INT, is_key=True),
            ColumnDef("v", FieldType.STR),
        ),
    )


def bag_decl():
    return StateDecl(
        name="b", columns=(ColumnDef("x", FieldType.INT),), append_only=False
    )


def log_decl():
    return StateDecl(
        name="log", columns=(ColumnDef("x", FieldType.INT),), append_only=True
    )


class TestBasicOps:
    def test_insert_and_get(self):
        table = StateTable(keyed_decl())
        table.insert({"k": 1, "v": "a"})
        assert table.get(1) == {"k": 1, "v": "a"}
        assert table.get(2) is None

    def test_keyed_insert_is_upsert(self):
        table = StateTable(keyed_decl())
        table.insert({"k": 1, "v": "a"})
        table.insert({"k": 1, "v": "b"})
        assert len(table) == 1
        assert table.get(1)["v"] == "b"

    def test_insert_values_positional(self):
        table = StateTable(keyed_decl())
        table.insert_values([1, "a"])
        assert table.get(1)["v"] == "a"

    def test_insert_values_arity(self):
        table = StateTable(keyed_decl())
        with pytest.raises(StateError, match="values"):
            table.insert_values([1])

    def test_schema_field_mismatch(self):
        table = StateTable(keyed_decl())
        with pytest.raises(StateError, match="columns"):
            table.insert({"k": 1, "wrong": "a"})

    def test_schema_type_mismatch(self):
        table = StateTable(keyed_decl())
        with pytest.raises(StateError, match="expects"):
            table.insert({"k": "one", "v": "a"})

    def test_contains_key(self):
        table = StateTable(keyed_decl())
        table.insert({"k": 1, "v": "a"})
        assert table.contains_key(1)
        assert not table.contains_key(2)

    def test_contains_on_bag_rejected(self):
        with pytest.raises(StateError):
            StateTable(bag_decl()).contains_key(1)

    def test_update_where(self):
        table = StateTable(keyed_decl())
        table.insert({"k": 1, "v": "a"})
        table.insert({"k": 2, "v": "b"})
        changed = table.update_where(
            lambda row: row["k"] == 1, lambda row: {"v": "z"}
        )
        assert changed == 1
        assert table.get(1)["v"] == "z"
        assert table.get(2)["v"] == "b"

    def test_update_key_column_rejected(self):
        table = StateTable(keyed_decl())
        table.insert({"k": 1, "v": "a"})
        with pytest.raises(StateError, match="key columns"):
            table.update_where(lambda row: True, lambda row: {"k": 9})

    def test_delete_where(self):
        table = StateTable(keyed_decl())
        for i in range(5):
            table.insert({"k": i, "v": str(i)})
        removed = table.delete_where(lambda row: row["k"] % 2 == 0)
        assert removed == 3
        assert len(table) == 2

    def test_bag_allows_duplicates(self):
        table = StateTable(bag_decl())
        table.insert({"x": 1})
        table.insert({"x": 1})
        assert len(table) == 2


class TestFailedWrites:
    """A write that is rejected or faults leaves the table as it was."""

    def table(self):
        table = StateTable(
            StateDecl(
                name="t",
                columns=(
                    ColumnDef("k", FieldType.STR, is_key=True),
                    ColumnDef("v", FieldType.INT),
                ),
            )
        )
        table.insert({"k": "a", "v": 1})
        table.observer = mock.Mock()
        table.start_delta_log()
        return table

    def assert_untouched(self, table):
        assert table.snapshot() == [{"k": "a", "v": 1}]
        assert table.drain_delta_log() == []
        assert table.observer.method_calls == []
        assert table.aggregate("sum_of", "v") == 1
        assert table.aggregate("avg_of", "v") == 1.0

    def test_mistyped_value_writes_nothing(self):
        table = self.table()
        for _ in range(2):
            with pytest.raises(
                StateError, match="column 'v' expects int, got 0.5"
            ):
                table.update_where(
                    lambda row: True, lambda row: {"v": row["v"] / 2}
                )
        self.assert_untouched(table)

    def test_unknown_column_writes_nothing(self):
        table = self.table()
        with pytest.raises(StateError, match="row fields"):
            table.update_row(table.get("a"), {"w": 2})
        self.assert_untouched(table)

    def test_bag_delete_that_faults_part_way_deletes_nothing(self):
        table = StateTable(bag_decl())
        for x in (1, 0, 2):
            table.insert({"x": x})
        table.observer = mock.Mock()
        table.start_delta_log()
        with pytest.raises(ZeroDivisionError):
            table.delete_where(lambda row: 100 / row["x"] > 1)
        assert table.snapshot() == [{"x": 1}, {"x": 0}, {"x": 2}]
        assert table.drain_delta_log() == []
        assert table.observer.method_calls == []
        assert table.aggregate("sum_of", "x") == 3


class TestAppendOnly:
    def test_append_allowed(self):
        table = StateTable(log_decl())
        table.insert({"x": 1})
        assert len(table) == 1

    def test_update_rejected(self):
        table = StateTable(log_decl())
        with pytest.raises(StateError, match="append-only"):
            table.update_where(lambda r: True, lambda r: {})

    def test_delete_rejected(self):
        table = StateTable(log_decl())
        with pytest.raises(StateError, match="append-only"):
            table.delete_where(lambda r: True)


class TestSnapshotAndDeltas:
    def test_snapshot_isolated(self):
        table = StateTable(keyed_decl())
        table.insert({"k": 1, "v": "a"})
        snap = table.snapshot()
        snap[0]["v"] = "mutated"
        assert table.get(1)["v"] == "a"

    def test_load_snapshot(self):
        source = StateTable(keyed_decl())
        source.insert({"k": 1, "v": "a"})
        target = StateTable(keyed_decl())
        target.insert({"k": 9, "v": "old"})
        target.load_snapshot(source.snapshot())
        assert len(target) == 1
        assert target.get(1)["v"] == "a"

    def test_delta_log_replay(self):
        source = StateTable(keyed_decl())
        source.insert({"k": 1, "v": "a"})
        target = StateTable(keyed_decl())
        target.load_snapshot(source.snapshot())
        source.start_delta_log()
        source.insert({"k": 2, "v": "b"})
        source.update_where(lambda r: r["k"] == 1, lambda r: {"v": "a2"})
        source.delete_where(lambda r: r["k"] == 2)
        target.apply_deltas(source.drain_delta_log())
        assert target.snapshot() == source.snapshot()

    def test_drain_without_start_raises(self):
        with pytest.raises(StateError, match="not started"):
            StateTable(keyed_decl()).drain_delta_log()

    def test_log_only_records_while_active(self):
        table = StateTable(keyed_decl())
        table.insert({"k": 1, "v": "a"})  # before log: not recorded
        table.start_delta_log()
        table.insert({"k": 2, "v": "b"})
        deltas = table.drain_delta_log()
        assert len(deltas) == 1


class TestSplitMerge:
    def test_split_partitions_disjointly(self):
        table = StateTable(keyed_decl())
        for i in range(100):
            table.insert({"k": i, "v": str(i)})
        parts = table.split(4)
        assert sum(len(p) for p in parts) == 100
        seen = set()
        for part in parts:
            for row in part.rows():
                assert row["k"] not in seen
                seen.add(row["k"])

    def test_split_deterministic(self):
        table = StateTable(keyed_decl())
        for i in range(50):
            table.insert({"k": i, "v": str(i)})
        first = [sorted(r["k"] for r in p.rows()) for p in table.split(3)]
        second = [sorted(r["k"] for r in p.rows()) for p in table.split(3)]
        assert first == second

    def test_split_reasonably_balanced(self):
        table = StateTable(keyed_decl())
        for i in range(1000):
            table.insert({"k": i, "v": ""})
        sizes = [len(p) for p in table.split(4)]
        assert min(sizes) > 150  # hash-partitioning, not perfect but fair

    def test_merge_inverts_split(self):
        table = StateTable(keyed_decl())
        for i in range(60):
            table.insert({"k": i, "v": str(i)})
        parts = table.split(3)
        merged = StateTable.merge(keyed_decl(), parts)
        assert sorted(r["k"] for r in merged.rows()) == sorted(
            r["k"] for r in table.rows()
        )

    def test_merge_last_writer_wins(self):
        old = StateTable(keyed_decl())
        old.insert({"k": 1, "v": "old"})
        new = StateTable(keyed_decl())
        new.insert({"k": 1, "v": "new"})
        merged = StateTable.merge(keyed_decl(), [old, new])
        assert merged.get(1)["v"] == "new"

    def test_merge_name_mismatch(self):
        with pytest.raises(StateError, match="merge"):
            StateTable.merge(keyed_decl(), [StateTable(bag_decl())])

    def test_split_bag_round_robin(self):
        table = StateTable(bag_decl())
        for i in range(10):
            table.insert({"x": i})
        parts = table.split(2)
        assert [len(p) for p in parts] == [5, 5]

    def test_split_invalid_ways(self):
        with pytest.raises(StateError):
            StateTable(keyed_decl()).split(0)


class TestStateStore:
    def test_store_holds_tables_and_vars(self):
        store = StateStore([keyed_decl()], {"n": 0})
        store.table("t").insert({"k": 1, "v": "a"})
        store.vars["n"] = 5
        snapshot = store.snapshot()
        fresh = StateStore([keyed_decl()], {"n": 0})
        fresh.load_snapshot(snapshot)
        assert fresh.table("t").get(1)["v"] == "a"
        assert fresh.vars["n"] == 5

    def test_unknown_table(self):
        store = StateStore([], {})
        with pytest.raises(StateError, match="unknown state table"):
            store.table("ghost")
