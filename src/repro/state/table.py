"""State tables for ADN elements.

The paper's central enabler for migration and scaling (§5.2) is that
element state is *decoupled from code and tabular*: the controller can
snapshot a table, split it by key across new instances, or merge the
tables of instances being decommissioned. This module implements those
operations with schema checking and a delta log for live migration.
Every table also keeps a running sum and count of each ``int`` column,
so generated code answers ``sum_of``/``avg_of`` without a scan.

Tables come in three shapes:

* **keyed** — one or more KEY columns; rows are unique per key and the
  table can be *partitioned* by key hash (scale-out) and *merged* by
  union (scale-in, last-writer-wins per key).
* **bag** — no key; rows are an unordered multiset; merging concatenates.
* **append-only** — write-only sinks (logs); reads are disallowed on the
  data path, and merging concatenates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..dsl.ast_nodes import StateDecl
from ..dsl.schema import COMPARABLE_TYPES, FieldType
from ..errors import StateError

Row = Dict[str, object]


def _stable_key_hash(value: object) -> int:
    """Deterministic hash for partitioning (process-salt free)."""
    import hashlib

    data = repr(value).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class Delta:
    """One logged mutation, replayable on another table instance."""

    op: str  # "insert" | "update" | "delete"
    row: Tuple[Tuple[str, object], ...]  # the affected row, as sorted items

    @classmethod
    def of(cls, op: str, row: Row) -> "Delta":
        return cls(op=op, row=tuple(sorted(row.items())))

    def as_row(self) -> Row:
        return dict(self.row)


class StateTable:
    """A mutable table instance owned by one element replica."""

    def __init__(self, decl: StateDecl):
        self.decl = decl
        self.name = decl.name
        self.columns: Tuple[str, ...] = tuple(col.name for col in decl.columns)
        self.key_columns: Tuple[str, ...] = tuple(
            col.name for col in decl.columns if col.is_key
        )
        self.append_only = decl.append_only
        #: per key column, the value types that compare with its values
        #: without faulting (what a missed lookup checks its key against)
        self._key_types: Tuple[frozenset, ...] = tuple(
            COMPARABLE_TYPES[col.type.python_type]
            for col in decl.columns
            if col.is_key
        )
        #: what the row check compares each write against: the column
        #: names, and per column its exact Python type (the fast path)
        #: and its field type (what decides any other value)
        self._column_set = frozenset(self.columns)
        self._column_types: Tuple[Tuple[str, type, FieldType], ...] = tuple(
            (col.name, col.type.python_type, col.type) for col in decl.columns
        )
        #: per ``int`` column, [sum, count] of its non-NULL values, kept
        #: by every mutation path; :meth:`aggregate` answers ``sum_of`` and
        #: ``avg_of`` from them
        self._totals: Dict[str, List[int]] = {
            col.name: [0, 0] for col in decl.columns if col.type is FieldType.INT
        }
        self._by_key: Dict[Tuple[object, ...], Row] = {}
        self._rows: List[Row] = []  # for bag / append-only tables
        self._delta_log: Optional[List[Delta]] = None
        #: optional shadow observer (:class:`StateSanitizer` binds one per
        #: attached replica); mirrors the delta-log idiom — mutation paths
        #: notify it with before/after rows, migration replay does not
        self.observer: Optional["_TableObserver"] = None

    # -- basics -----------------------------------------------------------

    @property
    def keyed(self) -> bool:
        return bool(self.key_columns)

    def __len__(self) -> int:
        return len(self._by_key) if self.keyed else len(self._rows)

    def rows(self) -> Iterator[Row]:
        """Iterate rows (copies are not made; do not mutate)."""
        if self.keyed:
            return iter(self._by_key.values())
        return iter(self._rows)

    def _key_of(self, row: Row) -> Tuple[object, ...]:
        return tuple(row[col] for col in self.key_columns)

    def _check_row(self, row: Row) -> Row:
        if row.keys() != self._column_set:
            raise StateError(
                f"table {self.name!r}: row fields {sorted(row)} != "
                f"columns {sorted(self.columns)}"
            )
        for name, exact, field_type in self._column_types:
            value = row[name]
            if (
                value is not None
                and type(value) is not exact
                and not field_type.accepts(value)
            ):
                raise StateError(
                    f"table {self.name!r}: column {name!r} expects "
                    f"{field_type.value}, got {value!r}"
                )
        return row

    def _tally(self, row: Row, sign: int) -> None:
        """Add (``sign`` 1) or take out (-1) ``row`` from the running
        totals of the int columns."""
        for column, total in self._totals.items():
            value = row[column]
            if value is not None:
                total[0] += sign * value
                total[1] += sign

    def aggregate(self, name: str, column: str) -> object:
        """``sum_of``/``min_of``/``max_of``/``avg_of`` of ``column``, the
        one entry generated code calls for a column aggregate.

        An int column's sum and average come from its running total in
        O(1): int arithmetic is exact, so the total equals a fresh sum.
        Every other aggregate scans the rows with the interpreter's
        :func:`~repro.ir.expr_utils.run_column_aggregate`; a float
        column keeps the scan because a running float sum rounds
        differently from a fresh left-to-right one.
        """
        total = self._totals.get(column)
        if total is not None:
            if name == "sum_of":
                return total[0]
            if name == "avg_of":
                return total[0] / total[1] if total[1] else None
        # imported here: repro.ir imports this module
        from ..ir.expr_utils import run_column_aggregate

        return run_column_aggregate(name, self, column)

    def contains_key(self, value: object) -> bool:
        """Membership test on the (single-column) key; used by the DSL's
        ``contains(table, value)``."""
        if not self.keyed:
            raise StateError(f"contains() on unkeyed table {self.name!r}")
        if len(self.key_columns) == 1:
            return (value,) in self._by_key
        return any(key[0] == value for key in self._by_key)

    def get(self, *key: object) -> Optional[Row]:
        """Row with the given key values, or None."""
        if not self.keyed:
            raise StateError(f"get() on unkeyed table {self.name!r}")
        return self._by_key.get(tuple(key))

    def lookup(self, key_of: Callable[[], Tuple[object, ...]]) -> Iterable[Row]:
        """The rows a predicate whose leading ``==`` conjuncts pin every
        key column to ``key_of()`` can match, in scan order; generated
        code applies the whole predicate to each.

        That is the one row stored under the key, found with one dict
        lookup (a row stored under a NULL key comes back too, and the
        predicate rejects it: NULL ``==`` anything is false), or none.
        ``key_of`` is not called on an empty table, which a scan would
        not evaluate the predicate on. When the key cannot stand in for
        the comparisons, every row is returned and the predicate faults
        exactly where a scan would: ``key_of`` raised, or no row matched
        and a value's type does not compare with its column's.
        """
        if not self._by_key:
            return ()
        try:
            key = key_of()
        except Exception:
            return self.rows()
        row = self._by_key.get(key)
        if row is not None:
            # equal to a stored key, so every value compares with its
            # column (or is NULL, which compares false without faulting)
            return (row,)
        for value, types in zip(key, self._key_types):
            if value is not None and type(value) not in types:
                return self.rows()
        return ()

    # -- mutations ------------------------------------------------------

    def insert(self, row: Row) -> None:
        row = self._check_row(dict(row))
        previous: Optional[Row] = None
        if self.keyed:
            key = self._key_of(row)
            previous = self._by_key.get(key)
            self._by_key[key] = row
            if previous is not None:
                self._tally(previous, -1)
        else:
            self._rows.append(row)
        self._tally(row, 1)
        if self._delta_log is not None:
            self._delta_log.append(Delta.of("insert", row))
        if self.observer is not None:
            self.observer.on_insert(self, row, previous)

    def insert_values(self, values: Sequence[object]) -> None:
        """Insert a positional row (INSERT INTO ... VALUES)."""
        if len(values) != len(self.columns):
            raise StateError(
                f"table {self.name!r}: {len(values)} values for "
                f"{len(self.columns)} columns"
            )
        self.insert(dict(zip(self.columns, values)))

    def update_where(
        self,
        predicate: Callable[[Row], bool],
        updater: Callable[[Row], Dict[str, object]],
    ) -> int:
        """Apply ``updater`` to each row matching ``predicate``.

        Returns the number of rows changed. Updating key columns is
        rejected (it would silently re-home rows between partitions).
        """
        if self.append_only:
            raise StateError(f"update on append-only table {self.name!r}")
        changed = 0
        for row in list(self.rows()):
            if predicate(row):
                self.update_row(row, updater(row))
                changed += 1
        return changed

    def update_row(self, row: Row, new_values: Dict[str, object]) -> None:
        """Update one row of this table in place: the per-row body of
        :meth:`update_where`, which keyed-lookup code calls directly
        (never on an append-only table). The new row is checked before
        anything is written, so a rejected update leaves the row as it
        was."""
        if any(col in self.key_columns for col in new_values):
            raise StateError(
                f"table {self.name!r}: updating key columns is not allowed"
            )
        after = self._check_row({**row, **new_values})
        before = dict(row) if self.observer is not None else None
        self._tally(row, -1)
        row.update(new_values)
        self._tally(row, 1)
        if self._delta_log is not None:
            self._delta_log.append(Delta.of("update", row))
        if self.observer is not None and before != row:
            self.observer.on_update(self, before, after)

    def delete_where(self, predicate: Callable[[Row], bool]) -> int:
        """Delete rows matching ``predicate``; returns the count. Every
        row is tested before any is deleted, so a predicate that faults
        part-way deletes nothing."""
        if self.append_only:
            raise StateError(f"delete on append-only table {self.name!r}")
        if self.keyed:
            doomed = [row for row in self._by_key.values() if predicate(row)]
            for row in doomed:
                self.delete_row(row)
            return len(doomed)
        matches = [predicate(row) for row in self._rows]
        kept: List[Row] = []
        for row, matched in zip(self._rows, matches):
            if matched:
                self._note_delete(row)
            else:
                kept.append(row)
        removed = len(self._rows) - len(kept)
        self._rows = kept
        return removed

    def delete_row(self, row: Row) -> None:
        """Delete one row of a keyed table: the per-row body of
        :meth:`delete_where`, which keyed-lookup code calls directly
        (never on an append-only table)."""
        del self._by_key[self._key_of(row)]
        self._note_delete(row)

    def _note_delete(self, row: Row) -> None:
        self._tally(row, -1)
        if self._delta_log is not None:
            self._delta_log.append(Delta.of("delete", row))
        if self.observer is not None:
            self.observer.on_delete(self, row)

    def clear(self) -> None:
        self._by_key.clear()
        self._rows.clear()
        for total in self._totals.values():
            total[0] = total[1] = 0

    # -- snapshot / migration --------------------------------------------------

    def snapshot(self) -> List[Row]:
        """Deep-enough copy of all rows (rows are copied, values shared)."""
        return [dict(row) for row in self.rows()]

    def load_snapshot(self, rows: Iterable[Row]) -> None:
        """Replace contents with a snapshot (used when migrating in)."""
        self.clear()
        for row in rows:
            self.insert(row)

    def start_delta_log(self) -> None:
        """Begin recording mutations (phase 1 of live migration)."""
        self._delta_log = []

    def drain_delta_log(self) -> List[Delta]:
        """Stop recording and return the accumulated deltas."""
        if self._delta_log is None:
            raise StateError(f"table {self.name!r}: delta log not started")
        deltas, self._delta_log = self._delta_log, None
        return deltas

    def apply_deltas(self, deltas: Iterable[Delta]) -> None:
        """Replay deltas captured on another instance."""
        for delta in deltas:
            row = delta.as_row()
            if delta.op in ("insert", "update"):
                self.insert(row)  # keyed insert is an upsert
            elif delta.op == "delete":
                if self.keyed:
                    removed = self._by_key.pop(self._key_of(row), None)
                else:
                    try:
                        removed = self._rows.pop(self._rows.index(row))
                    except ValueError:
                        removed = None
                if removed is not None:
                    self._tally(removed, -1)
            else:
                raise StateError(f"unknown delta op {delta.op!r}")

    # -- split / merge (paper §5.2) ----------------------------------------

    def split(self, ways: int) -> List["StateTable"]:
        """Partition a keyed table into ``ways`` disjoint tables by key
        hash. Bag and append-only tables are split round-robin (their rows
        carry no affinity)."""
        if ways <= 0:
            raise StateError("split ways must be positive")
        parts = [StateTable(self.decl) for _ in range(ways)]
        if self.keyed:
            for key, row in self._by_key.items():
                index = _stable_key_hash(key) % ways
                parts[index].insert(dict(row))
        else:
            for row, part in zip(self._rows, itertools.cycle(parts)):
                part.insert(dict(row))
        return parts

    @classmethod
    def merge(cls, decl: StateDecl, tables: Sequence["StateTable"]) -> "StateTable":
        """Union the contents of several instances into one.

        For keyed tables, duplicate keys resolve last-writer-wins in the
        order given (callers pass instances oldest-first).
        """
        merged = cls(decl)
        for table in tables:
            if table.name != decl.name:
                raise StateError(
                    f"cannot merge table {table.name!r} into {decl.name!r}"
                )
            for row in table.rows():
                merged.insert(dict(row))
        return merged

    def partition_key_for(self, row: Row) -> int:
        """Stable hash of a row's key (router side of a split table)."""
        if not self.keyed:
            raise StateError(f"table {self.name!r} has no key")
        return _stable_key_hash(self._key_of(row))


class StateStore:
    """All state of one element replica: its tables plus scalar vars."""

    def __init__(self, decls: Sequence[StateDecl], variables: Dict[str, object]):
        self.tables: Dict[str, StateTable] = {
            decl.name: StateTable(decl) for decl in decls
        }
        self.vars: Dict[str, object] = dict(variables)

    def table(self, name: str) -> StateTable:
        try:
            return self.tables[name]
        except KeyError:
            raise StateError(f"unknown state table {name!r}") from None

    def snapshot(self) -> Dict[str, object]:
        """Full state snapshot: tables and vars."""
        return {
            "tables": {name: t.snapshot() for name, t in self.tables.items()},
            "vars": dict(self.vars),
        }

    def load_snapshot(self, snapshot: Dict[str, object]) -> None:
        for name, rows in snapshot["tables"].items():  # type: ignore[union-attr]
            self.table(name).load_snapshot(rows)
        self.vars.update(snapshot["vars"])  # type: ignore[arg-type]


# -- shadow sanitizer (exactly-once / divergence checking) -----------------
#
# The static side proves per-mutation-site idempotence and replica
# convergence: the effect and refined-replication folds over each
# element's state-access summary (repro.ir.state_access, cached on its
# ElementAnalysis), reported by the ADN700 rule family. The sanitizer is
# the dynamic half of that contract: attached to element replicas during
# chaos/overload trials, it watches every state mutation with its RPC
# context and flags
#
# * **duplicate non-idempotent application** (maps to ADN700): a second
#   attempt of one logical RPC — attempts share an ``rpc_id`` — changed
#   state a prior attempt already changed, and the change is neither an
#   idempotent re-apply (same row content) nor rpc_id-keyed (dedup-able
#   downstream);
# * **cross-replica divergence** (maps to ADN702): replicas of one element
#   instance disagree on read-modify-write state after the trial.
#
# Chains the analysis proves clean must run sanitizer-silent; every
# violation the sanitizer raises must map to a static ADN700-family
# finding (tests/test_sanitizer.py pins both directions).


@dataclass(frozen=True)
class SanitizerViolation:
    """One dynamic exactly-once/divergence violation."""

    rule: str  # the static rule family it maps to: "ADN700" | "ADN702"
    element: str
    target: str  # "table:<name>" or "var:<name>"
    detail: str
    rpc_id: object = None
    attempt: int = 0
    tag: str = ""  # replica tag that observed it

    def describe(self) -> str:
        where = f"{self.element}/{self.target}"
        if self.rule == "ADN702":
            return f"[{self.rule}] {where}: {self.detail}"
        return (
            f"[{self.rule}] {where}: attempt {self.attempt} of rpc "
            f"{self.rpc_id!r} — {self.detail}"
        )


class _TableObserver:
    """Binds one table's mutation stream to the sanitizer with its
    replica identity (element, instance group, tag)."""

    def __init__(self, sanitizer: "StateSanitizer", element: str, instance: str, tag: str):
        self._sanitizer = sanitizer
        self._element = element
        self._instance = instance
        self._tag = tag

    def on_insert(self, table: StateTable, row: Row, previous: Optional[Row]) -> None:
        if table.keyed and previous == row:
            return  # idempotent re-apply: the upsert changed nothing
        self._sanitizer._on_mutation(
            element=self._element,
            tag=self._tag,
            target=f"table:{table.name}",
            rmw=False,
            rpc_keyable=True,
            values=tuple(row.values()),
            detail=(
                f"duplicate append to table {table.name!r} without an "
                "rpc_id column (a retry double-records)"
                if not table.keyed
                else f"duplicate keyed insert into table {table.name!r} "
                "wrote different content (non-idempotent set)"
            ),
        )

    def on_update(self, table: StateTable, before: Row, after: Row) -> None:
        self._sanitizer._on_mutation(
            element=self._element,
            tag=self._tag,
            target=f"table:{table.name}",
            rmw=True,
            rpc_keyable=False,
            values=(),
            detail=(
                f"duplicate update of table {table.name!r} changed a row "
                f"again ({before} -> {after}); the update is not "
                "idempotent under retries"
            ),
        )

    def on_delete(self, table: StateTable, row: Row) -> None:
        self._sanitizer._on_mutation(
            element=self._element,
            tag=self._tag,
            target=f"table:{table.name}",
            rmw=True,
            rpc_keyable=False,
            values=(),
            detail=(
                f"duplicate delete from table {table.name!r} removed "
                "rows again on a retried attempt"
            ),
        )


class _SanitizedVars(dict):
    """Var dict that notifies the sanitizer on every value change.

    Compiled element modules hold a direct reference to their var dict
    (``_vars[name] = value``), so the sanitizer swaps this subclass in
    on both the store and the instance when attaching.
    """

    def __init__(self, data: Dict[str, object], sanitizer: "StateSanitizer",
                 element: str, instance: str, tag: str):
        super().__init__(data)
        self._sanitizer = sanitizer
        self._element = element
        self._instance = instance
        self._tag = tag

    def __setitem__(self, key: str, value: object) -> None:
        changed = key not in self or self[key] != value
        super().__setitem__(key, value)
        if changed:
            self._sanitizer._on_mutation(
                element=self._element,
                tag=self._tag,
                target=f"var:{key}",
                rmw=True,
                rpc_keyable=False,
                values=(),
                detail=(
                    f"duplicate write to var {key!r} changed its value "
                    "again on a retried attempt"
                ),
            )


class StateSanitizer:
    """Shadow checker recording (rpc_id, mutation-site, key) at runtime.

    Wiring (see :mod:`repro.runtime.mrpc`): the stack calls
    :meth:`note_attempt` once per attempt entering ``call_raw`` (attempts
    of one logical RPC share an ``rpc_id``), processors bracket element
    execution with :meth:`enter` / :meth:`exit` so mutations carry their
    RPC context, and :meth:`attach` hooks an element replica's tables and
    vars. :meth:`check_divergence` compares replicas of one element
    instance after a trial.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.violations: List[SanitizerViolation] = []
        #: (scope, rpc_id) -> attempts seen at the stack boundary. The
        #: scope is the issuing stack's identity: each stack's retry
        #: wrapper numbers rpc_ids from the same base, so two edges can
        #: reuse one id value for unrelated logical calls
        self._attempts: Dict[Tuple[str, object], int] = {}
        #: active rpc context: (scope, rpc_id, attempt) or None
        self._ctx: Optional[Tuple[str, object, int]] = None
        #: ((scope, rpc_id), element, target) -> attempts that changed it
        self._mutated: Dict[Tuple[Tuple[str, object], str, str], Set[int]] = {}
        #: (element, target) mutated read-modify-write style at runtime —
        #: the only targets the divergence check compares (append logs
        #: and partitioned caches legitimately differ per replica)
        self._rmw_targets: Set[Tuple[str, str]] = set()
        #: attached replicas: (element, instance, tag) -> StateStore
        self._stores: Dict[Tuple[str, str, str], "StateStore"] = {}
        self.retries_observed = 0

    # -- wiring --------------------------------------------------------------

    def attach(self, store: "StateStore", element: str,
               instance: str = "", tag: str = "",
               module: Optional[object] = None) -> None:
        """Hook one element replica's state. ``instance`` groups true
        replicas of one deployment (replicas share it, independent
        per-edge instances do not); ``tag`` names the replica. Pass the
        compiled ``module`` too so its direct var-dict reference is
        swapped along with the store's."""
        self._stores[(element, instance, tag)] = store
        for table in store.tables.values():
            table.observer = _TableObserver(self, element, instance, tag)
        if not isinstance(store.vars, _SanitizedVars):
            store.vars = _SanitizedVars(store.vars, self, element, instance, tag)
        if module is not None:
            module.vars = store.vars  # type: ignore[attr-defined]

    def detach(self, element: str, instance: str = "", tag: str = "") -> None:
        """Unhook one replica (e.g. a processor superseded by a failover
        re-plan) so its frozen state never enters the divergence check."""
        store = self._stores.pop((element, instance, tag), None)
        if store is not None:
            for table in store.tables.values():
                table.observer = None

    def note_attempt(self, rpc_id: object, scope: str = "") -> int:
        """Record one attempt entering a stack's raw path; returns its
        index (attempt 2+ of a (scope, rpc_id) is a duplicate
        execution). ``scope`` names the issuing stack."""
        key = (scope, rpc_id)
        count = self._attempts.get(key, 0) + 1
        self._attempts[key] = count
        return count

    def note_retry(self, rpc_id: object) -> None:
        """A retry filter re-issued this rpc_id (telemetry cross-check)."""
        self.retries_observed += 1

    def enter(self, rpc_id: object, scope: str = "") -> None:
        """Begin element execution for ``rpc_id`` (synchronous section)."""
        if rpc_id is None:
            self._ctx = None
            return
        self._ctx = (scope, rpc_id, self._attempts.get((scope, rpc_id), 1))

    def exit(self) -> None:
        self._ctx = None

    def reset(self) -> None:
        """Clear per-trial records (violations, attempts, mutation log);
        attached stores stay attached."""
        self.violations = []
        self._attempts = {}
        self._ctx = None
        self._mutated = {}
        self._rmw_targets = set()
        self.retries_observed = 0

    # -- mutation stream -----------------------------------------------------

    def _on_mutation(self, element: str, tag: str, target: str, rmw: bool,
                     rpc_keyable: bool, values: Tuple[object, ...],
                     detail: str) -> None:
        if not self.enabled:
            return
        if rmw:
            self._rmw_targets.add((element, target))
        if self._ctx is None:
            return  # init / migration / controller mutation: no rpc context
        scope, rpc_id, attempt = self._ctx
        if rpc_keyable and rpc_id in values:
            # the written row records the rpc_id: duplicates are
            # dedup-able downstream — exactly the static rpc_keyed proof
            return
        site = ((scope, rpc_id), element, target)
        earlier = self._mutated.setdefault(site, set())
        duplicate = any(prior != attempt for prior in earlier)
        earlier.add(attempt)
        if duplicate:
            self.violations.append(
                SanitizerViolation(
                    rule="ADN700",
                    element=element,
                    target=target,
                    detail=detail,
                    rpc_id=rpc_id,
                    attempt=attempt,
                    tag=tag,
                )
            )

    # -- post-trial divergence check ----------------------------------------

    def check_divergence(self) -> List[SanitizerViolation]:
        """Compare replicas of each element instance on the targets that
        were RMW-mutated at runtime; appends (and returns) ADN702-family
        violations for replicas that disagree."""
        found: List[SanitizerViolation] = []
        groups: Dict[Tuple[str, str], List[Tuple[str, "StateStore"]]] = {}
        for (element, instance, tag), store in self._stores.items():
            groups.setdefault((element, instance), []).append((tag, store))
        for (element, instance), replicas in sorted(groups.items()):
            if len({tag for tag, _ in replicas}) < 2:
                continue
            targets = sorted(
                target for (elem, target) in self._rmw_targets
                if elem == element
            )
            for target in targets:
                kind, name = target.split(":", 1)
                disagreement = self._replica_disagreement(
                    kind, name, replicas
                )
                if disagreement is None:
                    continue
                found.append(
                    SanitizerViolation(
                        rule="ADN702",
                        element=element,
                        target=target,
                        detail=(
                            f"replicas of instance {instance or element!r} "
                            f"diverged: {disagreement}"
                        ),
                    )
                )
        self.violations.extend(found)
        return found

    @staticmethod
    def _replica_disagreement(
        kind: str, name: str, replicas: List[Tuple[str, "StateStore"]]
    ) -> Optional[str]:
        if kind == "var":
            values = [(tag, store.vars.get(name)) for tag, store in replicas]
            if len({repr(value) for _, value in values}) > 1:
                return f"var {name!r} = " + ", ".join(
                    f"{value!r} on {tag!r}" for tag, value in values
                )
            return None
        # table: keyed tables disagree when a key present on several
        # replicas maps to different rows; bags compare as multisets
        keyed = all(
            name in store.tables and store.tables[name].keyed
            for _, store in replicas
        )
        if keyed:
            by_tag = {
                tag: {
                    tuple(row[col] for col in store.tables[name].key_columns):
                    tuple(sorted(row.items()))
                    for row in store.tables[name].rows()
                }
                for tag, store in replicas
            }
            tags = sorted(by_tag)
            for i, tag_a in enumerate(tags):
                for tag_b in tags[i + 1:]:
                    shared = set(by_tag[tag_a]) & set(by_tag[tag_b])
                    for key in sorted(shared, key=repr):
                        if by_tag[tag_a][key] != by_tag[tag_b][key]:
                            return (
                                f"table {name!r} key {key!r}: "
                                f"{dict(by_tag[tag_a][key])} on {tag_a!r} vs "
                                f"{dict(by_tag[tag_b][key])} on {tag_b!r}"
                            )
            return None
        contents = {
            tag: sorted(
                (tuple(sorted(row.items())) for row in store.tables[name].rows()),
                key=repr,
            )
            for tag, store in replicas
            if name in store.tables
        }
        if len({repr(rows) for rows in contents.values()}) > 1:
            return f"table {name!r} contents differ across replicas"
        return None
