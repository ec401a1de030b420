"""Crash-survivable state checkpoints (repro.faults).

Live migration (:mod:`repro.state.migration`) assumes a *cooperating*
source: the flip drains the source's delta log directly. A crashed
machine cannot cooperate — whatever sat only in its memory is gone. The
:class:`Checkpointer` therefore keeps a **warm standby** of watched
element state on the controller side, continuously and off the critical
path:

1. every ``stream_interval_s`` it drains each watched table's delta log
   and appends the deltas to a controller-side *pending backlog* (this
   is the paper §5.2 delta log, pointed at a remote sink);
2. every ``fold_every`` streams it folds the backlog into the shadow
   table (a background cost, not a blackout).

On recovery, :meth:`restore` materializes shadow + backlog into the
replacement instance. The blackout pays **only the backlog replay and a
fixed flip** — never a table-size-proportional copy, because the shadow
was already resident before the crash. That is the §5.2 disruption
property, extended to crashes; ``benchmarks/test_recovery.py`` pins it.

Writes after the last stream tick were never off the machine and are
honestly lost (``tail_writes_lost`` counts the detected cases).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from typing import Callable

from ..errors import StateError
from .table import Delta, StateTable


@dataclass
class CheckpointTiming:
    """Cost parameters (microseconds), matched to MigrationTiming."""

    per_delta_stream_us: float = 0.1  # background: ship one delta out
    per_delta_fold_us: float = 0.2  # background: fold into the shadow
    per_delta_replay_us: float = 0.3  # blackout: replay on the target
    flip_fixed_us: float = 50.0  # blackout: routing switch propagation


@dataclass
class RestoreReport:
    """What one restore recovered and what the blackout paid for it."""

    element: str
    rows_restored: int = 0
    deltas_replayed: int = 0
    restore_s: float = 0.0


@dataclass
class _Watch:
    """Controller-side standby for one element's StateStore."""

    store: object  # StateStore
    #: shadow tables (folded standby copy), by table name
    shadow: Dict[str, StateTable] = field(default_factory=dict)
    #: streamed-but-not-yet-folded deltas, by table name
    pending: Dict[str, List[Delta]] = field(default_factory=dict)
    #: last streamed copy of the element's scalar vars
    vars: Dict[str, object] = field(default_factory=dict)
    #: reachability of the hosting machine; None = always reachable
    live_of: Optional[Callable[[], bool]] = None
    streams_since_fold: int = 0
    deltas_streamed: int = 0

    @property
    def live(self) -> bool:
        return self.live_of() if self.live_of is not None else True


class Checkpointer:
    """Streams delta logs of watched elements to a warm standby.

    Run :meth:`run` as a simulation process alongside the workload; on a
    crash, the orchestrator calls :meth:`restore` against the
    replacement instance's store and then :meth:`retarget` so streaming
    continues from the new instance.
    """

    def __init__(
        self,
        sim,
        stream_interval_s: float = 0.005,
        fold_every: int = 4,
        timing: Optional[CheckpointTiming] = None,
    ):
        self.sim = sim
        self.stream_interval_s = stream_interval_s
        self.fold_every = max(1, fold_every)
        self.timing = timing or CheckpointTiming()
        self._watches: Dict[str, _Watch] = {}
        self.tail_writes_lost = 0

    # -- registration -------------------------------------------------------

    def watch(self, element: str, store, live_of=None) -> None:
        """Start protecting an element's state. The current contents
        become the initial shadow (a bootstrap copy, paid nowhere: in a
        real system this rides the initial code push). ``live_of`` is an
        optional ``() -> bool`` for the hosting machine's reachability —
        a dead host's delta log cannot be drained."""
        watch = _Watch(store=store, live_of=live_of)
        for name, table in store.tables.items():
            shadow = StateTable(table.decl)
            shadow.load_snapshot(table.snapshot())
            watch.shadow[name] = shadow
            watch.pending[name] = []
            table.start_delta_log()
        watch.vars = dict(store.vars)
        self._watches[element] = watch

    def retarget(self, element: str, store, live_of=None) -> None:
        """Point an existing watch at a replacement instance (after
        recovery): its restored contents are the new shadow baseline."""
        if element not in self._watches:
            raise StateError(f"no checkpoint watch for element {element!r}")
        self.watch(element, store, live_of=live_of)

    def watches(self, element: str) -> bool:
        """Whether ``element``'s state streams to the warm standby."""
        return element in self._watches

    def backlog(self, element: str) -> int:
        """Deltas that a restore right now would have to replay."""
        watch = self._watch(element)
        return sum(len(deltas) for deltas in watch.pending.values())

    def _watch(self, element: str) -> _Watch:
        try:
            return self._watches[element]
        except KeyError:
            raise StateError(
                f"no checkpoint watch for element {element!r}"
            ) from None

    # -- the streaming process ----------------------------------------------

    def stream_once(self) -> Generator:
        """One streaming tick over every watch: drain delta logs into
        the pending backlog, fold on cadence. An unreachable source
        (its ``live_of`` says down) is skipped — you cannot read a dead
        host's memory — but folding of already-streamed deltas
        continues."""
        for watch in self._watches.values():
            streamed = 0
            if watch.live:
                for name, table in watch.store.tables.items():
                    deltas = table.drain_delta_log()
                    table.start_delta_log()
                    watch.pending[name].extend(deltas)
                    streamed += len(deltas)
                watch.vars = dict(watch.store.vars)
            watch.deltas_streamed += streamed
            if streamed:
                yield streamed * self.timing.per_delta_stream_us * 1e-6
            watch.streams_since_fold += 1
            if watch.streams_since_fold >= self.fold_every:
                watch.streams_since_fold = 0
                folded = 0
                for name, deltas in watch.pending.items():
                    watch.shadow[name].apply_deltas(deltas)
                    folded += len(deltas)
                    deltas.clear()
                if folded:
                    yield folded * self.timing.per_delta_fold_us * 1e-6

    def run(self, duration_s: float) -> Generator:
        """Simulation process: stream on the configured interval."""
        deadline = self.sim.now + duration_s
        while self.sim.now < deadline:
            yield float(self.stream_interval_s)
            yield from self.stream_once()

    # -- crash handling ------------------------------------------------------

    def mark_crashed(self, element: str) -> int:
        """The source machine just died: deltas still in its in-memory
        log never reached us and are lost. Returns how many (observable
        here only because this is a simulation — a real controller
        would not know)."""
        watch = self._watch(element)
        lost = 0
        for table in watch.store.tables.values():
            try:
                lost += len(table.drain_delta_log())
            except StateError:
                pass  # log not running — nothing was pending
        self.tail_writes_lost += lost
        return lost

    def restore(self, element: str, target_store) -> Generator:
        """Simulation process, run *inside the blackout*: materialize
        shadow + pending backlog into ``target_store``. Pays backlog
        replay plus a fixed flip — nothing proportional to table size.
        Returns a :class:`RestoreReport`."""
        watch = self._watch(element)
        report = RestoreReport(element=element)
        started = self.sim.now
        replayed = 0
        for name, shadow in watch.shadow.items():
            pending = watch.pending[name]
            target = target_store.table(name)
            target.load_snapshot(shadow.rows())
            target.apply_deltas(pending)
            report.rows_restored += len(target)
            replayed += len(pending)
        target_store.vars.update(watch.vars)
        report.deltas_replayed = replayed
        blackout_s = (
            replayed * self.timing.per_delta_replay_us
            + self.timing.flip_fixed_us
        ) * 1e-6
        yield blackout_s
        report.restore_s = self.sim.now - started
        return report
