"""Reference interpreter for element IR.

This is the executable semantics of the DSL: the Python backend's
generated code, the eBPF/P4 models, and every optimization pass are all
tested against it (differential testing). It is also used directly as the
execution engine for data-plane processors in the simulator.

Rows are dictionaries. Input-tuple fields use plain string keys; columns
joined in from state tables use ``(table, column)`` tuple keys, so the
two namespaces cannot collide and emitted tuples are recovered by
dropping tuple keys.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..dsl.functions import DEFAULT_REGISTRY, FunctionRegistry
from ..errors import RuntimeFault
from ..state.table import StateStore, StateTable
from .expr_utils import EvalEnv, evaluate, truthy
from .nodes import (
    AdvanceInput,
    AssignVar,
    DeleteRows,
    ElementIR,
    EmitRows,
    FilterRows,
    HandlerIR,
    InsertLiterals,
    InsertRows,
    JoinState,
    Project,
    Scan,
    StatementIR,
    UpdateRows,
)

Row = Dict[str, object]


class ElementInstance:
    """One running replica of a compiled element, with its own state.

    ``process(tuple, kind)`` implements the paper's element contract
    (§5.1): consume one RPC tuple, read/write internal state, and produce
    zero or more output tuples.
    """

    def __init__(
        self,
        ir: ElementIR,
        registry: Optional[FunctionRegistry] = None,
        on_func_call: Optional[Callable] = None,
    ):
        self.ir = ir
        self.registry = registry or DEFAULT_REGISTRY
        self.on_func_call = on_func_call
        initial_vars = {decl.name: decl.init.value for decl in ir.vars}
        self.state = StateStore(ir.states, initial_vars)
        #: members completed before a fused element's internal drop
        self.fused_progress = 0
        self._run_init()

    # -- lifecycle -----------------------------------------------------------

    def _run_init(self) -> None:
        for stmt in self.ir.init:
            self._execute_statement(stmt, input_row=None)

    def clone_fresh(self) -> "ElementInstance":
        """A new instance with freshly initialized state (scale-out of
        stateless or re-initializable elements)."""
        return ElementInstance(self.ir, self.registry, self.on_func_call)

    # -- the element contract ---------------------------------------------

    def process(self, rpc: Row, kind: str) -> List[Row]:
        """Run the ``on <kind>`` handler over one RPC tuple.

        Returns emitted tuples: ``[]`` means the element dropped the RPC,
        more than one means fan-out (e.g. mirroring).
        """
        handler = self.ir.handler(kind)
        if handler is None:
            # No handler for this direction: forward unchanged.
            return [dict(rpc)]
        return self._run_handler(handler, rpc)

    def _run_handler(self, handler: HandlerIR, rpc: Row) -> List[Row]:
        emitted: List[Row] = []
        self.fused_progress = 0
        current = rpc
        for stmt in handler.statements:
            if len(stmt.ops) == 1 and isinstance(stmt.ops[0], AdvanceInput):
                # fusion seam: previous member's single output becomes
                # the next member's input; no output = fused drop
                if not emitted:
                    return []
                current = emitted[0]
                emitted = []
                self.fused_progress += 1
                continue
            emitted.extend(self._execute_statement(stmt, input_row=current))
        return emitted

    # -- statement execution ----------------------------------------------

    def _env(self, row: Row) -> EvalEnv:
        return EvalEnv(
            row=row,
            vars=self.state.vars,
            tables=self.state.tables,
            registry=self.registry,
            on_func_call=self.on_func_call,
        )

    def _execute_statement(
        self, stmt: StatementIR, input_row: Optional[Row]
    ) -> List[Row]:
        rows: List[Row] = []
        for op in stmt.ops:
            if isinstance(op, Scan):
                if input_row is None:
                    raise RuntimeFault("Scan outside a handler")
                rows = [dict(input_row)]
            elif isinstance(op, JoinState):
                rows = self._join(rows, op)
            elif isinstance(op, FilterRows):
                rows = [
                    row
                    for row in rows
                    if truthy(evaluate(op.predicate, self._env(row)))
                ]
            elif isinstance(op, Project):
                rows = [self._project(row, op) for row in rows]
            elif isinstance(op, EmitRows):
                return [
                    {k: v for k, v in row.items() if isinstance(k, str)}
                    for row in rows
                ]
            elif isinstance(op, InsertRows):
                table = self.state.table(op.table)
                for row in rows:
                    table.insert(
                        {k: v for k, v in row.items() if isinstance(k, str)}
                    )
            elif isinstance(op, InsertLiterals):
                table = self.state.table(op.table)
                for values in op.rows:
                    table.insert_values(values)
            elif isinstance(op, UpdateRows):
                self._update(op, input_row or {})
            elif isinstance(op, DeleteRows):
                self._delete(op, input_row or {})
            elif isinstance(op, AssignVar):
                self._assign(op, input_row or {})
            else:
                raise RuntimeFault(f"unknown op {op!r}")
        return []

    def _join(self, rows: List[Row], op: JoinState) -> List[Row]:
        table = self.state.table(op.table)
        joined: List[Row] = []
        for row in rows:
            for state_row in table.rows():
                candidate = dict(row)
                for column, value in state_row.items():
                    candidate[(op.table, column)] = value
                if truthy(evaluate(op.on, self._env(candidate))):
                    joined.append(candidate)
        return joined

    def _project(self, row: Row, op: Project) -> Row:
        output: Row = {}
        if op.keep_input:
            output.update({k: v for k, v in row.items() if isinstance(k, str)})
        for table in op.star_tables:
            for key, value in row.items():
                if isinstance(key, tuple) and key[0] == table:
                    output[key[1]] = value
        env = self._env(row)
        for name, expr in op.items:
            output[name] = evaluate(expr, env)
        # keep joined columns visible to later pipeline stages
        for key, value in row.items():
            if isinstance(key, tuple) and key not in output:
                output[key] = value
        return output

    def _row_env(self, table: StateTable, state_row: Row, input_row: Row) -> EvalEnv:
        combined: Row = dict(input_row)
        for column, value in state_row.items():
            combined[(table.name, column)] = value
        return self._env(combined)

    def _update(self, op: UpdateRows, input_row: Row) -> None:
        table = self.state.table(op.table)

        def predicate(state_row: Row) -> bool:
            if op.where is None:
                return True
            return truthy(
                evaluate(op.where, self._row_env(table, state_row, input_row))
            )

        def updater(state_row: Row) -> Dict[str, object]:
            env = self._row_env(table, state_row, input_row)
            return {col: evaluate(expr, env) for col, expr in op.assignments}

        table.update_where(predicate, updater)

    def _delete(self, op: DeleteRows, input_row: Row) -> None:
        table = self.state.table(op.table)

        def predicate(state_row: Row) -> bool:
            if op.where is None:
                return True
            return truthy(
                evaluate(op.where, self._row_env(table, state_row, input_row))
            )

        table.delete_where(predicate)

    def _assign(self, op: AssignVar, input_row: Row) -> None:
        env = self._env(dict(input_row))
        if op.where is not None and not truthy(evaluate(op.where, env)):
            return
        self.state.vars[op.var] = evaluate(op.expr, env)


class ChainExecutor:
    """Execute a whole element chain over RPC tuples.

    Requests traverse the chain in order; responses traverse it reversed
    (the receiver-side element runs first on the way back), matching the
    runtime's dispatch. This is the reference semantics the translation
    validator replays rewritten chains against, and is also handy in
    tests that want chain-level behaviour without a simulator.
    """

    def __init__(
        self,
        elements: List[ElementIR],
        registry: Optional[FunctionRegistry] = None,
    ):
        self.instances = [ElementInstance(ir, registry) for ir in elements]

    def process(self, rpc: Row, kind: str) -> List[Row]:
        """All tuples leaving the far end of the chain for one RPC
        (``[]`` when some element dropped it; >1 on fan-out)."""
        ordered = (
            self.instances
            if kind == "request"
            else list(reversed(self.instances))
        )
        rows = [dict(rpc)]
        for instance in ordered:
            next_rows: List[Row] = []
            for row in rows:
                next_rows.extend(instance.process(row, kind))
            rows = next_rows
            if not rows:
                return []
        return rows

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-element state snapshots, keyed by element name."""
        return {
            instance.ir.name: instance.state.snapshot()
            for instance in self.instances
        }
