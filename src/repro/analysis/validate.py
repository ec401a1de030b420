"""Per-pass translation validation (the compiler checks its own work).

After every optimizer pass, the rewritten chain is checked against the
pre-pass chain three ways:

1. **Structural certificates** — a reorder must be reachable through
   commuting adjacent swaps (every inverted pair must commute); a
   parallelization's stages must be an order-preserving partition of the
   chain.
2. **Abstract agreement** — the type checker's final request/response
   environments must stay compatible on every schema and meta field
   (a pass may drop *derived* fields, never change the type of a wire
   field).
3. **Concolic differential execution** — both chains run on a bounded
   set of schema-derived exemplar messages (typical and edge values per
   field, extended with literals mined from the chain's own predicates)
   through the reference interpreter; emitted tuples (projected onto
   schema+meta fields), fault outcomes, and canonicalized state
   snapshots must match exactly.

Nondeterminism is pinned: before the init blocks run and before each
message, ``rand()`` is re-seeded and ``now()`` bound to a constant,
identically for both runs, so a legal rewrite cannot diverge through
the RNG or the clock.

In a pipeline, pass k+1's before chain is pass k's after chain. A
verdict therefore carries what it computed about its after chain as
:class:`ChainFacts`, and the next verdict takes them as its before side
instead of type-checking that chain again and, when it mines the same
exemplar messages, instead of replaying it again. The after side is
always computed afresh, so a broken pass still fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..dsl.ast_nodes import FuncCall, Literal
from ..dsl.functions import DEFAULT_REGISTRY, FunctionRegistry
from ..dsl.schema import META_FIELDS, FieldType, RpcSchema
from ..dsl.span import Span
from ..errors import AdnError
from ..ir.expr_utils import walk
from ..ir.interp import ChainExecutor
from ..ir.nodes import ElementIR, statement_exprs
from ..ir.passes.parallelize import stages_partition
from ..ir.passes.reorder import inversions
from .domains import compatible
from .typecheck import ChainTypeReport, check_chain

#: exemplar messages per validation (typical + edge per field, wrapped)
DEFAULT_MESSAGE_COUNT = 5

#: cap on mined literals folded into the exemplar value pools
_LITERAL_POOL_CAP = 4

#: the calls a replay pins before each message (``_pin_nondeterminism``)
_PINNED_CALLS = frozenset({"now", "rand"})


@dataclass(frozen=True)
class ChainFacts:
    """What a verdict computed about one chain: its type report and the
    exemplar messages it replayed the chain on, with the trace when a
    second replay would give the same one (``None`` otherwise). They
    hold for exactly these element objects, under the schema and
    registry of the verdict that computed them."""

    elements: Tuple[ElementIR, ...]
    types: ChainTypeReport
    messages: Tuple[Dict[str, object], ...]
    trace: Optional[List[object]]

    def describes(self, elements: Sequence[ElementIR]) -> bool:
        return len(self.elements) == len(elements) and all(
            a is b for a, b in zip(self.elements, elements)
        )


@dataclass(frozen=True)
class ValidationVerdict:
    """The translation validator's answer for one pass application.

    ``ok`` is ``None`` when validation could not run (no schema to derive
    exemplars from) — the pass is neither vindicated nor condemned.
    ``facts`` describe the after chain, for the next pass's verdict.
    """

    ok: Optional[bool]
    checked_messages: int = 0
    counterexample: str = ""
    span: Optional[Span] = None
    notes: Tuple[str, ...] = ()
    facts: Optional[ChainFacts] = field(
        default=None, compare=False, repr=False
    )


def validate_rewrite(
    before: Sequence[ElementIR],
    after: Sequence[ElementIR],
    schema: Optional[RpcSchema],
    registry: Optional[FunctionRegistry] = None,
    pass_name: str = "",
    stages: Sequence[Tuple[str, ...]] = (),
    facts: Optional[ChainFacts] = None,
) -> ValidationVerdict:
    """Check that ``after`` preserves the semantics of ``before``.

    ``facts`` that describe ``before`` (the previous verdict's, in a
    pipeline over one schema and registry) stand in for its type check,
    and for its replay when the exemplar messages are the same."""
    registry = registry or DEFAULT_REGISTRY
    before = list(before)
    after = list(after)
    if facts is not None and not facts.describes(before):
        facts = None

    # structural certificates first: they need no schema
    if stages and not stages_partition(
        stages, [element.name for element in after]
    ):
        return ValidationVerdict(
            ok=False,
            counterexample=(
                f"stages {list(stages)!r} are not an order-preserving "
                "partition of the chain"
            ),
        )
    flipped = inversions(
        [element.name for element in before],
        [element.name for element in after],
    )
    if flipped:
        from ..ir.dependency import commute

        analyses = {element.name: element.analysis for element in after}
        for first, second in flipped:
            a, b = analyses.get(first), analyses.get(second)
            if a is None or b is None or not commute(a, b):
                return ValidationVerdict(
                    ok=False,
                    counterexample=(
                        f"reorder swapped {first!r} past {second!r} but the "
                        "pair does not commute"
                    ),
                )

    if _chains_equal(before, after):
        return ValidationVerdict(
            ok=True,
            notes=("structurally identical; nothing to replay",),
            facts=(
                facts if facts is not None and facts.describes(after) else None
            ),
        )

    if schema is None:
        return ValidationVerdict(
            ok=None, notes=("no schema: cannot derive exemplar messages",)
        )

    # abstract agreement on the wire environment
    env_before = (
        facts.types if facts is not None
        else check_chain(before, schema, registry)
    )
    env_after = check_chain(after, schema, registry)
    wire_fields = list(schema.fields) + list(META_FIELDS)
    for direction, a_env, b_env in (
        ("request", env_before.request_env, env_after.request_env),
        ("response", env_before.response_env, env_after.response_env),
    ):
        if a_env is None or b_env is None:
            if (a_env is None) != (b_env is None):
                return ValidationVerdict(
                    ok=False,
                    counterexample=(
                        f"{direction} direction: one chain can emit, the "
                        "other provably cannot"
                    ),
                    span=_divergence_span(before, after),
                )
            continue
        for field_name in wire_fields:
            in_a, in_b = field_name in a_env, field_name in b_env
            if in_a != in_b:
                return ValidationVerdict(
                    ok=False,
                    counterexample=(
                        f"{direction} direction: wire field {field_name!r} "
                        f"{'dropped' if in_a else 'materialized'} by "
                        f"{pass_name or 'the pass'}"
                    ),
                    span=_divergence_span(before, after),
                )
            if in_a and not compatible(a_env[field_name], b_env[field_name]):
                return ValidationVerdict(
                    ok=False,
                    counterexample=(
                        f"{direction} direction: abstract type of "
                        f"{field_name!r} diverged"
                    ),
                    span=_divergence_span(before, after),
                )

    # concolic differential execution
    messages = schema.exemplar_messages(
        count=DEFAULT_MESSAGE_COUNT,
        literal_pool=_mine_literals(before),
    )
    # repr tells apart values == does not (1, 1.0 and True; 0.0 and -0.0)
    if (
        facts is not None
        and facts.trace is not None
        and repr(facts.messages) == repr(messages)
    ):
        trace_before = facts.trace
    else:
        trace_before = _run_trace(before, messages, schema, registry)
    trace_after = _run_trace(after, messages, schema, registry)
    after_facts = ChainFacts(
        elements=tuple(after),
        types=env_after,
        messages=messages,
        trace=trace_after if _replays_alike(after, registry) else None,
    )
    divergence = _first_divergence(trace_before, trace_after, messages)
    if divergence is not None:
        return ValidationVerdict(
            ok=False,
            checked_messages=len(messages),
            counterexample=divergence,
            span=_divergence_span(before, after),
            facts=after_facts,
        )
    return ValidationVerdict(
        ok=True,
        checked_messages=len(messages),
        notes=(f"replayed {len(messages)} exemplar message(s): identical",),
        facts=after_facts,
    )


# -- structural identity -------------------------------------------------


def _chains_equal(
    before: Sequence[ElementIR], after: Sequence[ElementIR]
) -> bool:
    if len(before) != len(after):
        return False
    for a, b in zip(before, after):
        if (
            a.name != b.name
            or a.states != b.states
            or a.vars != b.vars
            or a.init != b.init
            or a.handlers != b.handlers
        ):
            return False
    return True


# -- exemplar inputs -----------------------------------------------------


def _mine_literals(
    elements: Sequence[ElementIR],
) -> Dict[FieldType, Tuple[object, ...]]:
    """Literals appearing in the chain's own expressions, so predicates
    like ``permission == 'W'`` get driven down both branches."""
    pools: Dict[FieldType, List[object]] = {}
    for element in elements:
        statements = list(element.init)
        for handler in element.handlers.values():
            statements.extend(handler.statements)
        for stmt in statements:
            for expr in statement_exprs(stmt):
                for node in walk(expr):
                    if not isinstance(node, Literal):
                        continue
                    value = node.value
                    field_type = FieldType.of_value(value)
                    if field_type is None:
                        continue
                    pool = pools.setdefault(field_type, [])
                    if value not in pool and len(pool) < _LITERAL_POOL_CAP:
                        pool.append(value)
    return {ft: tuple(values) for ft, values in pools.items()}


# -- differential execution ----------------------------------------------


def _run_trace(
    elements: Sequence[ElementIR],
    messages: Sequence[Dict[str, object]],
    schema: RpcSchema,
    registry: FunctionRegistry,
) -> List[object]:
    """Replay the exemplar messages through a chain, recording every
    observable: projected outputs, fault outcomes, response-path
    outputs, and the final canonical state."""
    wire_fields = set(schema.fields) | set(META_FIELDS)
    saved_rng, saved_clock = registry.rng, registry._clock
    trace: List[object] = []
    try:
        # building the executor runs every init block
        _pin_nondeterminism(registry, -1)
        executor = ChainExecutor(list(elements), registry)
        for index, message in enumerate(messages):
            _pin_nondeterminism(registry, index)
            outputs, fault = _safe_process(executor, message, "request")
            trace.append(
                ("request", index, _project(outputs, wire_fields), fault)
            )
            if outputs:
                response = dict(outputs[0])
                response["kind"] = "response"
                _pin_nondeterminism(registry, index + 10_000)
                outs, fault = _safe_process(executor, response, "response")
                trace.append(
                    ("response", index, _project(outs, wire_fields), fault)
                )
        trace.append(("state", _canonical_state(executor)))
    finally:
        registry.bind_rng(saved_rng)
        registry.bind_clock(saved_clock)
    return trace


def _replays_alike(
    elements: Sequence[ElementIR], registry: FunctionRegistry
) -> bool:
    """Whether replaying ``elements`` again on the same messages gives
    the same trace. Init blocks and handlers may call ``now()`` and
    ``rand()``, which the replay pins before it builds the executor and
    before each message, but no other nondeterministic function."""
    for element in elements:
        statements = list(element.init)
        for handler in element.handlers.values():
            statements.extend(handler.statements)
        for stmt in statements:
            for expr in statement_exprs(stmt):
                for node in walk(expr):
                    if (
                        isinstance(node, FuncCall)
                        and node.name not in _PINNED_CALLS
                        and not (
                            node.name in registry
                            and registry.get(node.name).deterministic
                        )
                    ):
                        return False
    return True


def _pin_nondeterminism(registry: FunctionRegistry, index: int) -> None:
    registry.bind_rng(random.Random(0xADD0 + index))
    timestamp = 1_000.0 + index
    registry.bind_clock(lambda: timestamp)


def _safe_process(executor, message, kind):
    try:
        return executor.process(dict(message), kind), None
    except AdnError as exc:
        return [], type(exc).__name__
    except Exception as exc:  # e.g. zlib.error on payload UDFs
        return [], type(exc).__name__


def _project(rows, wire_fields) -> Tuple[Tuple[Tuple[str, object], ...], ...]:
    return tuple(
        tuple(
            sorted(
                (key, value)
                for key, value in row.items()
                if key in wire_fields
            )
        )
        for row in rows
    )


def _canonical_state(executor: ChainExecutor):
    """Chain state keyed by canonical table/var name so fusion's
    ``{member}__{name}`` renames compare equal to the originals. Rows
    from same-named tables across elements are pooled and sorted."""
    tables: Dict[str, List[str]] = {}
    variables: Dict[str, List[str]] = {}
    for instance in executor.instances:
        members = instance.ir.meta.get("fused_from", ())
        snapshot = instance.state.snapshot()
        for name, rows in snapshot["tables"].items():
            canonical = _canonical_name(name, members)
            tables.setdefault(canonical, []).extend(
                repr(sorted(row.items(), key=repr)) for row in rows
            )
        for name, value in snapshot["vars"].items():
            canonical = _canonical_name(name, members)
            variables.setdefault(canonical, []).append(repr(value))
    return (
        tuple(
            (name, tuple(sorted(rows))) for name, rows in sorted(tables.items())
        ),
        tuple(
            (name, tuple(sorted(vals)))
            for name, vals in sorted(variables.items())
        ),
    )


def _canonical_name(name: str, members) -> str:
    for member in members or ():
        prefix = f"{member}__"
        if name.startswith(prefix):
            return name[len(prefix):]
    return name


def _first_divergence(
    trace_before: List[object],
    trace_after: List[object],
    messages: Sequence[Dict[str, object]],
) -> Optional[str]:
    # repr, as for the exemplar messages: == calls 1, 1.0 and True equal
    if repr(trace_before) == repr(trace_after):
        return None
    for a, b in zip(trace_before, trace_after):
        if repr(a) == repr(b):
            continue
        if a[0] == "state" or b[0] == "state":
            return (
                "final state diverged: "
                f"{_clip(repr(a[1:]))} != {_clip(repr(b[1:]))}"
            )
        direction, message_index = a[0], a[1]
        message = messages[message_index]
        return (
            f"{direction} divergence on exemplar message "
            f"{_brief(message)}: before={a[2:]!r} after={b[2:]!r}"
        )
    return (
        f"trace lengths diverged: {len(trace_before)} != {len(trace_after)}"
    )


def _clip(text: str, limit: int = 160) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _brief(message: Dict[str, object]) -> str:
    interesting = {
        key: value
        for key, value in message.items()
        if key not in ("src", "dst", "kind", "status")
    }
    return repr(interesting)


def _divergence_span(
    before: Sequence[ElementIR], after: Sequence[ElementIR]
) -> Optional[Span]:
    """Span of the first rewritten statement that differs from its
    pre-pass counterpart — where to point the counterexample."""
    by_name = {element.name: element for element in before}
    for element in after:
        original = by_name.get(element.name)
        for handler in element.handlers.values():
            original_stmts = ()
            if original is not None:
                original_handler = original.handlers.get(handler.kind)
                if original_handler is not None:
                    original_stmts = original_handler.statements
            for index, stmt in enumerate(handler.statements):
                if index >= len(original_stmts) or stmt != original_stmts[index]:
                    if stmt.span is not None:
                        return stmt.span
    for element in after:
        for handler in element.handlers.values():
            for stmt in handler.statements:
                if stmt.span is not None:
                    return stmt.span
    return None
