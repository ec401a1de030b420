"""Standard library of ADN elements, written in the DSL itself.

These are the reusable elements the paper envisions developers sharing
(§4 Q1). The three used in the paper's evaluation — Logging, ACL, and
Fault injection (§6) — are here, along with the §2 example's load
balancer / compression / access-control chain and several extras
(rate limiting, metrics, routing, admission control, caching, mirroring).

Each entry is plain DSL text; call :func:`load_stdlib` to parse and
validate them into a :class:`~repro.dsl.ast_nodes.Program`.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional, Tuple

from ..errors import AdnError, DslValidationError
from .ast_nodes import Program
from .functions import FunctionRegistry
from .parser import parse
from .schema import FieldSpec, FieldType, RpcSchema
from .validator import validate_element, validate_program

#: name → DSL source. Sources intentionally stay "tens of lines" each —
#: the paper's LoC comparison (§6) counts exactly these.
STDLIB_SOURCES: Dict[str, str] = {}


def _define(name: str, source: str) -> str:
    STDLIB_SOURCES[name] = source.strip() + "\n"
    return name


# -- The three elements evaluated in the paper (§6) -------------------------

_define(
    "Logging",
    """
-- Records both the request and the response to a log sink (paper §6).
element Logging {
    state log_tab (ts: float, direction: str, rpc_id: int, payload: bytes) APPEND;
    on request {
        INSERT INTO log_tab SELECT now(), 'request', input.rpc_id, input.payload FROM input;
        SELECT * FROM input;
    }
    on response {
        INSERT INTO log_tab SELECT now(), 'response', input.rpc_id, input.payload FROM input;
        SELECT * FROM input;
    }
}
""",
)

_define(
    "Acl",
    """
-- Access Control List: drops RPCs whose user lacks write permission
-- (paper Figure 4 and §6).
element Acl {
    meta { mandatory: true; }
    state ac_tab (username: str KEY, permission: str);
    init {
        INSERT INTO ac_tab VALUES ('usr1', 'R'), ('usr2', 'W');
    }
    on request {
        SELECT input.* FROM input
        JOIN ac_tab ON input.username == ac_tab.username
        WHERE ac_tab.permission == 'W';
    }
    on response {
        SELECT * FROM input;
    }
}
""",
)

_define(
    "Fault",
    """
-- Fault injection: aborts requests with a configured probability (§6).
element Fault {
    meta { abort_probability: 0.02; }
    on request {
        SELECT * FROM input WHERE rand() >= 0.02;
    }
    on response {
        SELECT * FROM input;
    }
}
""",
)

# -- The §2 example chain ---------------------------------------------------

_define(
    "LbKeyHash",
    """
-- Load balancer: picks a replica of the destination service by hashing
-- the object identifier inside the RPC (paper §2's requirement 1).
element LbKeyHash {
    state endpoints (idx: int KEY, replica: str);
    on request {
        SELECT input.*, endpoints.replica AS dst FROM input
        JOIN endpoints ON endpoints.idx == hash(input.obj_id) % count(endpoints);
    }
    on response {
        SELECT * FROM input;
    }
}
""",
)

_define(
    "LbRoundRobin",
    """
-- Round-robin load balancer over the destination's replica set.
element LbRoundRobin {
    state endpoints (idx: int KEY, replica: str);
    var next_idx: int = 0;
    on request {
        SELECT input.*, endpoints.replica AS dst FROM input
        JOIN endpoints ON endpoints.idx == next_idx;
        SET next_idx = (next_idx + 1) % count(endpoints);
    }
    on response {
        SELECT * FROM input;
    }
}
""",
)

_define(
    "Compression",
    """
-- Compresses the payload on the sender side (paper §2's requirement 2).
element Compression {
    meta { position: sender; }
    on request {
        SELECT input.*, compress(input.payload) AS payload FROM input;
    }
    on response {
        -- aborted responses carry no body; leave them untouched
        SELECT input.*, CASE WHEN input.status == 'ok'
            THEN decompress(input.payload) ELSE input.payload END AS payload
        FROM input;
    }
}
""",
)

_define(
    "Decompression",
    """
-- Decompresses the payload on the receiver side (paper §2).
element Decompression {
    meta { position: receiver; }
    on request {
        SELECT input.*, decompress(input.payload) AS payload FROM input;
    }
    on response {
        SELECT input.*, CASE WHEN input.status == 'ok'
            THEN compress(input.payload) ELSE input.payload END AS payload
        FROM input;
    }
}
""",
)

_define(
    "AccessControl",
    """
-- §2's access control: allow a request only when the user may act on
-- the object; reads both the user and object identifiers from the RPC.
element AccessControl {
    meta { mandatory: true; }
    state acl (username: str KEY, obj_id: int KEY, allowed: bool);
    on request {
        SELECT input.* FROM input
        JOIN acl ON acl.username == input.username AND acl.obj_id == input.obj_id
        WHERE acl.allowed == true;
    }
    on response {
        SELECT * FROM input;
    }
}
""",
)

# -- Additional reusable elements ------------------------------------------

_define(
    "Encryption",
    """
element Encryption {
    meta { position: sender; }
    var key: str = 'adn-secret';
    on request {
        SELECT input.*, encrypt(input.payload, key) AS payload FROM input;
    }
    on response {
        SELECT input.*, CASE WHEN input.status == 'ok'
            THEN decrypt(input.payload, key) ELSE input.payload END AS payload
        FROM input;
    }
}
""",
)

_define(
    "Decryption",
    """
element Decryption {
    meta { position: receiver; }
    var key: str = 'adn-secret';
    on request {
        SELECT input.*, decrypt(input.payload, key) AS payload FROM input;
    }
    on response {
        SELECT input.*, CASE WHEN input.status == 'ok'
            THEN encrypt(input.payload, key) ELSE input.payload END AS payload
        FROM input;
    }
}
""",
)

_define(
    "RateLimit",
    """
-- Token-bucket rate limiter (a "simple filter" in §5.1's terms).
element RateLimit {
    meta { rate: 100000.0; burst: 128.0; }
    var tokens: float = 128.0;
    var last_refill: float = 0.0;
    on request {
        SET tokens = min(128.0, tokens + (now() - last_refill) * 100000.0);
        SET last_refill = now();
        SELECT * FROM input WHERE tokens >= 1.0;
        SET tokens = max(0.0, tokens - 1.0);
    }
    on response {
        SELECT * FROM input;
    }
}
""",
)

_define(
    "Metrics",
    """
-- Telemetry: per-method request counter, reported to the controller.
element Metrics {
    state counters (method: str KEY, hits: int);
    on request {
        INSERT INTO counters SELECT input.method, 0 FROM input
            WHERE NOT contains(counters, input.method);
        UPDATE counters SET hits = hits + 1 WHERE method == input.method;
        SELECT * FROM input;
    }
    on response {
        SELECT * FROM input;
    }
}
""",
)

_define(
    "Router",
    """
-- Request routing on RPC content: send requests whose method matches a
-- routing rule to a pinned instance (the §2 extensibility example).
element Router {
    state routes (method: str KEY, target: str);
    on request {
        SELECT input.*, routes.target AS dst FROM input
        JOIN routes ON routes.method == input.method;
        SELECT * FROM input WHERE NOT contains(routes, input.method);
    }
    on response {
        SELECT * FROM input;
    }
}
""",
)

_define(
    "Admission",
    """
-- Admission control: reject requests once the in-flight window is full.
element Admission {
    meta { window: 1024; }
    var in_flight: int = 0;
    on request {
        SELECT * FROM input WHERE in_flight < 1024;
        SET in_flight = in_flight + 1 WHERE in_flight < 1024;
    }
    on response {
        SET in_flight = max(0, in_flight - 1);
        SELECT * FROM input;
    }
}
""",
)

_define(
    "AdmissionControl",
    """
-- Overload admission control (repro.overload): the meta block asks the
-- hosting processor to install a CoDel-style delay shedder plus
-- utilization-triggered probabilistic shedding in front of its queue.
-- Requests at or above the priority threshold are shed last. The
-- element body forwards; the shedding happens before entry, where the
-- runtime can see queueing delay (the DSL deliberately cannot).
element AdmissionControl {
    meta {
        admission_control: true;
        target_delay_ms: 2.0;
        interval_ms: 20.0;
        util_threshold: 0.95;
        max_shed_probability: 0.5;
        priority: 1;
    }
    on request {
        SELECT * FROM input;
    }
    on response {
        SELECT * FROM input;
    }
}
""",
)

_define(
    "Mirror",
    """
-- Traffic mirroring: duplicate a sample of requests to a shadow service.
element Mirror {
    meta { sample_rate: 0.01; }
    on request {
        SELECT * FROM input;
        SELECT input.*, 'shadow' AS dst FROM input WHERE rand() < 0.01;
    }
    on response {
        SELECT * FROM input;
    }
}
""",
)

_define(
    "Cache",
    """
-- Response cache keyed on the object id: answers repeated reads
-- without reaching the server.
element Cache {
    state cache_tab (obj_id: int KEY, payload: bytes);
    on request {
        SELECT * FROM input;
    }
    on response {
        INSERT INTO cache_tab SELECT input.obj_id, input.payload FROM input;
        SELECT * FROM input;
    }
}
""",
)

_define(
    "SizeLimit",
    """
-- Reject oversized payloads before they cross the wire.
element SizeLimit {
    meta { capacity: 65536; }
    on request {
        SELECT * FROM input WHERE len(input.payload) <= 65536;
    }
    on response {
        SELECT * FROM input;
    }
}
""",
)

_define(
    "GlobalQuota",
    """
-- Cluster-wide request quota: admit while the summed per-user usage
-- stays under capacity (uses a column aggregate over element state).
element GlobalQuota {
    meta { capacity: 100000; }
    state usage (username: str KEY, used: int);
    on request {
        SELECT * FROM input WHERE sum_of(usage, used) < 100000;
        INSERT INTO usage SELECT input.username, 0 FROM input
            WHERE NOT contains(usage, input.username)
              AND sum_of(usage, used) < 100000;
        UPDATE usage SET used = used + 1
            WHERE username == input.username AND sum_of(usage, used) < 100000;
    }
    on response {
        SELECT * FROM input;
    }
}
""",
)

# -- Filters (complex stream shaping, §5.1) ---------------------------------

_define(
    "Retry",
    """
filter Retry {
    meta { max_retries: 3; timeout_ms: 10.0; deadline_budget_ms: 100.0; }
    use operator retry;
}
""",
)

_define(
    "Timeout",
    """
filter Timeout {
    meta { timeout_ms: 25.0; }
    use operator timeout;
}
""",
)

_define(
    "CircuitBreaker",
    """
filter CircuitBreaker {
    meta { failure_threshold: 5; reset_ms: 50.0; }
    use operator circuit_breaker;
}
""",
)

_define(
    "Pacer",
    """
-- Client-side rate shaping: space issues to a target rate.
filter Pacer {
    meta { rate: 50000.0; }
    use operator rate_limit_shaper;
}
""",
)


def stdlib_source(*names: str) -> str:
    """Concatenated DSL source for the named stdlib elements."""
    missing = [name for name in names if name not in STDLIB_SOURCES]
    if missing:
        raise KeyError(f"unknown stdlib elements: {missing}")
    return "\n".join(STDLIB_SOURCES[name] for name in names)


def stdlib_first_lines(*names: str) -> Dict[str, int]:
    """The line of ``stdlib_source(*names)`` each named entry starts on.
    A definition parsed from that text at line ``n`` is at line
    ``n - first + 1`` of its entry's own text; columns are the same."""
    first: Dict[str, int] = {}
    line = 1
    for name in names:
        first[name] = line
        line += STDLIB_SOURCES[name].count("\n") + 1
    return first


@functools.lru_cache(maxsize=32)
def _parse(text: str) -> Program:
    """The parse of one concatenated stdlib text, once per process. Keyed
    by the text itself, so an edited ``STDLIB_SOURCES`` entry parses
    again. Callers share the cached definitions (and their ``meta``
    dicts), so nothing may mutate them."""
    return parse(text)


@functools.lru_cache(maxsize=32)
def _validated(
    text: str, fields: Optional[Tuple[Tuple[str, FieldType], ...]]
) -> Program:
    """``text`` parsed and validated against the default registry and a
    schema with exactly ``fields`` (``None``: no schema), once per
    process. A failed validation raises and is not cached."""
    schema = None
    if fields is not None:
        schema = RpcSchema("stdlib", {
            name: FieldSpec(name, field_type) for name, field_type in fields
        })
    return validate_program(_parse(text), schema=schema)


def parsed_stdlib() -> Program:
    """Every stdlib entry, parsed (not validated) from one
    ``stdlib_source`` of them all, once per process; positions are in
    that text (see :func:`stdlib_first_lines`). Shared: never mutate."""
    return _parse(stdlib_source(*STDLIB_SOURCES))


def load_stdlib(
    names: Optional[list] = None,
    schema: Optional[RpcSchema] = None,
    registry: Optional[FunctionRegistry] = None,
) -> Program:
    """Parse and validate stdlib elements (all of them by default).

    Parsing is memoized per distinct source text. With the default
    registry, validation is memoized too, per source text and schema
    fields read at call time, so a schema extended after a call
    validates again. That registry only ever gains functions, which
    cannot change an element that already validated, and a failed
    validation is not cached. A caller-supplied ``registry`` validates
    on every call. Each call returns new top-level dicts; the
    definitions in them, and their ``meta`` dicts, are shared between
    calls: read them, never mutate them."""
    selected = list(names) if names is not None else list(STDLIB_SOURCES)
    text = stdlib_source(*selected)
    if registry is not None:
        return validate_program(_parse(text), schema=schema, registry=registry)
    fields = None
    if schema is not None:
        fields = tuple(
            (name, spec.type) for name, spec in schema.fields.items()
        )
    program = _validated(text, fields)
    return Program(
        elements=dict(program.elements),
        filters=dict(program.filters),
        apps=dict(program.apps),
    )


def validate_over_stdlib(
    own: Program, schema: Optional[RpcSchema] = None
) -> Program:
    """What ``validate_program(load_stdlib().merged(own), schema=schema)``
    returns or raises, validating only ``own``'s definitions: the rest of
    the stdlib comes from :func:`load_stdlib`'s memo. A stdlib definition
    that ``own`` overrides (an element by an element, a filter by a
    filter) is never validated."""
    stdlib = parsed_stdlib()
    overridden = (stdlib.elements.keys() & own.elements.keys()) | (
        stdlib.filters.keys() & own.filters.keys()
    )
    try:
        known = load_stdlib(
            [name for name in STDLIB_SOURCES if name not in overridden],
            schema=schema,
        )
    except AdnError:
        # a stdlib element fails under this schema. The merged program's
        # first failing element, in its order, names the same first
        # error as validating it whole
        merged = load_stdlib().merged(own)
        _raise_first_element_error(merged, own, schema)
        return validate_program(merged, schema=schema)
    return validate_program(stdlib.merged(own), schema=schema, known=known)


def load_stdlib_at_entries(schema: Optional[RpcSchema] = None) -> Program:
    """``load_stdlib(schema=schema)``, except that when a stdlib element
    fails under ``schema`` the first one's error names its entry and the
    entry's own line, as :func:`validate_over_stdlib` tells it."""
    try:
        return load_stdlib(schema=schema)
    except DslValidationError:
        _raise_first_element_error(load_stdlib(), Program(), schema)
        raise


def _raise_first_element_error(
    merged: Program, own: Program, schema: Optional[RpcSchema]
) -> None:
    """Validate ``merged``'s elements in its order, ``merged`` being the
    whole stdlib with ``own`` merged over it, and raise the first error:
    an element of ``own``'s as it is, a stdlib element's at its entry's
    own line with ``path="<stdlib:NAME>"``."""
    for name, element in merged.elements.items():
        try:
            validate_element(element, schema)
        except DslValidationError as error:
            if name in own.elements:
                raise
            lines = stdlib_first_lines(*STDLIB_SOURCES)[name] - 1
            raise DslValidationError(
                error.reason,
                error.line and error.line - lines,
                error.column,
                path=f"<stdlib:{name}>",
            ) from error


def stdlib_loc(name: str) -> int:
    """Non-blank, non-comment DSL line count for one element — used by the
    paper's lines-of-code comparison (§6)."""
    lines = STDLIB_SOURCES[name].splitlines()
    code_lines = [
        line
        for line in (raw.strip() for raw in lines)
        if line and not line.startswith("--") and not line.startswith("#")
    ]
    return len(code_lines)
