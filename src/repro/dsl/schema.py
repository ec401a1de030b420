"""Field types and RPC schemas.

An ADN views each RPC as a tuple of named, typed fields (paper §5.1). The
application registers the schema of its RPC messages; elements may add
*derived* fields (e.g. a load balancer's chosen destination) that travel in
the generated wire header between processors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from ..errors import DslValidationError


class FieldType(enum.Enum):
    """Types a tuple field (or state-table column) may take."""

    STR = "str"
    INT = "int"
    FLOAT = "float"
    BOOL = "bool"
    BYTES = "bytes"

    @classmethod
    def from_keyword(cls, word: str) -> "FieldType":
        try:
            return cls(word.lower())
        except ValueError:
            raise DslValidationError(f"unknown type {word!r}") from None

    @property
    def python_type(self) -> type:
        return _PYTHON_TYPES[self._value_]

    def accepts(self, value: object) -> bool:
        """True when a Python value is a valid instance of this type.

        ``int`` is accepted where ``float`` is expected, mirroring SQL
        numeric coercion; ``bool`` is *not* an ``int`` here.
        """
        if value is None:
            return True
        if self is FieldType.FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is FieldType.INT:
            return isinstance(value, int) and not isinstance(value, bool)
        return isinstance(value, self.python_type)

    def exemplar_values(self) -> Tuple[object, ...]:
        """Representative concrete values of this type, used to build the
        bounded test vectors the translation validator executes. Ordered
        from "typical" to "edge" (zero / empty)."""
        return {
            FieldType.STR: ("alice", "W", ""),
            FieldType.INT: (7, 1, 0),
            FieldType.FLOAT: (2.5, 1.0, 0.0),
            FieldType.BOOL: (True, False),
            FieldType.BYTES: (b"\x00payload", b"x", b""),
        }[self]


#: Python type of each field type, keyed by the member's value (a plain
#: string hashes without the enum's Python-level ``__hash__``)
_PYTHON_TYPES: Dict[str, type] = {
    "str": str,
    "int": int,
    "float": float,
    "bool": bool,
    "bytes": bytes,
}

_NUMBERS = frozenset({int, float, bool})

#: For each field value type, the value types it orders against without
#: raising: numbers with numbers, str and bytes each only with itself
COMPARABLE_TYPES: Dict[type, FrozenSet[type]] = {
    int: _NUMBERS,
    float: _NUMBERS,
    bool: _NUMBERS,
    str: frozenset({str}),
    bytes: frozenset({bytes}),
}


#: Meta-fields every RPC tuple carries implicitly. Elements may read all of
#: them and write ``dst`` (request routing) and ``status``.
META_FIELDS: Dict[str, FieldType] = {
    "src": FieldType.STR,  # sending service instance, e.g. "A.0"
    "dst": FieldType.STR,  # destination service or instance, e.g. "B" / "B.1"
    "rpc_id": FieldType.INT,  # unique per call; response echoes the request's
    "method": FieldType.STR,  # application RPC method name
    "kind": FieldType.STR,  # "request" | "response"
    "status": FieldType.STR,  # "ok" | "aborted:<element>"
}

WRITABLE_META_FIELDS = frozenset({"dst", "status"})


@dataclass(frozen=True)
class FieldSpec:
    """One application-level field of an RPC message."""

    name: str
    type: FieldType
    doc: str = ""


@dataclass
class RpcSchema:
    """The set of application fields carried by an application's RPCs.

    The compiler unions this with :data:`META_FIELDS` and any element-derived
    fields to type-check element programs and to lay out wire headers.
    """

    name: str
    fields: Dict[str, FieldSpec] = field(default_factory=dict)

    @classmethod
    def of(cls, name: str, **types: FieldType) -> "RpcSchema":
        """Build a schema from keyword arguments: ``RpcSchema.of("kv",
        obj_id=FieldType.INT, payload=FieldType.BYTES)``."""
        schema = cls(name)
        for field_name, field_type in types.items():
            schema.add(field_name, field_type)
        return schema

    def add(self, name: str, type_: FieldType, doc: str = "") -> "RpcSchema":
        if name in META_FIELDS:
            raise DslValidationError(
                f"field {name!r} collides with a reserved meta-field"
            )
        if name in self.fields:
            raise DslValidationError(f"duplicate field {name!r} in schema")
        self.fields[name] = FieldSpec(name, type_, doc)
        return self

    def field_type(self, name: str) -> Optional[FieldType]:
        """Type of an application or meta field, or None if unknown."""
        if name in self.fields:
            return self.fields[name].type
        return META_FIELDS.get(name)

    def all_fields(self) -> Dict[str, FieldType]:
        """Application fields plus meta-fields, name → type."""
        merged = {name: spec.type for name, spec in self.fields.items()}
        merged.update(META_FIELDS)
        return merged

    def application_field_names(self) -> Tuple[str, ...]:
        return tuple(self.fields)

    def exemplar_messages(
        self,
        count: int = 4,
        src: str = "A.0",
        dst: str = "B",
        method: str = "call",
        literal_pool: Optional[Dict[FieldType, Tuple[object, ...]]] = None,
    ) -> Tuple[Dict[str, object], ...]:
        """Schema-conforming request tuples for differential testing.

        Message *i* takes the ``i``-th exemplar of each field's type
        (wrapping), so a small count still exercises typical and edge
        values of every field together. ``literal_pool`` extends the
        per-type value pools with values mined elsewhere (e.g. literals
        appearing in a chain's IR) so predicates comparing fields against
        program constants get driven down both branches.
        """
        messages = []
        for index in range(count):
            message: Dict[str, object] = {
                "src": src,
                "dst": dst,
                "rpc_id": 1000 + index,
                "method": method,
                "kind": "request",
                "status": "ok",
            }
            for name, spec in self.fields.items():
                pool = spec.type.exemplar_values()
                if literal_pool and literal_pool.get(spec.type):
                    pool = pool + tuple(literal_pool[spec.type])
                message[name] = pool[index % len(pool)]
            messages.append(message)
        return tuple(messages)

    def validate_message_fields(self, items: Iterable[Tuple[str, object]]) -> None:
        """Raise if any (name, value) pair is ill-typed for this schema."""
        known = self.all_fields()
        for name, value in items:
            expected = known.get(name)
            if expected is not None and not expected.accepts(value):
                raise DslValidationError(
                    f"field {name!r} expects {expected.value}, got "
                    f"{type(value).__name__}"
                )
