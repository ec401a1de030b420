"""Minimal wire-header synthesis.

"We need to determine the minimum set of headers needed to satisfy the
network requirements" (paper §4 Q2). Once the compiler knows which fields
each downstream element reads — and which fields the destination
application itself consumes — everything else can be stripped from the
wire. This module computes, for each hop between processors, the exact
field set that must cross that hop, and lays those fields out in a
compact binary format.

Layout rules:

* fixed-width fields (int, float, bool) first, ordered by descending
  width then name — keeps hot match fields at stable small offsets;
* variable-width fields (str, bytes) last, each preceded by a varint
  length;
* a 1-byte field-id prefix per field; a decoder rejects an id its
  layout does not carry (a layout mismatch).

The layout knows each field's worst-case *fixed* offset, which is what
the P4 backend checks against the switch's parse window: a programmable
switch can only match on roughly the first 200 bytes of a packet (paper
§2, citing Gallium), so every field a switch-placed element reads must
land inside that window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..dsl.schema import META_FIELDS, FieldType, RpcSchema
from ..errors import HeaderLayoutError
from ..ir.analysis import ElementAnalysis
from ..ir.nodes import ChainIR

#: Parse window available to a programmable switch (paper §2: "access to
#: about the first 200 bytes of each network packet").
P4_PARSE_WINDOW_BYTES = 200

#: Wire widths of fixed-size field types.
_FIXED_WIDTHS = {
    FieldType.INT: 8,
    FieldType.FLOAT: 8,
    FieldType.BOOL: 1,
}

#: Fields the transport itself always needs (addressing + matching
#: responses to requests). Everything else is optional per hop.
TRANSPORT_FIELDS = ("src", "dst", "rpc_id", "kind")


@dataclass(frozen=True)
class HeaderField:
    """One field in a wire header layout."""

    name: str
    type: FieldType
    field_id: int
    #: byte offset of this field's value, assuming all preceding
    #: variable fields are empty (their minimum size); fixed-width fields
    #: have exact offsets because they precede all variable ones.
    offset: int
    fixed: bool


@dataclass(frozen=True)
class HeaderLayout:
    """The compact header for one hop."""

    fields: Tuple[HeaderField, ...]
    fixed_bytes: int  # total size of the fixed region

    def field(self, name: str) -> HeaderField:
        for entry in self.fields:
            if entry.name == name:
                return entry
        raise KeyError(name)

    @property
    def field_names(self) -> Tuple[str, ...]:
        return tuple(entry.name for entry in self.fields)

    def min_size_bytes(self) -> int:
        """Encoded size with empty variable-width fields."""
        variable = sum(
            2 for entry in self.fields if not entry.fixed
        )  # id + zero varint
        return self.fixed_bytes + variable

    def offsets_within(self, names: Sequence[str], window: int) -> bool:
        """True when every named field sits within the first ``window``
        bytes (fixed region only — variable fields never qualify)."""
        for name in names:
            entry = self.field(name)
            if not entry.fixed:
                return False
            width = _FIXED_WIDTHS[entry.type]
            if entry.offset + width > window:
                return False
        return True


def build_layout(fields: Dict[str, FieldType]) -> HeaderLayout:
    """Lay out the given fields per the module's layout rules."""
    fixed = sorted(
        (name for name, t in fields.items() if t in _FIXED_WIDTHS),
        key=lambda n: (-_FIXED_WIDTHS[fields[n]], n),
    )
    variable = sorted(name for name, t in fields.items() if t not in _FIXED_WIDTHS)
    entries: List[HeaderField] = []
    offset = 0
    next_id = 0
    for name in fixed:
        offset += 1  # field id byte
        entries.append(
            HeaderField(
                name=name,
                type=fields[name],
                field_id=next_id,
                offset=offset,
                fixed=True,
            )
        )
        offset += _FIXED_WIDTHS[fields[name]]
        next_id += 1
    fixed_bytes = offset
    for name in variable:
        offset += 1
        entries.append(
            HeaderField(
                name=name,
                type=fields[name],
                field_id=next_id,
                offset=offset,
                fixed=False,
            )
        )
        next_id += 1
    return HeaderLayout(fields=tuple(entries), fixed_bytes=fixed_bytes)


@dataclass
class HopHeaderPlan:
    """Header requirements for the hop *after* chain position ``after``.

    ``after == -1`` is the hop from the sending application into the
    first processor; ``after == len(chain)-1`` is the final hop into the
    receiving application.
    """

    after: int
    needed_fields: FrozenSet[str]
    layout: HeaderLayout = field(default=None)  # type: ignore[assignment]


#: fields added to every hop header by delivery guarantees (paper Q1:
#: "allow developers to specify message ordering and reliability
#: constraints"). Without the guarantee, the field — and its transport
#: machinery — simply does not exist.
GUARANTEE_FIELDS = {
    "ordered": ("seq", FieldType.INT),
    "reliable": ("ack", FieldType.INT),
}

#: wire field carrying the remaining deadline budget (milliseconds) when
#: deadline propagation is on (repro.overload): the receiver reconstructs
#: an absolute deadline from it, gRPC-style, so downstream processors can
#: drop already-expired RPCs before spending service time. Like the
#: guarantee fields, it exists on the wire only when the stack asks.
DEADLINE_WIRE_FIELD = ("deadline_ms", FieldType.FLOAT)


def guarantee_fields(guarantees) -> Dict[str, FieldType]:
    """Extra wire fields implied by a
    :class:`~repro.dsl.ast_nodes.GuaranteeDecl` (or None)."""
    fields: Dict[str, FieldType] = {}
    if guarantees is None:
        return fields
    if getattr(guarantees, "ordered", False):
        name, type_ = GUARANTEE_FIELDS["ordered"]
        fields[name] = type_
    if getattr(guarantees, "reliable", False):
        name, type_ = GUARANTEE_FIELDS["reliable"]
        fields[name] = type_
    return fields


def fields_needed_downstream(
    chain: ChainIR,
    schema: RpcSchema,
    position: int,
    kind: str = "request",
    app_reads: Optional[FrozenSet[str]] = None,
) -> FrozenSet[str]:
    """Fields that must be available just after chain position
    ``position`` (i.e. read by any later element, or consumed by the
    destination application).

    ``app_reads`` narrows the "destination application" term: by default
    the app is assumed to read every schema field, but the mesh-wide
    liveness analysis (:mod:`repro.analysis.graph`) can prove a smaller
    set — only those then count as consumed downstream."""
    needed: Set[str] = set(TRANSPORT_FIELDS)
    if app_reads is None:
        # the destination application reads all its schema fields
        needed |= set(schema.application_field_names())
    else:
        needed |= set(app_reads) & set(schema.application_field_names())
    needed.add("status")
    for element in chain.elements[position + 1 :]:
        analysis: ElementAnalysis = element.analysis  # type: ignore[assignment]
        handler = analysis.handlers.get(kind)
        if handler is not None:
            needed |= handler.fields_read
        # elements with both handlers may need response-direction fields
        # carried forward in request headers only if they correlate; we
        # keep request/response planning independent.
    return frozenset(needed)


def fields_needed_on_return(
    chain: ChainIR,
    schema: RpcSchema,
    position: int,
) -> FrozenSet[str]:
    """Fields a *response* crossing back over the hop after ``position``
    must carry: read by the response handlers of every element placed at
    or before that position (they see the response on the way back),
    plus what the calling application consumes."""
    needed: Set[str] = set(TRANSPORT_FIELDS)
    needed |= set(schema.application_field_names())
    needed.add("status")
    for element in chain.elements[: position + 1]:
        analysis: ElementAnalysis = element.analysis  # type: ignore[assignment]
        handler = analysis.handlers.get("response")
        if handler is not None:
            needed |= handler.fields_read
    return frozenset(needed)


def fields_available_at(
    chain: ChainIR,
    schema: RpcSchema,
    position: int,
    kind: str = "request",
) -> FrozenSet[str]:
    """Fields an RPC tuple can carry just after chain position
    ``position`` (application fields plus everything written upstream,
    respecting narrowing projections)."""
    available: FrozenSet[str] = frozenset(schema.all_fields())
    for element in chain.elements[: position + 1]:
        analysis: ElementAnalysis = element.analysis  # type: ignore[assignment]
        handler = analysis.handlers.get(kind)
        if handler is not None:
            available = handler.propagate_fields(available)
    return available


def plan_hop_headers(
    chain: ChainIR,
    schema: RpcSchema,
    hop_after: Sequence[int],
    kind: str = "request",
    guarantees=None,
    deadline: bool = False,
    app_reads: Optional[FrozenSet[str]] = None,
) -> List[HopHeaderPlan]:
    """Compute the header layout for each processor-boundary hop.

    ``hop_after`` lists chain positions after which the RPC crosses to a
    different processor (so a wire header is required). ``kind`` selects
    the direction: request headers carry what later elements read,
    response headers carry what earlier elements' response handlers
    read. ``guarantees`` (a GuaranteeDecl) may add seq/ack fields;
    ``deadline`` adds :data:`DEADLINE_WIRE_FIELD` (requests only —
    a response's deadline has already been decided). ``app_reads``
    (request direction only) narrows the set of application fields the
    destination is assumed to consume — see
    :func:`fields_needed_downstream`; responses stay conservative, the
    caller echoes whatever it sent.
    """
    all_types = dict(schema.all_fields())
    extra: Dict[str, FieldType] = dict(guarantee_fields(guarantees))
    if deadline and kind != "response":
        name, type_ = DEADLINE_WIRE_FIELD
        extra[name] = type_
    plans: List[HopHeaderPlan] = []
    for position in hop_after:
        if kind == "response":
            needed = fields_needed_on_return(chain, schema, position)
        else:
            needed = fields_needed_downstream(
                chain, schema, position, kind, app_reads=app_reads
            )
        available = fields_available_at(chain, schema, position, "request")
        carried = (needed & available) | set(extra)
        types: Dict[str, FieldType] = {}
        for name in carried:
            if name in all_types:
                types[name] = all_types[name]
            elif name in extra:
                types[name] = extra[name]
            else:
                # element-derived field: take the type from META_FIELDS or
                # default to STR (derived routing hints are strings)
                types[name] = META_FIELDS.get(name, FieldType.STR)
        layout = build_layout(types)
        plans.append(
            HopHeaderPlan(after=position, needed_fields=frozenset(carried), layout=layout)
        )
    return plans


#: Width of a fixed (zero-padded) string slot when a switch must match
#: on a string field — the "custom header designs" hardware requires
#: (paper §2, citing ATP/Pegasus).
STR_FIXED_WIDTH = 32


def relayout_for_switch(
    layout: HeaderLayout, reads: Sequence[str]
) -> HeaderLayout:
    """Re-lay the header so every STR field the switch reads occupies a
    fixed zero-padded :data:`STR_FIXED_WIDTH`-byte slot in the fixed
    region (exact-match-able); other fields keep their kinds."""
    fields: Dict[str, FieldType] = {
        entry.name: entry.type for entry in layout.fields
    }
    promoted = {
        name
        for name in reads
        if fields.get(name) is FieldType.STR
    }
    fixed = sorted(
        (
            name
            for name, t in fields.items()
            if t in _FIXED_WIDTHS or name in promoted
        ),
        key=lambda n: (-_FIXED_WIDTHS.get(fields[n], STR_FIXED_WIDTH), n),
    )
    variable = sorted(
        name
        for name, t in fields.items()
        if t not in _FIXED_WIDTHS and name not in promoted
    )
    entries: List[HeaderField] = []
    offset = 0
    next_id = 0
    for name in fixed:
        offset += 1
        entries.append(
            HeaderField(
                name=name,
                type=fields[name],
                field_id=next_id,
                offset=offset,
                fixed=True,
            )
        )
        offset += _FIXED_WIDTHS.get(fields[name], STR_FIXED_WIDTH)
        next_id += 1
    fixed_bytes = offset
    for name in variable:
        offset += 1
        entries.append(
            HeaderField(
                name=name,
                type=fields[name],
                field_id=next_id,
                offset=offset,
                fixed=False,
            )
        )
        next_id += 1
    return HeaderLayout(fields=tuple(entries), fixed_bytes=fixed_bytes)


def _window_offset_ok(
    layout: HeaderLayout, name: str, window: int
) -> bool:
    entry = layout.field(name)
    if not entry.fixed:
        return False
    width = _FIXED_WIDTHS.get(entry.type, STR_FIXED_WIDTH)
    return entry.offset + width <= window


def check_switch_window(
    layout: HeaderLayout,
    reads: Sequence[str],
    window: int = P4_PARSE_WINDOW_BYTES,
) -> None:
    """Raise :class:`HeaderLayoutError` when a switch-placed element's
    read fields cannot be made available in the parse window.

    Fields that are fixed-width already must sit inside the window; STR
    fields the switch reads are re-laid as fixed padded slots (custom
    header design); BYTES fields (payloads) can never qualify.
    """
    missing = [name for name in reads if name not in layout.field_names]
    if missing:
        raise HeaderLayoutError(
            f"switch element reads fields not on the wire: {missing}"
        )
    for name in reads:
        if layout.field(name).type is FieldType.BYTES:
            raise HeaderLayoutError(
                f"field {name!r} is a byte payload; it cannot be parsed "
                "by the switch pipeline"
            )
    switch_layout = relayout_for_switch(layout, reads)
    bad = [
        name
        for name in reads
        if not _window_offset_ok(switch_layout, name, window)
    ]
    if bad:
        raise HeaderLayoutError(
            f"fields {sorted(bad)} do not fit in the {window}-byte "
            f"switch parse window (fixed region is "
            f"{switch_layout.fixed_bytes} bytes)"
        )


def wrapped_stack_header_bytes(payload_field: str = "payload") -> int:
    """Header bytes consumed by the conventional wrapped stack before any
    application data appears — Ethernet(14) + IP(20) + TCP(20) +
    HTTP/2 frame+headers(~60) + gRPC message prefix(5) + protobuf field
    tags. Used by the header-size benchmark to contrast with ADN's
    minimal headers."""
    ethernet, ip, tcp = 14, 20, 20
    http2 = 9 + 51  # frame header + typical HPACK-compressed headers
    grpc = 5
    return ethernet + ip + tcp + http2 + grpc
