"""The ADN compact wire format.

Encodes exactly the fields a :class:`~repro.compiler.headers.HeaderLayout`
says must cross a hop — nothing else — in the layout's order: fixed-width
fields first at stable offsets (so a switch can match them inside its
parse window), then variable-width fields with varint lengths. Each field
is prefixed by its 1-byte field id; a decoder rejects an id its layout
does not carry (a layout mismatch), and a malformed frame raises
:class:`~repro.errors.RuntimeFault` naming what is wrong.

The fixed-width prefix of a layout is compiled into one
:class:`struct.Struct` of ``(id, value)`` pairs, so a well-formed frame
packs and unpacks it in one call. A row whose values do not pack as they
are (None, a str in an INT field, ...) and a frame whose ids do not
match the layout take the per-field path, which gives the same bytes
and rows.

This is the concrete answer to the paper's Q2: "How the RPC message is
packaged on the wire and what headers are needed are ... automatically
determined" (§3).
"""

from __future__ import annotations

import struct
from typing import Dict, Tuple

from ..compiler.headers import HeaderField, HeaderLayout
from ..dsl.schema import FieldType
from ..errors import RuntimeFault
from .serialization import decode_varint, encode_varint

#: ``struct`` codes of the fixed-width types
_CODES = {FieldType.INT: "q", FieldType.FLOAT: "d", FieldType.BOOL: "?"}
_FIXED = {kind: struct.Struct(">" + code) for kind, code in _CODES.items()}


def _encode_fixed(entry: HeaderField, value: object) -> bytes:
    if value is None:
        value = 0  # the type's zero; BOOL packs it as False
    if entry.type is FieldType.INT:
        value = int(value)  # type: ignore[call-overload]
        if not -(2**63) <= value < 2**63:
            raise RuntimeFault(
                f"field {entry.name!r}: {value} is outside the int64 range"
            )
    elif entry.type is FieldType.FLOAT:
        value = float(value)  # type: ignore[arg-type]
    elif entry.type is not FieldType.BOOL:
        raise RuntimeFault(f"{entry.type} is not fixed-width")
    return _FIXED[entry.type].pack(value)


def _decode_fixed(
    entry: HeaderField, data: bytes, offset: int
) -> Tuple[object, int]:
    codec = _FIXED.get(entry.type)
    if codec is None:
        raise RuntimeFault(f"{entry.type} is not fixed-width")
    end = offset + codec.size
    if end > len(data):
        raise RuntimeFault(f"truncated fixed field {entry.name!r}")
    return codec.unpack_from(data, offset)[0], end


class AdnWireCodec:
    """Encoder/decoder bound to one hop's :class:`HeaderLayout`."""

    def __init__(self, layout: HeaderLayout):
        self.layout = layout
        #: the variable-width fields: ``encoded_size`` adds their sizes
        #: to the layout's ``fixed_bytes`` (every fixed id and value)
        self._variable = tuple(
            entry.name for entry in layout.fields if not entry.fixed
        )
        head = []
        for entry in layout.fields:
            if not entry.fixed or entry.type not in _CODES:
                break
            head.append(entry)
        #: the compiled prefix: the leading fixed INT/FLOAT/BOOL fields
        #: as one struct of (id, value) pairs
        self._head = struct.Struct(
            ">" + "".join("B" + _CODES[entry.type] for entry in head)
        )
        self._head_entries = tuple(head)
        self._head_names = tuple(entry.name for entry in head)
        self._head_ids = tuple(entry.field_id for entry in head)
        #: ``pack``'s arguments with the ids in place; ``encode`` fills
        #: in the values
        self._head_args = [
            part for field_id in self._head_ids for part in (field_id, None)
        ]
        #: the fields after the prefix, ``(name, id, entry if fixed)``
        self._tail = tuple(
            (entry.name, entry.field_id, entry if entry.fixed else None)
            for entry in layout.fields[len(head):]
        )
        #: per field id: ``(name, entry if fixed, decoded from UTF-8)``
        self._by_id = {
            entry.field_id: (
                entry.name,
                entry if entry.fixed else None,
                entry.type is not FieldType.BYTES,
            )
            for entry in layout.fields
        }

    def encode(self, fields: Dict[str, object]) -> bytes:
        """Encode a tuple. Missing fixed fields default to zero values;
        missing variable fields encode empty. None encodes as the
        type's zero (the compact format has no presence bits — absence
        is resolved by the layout itself)."""
        get = fields.get
        args = self._head_args.copy()
        args[1::2] = map(get, self._head_names)
        try:
            out = bytearray(self._head.pack(*args))
        except struct.error:
            # a value that needs converting or defaulting: field by field
            out = bytearray()
            for entry in self._head_entries:
                out.append(entry.field_id)
                out += _encode_fixed(entry, get(entry.name))
        for name, field_id, fixed in self._tail:
            value = get(name)
            out.append(field_id)
            if fixed is not None:
                out += _encode_fixed(fixed, value)
                continue
            if value is None:
                raw = b""
            elif isinstance(value, bytes):
                raw = value
            elif isinstance(value, str):
                try:
                    raw = value.encode()
                except UnicodeEncodeError:
                    raise RuntimeFault(
                        f"field {name!r} is not encodable as UTF-8"
                    ) from None
            else:
                raw = str(value).encode()
            length = len(raw)
            if length < 0x80:
                out.append(length)
            else:
                out += encode_varint(length)
            out += raw
        return bytes(out)

    def decode(self, data: bytes) -> Dict[str, object]:
        head = self._head
        values = head.unpack_from(data) if len(data) >= head.size else ()
        if values and values[0::2] == self._head_ids:
            fields: Dict[str, object] = dict(
                zip(self._head_names, values[1::2])
            )
            offset = head.size
        else:
            fields = {}
            offset = 0
        end = len(data)
        by_id = self._by_id
        while offset < end:
            try:
                name, fixed, text = by_id[data[offset]]
            except KeyError:
                raise RuntimeFault(
                    f"unknown field id {data[offset]} (layout mismatch)"
                ) from None
            offset += 1
            if fixed is not None:
                value, offset = _decode_fixed(fixed, data, offset)
            else:
                if offset < end and data[offset] < 0x80:
                    length = data[offset]  # a one-byte varint
                    offset += 1
                else:
                    length, offset = decode_varint(data, offset)
                start = offset
                offset += length
                if offset > end:
                    raise RuntimeFault("truncated variable field")
                value = data[start:offset]
                if text:
                    try:
                        value = value.decode()
                    except UnicodeDecodeError:
                        raise RuntimeFault(
                            f"field {name!r} is not UTF-8"
                        ) from None
            fields[name] = value
        return fields

    def encoded_size(self, fields: Dict[str, object]) -> int:
        """``len(self.encode(fields))``, computed without building the
        bytes: each variable field adds its id byte, its varint length
        and its value's byte length under ``encode``'s rules."""
        size = self.layout.fixed_bytes
        for name in self._variable:
            value = fields.get(name)
            if value is None:
                length = 0
            elif isinstance(value, bytes):
                length = len(value)
            elif isinstance(value, str):
                if value.isascii():
                    length = len(value)
                else:
                    try:
                        length = len(value.encode("utf-8"))
                    except UnicodeEncodeError:
                        raise RuntimeFault(
                            f"field {name!r} is not encodable as UTF-8"
                        ) from None
            else:
                length = len(str(value).encode("utf-8"))
            size += 1 + length + (
                1 if length < 0x80 else (length.bit_length() + 6) // 7
            )
        return size
