"""The ADN compact wire format.

Encodes exactly the fields a :class:`~repro.compiler.headers.HeaderLayout`
says must cross a hop — nothing else — in the layout's order: fixed-width
fields first at stable offsets (so a switch can match them inside its
parse window), then variable-width fields with varint lengths. Each field
is prefixed by its 1-byte field id for schema evolution: a decoder built
from an older layout skips ids it does not know.

This is the concrete answer to the paper's Q2: "How the RPC message is
packaged on the wire and what headers are needed are ... automatically
determined" (§3).
"""

from __future__ import annotations

import struct
from typing import Dict, Tuple

from ..compiler.headers import HeaderLayout
from ..dsl.schema import FieldType
from ..errors import RuntimeFault
from .serialization import decode_varint, encode_varint


def _encode_fixed(field_type: FieldType, value: object) -> bytes:
    if field_type is FieldType.INT:
        return struct.pack(">q", int(value))  # type: ignore[arg-type]
    if field_type is FieldType.FLOAT:
        return struct.pack(">d", float(value))  # type: ignore[arg-type]
    if field_type is FieldType.BOOL:
        return b"\x01" if value else b"\x00"
    raise RuntimeFault(f"{field_type} is not fixed-width")


def _decode_fixed(
    field_type: FieldType, data: bytes, offset: int
) -> Tuple[object, int]:
    if field_type is FieldType.INT:
        return struct.unpack_from(">q", data, offset)[0], offset + 8
    if field_type is FieldType.FLOAT:
        return struct.unpack_from(">d", data, offset)[0], offset + 8
    if field_type is FieldType.BOOL:
        return data[offset] != 0, offset + 1
    raise RuntimeFault(f"{field_type} is not fixed-width")


class AdnWireCodec:
    """Encoder/decoder bound to one hop's :class:`HeaderLayout`."""

    def __init__(self, layout: HeaderLayout):
        self.layout = layout
        self._by_id = {entry.field_id: entry for entry in layout.fields}
        #: the variable-width fields: ``encoded_size`` adds their sizes
        #: to the layout's ``fixed_bytes`` (every fixed id and value)
        self._variable = tuple(
            entry.name for entry in layout.fields if not entry.fixed
        )

    def encode(self, fields: Dict[str, object]) -> bytes:
        """Encode a tuple. Missing fixed fields default to zero values;
        missing variable fields encode empty. None encodes as the
        type's zero (the compact format has no presence bits — absence
        is resolved by the layout itself)."""
        out = bytearray()
        for entry in self.layout.fields:
            value = fields.get(entry.name)
            out.append(entry.field_id)
            if entry.fixed:
                if value is None:
                    value = 0 if entry.type is not FieldType.BOOL else False
                out.extend(_encode_fixed(entry.type, value))
            else:
                if value is None:
                    raw = b""
                elif isinstance(value, bytes):
                    raw = value
                elif isinstance(value, str):
                    raw = value.encode("utf-8")
                else:
                    raw = str(value).encode("utf-8")
                out.extend(encode_varint(len(raw)))
                out.extend(raw)
        return bytes(out)

    def decode(self, data: bytes) -> Dict[str, object]:
        fields: Dict[str, object] = {}
        offset = 0
        while offset < len(data):
            field_id = data[offset]
            offset += 1
            entry = self._by_id.get(field_id)
            if entry is None:
                raise RuntimeFault(
                    f"unknown field id {field_id} (layout mismatch)"
                )
            if entry.fixed:
                value, offset = _decode_fixed(entry.type, data, offset)
            else:
                length, offset = decode_varint(data, offset)
                if offset + length > len(data):
                    raise RuntimeFault("truncated variable field")
                raw = data[offset : offset + length]
                offset += length
                value = (
                    raw if entry.type is FieldType.BYTES else raw.decode("utf-8")
                )
            fields[entry.name] = value
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
                length = (
                    len(value) if value.isascii()
                    else len(value.encode("utf-8"))
                )
            else:
                length = len(str(value).encode("utf-8"))
            size += 1 + length + (
                1 if length < 0x80 else (length.bit_length() + 6) // 7
            )
        return size
