"""Property-based tests (hypothesis) for the wire codecs: varints,
protobuf-style serialization, the ADN compact format, TCP reassembly,
and HTTP/2 framing."""

import string
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.headers import build_layout, relayout_for_switch
from repro.dsl.schema import FieldType, RpcSchema
from repro.errors import RuntimeFault
from repro.net import (
    AdnWireCodec,
    MessageFramer,
    ProtoCodec,
    TcpReceiver,
    TcpSender,
    decode_grpc_message,
    decode_varint,
    encode_grpc_message,
    encode_varint,
    zigzag_decode,
    zigzag_encode,
)

from repro.dsl.schema import META_FIELDS

field_names = st.lists(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8).filter(
        lambda name: name not in META_FIELDS
    ),
    min_size=1,
    max_size=6,
    unique=True,
)

INT64 = st.integers(min_value=-(2**62), max_value=2**62)


class TestVarints:
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_varint_roundtrip(self, value):
        encoded = encode_varint(value)
        decoded, offset = decode_varint(encoded, 0)
        assert decoded == value
        assert offset == len(encoded)

    @given(INT64)
    def test_zigzag_roundtrip(self, value):
        assert zigzag_decode(zigzag_encode(value)) == value

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_varint_length_monotone_in_magnitude(self, value):
        assert len(encode_varint(value)) <= len(encode_varint(2**63 - 1))


def _schema_and_values(names):
    types = [
        FieldType.INT,
        FieldType.FLOAT,
        FieldType.BOOL,
        FieldType.STR,
        FieldType.BYTES,
    ]
    schema = RpcSchema("prop")
    for index, name in enumerate(names):
        schema.add(name, types[index % len(types)])
    return schema


#: long enough that the varint length prefix takes two bytes
LONG = 128

#: text UTF-8 cannot encode: a lone surrogate, alone or after ASCII
LONE_SURROGATE = st.builds(
    str.__add__,
    st.text(alphabet=string.ascii_letters, max_size=3),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
)


def _wire_values(field_type):
    """Values the ADN codec encodes for a field of ``field_type``: None,
    values of the type itself and, for variable-width fields, non-ASCII,
    unencodable and long text and values it stringifies (numbers,
    booleans)."""
    if field_type is FieldType.INT:
        return st.none() | INT64
    if field_type is FieldType.FLOAT:
        return st.none() | st.floats()
    if field_type is FieldType.BOOL:
        return st.none() | st.booleans()
    own = (
        st.binary(max_size=200) | st.binary(min_size=LONG, max_size=300)
        if field_type is FieldType.BYTES
        else st.text(max_size=200) | st.text(min_size=LONG, max_size=300)
    )
    return (
        st.none()
        | own
        | st.text(alphabet=st.characters(min_codepoint=0x80), min_size=1)
        | LONE_SURROGATE
        | st.integers()
        | st.floats()
        | st.booleans()
    )


class TestProtoCodec:
    @given(
        names=field_names,
        ints=st.lists(INT64, min_size=6, max_size=6),
        text=st.text(max_size=40),
        blob=st.binary(max_size=60),
        flag=st.booleans(),
        real=st.floats(allow_nan=False, allow_infinity=False, width=32),
    )
    @settings(max_examples=60)
    def test_roundtrip(self, names, ints, text, blob, flag, real):
        schema = _schema_and_values(names)
        values = {}
        for index, name in enumerate(names):
            field_type = schema.fields[name].type
            values[name] = {
                FieldType.INT: ints[index],
                FieldType.FLOAT: float(real),
                FieldType.BOOL: flag,
                FieldType.STR: text,
                FieldType.BYTES: blob,
            }[field_type]
        codec = ProtoCodec(schema)
        assert codec.decode(codec.encode(values)) == values


class TestAdnWire:
    @given(
        names=field_names,
        ints=st.lists(INT64, min_size=6, max_size=6),
        text=st.text(max_size=40),
        blob=st.binary(max_size=60),
        flag=st.booleans(),
        real=st.floats(allow_nan=False, allow_infinity=False, width=32),
    )
    @settings(max_examples=60)
    def test_roundtrip(self, names, ints, text, blob, flag, real):
        schema = _schema_and_values(names)
        layout = build_layout(
            {name: spec.type for name, spec in schema.fields.items()}
        )
        codec = AdnWireCodec(layout)
        values = {}
        for index, name in enumerate(names):
            field_type = schema.fields[name].type
            values[name] = {
                FieldType.INT: ints[index],
                FieldType.FLOAT: float(real),
                FieldType.BOOL: flag,
                FieldType.STR: text,
                FieldType.BYTES: blob,
            }[field_type]
        assert codec.decode(codec.encode(values)) == values

    @given(names=field_names, data=st.data())
    @settings(max_examples=150)
    def test_encoded_size_is_encoded_length(self, names, data):
        schema = _schema_and_values(names)
        codec = AdnWireCodec(
            build_layout(
                {name: spec.type for name, spec in schema.fields.items()}
            )
        )
        values = {
            name: data.draw(_wire_values(spec.type), label=name)
            for name, spec in schema.fields.items()
        }
        try:
            size = codec.encoded_size(values)
        except RuntimeFault:
            # text UTF-8 cannot encode: both calls reject it
            with pytest.raises(RuntimeFault, match="not encodable as UTF-8"):
                codec.encode(values)
        else:
            assert size == len(codec.encode(values))

    def test_unencodable_text_faults_naming_the_field(self):
        codec = AdnWireCodec(
            build_layout({"obj_id": FieldType.INT, "username": FieldType.STR})
        )
        row = {"obj_id": 1, "username": "usr\ud800"}
        for call in (codec.encode, codec.encoded_size):
            with pytest.raises(
                RuntimeFault,
                match="field 'username' is not encodable as UTF-8",
            ):
                call(row)

    def test_encoded_size_at_varint_boundaries(self):
        codec = AdnWireCodec(build_layout({"blob": FieldType.BYTES}))
        for length in (0, 127, 128, 16383, 16384):
            value = {"blob": b"x" * length}
            assert codec.encoded_size(value) == len(codec.encode(value))

    @given(names=field_names)
    @settings(max_examples=30)
    def test_layout_offsets_strictly_increase(self, names):
        layout = build_layout({name: FieldType.INT for name in names})
        offsets = [entry.offset for entry in layout.fields]
        assert offsets == sorted(offsets)
        assert len(set(offsets)) == len(offsets)


class ReferenceWireCodec:
    """The ADN compact format encoded and decoded one field at a time,
    as :class:`AdnWireCodec` first did: the reference the compiled
    codec must agree with byte for byte and row for row."""

    def __init__(self, layout):
        self.layout = layout
        self._by_id = {entry.field_id: entry for entry in layout.fields}

    @staticmethod
    def _encode_fixed(field_type, value):
        if field_type is FieldType.INT:
            return struct.pack(">q", int(value))
        if field_type is FieldType.FLOAT:
            return struct.pack(">d", float(value))
        if field_type is FieldType.BOOL:
            return b"\x01" if value else b"\x00"
        raise RuntimeFault(f"{field_type} is not fixed-width")

    @staticmethod
    def _decode_fixed(field_type, data, offset):
        if field_type is FieldType.INT:
            return struct.unpack_from(">q", data, offset)[0], offset + 8
        if field_type is FieldType.FLOAT:
            return struct.unpack_from(">d", data, offset)[0], offset + 8
        if field_type is FieldType.BOOL:
            return data[offset] != 0, offset + 1
        raise RuntimeFault(f"{field_type} is not fixed-width")

    def encode(self, fields, order=None):
        """Encode ``fields``; ``order`` lays the layout's fields out in
        another order, as a peer with another layout would."""
        out = bytearray()
        for entry in order or self.layout.fields:
            value = fields.get(entry.name)
            out.append(entry.field_id)
            if entry.fixed:
                if value is None:
                    value = 0 if entry.type is not FieldType.BOOL else False
                out.extend(self._encode_fixed(entry.type, value))
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

    def decode(self, data):
        fields = {}
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
                value, offset = self._decode_fixed(entry.type, data, offset)
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


FIXED_TYPES = (FieldType.INT, FieldType.FLOAT, FieldType.BOOL)
VARIABLE_TYPES = (FieldType.STR, FieldType.BYTES)


@st.composite
def wire_layouts(draw):
    """Layouts with no fixed field, with no variable field, or with both
    (``build_layout`` puts BOOL after INT/FLOAT); some are re-laid for a
    switch, which turns read STR fields into fixed slots."""
    types = draw(st.sampled_from(
        [FIXED_TYPES, VARIABLE_TYPES, FIXED_TYPES + VARIABLE_TYPES]
    ))
    fields = draw(st.dictionaries(
        st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6),
        st.sampled_from(types),
        min_size=1,
        max_size=8,
    ))
    layout = build_layout(fields)
    strs = [name for name, kind in fields.items() if kind is FieldType.STR]
    if strs and draw(st.booleans()):
        layout = relayout_for_switch(layout, strs[:1])
    return layout


#: lengths at the one- and two-byte varint boundaries
BOUNDARY_TEXT = st.sampled_from([127, 128, 16384]).map(lambda n: "é" * n)
BOUNDARY_BYTES = st.sampled_from([127, 128, 16384]).map(lambda n: b"x" * n)


def _field_values(field_type):
    """What a row may hold for a field: None, the type's own values at
    their edges and values of other types the encoder converts."""
    if field_type is FieldType.INT:
        own = (
            st.integers(min_value=-(2**63), max_value=2**63 - 1)
            | st.sampled_from([-(2**63), 2**63 - 1, 2**63, -(2**63) - 1])
            | st.booleans()
            | st.floats(min_value=-1e6, max_value=1e6)
        )
    elif field_type is FieldType.FLOAT:
        own = st.floats() | st.integers() | st.booleans()
    elif field_type is FieldType.BOOL:
        own = st.booleans() | st.integers(min_value=0, max_value=2) | st.text(
            max_size=1
        )
    else:
        own = (
            st.text(max_size=20)
            | st.binary(max_size=20)
            | BOUNDARY_TEXT
            | BOUNDARY_BYTES
            | st.integers()
            | st.floats()
            | st.booleans()
        )
    return st.none() | own


@st.composite
def wire_rows(draw, layout):
    """A row for ``layout``: each field missing, None or a drawn value,
    plus a field the layout does not carry."""
    row = {"not_on_the_wire": 1}
    for entry in layout.fields:
        if draw(st.booleans()):
            row[entry.name] = draw(_field_values(entry.type))
    return row


def _canonical(row):
    """A row as comparable data: keys in order, each value with its type,
    floats by their bits (so NaNs compare)."""
    return [
        (name, type(value).__name__,
         struct.pack(">d", value) if isinstance(value, float) else value)
        for name, value in row.items()
    ]


def _outcome(call, *args):
    """``("ok", result)`` or ``("fails",)``: a call that raises in one
    codec must raise in the other, though not necessarily the same
    exception (the reference leaks ``struct.error`` and ``IndexError``)."""
    try:
        result = call(*args)
    except Exception:  # noqa: BLE001 - any failure counts as failing
        return ("fails",)
    return ("ok", _canonical(result) if isinstance(result, dict) else result)


class TestWireAgainstReference:
    @given(layout=wire_layouts(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_bytes_and_rows(self, layout, data):
        codec, reference = AdnWireCodec(layout), ReferenceWireCodec(layout)
        row = data.draw(wire_rows(layout), label="row")
        encoded = _outcome(codec.encode, row)
        assert encoded == _outcome(reference.encode, row)
        if encoded[0] == "ok":
            frame = encoded[1]
            assert codec.encoded_size(row) == len(frame)
            # bytes in a STR field need not be UTF-8: such a frame
            # fails to decode in both codecs
            assert _outcome(codec.decode, frame) == _outcome(
                reference.decode, frame
            )

    @given(layout=wire_layouts(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_cut_decodes_or_faults(self, layout, data):
        codec = AdnWireCodec(layout)
        row = data.draw(wire_rows(layout), label="row")
        try:
            frame = codec.encode(row)
            codec.decode(frame)
        except Exception:  # noqa: BLE001 - only valid frames are cut
            return
        for cut in range(len(frame)):
            try:
                codec.decode(frame[:cut])
            except RuntimeFault:
                pass

    @given(layout=wire_layouts(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_reordered_and_damaged_frames_decode_alike(self, layout, data):
        codec, reference = AdnWireCodec(layout), ReferenceWireCodec(layout)
        row = data.draw(wire_rows(layout), label="row")
        order = data.draw(st.permutations(layout.fields), label="order")
        try:
            frame = bytearray(reference.encode(row, order))
        except Exception:  # noqa: BLE001 - only encodable rows matter here
            frame = bytearray()
        damage = data.draw(
            st.sampled_from(["none", "cut", "flip", "id", "append", "random"]),
            label="damage",
        )
        if damage == "cut":
            frame = frame[: data.draw(st.integers(0, len(frame)))]
        elif damage == "flip" and frame:
            index = data.draw(st.integers(0, len(frame) - 1))
            frame[index] = data.draw(st.integers(0, 255))
        elif damage == "id" and frame:
            # another field's id where one is expected, or anywhere
            index = data.draw(st.integers(0, len(frame) - 1))
            frame[index] = data.draw(st.sampled_from(layout.fields)).field_id
        elif damage == "append":
            frame += data.draw(st.binary(min_size=1, max_size=12))
        elif damage == "random":
            frame = bytearray(data.draw(st.binary(max_size=64)))
        frame = bytes(frame)
        assert _outcome(codec.decode, frame) == _outcome(
            reference.decode, frame
        )


class TestTcpProperties:
    @given(
        data=st.binary(min_size=0, max_size=5000),
        mss=st.integers(min_value=1, max_value=1460),
    )
    @settings(max_examples=60)
    def test_segmentation_reassembly_identity(self, data, mss):
        sender = TcpSender(1, 2, mss=mss)
        receiver = TcpReceiver()
        out = b""
        for segment in sender.send(data):
            out += receiver.receive(segment)
        assert out == data

    @given(
        messages=st.lists(st.binary(max_size=200), min_size=1, max_size=10),
        chunk=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60)
    def test_framer_recovers_messages_under_any_chunking(self, messages, chunk):
        stream = b"".join(MessageFramer.frame(m) for m in messages)
        framer = MessageFramer()
        recovered = []
        for start in range(0, len(stream), chunk):
            recovered.extend(framer.feed(stream[start : start + chunk]))
        assert recovered == messages


class TestHttp2Properties:
    @given(payload=st.binary(max_size=1000))
    @settings(max_examples=60)
    def test_grpc_roundtrip(self, payload):
        headers = {":path": "/svc/M", "content-type": "application/grpc"}
        data = encode_grpc_message(headers, payload)
        decoded_headers, decoded_payload = decode_grpc_message(data)
        assert decoded_payload == payload
        assert decoded_headers == headers
