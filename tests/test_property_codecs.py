"""Property-based tests (hypothesis) for the wire codecs: varints,
protobuf-style serialization, the ADN compact format, TCP reassembly,
and HTTP/2 framing."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.headers import build_layout
from repro.dsl.schema import FieldType, RpcSchema
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


def _wire_values(field_type):
    """Values the ADN codec encodes for a field of ``field_type``: None,
    values of the type itself and, for variable-width fields, non-ASCII
    and long text and values it stringifies (numbers, booleans)."""
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
        assert codec.encoded_size(values) == len(codec.encode(values))

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
