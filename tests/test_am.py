"""Active Messages: the wire codec and the hidden activity field."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.labels import ActivityLabel
from repro.errors import NetworkError
from repro.hw.radio import Frame
from repro.tos.am import (
    AM_BROADCAST,
    _crc16,
    decode_frame,
    encode_frame,
    frame_size,
)


def crc16_bitwise(data) -> int:
    """The bit-by-bit reflected CRC-16 (polynomial 0x8408, zero init:
    CRC-16/KERMIT) — the oracle for the C-speed ``_crc16``."""
    crc = 0
    for byte in bytes(data):
        crc ^= byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ 0x8408
            else:
                crc >>= 1
    return crc & 0xFFFF


def test_codec_roundtrip_simple():
    frame = Frame(src=1, dst=4, am_type=0x42, payload=b"hello",
                  activity=ActivityLabel(4, 7).encode(), seqno=9)
    decoded = decode_frame(encode_frame(frame))
    assert decoded.src == 1
    assert decoded.dst == 4
    assert decoded.am_type == 0x42
    assert decoded.payload == b"hello"
    assert decoded.activity == ActivityLabel(4, 7).encode()
    assert decoded.seqno == 9


def test_wire_length_matches_frame_length():
    frame = Frame(src=1, dst=2, am_type=1, payload=b"x" * 10)
    raw = encode_frame(frame)
    assert len(raw) == frame.length


@settings(max_examples=60, deadline=None)
@given(
    src=st.integers(min_value=0, max_value=0xFFFF),
    dst=st.integers(min_value=0, max_value=0xFFFF),
    am_type=st.integers(min_value=0, max_value=0xFF),
    payload=st.binary(max_size=100),
    activity=st.integers(min_value=0, max_value=0xFFFF),
    seqno=st.integers(min_value=0, max_value=0xFF),
)
def test_codec_roundtrip_property(src, dst, am_type, payload, activity,
                                  seqno):
    frame = Frame(src=src, dst=dst, am_type=am_type, payload=payload,
                  activity=activity, seqno=seqno)
    decoded = decode_frame(encode_frame(frame))
    assert (decoded.src, decoded.dst, decoded.am_type, decoded.payload,
            decoded.activity, decoded.seqno) == (
        src, dst, am_type, payload, activity, seqno)


def test_crc16_known_answer():
    # The CRC-16/KERMIT check value.
    assert crc16_bitwise(b"123456789") == 0x2189
    assert _crc16(b"123456789") == 0x2189
    assert _crc16(b"") == 0


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=300),
       kind=st.sampled_from((bytes, bytearray, memoryview)))
def test_crc16_matches_bitwise_oracle(data, kind):
    assert _crc16(kind(data)) == crc16_bitwise(data)


def test_frame_size_matches_encoded_length():
    # Past 255 payload bytes the header's length byte masks; the size
    # still counts every byte on the wire.
    for length in range(301):
        frame = Frame(src=3, dst=AM_BROADCAST, am_type=7,
                      payload=bytes(i & 0xFF for i in range(length)),
                      activity=0x0102, seqno=length & 0xFF)
        assert frame_size(frame) == len(encode_frame(frame)) == frame.length


@settings(max_examples=60, deadline=None)
@given(payload=st.binary(max_size=60), data=st.data())
def test_crc_detects_any_single_bit_flip(payload, data):
    raw = bytearray(encode_frame(Frame(src=1, dst=2, am_type=1,
                                       payload=payload)))
    bit = data.draw(st.integers(min_value=0, max_value=8 * len(raw) - 1))
    raw[bit // 8] ^= 1 << (bit % 8)
    with pytest.raises(NetworkError):
        decode_frame(bytes(raw))


def test_crc_detects_corruption():
    raw = bytearray(encode_frame(Frame(src=1, dst=2, am_type=1,
                                       payload=b"data")))
    raw[5] ^= 0xFF
    with pytest.raises(NetworkError):
        decode_frame(bytes(raw))


def test_truncated_frame_rejected():
    with pytest.raises(NetworkError):
        decode_frame(b"\x00" * 5)


def test_length_field_mismatch_rejected():
    raw = bytearray(encode_frame(Frame(src=1, dst=2, am_type=1,
                                       payload=b"data")))
    # Shorten the payload but keep the header's length byte and fix CRC:
    # decode must reject the inconsistency (we simply cut bytes; CRC fails
    # first, which is also acceptable rejection).
    with pytest.raises(NetworkError):
        decode_frame(bytes(raw[:-3]))


def test_send_stamps_cpu_activity(bounce_run):
    """Integration: frames on the air carry the sender's activity."""
    network, (node1, node4), (app1, app4) = bounce_run
    # Both apps exchanged packets; node1 received node4's original packet
    # carrying 4:BounceApp.
    assert app1.received > 0
    remote = node1.registry.label(4, "BounceApp")
    assert node1.am.received > 0
    # The AM layer bound the CPU to the remote label at least once.
    binds = [e for e in node1.entries()
             if e.type_name == "act_bind" and e.res_id == 0
             and e.value == remote.encode()]
    assert binds


def test_broadcast_constant():
    assert AM_BROADCAST == 0xFFFF
