"""Differential property: the offset-walking codec against its oracle.

:mod:`repro.runtime.codec` replaced a part-per-field encoder and a
cursor-object decoder; the originals live on as
``reference_encode_packet`` / ``reference_decode_packet`` in
``tests/oracles/codec.py``.  The contract, for both frame versions:

- every packet the stack can build encodes to **identical bytes**, with
  and without the fabric's endpoint-name table, and decodes to an equal
  packet from ``bytes`` and from a view of a reused receive buffer;
- every damaged frame (truncated at any prefix, one byte changed, mutated
  behind a resealed CRC, a tail appended) and every random byte string
  either decodes to equal packets in both, or raises
  :class:`~repro.runtime.codec.CodecError` with the **same ``reason``**
  in both.

Mutation-checked by hand when written.  An off-by-one on a slot bound
(the presence byte's ``pos >= end`` -> ``pos > end``; the value's
``pos > end`` -> ``pos > end + 1``) and a dropped key-length bound each
fail the truncation property; a dropped trailing-bytes check fails the
single-byte, resealed, appended-tail and random-bytes properties.
(``key_at > end`` -> ``>=`` survives because it is equivalent: a key that
starts at the end leaves no room for its value either.)
"""

import zlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.packet import AskPacket, PacketFlag
from repro.runtime.codec import (
    VERSION,
    VERSION_LEGACY,
    CodecError,
    decode_packet,
    encode_packet,
    name_prefix,
)
from tests.conftest import build_packet
from tests.oracles.codec import reference_decode_packet, reference_encode_packet

VERSIONS = st.sampled_from([VERSION, VERSION_LEGACY])
REGISTERED = ["h0", "h1", "switch", "tor-r1", "späne"]
NAME_TABLE = {name: name_prefix(name) for name in REGISTERED}

_names = st.one_of(
    st.sampled_from(REGISTERED),  # hits the fabric's table
    st.text(max_size=12),  # misses it: framed on the spot, may be empty
)
_values = st.integers(0, (1 << 64) - 1)
_slots = st.lists(
    st.one_of(st.none(), st.tuples(st.binary(max_size=24), _values)),
    max_size=8,
)
_packets = st.builds(
    build_packet,
    flags=st.sampled_from(
        [
            PacketFlag.DATA,
            PacketFlag.DATA | PacketFlag.LONG,
            PacketFlag.DATA | PacketFlag.BYPASS,
            PacketFlag.DATA | PacketFlag.LONG | PacketFlag.BYPASS,
            PacketFlag.ACK,
            PacketFlag.FIN,
            PacketFlag.FIN | PacketFlag.BYPASS,
            PacketFlag.SWAP,
        ]
    ),
    task_id=st.integers(0, (1 << 64) - 1),
    src=_names,
    dst=_names,
    channel_index=st.integers(-1, 255),
    seq=st.integers(-(1 << 63), (1 << 63) - 1),
    bitmap=_values,
    slots=_slots,
    ecn=st.booleans(),
)


def _outcome(decode, data):
    """``("ok", packet)`` or ``("error", reason)``; anything but a
    ``CodecError`` propagates and fails the test."""
    try:
        return "ok", decode(data)
    except CodecError as exc:
        return "error", exc.reason


def _assert_same_outcome(data: bytes) -> None:
    expected = _outcome(reference_decode_packet, data)
    assert _outcome(decode_packet, data) == expected
    # The fabric hands the decoder a slice of its receive buffer, with
    # the previous datagram's bytes still lying behind it.
    buffer = bytearray(b"\xa5" * (len(data) + 64))
    buffer[: len(data)] = data
    assert _outcome(decode_packet, memoryview(buffer)[: len(data)]) == expected


def _reseal(body: bytes) -> bytes:
    return body + zlib.crc32(body).to_bytes(4, "big")


@settings(deadline=None)
@given(packet=_packets, version=VERSIONS)
def test_encoders_emit_identical_bytes_and_decoders_equal_packets(packet, version):
    frame = reference_encode_packet(packet, version)
    assert encode_packet(packet, version) == frame
    assert encode_packet(packet, version, NAME_TABLE) == frame
    assert decode_packet(frame) == reference_decode_packet(frame) == packet
    view = memoryview(bytearray(frame + b"\xa5" * 8))[: len(frame)]
    decoded = decode_packet(view)
    assert decoded == packet
    # Nothing in the packet may alias the buffer the next datagram lands in.
    assert type(decoded.src) is str and type(decoded.dst) is str
    assert all(type(key) is bytes for key in decoded.keys if key is not None)


def test_unframable_packets_are_refused_alike():
    ack = AskPacket(PacketFlag.ACK, 1, "h0", "h1", 0, 0)
    long_name = AskPacket(PacketFlag.ACK, 1, "n" * 256, "h1", 0, 0)
    long_key = AskPacket(PacketFlag.DATA, 1, "h0", "h1", 0, 0, 1, (b"k" * 0x10000,), (1,))
    for encode in (reference_encode_packet, encode_packet):
        assert _outcome(lambda packet: encode(packet, 3), ack) == ("error", "version")
        for version in (VERSION, VERSION_LEGACY):
            for packet in (long_name, long_key):
                assert _outcome(lambda p: encode(p, version), packet) == ("error", "malformed")
    # The largest framable key is framed, and framed alike.
    largest = AskPacket(PacketFlag.DATA, 1, "h0", "h1", 0, 0, 1, (b"k" * 0xFFFF,), (1,))
    assert encode_packet(largest) == reference_encode_packet(largest)
    assert decode_packet(encode_packet(largest)) == largest


@settings(deadline=None)
@given(packet=_packets, version=VERSIONS)
def test_truncation_at_every_prefix_fails_alike(packet, version):
    frame = reference_encode_packet(packet, version)
    for cut in range(len(frame)):
        _assert_same_outcome(frame[:cut])
    if version == VERSION_LEGACY:
        # No checksum: cut a frame and the parser itself must notice.
        body_only = reference_encode_packet(packet, VERSION)[:-4]
        for cut in range(len(body_only)):
            _assert_same_outcome(_reseal(body_only[:cut]))


@settings(deadline=None)
@given(packet=_packets, version=VERSIONS, data=st.data())
def test_single_byte_mutations_fail_alike(packet, version, data):
    frame = bytearray(reference_encode_packet(packet, version))
    index = data.draw(st.integers(0, len(frame) - 1))
    frame[index] = data.draw(st.integers(0, 255).filter(lambda v: v != frame[index]))
    _assert_same_outcome(bytes(frame))


@settings(deadline=None)
@given(packet=_packets, data=st.data())
def test_mutations_behind_a_resealed_crc_fail_alike(packet, data):
    # Resealing defeats the CRC, so the damage reaches the field parser:
    # lengths that point past the end, presence bytes that are neither 0
    # nor 1, names that are not UTF-8.
    body = bytearray(reference_encode_packet(packet, VERSION)[:-4])
    for _ in range(data.draw(st.integers(1, 3))):
        index = data.draw(st.integers(0, len(body) - 1))
        body[index] = data.draw(st.integers(0, 255))
    _assert_same_outcome(_reseal(bytes(body)))


@settings(deadline=None)
@given(packet=_packets, version=VERSIONS, tail=st.binary(min_size=1, max_size=32))
def test_appended_tails_fail_alike(packet, version, tail):
    frame = reference_encode_packet(packet, version)
    _assert_same_outcome(frame + tail)
    if version == VERSION:
        _assert_same_outcome(_reseal(frame[:-4] + tail))


@settings(deadline=None)
@given(data=st.binary(max_size=256), head=st.sampled_from([b"", b"\xa5\x01", b"\xa5\x02"]))
@example(data=b"", head=b"")
@example(data=b"\x00" * 64, head=b"\xa5\x01")
@example(data=b"\xff" * 64, head=b"\xa5\x02")
def test_random_bytes_fail_alike(data, head):
    # A valid magic + version in front gets random bytes past the first
    # two checks and into the header and slot parser.
    _assert_same_outcome(head + data)
    if head == b"\xa5\x02":
        _assert_same_outcome(_reseal(head + data))
