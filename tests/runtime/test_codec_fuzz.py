"""Property-based fuzzing of the wire codec's failure surface.

The contract under test: :func:`~repro.runtime.codec.decode_packet` either
returns a valid :class:`~repro.core.packet.AskPacket` or raises
:class:`~repro.runtime.codec.CodecError` with a tagged ``reason`` — never
``struct.error``, ``UnicodeDecodeError``, ``ValueError``, ``IndexError``
or any other leaked internal exception, for *any* byte string.  Three
attack shapes:

- truncation at every prefix length of a valid frame,
- arbitrary random byte strings (most die on magic/length),
- single-byte mutations of valid frames (the checksum catches almost all
  of them; the survivors must still decode or fail cleanly).
"""

import zlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.packet import PacketFlag
from repro.runtime.codec import (
    VERSION_LEGACY,
    CodecError,
    decode_packet,
    encode_packet,
)
from tests.conftest import build_packet

#: Every reason the codec is allowed to fail with.
CODEC_REASONS = {
    "magic",
    "version",
    "flags",
    "truncated",
    "checksum",
    "malformed",
    "trailing",
}

_SLOT_KEY = st.binary(min_size=0, max_size=24)

_packets = st.builds(
    build_packet,
    flags=st.sampled_from(
        [
            PacketFlag.DATA,
            PacketFlag.DATA | PacketFlag.LONG,
            PacketFlag.ACK,
            PacketFlag.FIN,
            PacketFlag.SWAP,
            PacketFlag.DATA | PacketFlag.BYPASS,
        ]
    ),
    task_id=st.integers(0, (1 << 48) - 1),
    src=st.sampled_from(["h0", "h1", "switch", "tor-r1"]),
    dst=st.sampled_from(["h2", "switch", "tor-r0"]),
    channel_index=st.integers(-1, 255),
    seq=st.integers(0, (1 << 40) - 1),
    bitmap=st.integers(0, (1 << 16) - 1),
    slots=st.lists(
        st.one_of(st.none(), st.tuples(_SLOT_KEY, st.integers(0, 2**32))),
        max_size=6,
    ),
    ecn=st.booleans(),
)


def _decode_or_codec_error(data: bytes) -> None:
    """The invariant: decode succeeds or fails with a tagged CodecError."""
    try:
        decode_packet(data)
    except CodecError as exc:
        assert exc.reason in CODEC_REASONS, exc.reason
    # Any other exception type propagates and fails the test.


@settings(deadline=None)
@given(packet=_packets, data=st.data())
def test_truncation_at_every_prefix_is_clean(packet, data):
    frame = encode_packet(packet)
    cut = data.draw(st.integers(0, len(frame) - 1))
    try:
        decode_packet(frame[:cut])
    except CodecError as exc:
        assert exc.reason in CODEC_REASONS
    else:
        raise AssertionError("a strict prefix of a frame must never decode")


@settings(deadline=None)
@given(data=st.binary(min_size=0, max_size=256))
@example(b"")
@example(b"\x00" * 64)
@example(b"\xff" * 64)
def test_random_bytes_never_leak_internal_exceptions(data):
    _decode_or_codec_error(data)


@settings(deadline=None)
@given(packet=_packets, data=st.data())
def test_single_byte_mutations_are_clean(packet, data):
    frame = bytearray(encode_packet(packet))
    index = data.draw(st.integers(0, len(frame) - 1))
    value = data.draw(st.integers(0, 255).filter(lambda v: v != frame[index]))
    frame[index] = value
    _decode_or_codec_error(bytes(frame))


@settings(deadline=None)
@given(packet=_packets, data=st.data())
def test_mutated_body_behind_valid_checksum_is_clean(packet, data):
    # Resealing after the mutation defeats the CRC, so this drives random
    # damage all the way into the field parser — the adversarial case.
    frame = encode_packet(packet)
    body = bytearray(frame[:-4])
    index = data.draw(st.integers(0, len(body) - 1))
    body[index] ^= 1 << data.draw(st.integers(0, 7))
    resealed = bytes(body) + zlib.crc32(bytes(body)).to_bytes(4, "big")
    _decode_or_codec_error(resealed)


@settings(deadline=None)
@given(packet=_packets, data=st.data())
def test_legacy_v1_mutations_are_clean(packet, data):
    # v1 has no checksum, so every mutation reaches the parser directly.
    frame = bytearray(encode_packet(packet, version=VERSION_LEGACY))
    index = data.draw(st.integers(0, len(frame) - 1))
    frame[index] ^= 1 << data.draw(st.integers(0, 7))
    _decode_or_codec_error(bytes(frame))


@settings(deadline=None)
@given(packet=_packets, tail=st.binary(min_size=1, max_size=32))
def test_appended_tail_bytes_are_clean(packet, tail):
    _decode_or_codec_error(encode_packet(packet) + tail)
