"""Wire codec tests: every packet round-trips, no datagram crashes it."""

import zlib

import pytest

from repro.core.packet import (
    AskPacket,
    PacketFlag,
    ack_for,
    fin_packet,
    swap_packet,
)
from repro.runtime.codec import (
    MAGIC,
    VERSION_LEGACY,
    CodecError,
    decode_packet,
    encode_packet,
)
from tests.conftest import slot_columns


def reseal(body: bytes) -> bytes:
    """Append a fresh CRC32 trailer over ``body`` so only the *semantic*
    mutation under test reaches the decoder, not a checksum failure."""
    return body + zlib.crc32(body).to_bytes(4, "big")


def body_of(data: bytes) -> bytearray:
    """The mutable pre-trailer portion of a version-2 frame."""
    return bytearray(data[:-4])


def data_packet(
    slots=((b"cat\x00\x00\x00\x00\x00", 5), None, (b"dog\x00\x00\x00\x00\x00", 9)),
    **overrides,
):
    fields = dict(
        flags=PacketFlag.DATA,
        task_id=7,
        src="h0",
        dst="h2",
        channel_index=3,
        seq=42,
        bitmap=0b101,
        **slot_columns(slots),
    )
    fields.update(overrides)
    return AskPacket(**fields)


@pytest.mark.parametrize(
    "packet",
    [
        data_packet(),
        data_packet(bitmap=0, slots=(), ecn=True),
        data_packet(flags=PacketFlag.DATA | PacketFlag.LONG, bitmap=1, slots=((b"k" * 300, 1),)),
        ack_for(data_packet(), "switch"),
        fin_packet(7, "h0", "h2", 3, 99),
        swap_packet(7, "h2", "switch", 4),
    ],
    ids=["data", "empty-ecn", "long", "ack", "fin", "swap"],
)
def test_roundtrip(packet):
    assert decode_packet(encode_packet(packet)) == packet


def test_roundtrip_preserves_derived_predicates():
    decoded = decode_packet(encode_packet(swap_packet(1, "h0", "tor-r1", 2)))
    assert decoded.is_swap and not decoded.is_data
    assert decoded.channel_index == -1
    assert decoded.channel_key == ("h0", -1)


def test_roundtrip_large_values_and_ids():
    packet = data_packet(
        task_id=(3 << 32) | 17,  # tenant-encoded id
        seq=(1 << 40),
        bitmap=(1 << 63),
        slots=[None] * 63 + [(b"x" * 8, (1 << 64) - 1)],
    )
    assert decode_packet(encode_packet(packet)) == packet


def test_bad_magic_rejected():
    data = bytearray(encode_packet(data_packet()))
    data[0] ^= 0xFF
    with pytest.raises(CodecError, match="magic"):
        decode_packet(bytes(data))


def test_bad_version_rejected():
    data = bytearray(encode_packet(data_packet()))
    data[1] = 99
    with pytest.raises(CodecError, match="version"):
        decode_packet(bytes(data))


def test_truncation_rejected_at_every_length():
    data = encode_packet(data_packet())
    for cut in range(len(data)):
        with pytest.raises(CodecError):
            decode_packet(data[:cut])


def test_trailing_garbage_rejected():
    # Garbage *inside* a correctly-sealed frame is a framing error...
    body = body_of(encode_packet(data_packet()))
    with pytest.raises(CodecError, match="trailing"):
        decode_packet(reseal(bytes(body) + b"\x00"))


def test_appended_noise_fails_checksum():
    # ...while bytes appended after the trailer shift it and fail the CRC.
    data = encode_packet(data_packet())
    with pytest.raises(CodecError) as excinfo:
        decode_packet(data + b"\x00")
    assert excinfo.value.reason == "checksum"


def test_bad_presence_byte_rejected():
    packet = data_packet(slots=((b"k" * 8, 1),), bitmap=1)
    body = body_of(encode_packet(packet))
    # The presence byte of slot 0 sits right after the 2-byte slot count.
    offset = len(body) - (1 + 2 + 8 + 8)
    assert body[offset] == 1
    body[offset] = 7
    with pytest.raises(CodecError, match="presence"):
        decode_packet(reseal(bytes(body)))


def test_checksum_catches_every_single_bit_flip():
    data = encode_packet(data_packet())
    for i in range(len(data)):
        for bit in range(8):
            mutated = bytearray(data)
            mutated[i] ^= 1 << bit
            with pytest.raises(CodecError):
                decode_packet(bytes(mutated))


@pytest.mark.parametrize("version", [VERSION_LEGACY, 2])
def test_undefined_flag_bits_rejected(version):
    # Regression: IntFlag's KEEP boundary used to accept unknown bits and
    # hand the stack a flag value no dispatch path expects.
    data = encode_packet(data_packet(), version=version)
    body = bytearray(data if version == VERSION_LEGACY else data[:-4])
    body[2] |= 0x80  # a flag bit the protocol does not define
    framed = bytes(body) if version == VERSION_LEGACY else reseal(bytes(body))
    with pytest.raises(CodecError) as excinfo:
        decode_packet(framed)
    assert excinfo.value.reason == "flags"


def test_bad_ecn_byte_rejected():
    body = body_of(encode_packet(data_packet()))
    body[3] = 7
    with pytest.raises(CodecError, match="ECN"):
        decode_packet(reseal(bytes(body)))


def test_legacy_v1_frames_still_decode():
    for packet in (data_packet(), ack_for(data_packet(), "switch")):
        legacy = encode_packet(packet, version=VERSION_LEGACY)
        assert legacy[1] == VERSION_LEGACY
        # No trailer: 4 bytes shorter than the v2 frame of the same packet.
        assert len(legacy) == len(encode_packet(packet)) - 4
        assert decode_packet(legacy) == packet


def test_unknown_encode_version_rejected():
    with pytest.raises(CodecError, match="version"):
        encode_packet(data_packet(), version=3)


def test_arbitrary_noise_never_escapes_codec_error():
    import random

    rng = random.Random(0)
    for size in (0, 1, 10, 30, 100):
        for _ in range(50):
            noise = bytes(rng.randrange(256) for _ in range(size))
            try:
                decode_packet(noise)
            except CodecError:
                pass  # the only acceptable failure mode


def test_noise_behind_valid_magic_never_escapes_codec_error():
    import random

    rng = random.Random(1)
    for _ in range(200):
        noise = bytes([MAGIC, 1]) + bytes(
            rng.randrange(256) for _ in range(rng.randrange(60))
        )
        try:
            decode_packet(noise)
        except CodecError:
            pass


def test_oversized_names_rejected_on_encode():
    with pytest.raises(CodecError, match="name"):
        encode_packet(data_packet(src="h" * 256))


def test_oversized_key_rejected_on_encode():
    packet = data_packet(slots=((b"k" * 70000, 1),), bitmap=1)
    with pytest.raises(CodecError, match="key"):
        encode_packet(packet)
