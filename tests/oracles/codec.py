"""The seed wire codec, frozen as the oracle of :mod:`repro.runtime.codec`.

The seed encoder joined one ``bytes`` part per field and the seed decoder
walked the frame through a bounds-checked cursor object; the product walks
it by integer offset.  ``tests/runtime/test_codec_reference.py`` requires
byte-identical frames and the same ``CodecError.reason`` on every
malformed input.
"""

from __future__ import annotations

import struct
import zlib
from typing import Optional

from repro.core.packet import AskPacket, PacketFlag
from repro.runtime.codec import MAGIC, VERSION, VERSION_LEGACY, CodecError

_REF_FIXED = struct.Struct("!BBBBQqhQ")
_REF_SLOT_HEAD = struct.Struct("!H")
_REF_VALUE = struct.Struct("!Q")
_REF_CRC = struct.Struct("!I")
_REF_VALUE_MASK = (1 << 64) - 1
_REF_DEFINED_FLAGS = 0
for _flag in PacketFlag:
    _REF_DEFINED_FLAGS |= int(_flag)


def reference_encode_packet(packet: AskPacket, version: int = VERSION) -> bytes:
    """Seed ``encode_packet``: one ``bytes`` part per field, joined."""
    if version not in (VERSION, VERSION_LEGACY):
        raise CodecError(f"cannot encode frame version {version}", reason="version")
    src = packet.src.encode("utf-8")
    dst = packet.dst.encode("utf-8")
    if len(src) > 255 or len(dst) > 255:
        raise CodecError("endpoint names longer than 255 bytes cannot be framed")
    parts = [
        _REF_FIXED.pack(
            MAGIC,
            version,
            int(packet.flags) & 0xFF,
            1 if packet.ecn else 0,
            packet.task_id & _REF_VALUE_MASK,
            packet.seq,
            packet.channel_index,
            packet.bitmap & _REF_VALUE_MASK,
        ),
        bytes((len(src),)),
        src,
        bytes((len(dst),)),
        dst,
        _REF_SLOT_HEAD.pack(len(packet.keys)),
    ]
    for key, value in zip(packet.keys, packet.values):
        if key is None:
            parts.append(b"\x00")
            continue
        if len(key) > 0xFFFF:
            raise CodecError(f"slot key of {len(key)} bytes cannot be framed")
        parts.append(b"\x01")
        parts.append(struct.pack("!H", len(key)))
        parts.append(key)
        parts.append(_REF_VALUE.pack(value & _REF_VALUE_MASK))
    body = b"".join(parts)
    if version == VERSION_LEGACY:
        return body
    return body + _REF_CRC.pack(zlib.crc32(body))


class _ReferenceCursor:
    """Bounds-checked cursor over one datagram."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise CodecError(
                f"truncated datagram: wanted {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}",
                reason="truncated",
            )
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def byte(self) -> int:
        return self.take(1)[0]


def reference_decode_packet(data: bytes) -> AskPacket:
    """Seed ``decode_packet``: copies the body, then 15 ``take()`` calls
    per frame through :class:`_ReferenceCursor`."""
    if len(data) < _REF_FIXED.size:
        raise CodecError(
            f"datagram of {len(data)} bytes is shorter than the fixed header",
            reason="truncated",
        )
    magic, version, flags, ecn, task_id, seq, channel_index, bitmap = _REF_FIXED.unpack(
        data[: _REF_FIXED.size]
    )
    if magic != MAGIC:
        raise CodecError(f"bad magic 0x{magic:02x} (not an ASK frame)", reason="magic")
    if version == VERSION:
        if len(data) < _REF_FIXED.size + _REF_CRC.size:
            raise CodecError(
                "version-2 frame too short to carry its CRC32 trailer",
                reason="truncated",
            )
        body, trailer = data[: -_REF_CRC.size], data[-_REF_CRC.size :]
        (expected,) = _REF_CRC.unpack(trailer)
        actual = zlib.crc32(body)
        if actual != expected:
            raise CodecError(
                f"CRC32 mismatch: trailer 0x{expected:08x}, computed 0x{actual:08x}",
                reason="checksum",
            )
    elif version == VERSION_LEGACY:
        body = data
    else:
        raise CodecError(f"unsupported frame version {version}", reason="version")
    if flags & ~_REF_DEFINED_FLAGS:
        raise CodecError(
            f"undefined flag bits 0x{flags & ~_REF_DEFINED_FLAGS:02x} in 0x{flags:02x}",
            reason="flags",
        )
    if ecn > 1:
        raise CodecError(f"bad ECN byte {ecn} (must be 0 or 1)")
    reader = _ReferenceCursor(body)
    reader.pos = _REF_FIXED.size
    try:
        src = reader.take(reader.byte()).decode("utf-8")
        dst = reader.take(reader.byte()).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"undecodable endpoint name: {exc}") from exc
    (slot_count,) = _REF_SLOT_HEAD.unpack(reader.take(_REF_SLOT_HEAD.size))
    keys: list[Optional[bytes]] = []
    values: list[Optional[int]] = []
    for _ in range(slot_count):
        present = reader.byte()
        if present == 0:
            keys.append(None)
            values.append(None)
        elif present == 1:
            (key_len,) = struct.unpack("!H", reader.take(2))
            keys.append(reader.take(key_len))
            (value,) = _REF_VALUE.unpack(reader.take(_REF_VALUE.size))
            values.append(value)
        else:
            raise CodecError(f"bad slot presence byte {present}")
    if reader.pos != len(body):
        raise CodecError(f"{len(body) - reader.pos} trailing bytes after packet")
    return AskPacket(
        flags=PacketFlag(flags),
        task_id=task_id,
        src=src,
        dst=dst,
        channel_index=channel_index,
        seq=seq,
        bitmap=bitmap,
        keys=tuple(keys),
        values=tuple(values),
        ecn=bool(ecn),
    )
