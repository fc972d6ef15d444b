"""Wire codec: :class:`~repro.core.packet.AskPacket` ⇄ UDP datagram bytes.

The discrete-event backend moves packet *objects* between nodes; the
asyncio backend moves real datagrams, so it needs a byte encoding.  The
format is a straightforward binary framing of the ASK header of Fig. 5
(it is not byte-identical to the paper's P4 header — endpoint names ride
along because the simulator addresses by name, not by IP):

======  =====  ==========================================================
offset  size   field
======  =====  ==========================================================
0       1      magic (0xA5)
1       1      version (2)
2       1      flags (:class:`~repro.core.packet.PacketFlag` bits)
3       1      ECN congestion-experienced mark (0/1)
4       8      task id (unsigned)
12      8      sequence number / swap epoch (signed)
20      2      channel index (signed; -1 for swap notifications)
22      8      bitmap
30      1+n    src name (length-prefixed UTF-8)
..      1+n    dst name (length-prefixed UTF-8)
..      2      slot count
..      ...    slots
end-4   4      CRC32 integrity trailer (version >= 2 only)
======  =====  ==========================================================

Each slot is ``present(1) [key_len(2) key value(8)]``; blank slots
(``present == 0``) carry no payload.  Values are the masked unsigned
integers the aggregation pipeline works in (§3.2.1), so 8 bytes always
suffice.

Version 2 appends a CRC32 (IEEE, :func:`zlib.crc32`) of everything
before the trailer.  On Tofino the Ethernet FCS provides this for free;
over localhost UDP nothing does, and a single flipped bit in a value or
bitmap would otherwise decode cleanly and silently corrupt the final
aggregate.  With the trailer, corruption degrades to *loss* — the frame
is rejected, the sender retransmits, and exactly-once recovery (§3.3)
applies unchanged.  Version-1 frames (the seed encoding, no trailer)
still decode for compatibility; :func:`encode_packet` can emit them on
request for fabrics running with integrity disabled.

The codec is total: every packet the stack can build round-trips, and
:func:`decode_packet` raises :class:`CodecError` (never an unhandled
struct/unicode error) on truncated, mutated, or foreign datagrams, so a
stray UDP sender cannot crash a serving rack.  Each :class:`CodecError`
carries a stable ``reason`` tag (``"magic"``, ``"version"``, ``"flags"``,
``"truncated"``, ``"checksum"``, ``"malformed"``) that ingress counters
key on.
"""

from __future__ import annotations

import functools
import struct
import zlib
from types import MappingProxyType
from typing import Callable, List, Mapping, Optional, Union

from repro.core.errors import AskError
from repro.core.packet import AskPacket, PacketFlag

MAGIC = 0xA5
#: Current frame version: CRC32 integrity trailer.
VERSION = 2
#: Seed frame version: no trailer.  Still decodable; encodable on request.
VERSION_LEGACY = 1

#: Every flag bit the protocol defines.  Frames with bits outside this
#: mask are rejected (``IntFlag`` would otherwise KEEP unknown bits and
#: hand the stack a flag value no dispatch path expects).
_DEFINED_FLAGS = 0
for _flag in PacketFlag:
    _DEFINED_FLAGS |= int(_flag)

_FIXED = struct.Struct("!BBBBQqhQ")
_U16 = struct.Struct("!H")  # slot count, key length
_VALUE = struct.Struct("!Q")
_CRC = struct.Struct("!I")
_VALUE_MASK = (1 << 64) - 1

_FIXED_SIZE = _FIXED.size
_CRC_SIZE = _CRC.size
_VALUE_SIZE = _VALUE.size
_fixed_unpack_from = _FIXED.unpack_from
_u16_unpack_from = _U16.unpack_from
_value_unpack_from = _VALUE.unpack_from
_crc_unpack_from = _CRC.unpack_from


class CodecError(AskError, ValueError):
    """A datagram could not be decoded as an ASK packet.

    ``reason`` is a stable machine-readable tag for drop accounting:
    one of ``"magic"``, ``"version"``, ``"flags"``, ``"truncated"``,
    ``"checksum"``, ``"malformed"``.
    """

    def __init__(self, message: str, reason: str = "malformed") -> None:
        super().__init__(message)
        self.reason = reason


def name_prefix(name: str) -> bytes:
    """The wire form of an endpoint name: length byte, then UTF-8.

    A fabric computes it once per registered node and hands the table to
    :func:`encode_packet`; the table is never filled from wire bytes, so
    a stray sender cannot grow it.
    """
    raw = name.encode("utf-8")
    if len(raw) > 255:
        raise CodecError("endpoint names longer than 255 bytes cannot be framed")
    return bytes((len(raw),)) + raw


@functools.lru_cache(maxsize=256)
def _slot_packer(key_len: int) -> Callable[..., bytes]:
    """``present(1) key_len(2) key value(8)`` packed in one call.  Bounded:
    a switch re-encodes keys it decoded, so lengths can come off the wire."""
    if key_len > 0xFFFF:
        raise CodecError(f"slot key of {key_len} bytes cannot be framed")
    return struct.Struct(f"!BH{key_len}sQ").pack


def encode_packet(
    packet: AskPacket,
    version: int = VERSION,
    names: Mapping[str, bytes] = MappingProxyType({}),
) -> bytes:
    """Serialize ``packet`` into one self-contained datagram payload.

    ``version=2`` (default) appends the CRC32 trailer; ``version=1``
    emits the seed framing for integrity-disabled fabrics.  ``names``
    maps endpoint names to their :func:`name_prefix`; a name missing
    from it is framed on the spot.
    """
    if version != VERSION and version != VERSION_LEGACY:
        raise CodecError(f"cannot encode frame version {version}", reason="version")
    keys = packet.keys
    parts = [
        _FIXED.pack(
            MAGIC,
            version,
            packet.flags & 0xFF,
            1 if packet.ecn else 0,
            packet.task_id & _VALUE_MASK,
            packet.seq,
            packet.channel_index,
            packet.bitmap & _VALUE_MASK,
        ),
        names.get(packet.src) or name_prefix(packet.src),
        names.get(packet.dst) or name_prefix(packet.dst),
        _U16.pack(len(keys)),
    ]
    append = parts.append
    for key, value in zip(keys, packet.values):
        if key is None:
            append(b"\x00")
            continue
        key_len = len(key)
        append(_slot_packer(key_len)(1, key_len, key, value & _VALUE_MASK))
    body = b"".join(parts)
    if version == VERSION_LEGACY:
        return body
    return body + _CRC.pack(zlib.crc32(body))


def _truncated(wanted: int, pos: int, end: int) -> CodecError:
    return CodecError(
        f"truncated datagram: wanted {wanted} bytes at offset {pos}, have {end - pos}",
        reason="truncated",
    )


def decode_packet(data: Union[bytes, bytearray, memoryview]) -> AskPacket:
    """Parse one datagram back into an :class:`AskPacket`.

    Accepts version-2 frames (CRC32 verified) and legacy version-1
    frames (no trailer).  Raises :class:`CodecError` on anything else.
    ``data`` may be a view of a receive buffer that the caller reuses:
    nothing in the returned packet aliases it.
    """
    end = len(data)
    if end < _FIXED_SIZE:
        raise CodecError(
            f"datagram of {end} bytes is shorter than the fixed header",
            reason="truncated",
        )
    magic, version, flags, ecn, task_id, seq, channel_index, bitmap = _fixed_unpack_from(
        data, 0
    )
    if magic != MAGIC:
        raise CodecError(f"bad magic 0x{magic:02x} (not an ASK frame)", reason="magic")
    if version == VERSION:
        # Verify the trailer before trusting a single field: a corrupted
        # frame must look exactly like a lost one.  Sliced off a buffer
        # view, the body is checksummed in place.
        end -= _CRC_SIZE
        if end < _FIXED_SIZE:
            raise CodecError(
                "version-2 frame too short to carry its CRC32 trailer",
                reason="truncated",
            )
        (expected,) = _crc_unpack_from(data, end)
        actual = zlib.crc32(data[:end])
        if actual != expected:
            raise CodecError(
                f"CRC32 mismatch: trailer 0x{expected:08x}, computed 0x{actual:08x}",
                reason="checksum",
            )
    elif version != VERSION_LEGACY:
        raise CodecError(f"unsupported frame version {version}", reason="version")
    if flags & ~_DEFINED_FLAGS:
        raise CodecError(
            f"undefined flag bits 0x{flags & ~_DEFINED_FLAGS:02x} in 0x{flags:02x}",
            reason="flags",
        )
    if ecn > 1:
        raise CodecError(f"bad ECN byte {ecn} (must be 0 or 1)")
    # One copy of an accepted view: names and keys below are then plain
    # ``bytes`` slices, half the price of slicing a view.
    frame = data if isinstance(data, bytes) else bytes(data)
    # ``pos`` walks the body ``frame[:end]``.  Every read is preceded by
    # its own bound check against ``end`` (not ``len(frame)``: the trailer
    # is not payload), in the order the fields sit on the wire.
    pos = _FIXED_SIZE
    names: List[str] = []
    for _ in range(2):  # src, dst
        if pos >= end:
            raise _truncated(1, pos, end)
        stop = pos + 1 + frame[pos]
        if stop > end:
            raise _truncated(stop - pos - 1, pos + 1, end)
        try:
            names.append(frame[pos + 1 : stop].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CodecError(f"undecodable endpoint name: {exc}") from exc
        pos = stop
    if pos + 2 > end:
        raise _truncated(2, pos, end)
    (slot_count,) = _u16_unpack_from(frame, pos)
    pos += 2
    keys: List[Optional[bytes]] = []
    values: List[Optional[int]] = []
    add_key, add_value = keys.append, values.append
    for _ in range(slot_count):
        if pos >= end:
            raise _truncated(1, pos, end)
        present = frame[pos]
        if present == 0:
            add_key(None)
            add_value(None)
            pos += 1
        elif present == 1:
            key_at = pos + 3
            if key_at > end:
                raise _truncated(2, pos + 1, end)
            value_at = key_at + _u16_unpack_from(frame, pos + 1)[0]
            pos = value_at + _VALUE_SIZE
            if pos > end:
                raise _truncated(pos - key_at, key_at, end)
            add_key(frame[key_at:value_at])
            add_value(_value_unpack_from(data, value_at)[0])
        else:
            raise CodecError(f"bad slot presence byte {present}")
    if pos != end:
        raise CodecError(f"{end - pos} trailing bytes after packet")
    return AskPacket(
        flags, task_id, names[0], names[1], channel_index, seq, bitmap,
        tuple(keys), tuple(values), ecn == 1,
    )
