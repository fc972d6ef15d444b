"""The ASK packet format (Fig. 5): a bitmap followed by key-value tuple slots.

Packets are immutable *by convention*.  The switch never mutates a packet in
place — it builds a new one with :meth:`AskPacket.with_bitmap` when
forwarding — so a duplicated delivery (the same object arriving twice
through a faulty link) can never observe half-processed state.

The payload always carries all ``N`` slots on the wire even when some are
blank (§3.2.2 "ASK will leave the i-th slot blank"): the slot position *is*
the AA index, so it cannot be compacted away.  Blank slots therefore cost
goodput, which is what Fig. 8(b) measures.

Hot-path layout
---------------
``AskPacket`` is a ``__slots__`` class, not a dataclass: a frozen
dataclass pays ``object.__setattr__`` per derived field per packet, which
dominated the simulator profile.  The payload is two parallel columns,
``keys`` and ``values``, the way a PISA parser extracts the slots as plain
header fields: no object is built per tuple.  Flags are stored as a plain
``int`` (the :class:`PacketFlag` *values*), and the module exports the raw
bit masks (``FLAG_DATA`` …) so hot receive paths test membership with a
single C-level ``&`` instead of ``IntFlag.__and__``.  The
``is_data``/``is_ack``/… attributes and the frame size are computed once at
construction.

Packets are never pooled or recycled: the discrete-event fabric delivers
packet objects by reference — a faulty link may deliver the same object
twice — and the sharded backend hands a cross-shard packet to the
destination shard as is, so no code may reuse or mutate one after
construction.
"""

from __future__ import annotations

import enum
from typing import Any, Iterator, Optional

from repro.core import constants


#: Pseudo channel index used by swap notifications and their ACKs, so the
#: daemon can tell a swap ACK from a data-channel ACK.
SWAP_CHANNEL_INDEX = -1


class PacketFlag(enum.IntFlag):
    """ASK header flags."""

    DATA = 0x1
    ACK = 0x2
    FIN = 0x4
    SWAP = 0x8  #: receiver → switch shadow-copy swap notification (§3.4)
    LONG = 0x10  #: long-key payload; bypasses switch aggregation (§3.2.3)
    BYPASS = 0x20  #: degraded mode: ship raw tuples end-to-end, skip the switch


# Precomputed int masks for the hot receive paths (satellite of the
# compiled-fast-path work): `pkt.flags & FLAG_ACK` is one C-level int AND,
# where `PacketFlag.ACK in pkt.flags` routed through IntFlag.__and__ and
# allocated an IntFlag instance per test.
FLAG_DATA = 0x1
FLAG_ACK = 0x2
FLAG_FIN = 0x4
FLAG_SWAP = 0x8
FLAG_LONG = 0x10
FLAG_BYPASS = 0x20
_FLAG_DATA_OR_FIN = FLAG_DATA | FLAG_FIN


class AskPacket:
    """An ASK packet.

    ``(src, channel_index)`` identifies the data channel, whose sequence
    space ``seq`` belongs to.  ``bitmap`` bit *i* set means slot *i* carries
    a tuple that has **not** been aggregated yet; the switch unsets bits as
    it consumes tuples (§3.2.1).

    The payload's slot *i* is the pair ``(keys[i], values[i])``: a padded
    key segment and a value, ``None`` in both for a blank slot.  For a
    short key the slot holds the whole padded key.  A medium key spans the
    ``m`` slots of its group: each holds one segment, and only the last
    carries the value, the others 0 (§3.2.3,
    ``(key, val) = {(key_1, 0), ..., (key_k, val)}``).

    ``flags`` is stored as a plain ``int``; it compares equal to the
    corresponding :class:`PacketFlag` value.  The flag predicates
    (``is_data`` …) and the frame size are derived once at construction.
    """

    __slots__ = (
        "flags",
        "task_id",
        "src",
        "dst",
        "channel_index",
        "seq",
        "bitmap",
        "keys",
        "values",
        "ecn",
        "channel_key",
        "is_data",
        "is_ack",
        "is_fin",
        "is_swap",
        "is_long",
        "is_bypass",
        "_frame_bytes",
    )

    def __init__(
        self,
        flags: int,
        task_id: int,
        src: str,
        dst: str,
        channel_index: int,
        seq: int,
        bitmap: int = 0,
        keys: tuple[Optional[bytes], ...] = (),
        # ``Any``: a value is an int exactly where ``keys`` holds a key.
        values: tuple[Any, ...] = (),
        ecn: bool = False,
    ) -> None:
        self.flags = flags = int(flags)
        self.task_id = task_id
        self.src = src
        self.dst = dst
        self.channel_index = channel_index
        self.seq = seq
        self.bitmap = bitmap
        self.keys = keys
        self.values = values
        self.ecn = ecn
        self.channel_key = (src, channel_index)
        self.is_data = bool(flags & 0x1)
        self.is_ack = bool(flags & 0x2)
        self.is_fin = bool(flags & 0x4)
        self.is_swap = bool(flags & 0x8)
        self.is_long = bool(flags & 0x10)
        self.is_bypass = bool(flags & 0x20)
        if flags & 0x10:  # LONG: variable-length tuple encoding
            payload = 0
            for key in keys:
                if key is not None:
                    payload += 1 + len(key) + 4
            self._frame_bytes = constants.HEADER_BYTES + payload
        elif flags & 0x5:  # DATA | FIN: all N fixed-size slots on the wire
            self._frame_bytes = constants.HEADER_BYTES + len(keys) * constants.TUPLE_BYTES
        else:
            self._frame_bytes = constants.HEADER_BYTES

    # ------------------------------------------------------------------
    # Value semantics (what the frozen dataclass used to provide)
    # ------------------------------------------------------------------
    def _key(self) -> tuple:
        return (
            self.flags,
            self.task_id,
            self.src,
            self.dst,
            self.channel_index,
            self.seq,
            self.bitmap,
            self.keys,
            self.values,
            self.ecn,
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AskPacket):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self) -> tuple:
        # Wire fields only; ``__init__`` rebuilds the derived ones on load.
        return AskPacket, self._key()

    # ------------------------------------------------------------------
    @property
    def num_slots(self) -> int:
        return len(self.keys)

    @property
    def tuple_count(self) -> int:
        """Live (bitmap-set) tuples in the payload.

        A medium key contributes one count per occupied slot.
        """
        return self.bitmap.bit_count()

    # ------------------------------------------------------------------
    def with_bitmap(self, bitmap: int) -> "AskPacket":
        """A copy of this packet carrying a rewritten bitmap (Eq. 10)."""
        if bitmap == self.bitmap:
            return self  # immutable, so sharing is safe
        return AskPacket(
            self.flags,
            self.task_id,
            self.src,
            self.dst,
            self.channel_index,
            self.seq,
            bitmap,
            self.keys,
            self.values,
            self.ecn,
        )

    def with_ecn(self) -> "AskPacket":
        """A copy marked congestion-experienced (set by a congested link)."""
        if self.ecn:
            return self
        return AskPacket(
            self.flags,
            self.task_id,
            self.src,
            self.dst,
            self.channel_index,
            self.seq,
            self.bitmap,
            self.keys,
            self.values,
            True,
        )

    # ------------------------------------------------------------------
    # Wire accounting
    # ------------------------------------------------------------------
    def frame_bytes(self) -> int:
        """Bytes inside the Ethernet frame (headers + payload, no framing).

        Long-key packets use a variable-length encoding (1-byte length +
        key + 4-byte value per tuple); normal data packets always carry all
        N fixed-size slots, blank or not.  Computed once at construction —
        packets are immutable.
        """
        return self._frame_bytes

    def wire_bytes(self) -> int:
        """Bytes of wire time consumed, including IPG/preamble/SFD/CRC."""
        return self._frame_bytes + constants.FRAMING_EXTRA

    def goodput_bytes(self) -> int:
        """Application-useful bytes: live tuples only (blank slots excluded)."""
        live = sum(1 for i in range(self.num_slots) if self.bitmap >> i & 1)
        return live * constants.TUPLE_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = PacketFlag(self.flags)
        return (
            f"AskPacket({flags.name or flags}, task={self.task_id}, "
            f"ch={self.channel_key}, seq={self.seq}, "
            f"bitmap={self.bitmap:0{max(1, self.num_slots)}b})"
        )


def _packet_fields(packet: AskPacket) -> Iterator[tuple[str, object]]:
    """(name, value) pairs of the wire-visible fields, in wire order.

    The dataclass version got this for free via ``dataclasses.fields``;
    the codec property tests use it to diff encodings.
    """
    for name in (
        "flags",
        "task_id",
        "src",
        "dst",
        "channel_index",
        "seq",
        "bitmap",
        "keys",
        "values",
        "ecn",
    ):
        yield name, getattr(packet, name)


def ack_for(packet: AskPacket, replier: str) -> AskPacket:
    """Build the ACK for ``packet``, carrying the same sequence number.

    Both the switch and the host receiver reply ACKs (§3.1); ``replier``
    names which, for traces only — the sender treats them identically.
    """
    return AskPacket(
        FLAG_ACK,
        packet.task_id,
        replier,
        packet.src,
        packet.channel_index,
        packet.seq,
        ecn=packet.ecn,  # the congestion echo
    )


def fin_packet(task_id: int, src: str, dst: str, channel_index: int, seq: int) -> AskPacket:
    """Build the FIN that ends a sender's stream on one channel (§3.3)."""
    return AskPacket(
        FLAG_FIN,
        task_id,
        src,
        dst,
        channel_index,
        seq,
    )


def swap_packet(task_id: int, src: str, dst: str, epoch: int) -> AskPacket:
    """Build the shadow-copy swap notification (§3.4).

    ``epoch`` rides in the sequence field; its parity is the desired copy
    indicator value, making retransmitted notifications idempotent.
    """
    return AskPacket(
        FLAG_SWAP,
        task_id,
        src,
        dst,
        SWAP_CHANNEL_INDEX,
        epoch,
    )
