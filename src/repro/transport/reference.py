"""Seed (pre-optimization) hot-path implementations, kept as oracles.

The O(1) fast paths in :mod:`repro.transport.window`,
:mod:`repro.transport.reliability` and :mod:`repro.net.simulator` replaced
O(W) per-packet scans.  The originals are preserved here, unoptimized and
behaviourally frozen, for two purposes:

- the property-based equivalence tests assert that the optimized
  implementations make byte-identical accept/duplicate/retransmit decisions
  against these references under random loss/reorder/duplication schedules;
- :func:`reference_mode` patches them into a full service, and
  ``tests/transport/test_hotpath_equivalence.py`` requires that run to
  match the optimized one (same seed ⇒ identical final ``sim.now``, task
  stats, packet counts and retransmissions).

Do not "fix" or optimize this module: its value is bug-for-bug fidelity to
the seed.  (The one known seed quirk — ``ReferenceReceiveWindow`` never
pruning when ``floor == 0``, so seq 0 lingers forever — is deliberately
retained; it wastes memory but cannot change decisions because the stale
guard fires before the ``_seen`` lookup.)
"""

from __future__ import annotations

import contextlib
import heapq
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.keyspace import unpad_key
from repro.core.packet import AskPacket, PacketFlag
from repro.net.simulator import SimulationError
from repro.runtime.codec import MAGIC, VERSION, VERSION_LEGACY, CodecError
from repro.transport.window import WindowEntry


class ReferenceEvent:
    """Seed event: lazy cancellation with no live-count bookkeeping."""

    __slots__ = ("time", "order", "callback", "args", "cancelled")

    def __init__(self, time: int, order: int, callback: Callable[..., Any], args: tuple):
        self.time = time
        self.order = order
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "ReferenceEvent") -> bool:
        return (self.time, self.order) < (other.time, other.order)


class ReferenceSimulator:
    """Seed event loop: O(n) ``pending``, no heap compaction, and the
    ``run``-local ``processed`` counter that could trip ``max_events`` on a
    heap holding only cancelled events."""

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[ReferenceEvent] = []
        self._order = 0
        self._events_processed = 0

    def schedule(self, delay_ns: int, callback: Callable[..., Any], *args: Any) -> ReferenceEvent:
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay_ns})")
        return self.at(self.now + int(delay_ns), callback, *args)

    def at(self, time_ns: int, callback: Callable[..., Any], *args: Any) -> ReferenceEvent:
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at t={time_ns} before current time t={self.now}"
            )
        event = ReferenceEvent(int(time_ns), self._order, callback, args)
        self._order += 1
        heapq.heappush(self._heap, event)
        return event

    # The optimized simulator grew fire-and-forget variants; the seed shape
    # simply routes them through the Event-allocating paths so unpatched
    # components (the switch, for one) keep working under reference_mode.
    def call_later(self, delay_ns: int, callback: Callable[..., Any], *args: Any) -> None:
        self.schedule(delay_ns, callback, *args)

    def call_at(self, time_ns: int, callback: Callable[..., Any], *args: Any) -> None:
        self.at(time_ns, callback, *args)

    def step(self) -> bool:
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.now = event.time
            self._events_processed += 1
            event.callback(*event.args)
            return True
        return False

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        processed = 0
        while self._heap:
            if max_events is not None and processed >= max_events:
                raise SimulationError(
                    f"simulation exceeded max_events={max_events} at t={self.now}"
                )
            head = self._heap[0]
            if head.cancelled:
                heapq.heappop(self._heap)
                continue
            if until is not None and head.time > until:
                self.now = until
                return
            if not self.step():
                break
            processed += 1
        if until is not None and self.now < until:
            self.now = until

    @property
    def pending(self) -> int:
        return sum(1 for e in self._heap if not e.cancelled)

    @property
    def events_processed(self) -> int:
        return self._events_processed


@dataclass
class ReferenceSlidingWindow:
    """Seed sender window: ``base`` is a ``min()`` scan over all in-flight
    entries, re-run by ``can_send()`` on every admission."""

    size: int
    next_seq: int = 0
    _entries: dict[int, WindowEntry] = field(default_factory=dict)

    @property
    def base(self) -> int:
        if not self._entries:
            return self.next_seq
        return min(self._entries)

    @property
    def in_flight(self) -> int:
        return len(self._entries)

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def can_send(self) -> bool:
        return self.next_seq < self.base + self.size

    def open(self, payload: Any) -> WindowEntry:
        if not self.can_send():
            raise RuntimeError(
                f"window full: base={self.base}, next={self.next_seq}, W={self.size}"
            )
        entry = WindowEntry(seq=self.next_seq, payload=payload)
        self._entries[entry.seq] = entry
        self.next_seq += 1
        return entry

    def get(self, seq: int) -> Optional[WindowEntry]:
        return self._entries.get(seq)

    def ack(self, seq: int) -> Optional[WindowEntry]:
        entry = self._entries.pop(seq, None)
        if entry is not None:
            entry.acked = True
        return entry

    def outstanding(self) -> list[WindowEntry]:
        return [self._entries[s] for s in sorted(self._entries)]


class ReferenceReceiveWindow:
    """Seed receiver dedup: explicit ``_seen`` set, rebuilt in full on every
    in-order arrival (and never pruned while ``floor == 0``)."""

    def __init__(self, window: int) -> None:
        self.window = window
        self.max_seq = -1
        self._seen: set[int] = set()
        self.duplicates = 0
        self.accepted = 0

    def is_new(self, seq: int) -> bool:
        if seq <= self.max_seq - self.window:
            self.duplicates += 1
            return False
        if seq in self._seen:
            self.duplicates += 1
            return False
        self._seen.add(seq)
        if seq > self.max_seq:
            self.max_seq = seq
            floor = self.max_seq - self.window
            if floor > 0:
                self._seen = {s for s in self._seen if s > floor}
        self.accepted += 1
        return True


def reference_fetch_and_reset(controller: Any, task_id: int, part: int) -> dict[bytes, int]:
    """Seed ``SwitchController.fetch_and_reset``: one ``control_cell`` per
    aggregator of the region.  Oracle for the bulk register walk."""
    region = controller._regions[task_id]
    controller.fetches += 1
    base = controller.shadow.part_offset(part)
    pool, layout, mask = controller.pool, controller.layout, controller.config.value_mask
    result: dict[bytes, int] = {}
    for slot in range(layout.num_short_slots):
        for idx in range(base + region.offset, base + region.end):
            key, value = pool[slot].control_cell(idx)
            if key is None:
                continue
            plain = unpad_key(key)
            result[plain] = (result.get(plain, 0) + value) & mask
            pool[slot].control_clear(idx)
    for group in range(layout.num_groups):
        slots = layout.group_slots(group)
        for idx in range(base + region.offset, base + region.end):
            cells = [pool[s].control_cell(idx) for s in slots]
            if any(cell[0] is None for cell in cells):
                continue
            plain = unpad_key(b"".join(cell[0] for cell in cells))
            result[plain] = (result.get(plain, 0) + cells[-1][1]) & mask
            for s in slots:
                pool[s].control_clear(idx)
    return result


# ---------------------------------------------------------------------------
# Seed wire codec: a list of parts out, a bounds-checked cursor in.
#
# Oracle for :mod:`repro.runtime.codec`, which walks the frame by integer
# offset.  Byte-identical frames and the same ``CodecError.reason`` on
# every malformed input are the contract
# (tests/runtime/test_codec_reference.py).
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Whole-fast-path baseline: reference_mode()
# ---------------------------------------------------------------------------

_MISSING = object()


def _patch(saved: list, obj: Any, name: str, value: Any) -> None:
    saved.append((obj, name, obj.__dict__.get(name, _MISSING)))
    setattr(obj, name, value)


@contextlib.contextmanager
def reference_mode():
    """Temporarily restore the *entire* seed fast path.

    The PR optimized more than the three transport classes: packet flag/size
    caching, link serialization memoization, NIC gap precomputation, the
    no-fault decision singleton, static register ALUs, bit-scan aggregation
    loops and the congestion-window integer cache all shave per-packet work.
    For a seed-baseline run to be honest, all of them must be reverted at
    once; this context manager patches the seed implementations (verbatim
    copies) back in and restores the optimized ones on exit.

    Every seed implementation here is decision-identical to its optimized
    replacement — that equivalence is exactly what the full-service test in
    ``tests/transport/test_hotpath_equivalence.py`` and the property tests
    verify — so a reference run reproduces the optimized run's schedule bit
    for bit.

    Objects created inside the context (packets especially) lean on patched
    class attributes and must not outlive it.
    """
    import repro.core.keyspace as keyspace_mod
    import repro.core.receiver as receiver_mod
    import repro.core.sender as sender_mod
    import repro.core.service as service_mod
    from repro.core import constants
    from repro.core.errors import ProtocolError
    from repro.core.hashing import _address_hash_uncached as address_hash
    from repro.core.hashing import _partition_hash_uncached
    from repro.net.fault import FaultDecision, FaultModel
    from repro.net.link import Link, gbps_to_bits_per_ns
    from repro.net.simulator import NS_PER_S
    from repro.switch.aggregator import AggregatorPool
    from repro.switch.program import AskSwitchProgram
    from repro.switch.registers import RegisterArray
    from repro.transport.congestion import CongestionWindow

    # --- seed AskPacket: derive flags/sizes on every access -------------
    # The optimized packet is a __slots__ class precomputing its predicates
    # and frame size at construction.  The seed shape stored only the wire
    # fields and derived everything per access, so the reference patches a
    # bare-assignment __init__ and computed properties over the slot
    # descriptors (restored verbatim on exit by the saved-attribute list).
    def _pkt_init(
        self,
        flags,
        task_id,
        src,
        dst,
        channel_index,
        seq,
        bitmap=0,
        keys=(),
        values=(),
        ecn=False,
    ) -> None:
        self.flags = int(flags)
        self.task_id = task_id
        self.src = src
        self.dst = dst
        self.channel_index = channel_index
        self.seq = seq
        self.bitmap = bitmap
        self.keys = keys
        self.values = values
        self.ecn = ecn

    def _pkt_frame_bytes(self) -> int:
        if self.is_long:
            payload = sum(1 + len(key) + 4 for key in self.keys if key is not None)
            return constants.HEADER_BYTES + payload
        if self.flags & (PacketFlag.DATA | PacketFlag.FIN):
            return constants.HEADER_BYTES + self.num_slots * constants.TUPLE_BYTES
        return constants.HEADER_BYTES

    def _pkt_wire_bytes(self) -> int:
        return self.frame_bytes() + constants.FRAMING_EXTRA

    def _pkt_with_bitmap(self, bitmap: int) -> AskPacket:
        # Seed semantics: always a fresh copy (no unchanged-bitmap sharing).
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

    _pkt_props = {
        "channel_key": property(lambda self: (self.src, self.channel_index)),
        "is_data": property(lambda self: bool(self.flags & PacketFlag.DATA)),
        "is_ack": property(lambda self: bool(self.flags & PacketFlag.ACK)),
        "is_fin": property(lambda self: bool(self.flags & PacketFlag.FIN)),
        "is_swap": property(lambda self: bool(self.flags & PacketFlag.SWAP)),
        "is_long": property(lambda self: bool(self.flags & PacketFlag.LONG)),
        "is_bypass": property(lambda self: bool(self.flags & PacketFlag.BYPASS)),
    }

    # --- seed Link: per-packet float division, backlog_bytes() call -----
    def _link_serialization_ns(self, size_bytes: int) -> int:
        if self.bandwidth_gbps is None:
            return 0
        bits = size_bytes * 8
        return max(1, int(round(bits / gbps_to_bits_per_ns(self.bandwidth_gbps))))

    def _link_launch(self, packet, size_bytes) -> None:
        self.packets_sent += 1
        self.bytes_sent += size_bytes
        backlog = self.backlog_bytes()
        self.max_backlog_bytes = max(self.max_backlog_bytes, backlog)
        if (
            self.ecn_threshold_bytes is not None
            and backlog > self.ecn_threshold_bytes
            and hasattr(packet, "with_ecn")
        ):
            packet = packet.with_ecn()
            self.packets_marked += 1
        start = max(self.sim.now, self._tx_free_at)
        tx_done = start + self.serialization_ns(size_bytes)
        self._tx_free_at = tx_done

        decision = self.fault.decide()
        if decision.drop:
            self.packets_dropped += 1
            return
        arrival = tx_done + self.latency_ns + decision.extra_delay_ns
        self.sim.at(arrival, self.deliver, packet)
        if decision.duplicate:
            self.packets_duplicated += 1
            dup_arrival = tx_done + self.latency_ns + decision.duplicate_delay_ns
            self.sim.at(dup_arrival, self.deliver, packet)

    # --- seed NIC shaper in front of the link: gap recomputed per packet --
    def _link_send(self, packet, size_bytes) -> None:
        if self.trace is not None:
            self.trace.record(self.sim.now, self.name, "tx", packet)
        gap = 0 if self.max_pps is None else max(1, int(round(NS_PER_S / self.max_pps)))
        launch = max(self.sim.now, self._next_slot)
        self._next_slot = launch + gap
        if launch <= self.sim.now:
            self._launch(packet, size_bytes)
        else:
            self.sim.at(launch, self._launch, packet, size_bytes)

    # --- seed FaultModel: fresh FaultDecision per packet ------------------
    # Same RNG stream, same draw order — only the allocation differs.
    def _fault_decide(self) -> FaultDecision:
        decision = FaultDecision()
        if self.loss_rate and self._rng.random() < self.loss_rate:
            decision.drop = True
            return decision
        if self.reorder_rate and self._rng.random() < self.reorder_rate:
            decision.extra_delay_ns = self._rng.randint(1, self.max_extra_delay_ns)
        if self.duplicate_rate and self._rng.random() < self.duplicate_rate:
            decision.duplicate = True
            decision.duplicate_delay_ns = self._rng.randint(1, self.max_extra_delay_ns)
        return decision

    # --- seed RegisterArray: note_access call + fresh ALU closures --------
    def _reg_execute(self, ctx, index, alu):
        ctx.note_access(self)
        if not 0 <= index < self.size:
            raise IndexError(f"{self.name}[{index}] out of range (size {self.size})")
        self.accesses += 1
        old = self.control_read(index)
        new, result = alu(old)
        self.control_write(index, new)
        return result

    def _reg_read(self, ctx, index):
        return self.execute(ctx, index, lambda old: (old, old))

    def _reg_write(self, ctx, index, value):
        self.execute(ctx, index, lambda _old: (value, None))

    def _reg_set_bit(self, ctx, index):
        return self.execute(ctx, index, lambda old: (1, old))

    def _reg_clr_bitc(self, ctx, index):
        return self.execute(ctx, index, lambda old: (0, 1 - old))

    def _reg_rmw_max(self, ctx, index, value):
        # The dedup max_seq bump, seed shape: a per-call closure ALU.
        def bump(old):
            new = max(old, value)
            return (new, new)

        return self.execute(ctx, index, bump)

    # --- seed aggregator pool: outcome objects through closure ALUs ------
    # The compiled path's aggregate_fast inlines the register access; the
    # seed shape dispatched a fresh closure per tuple via try_aggregate.
    # ChannelProgram binds register methods at compile time, so services
    # built inside this context pick these versions up automatically.
    def _pool_aggregate_group(self, ctx, slots, index, segments, value):
        if len(slots) != len(segments):
            raise ValueError("segment count must match the group width")
        ok = True
        last = len(slots) - 1
        for pos, (slot, segment) in enumerate(zip(slots, segments)):
            add = value if pos == last else None
            outcome = self.arrays[slot].try_aggregate(ctx, index, segment, add, enabled=ok)
            if ok and not outcome.success:
                ok = False
            if outcome.reserved:
                self.aggregators_reserved += 1
        if ok:
            self.tuples_aggregated += 1
        else:
            self.tuples_failed += 1
        return ok

    # --- seed switch aggregation: full slot/group scans --------------------
    def _program_aggregate(self, ctx, pkt, region):
        part = self.shadow.write_part(ctx, region.task_slot)
        base = self.shadow.part_offset(part) + region.offset
        bitmap = pkt.bitmap

        for slot in range(self.layout.num_short_slots):
            if not bitmap >> slot & 1:
                continue
            key = pkt.keys[slot]
            if key is None:
                raise ProtocolError(f"bitmap bit {slot} set on a blank slot")
            index = base + address_hash(key) % region.size
            outcome = self.pool.arrays[slot].try_aggregate(ctx, index, key, pkt.values[slot])
            self.pool._count(outcome, 1)
            if outcome.success:
                bitmap &= ~(1 << slot)

        for group in range(self.layout.num_groups):
            slots = self.layout.group_slots(group)
            bits = [bool(bitmap >> s & 1) for s in slots]
            if not any(bits):
                continue
            if not all(bits):
                raise ProtocolError(
                    f"medium group {group} has a partially-set bitmap; "
                    "group tuples must be aggregated all-or-nothing"
                )
            segments = []
            value = 0
            for s in slots:
                if pkt.keys[s] is None:
                    raise ProtocolError(f"bitmap bit {s} set on a blank slot")
                segments.append(pkt.keys[s])
                value = pkt.values[s]
            padded = b"".join(segments)
            index = base + address_hash(padded) % region.size
            if self.pool.aggregate_group(ctx, slots, index, tuple(segments), value):
                for s in slots:
                    bitmap &= ~(1 << s)
        return bitmap

    # --- seed receiver merge: full slot/group scans ------------------------
    def _receiver_merge(self, state, pkt) -> None:
        mask = self.config.value_mask
        residual = state.residual
        merged = 0
        if pkt.is_long:
            for index, key in enumerate(pkt.keys):
                if pkt.bitmap >> index & 1:
                    if key is None:
                        raise ProtocolError(f"bitmap bit {index} set but slot is blank")
                    residual[key] = (residual.get(key, 0) + pkt.values[index]) & mask
                    merged += 1
        else:
            bitmap = pkt.bitmap
            for slot_index in range(self.layout.num_short_slots):
                if not bitmap >> slot_index & 1:
                    continue
                key = pkt.keys[slot_index]
                if key is None:
                    raise ProtocolError(f"live bit {slot_index} on blank slot")
                key = unpad_key(key)
                residual[key] = (residual.get(key, 0) + pkt.values[slot_index]) & mask
                merged += 1
            for group in range(self.layout.num_groups):
                slots = self.layout.group_slots(group)
                bits = [bool(bitmap >> s & 1) for s in slots]
                if not any(bits):
                    continue
                if not all(bits):
                    raise ProtocolError(
                        f"medium group {group} arrived with a partial bitmap"
                    )
                segments = []
                value = 0
                for s in slots:
                    if pkt.keys[s] is None:
                        raise ProtocolError(f"live bit {s} on blank slot")
                    segments.append(pkt.keys[s])
                    value = pkt.values[s]
                key = unpad_key(b"".join(segments))
                residual[key] = (residual.get(key, 0) + value) & mask
                merged += 1
        state.task.stats.tuples_merged_at_receiver += merged

    # --- seed congestion window: int(cwnd) per admission check -------------
    def _cong_allows(self, in_flight: int) -> bool:
        return in_flight < int(self.cwnd)

    def _cong_window_packets(self) -> int:
        return int(self.cwnd)

    saved: list[tuple[Any, str, Any]] = []
    try:
        _patch(saved, sender_mod, "SlidingWindow", ReferenceSlidingWindow)
        _patch(saved, receiver_mod, "ReceiveWindow", ReferenceReceiveWindow)
        _patch(saved, service_mod, "Simulator", ReferenceSimulator)
        _patch(saved, AskPacket, "__init__", _pkt_init)
        _patch(saved, AskPacket, "frame_bytes", _pkt_frame_bytes)
        _patch(saved, AskPacket, "wire_bytes", _pkt_wire_bytes)
        _patch(saved, AskPacket, "with_bitmap", _pkt_with_bitmap)
        for name, prop in _pkt_props.items():
            _patch(saved, AskPacket, name, prop)
        _patch(saved, Link, "serialization_ns", _link_serialization_ns)
        _patch(saved, Link, "send", _link_send)
        _patch(saved, Link, "_launch", _link_launch)
        _patch(saved, FaultModel, "decide", _fault_decide)
        _patch(saved, keyspace_mod, "partition_hash", _partition_hash_uncached)
        _patch(saved, RegisterArray, "execute", _reg_execute)
        _patch(saved, RegisterArray, "read", _reg_read)
        _patch(saved, RegisterArray, "write", _reg_write)
        _patch(saved, RegisterArray, "set_bit", _reg_set_bit)
        _patch(saved, RegisterArray, "clr_bitc", _reg_clr_bitc)
        _patch(saved, RegisterArray, "rmw_max", _reg_rmw_max)
        _patch(saved, AggregatorPool, "aggregate_group", _pool_aggregate_group)
        _patch(saved, AskSwitchProgram, "_aggregate", _program_aggregate)
        _patch(saved, receiver_mod.ReceiverEngine, "_merge_packet", _receiver_merge)
        _patch(saved, CongestionWindow, "allows", _cong_allows)
        _patch(saved, CongestionWindow, "window_packets", _cong_window_packets)
        yield
    finally:
        for obj, name, original in reversed(saved):
            if original is _MISSING:
                delattr(obj, name)
            else:
                setattr(obj, name, original)
