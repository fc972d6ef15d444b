"""The ASK switch program: what one packet pass does (§3.2–§3.4).

The per-packet pipeline pass, in stage order:

1. **Dedup front** — update ``max_seq`` (stale guard), then the ``seen``
   record (compact or reference design).
2. **Copy indicator** — read the task's shadow-copy write part.
3. **Vectorized aggregation** — feed the *i*-th live tuple to the *i*-th AA:
   short slots individually, medium groups coalesced with a unified index.
   Each successful tuple clears its bitmap bit(s).
4. **PktState back** — first appearance: record the post-aggregation bitmap
   (Eq. 9); retransmission: restore the recorded bitmap (Eq. 10).
5. **Verdict** — all bits cleared → consume the packet and ACK the sender;
   otherwise forward the remaining tuples to the host receiver.  FIN and
   long-key packets always forward (the receiver is their endpoint) but
   still traverse the dedup stage so every sequence number of a channel
   touches ``seen`` exactly as the compact design requires.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.config import AskConfig
from repro.core.errors import ProtocolError
from repro.core.hashing import MEMO_LIMIT, address_hash
from repro.core.keyspace import KeySpaceLayout
from repro.core.packet import AskPacket, ack_for
from repro.switch.aggregator import AggregatorPool
from repro.switch.controller import Region, SwitchController
from repro.switch.dedup import ChannelProgram, DedupUnit
from repro.switch.registers import PAGE_MASK, PAGE_SHIFT, PassContext, RegisterAccessError
from repro.switch.shadow import ShadowDirectory


class SwitchAction(enum.Enum):
    """What the pipeline decided to do with a packet."""

    DROP = "drop"  #: consumed with no reply (stale packets)
    ACK = "ack"  #: fully aggregated; ACK returned to the sender
    FORWARD = "forward"  #: forwarded (possibly with a rewritten bitmap)


class SwitchDecision:
    """The outcome of one pass: an action plus the packets to emit.

    A plain ``__slots__`` struct — one is built per packet pass, so the
    dataclass machinery (default factory, generated ``__init__``) was
    measurable overhead.
    """

    __slots__ = ("action", "emit")

    def __init__(self, action: SwitchAction, emit: Optional[list[AskPacket]] = None) -> None:
        self.action = action
        self.emit: list[AskPacket] = [] if emit is None else emit

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SwitchDecision({self.action}, emit={self.emit!r})"


@dataclass
class ProgramStats:
    """Cumulative data-plane counters (Table 1's numerators come from here)."""

    data_packets: int = 0
    packets_acked: int = 0  #: fully aggregated and consumed at the switch
    packets_forwarded: int = 0
    stale_drops: int = 0
    retransmissions_seen: int = 0
    tuples_seen: int = 0
    tuples_aggregated: int = 0
    swaps: int = 0
    fins: int = 0
    long_packets: int = 0
    #: Aggregatable DATA that arrived with no region installed for its
    #: task id.  Observational only — such packets are *forwarded*, not
    #: dropped: a straggler retransmission after task teardown must still
    #: reach the receiver so its stray-ACK stops the sender (§3.3).  A
    #: sustained nonzero rate means an unknown/forged task id stream.
    unknown_task_packets: int = 0


class AskSwitchProgram:
    """Pure packet-pass logic; the :class:`~repro.switch.switch.AskSwitch`
    facade owns timing and I/O."""

    #: A packet aggregates when, of these flags, only DATA is set: FIN and
    #: LONG never do (long keys bypass the register pool, §3.2.3).
    aggregate_mask = 0x15
    #: Flags whose packets always forward to the receiver, their endpoint.
    forward_flags = 0x10

    def __init__(
        self,
        config: AskConfig,
        controller: SwitchController,
        pool: AggregatorPool,
        dedup: DedupUnit,
        shadow: ShadowDirectory,
        switch_name: str = "switch",
    ) -> None:
        self.config = config
        self.controller = controller
        self.pool = pool
        self.dedup = dedup
        self.shadow = shadow
        self.layout = KeySpaceLayout(config)
        # _aggregate runs per packet: precompute the short-slot mask and
        # each medium group's (slots, mask) so liveness tests are single
        # AND operations instead of per-slot scans.
        self._short_mask = (1 << self.layout.num_short_slots) - 1
        self._group_info: list[tuple[tuple[int, ...], int]] = []
        for group in range(self.layout.num_groups):
            slots = self.layout.group_slots(group)
            gmask = 0
            for s in slots:
                gmask |= 1 << s
            self._group_info.append((slots, gmask))
        self._medium_mask = 0
        for _, gmask in self._group_info:
            self._medium_mask |= gmask
        # The short-slot loop's bindings: each short slot's register array
        # (the pool never rebinds them), and key -> address hash, which
        # stops caching at MEMO_LIMIT keys like the packer's routes.
        self._short_registers = [
            pool[slot].registers for slot in range(self.layout.num_short_slots)
        ]
        self._hashes: dict[bytes, int] = {}
        self.switch_name = switch_name
        self.stats = ProgramStats()
        # Channel-key → compiled dedup microprogram.  Channel slots are
        # never recycled (channels persist for the service lifetime, §3.3),
        # so entries stay valid; `invalidate_compiled` clears them anyway on
        # reboot for hygiene.
        self._channels: dict[tuple[str, int], ChannelProgram] = {}

    # ------------------------------------------------------------------
    def invalidate_compiled(self) -> None:
        """Drop compiled channel programs (called on switch reboot)."""
        self._channels.clear()

    def _compile_channel(self, channel_key: tuple[str, int]) -> ChannelProgram:
        cp = self.dedup.compile_channel(self.controller.channel_slot(channel_key))
        self._channels[channel_key] = cp
        return cp

    # ------------------------------------------------------------------
    def process(self, ctx: PassContext, pkt: AskPacket) -> SwitchDecision:
        """Run one packet through the pipeline and return the decision."""
        flags = pkt.flags
        if flags & 0x2:  # ACK
            # ACKs are plain routed traffic: no ASK state is touched.
            return SwitchDecision(SwitchAction.FORWARD, [pkt])
        if flags & 0x8:  # SWAP
            return self._process_swap(ctx, pkt)
        return self._process_data(ctx, pkt)

    # ------------------------------------------------------------------
    def _process_swap(self, ctx: PassContext, pkt: AskPacket) -> SwitchDecision:
        region = self.controller.lookup_region(pkt.task_id)
        if region is not None:
            # The packet carries the desired indicator value (epoch parity),
            # making duplicated swap notifications idempotent.
            self.shadow.apply_swap(ctx, region.task_slot, pkt.seq & 1)
            self.stats.swaps += 1
        return SwitchDecision(SwitchAction.ACK, [ack_for(pkt, self.switch_name)])

    # ------------------------------------------------------------------
    def _process_data(self, ctx: PassContext, pkt: AskPacket) -> SwitchDecision:
        cp = self._channels.get(pkt.channel_key)
        if cp is None:
            cp = self._compile_channel(pkt.channel_key)
        seq = pkt.seq
        stats = self.stats
        code = cp.check(ctx, seq)  # 0 fresh / 1 observed / 2 stale
        if code == 2:
            stats.stale_drops += 1
            return SwitchDecision(SwitchAction.DROP)

        stats.data_packets += 1
        flags = pkt.flags
        aggregatable = flags & self.aggregate_mask == 0x1
        region = self.controller.lookup_region(pkt.task_id)
        if region is None and pkt.bitmap and aggregatable:
            stats.unknown_task_packets += 1

        if code == 0:
            bitmap = pkt.bitmap
            if bitmap and region is not None and aggregatable:
                stats.tuples_seen += bitmap.bit_count()
                bitmap = self._aggregate(ctx, pkt, region)
                stats.tuples_aggregated += pkt.bitmap.bit_count() - bitmap.bit_count()
            cp.record_bitmap(ctx, seq, bitmap)
        else:
            stats.retransmissions_seen += 1
            bitmap = cp.load_bitmap(ctx, seq)

        if flags & 0x4:  # FIN
            stats.fins += 1
            return SwitchDecision(SwitchAction.FORWARD, [pkt.with_bitmap(bitmap)])
        if flags & self.forward_flags:  # LONG, on the register pool
            stats.long_packets += 1
            return SwitchDecision(SwitchAction.FORWARD, [pkt.with_bitmap(bitmap)])
        if bitmap == 0 and (region is None or not region.relay):
            stats.packets_acked += 1
            return SwitchDecision(SwitchAction.ACK, [ack_for(pkt, self.switch_name)])
        # Relay regions never consume: even a fully-absorbed packet (and any
        # bitmap-0 retransmission — the original forward may have died on the
        # uplink) continues toward the terminal region that holds the running
        # total, which is the one entitled to ACK it.
        stats.packets_forwarded += 1
        return SwitchDecision(SwitchAction.FORWARD, [pkt.with_bitmap(bitmap)])

    # ------------------------------------------------------------------
    def _aggregate(self, ctx: PassContext, pkt: AskPacket, region: Region) -> int:
        """Vectorized aggregation of all live tuples; returns the new bitmap."""
        part = self.shadow.write_part(ctx, region.task_slot)
        base = self.shadow.part_offset(part) + region.offset
        bitmap = pkt.bitmap

        # Short-key slots: one AA each, walking only the set bits (lowest
        # first — the same slot/stage order as the seed's full scan).  One
        # loop for the whole packet: it binds the pass once and runs each
        # AA's single read-modify-write with ``aggregate_fast``'s register
        # prologue inlined — same checks, same messages, same order.  The
        # pass's stage and the pool counters live in locals until the loop
        # ends or raises.
        short_bits = bitmap & self._short_mask
        if short_bits:
            registers = self._short_registers
            hashes = self._hashes
            keys, values = pkt.keys, pkt.values
            size = region.size
            mask = self.config.value_mask
            page_shift, page_mask = PAGE_SHIFT, PAGE_MASK
            pass_id = ctx._pass_id
            stage_now = ctx._current_stage
            aggregated = reserved = failed = 0
            try:
                while short_bits:
                    bit = short_bits & -short_bits
                    short_bits ^= bit
                    slot = bit.bit_length() - 1
                    key = keys[slot]
                    if key is None:
                        raise ProtocolError(f"bitmap bit {slot} set on a blank slot")
                    digest = hashes.get(key)
                    if digest is None:
                        digest = address_hash(key)
                        if len(hashes) < MEMO_LIMIT:
                            hashes[key] = digest
                    index = base + digest % size
                    reg = registers[slot]
                    if not reg.relax_access_limit:
                        if reg._last_ctx is ctx and reg._last_pass == pass_id:
                            raise RegisterAccessError(
                                f"register array {reg.name!r} accessed twice in one pass"
                                f"{' (' + ctx.label + ')' if ctx.label else ''}"
                            )
                        reg._last_ctx = ctx
                        reg._last_pass = pass_id
                    stage = reg.stage_index
                    if stage is not None:
                        if stage < stage_now:
                            raise RegisterAccessError(
                                f"pass moved backwards: array {reg.name!r} lives in stage "
                                f"{stage} but stage {stage_now} was "
                                "already visited"
                            )
                        stage_now = stage
                    if not 0 <= index < reg.size:
                        raise IndexError(f"{reg.name}[{index}] out of range (size {reg.size})")
                    reg.accesses += 1
                    page = reg._pages[index >> page_shift]
                    offset = index & page_mask
                    stored = page[offset]
                    if stored[0] is None:
                        if page is reg._blank:
                            reg._put(index, (key, values[slot] & mask))
                        else:
                            page[offset] = (key, values[slot] & mask)
                        reserved += 1
                    elif stored[0] == key:
                        # An occupied cell lives on a materialized page.
                        page[offset] = (key, (stored[1] + values[slot]) & mask)
                    else:
                        failed += 1
                        continue
                    aggregated += 1
                    bitmap ^= bit
            finally:
                ctx._current_stage = stage_now
                pool = self.pool
                pool.tuples_aggregated += aggregated
                pool.aggregators_reserved += reserved
                pool.tuples_failed += failed

        # Medium-key groups: coalesced, unified index over the whole key.
        if bitmap & self._medium_mask:
            for group, (slots, gmask) in enumerate(self._group_info):
                hit = bitmap & gmask
                if not hit:
                    continue
                if hit != gmask:
                    raise ProtocolError(
                        f"medium group {group} has a partially-set bitmap; "
                        "group tuples must be aggregated all-or-nothing"
                    )
                segments = []
                for s in slots:
                    key = pkt.keys[s]
                    if key is None:
                        raise ProtocolError(f"bitmap bit {s} set on a blank slot")
                    segments.append(key)
                value = pkt.values[slots[-1]]  # the value rides in the last slot
                padded = b"".join(segments)
                index = base + address_hash(padded) % region.size
                if self.pool.aggregate_group(ctx, slots, index, tuple(segments), value):
                    for s in slots:
                        bitmap &= ~(1 << s)
        return bitmap
