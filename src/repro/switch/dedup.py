"""Switch-side reliability state: ``seen``, ``max_seq`` and ``PktState`` (§3.3).

The switch is the receiver endpoint of every sender→switch flow.  For each
data channel it keeps:

- ``max_seq`` — highest sequence number observed; packets at or below
  ``max_seq - W`` are *stale* and dropped before touching any other state,
- ``seen`` — the per-packet appearance record.  Two interchangeable designs
  are provided: the conceptual 2W-bit array (Eqs. 5–7), which needs three
  register accesses per pass and therefore only runs on a *relaxed* register
  array, and the memory-compact W-bit design (Eq. 8) built from the atomic
  ``set_bit``/``clr_bitc`` instructions, which is the one real hardware can
  execute,
- ``PktState`` — one bitmap per in-window packet recording which tuples the
  switch consumed, so a retransmitted partially-aggregated packet carries
  only its unaggregated tuples onward (Eqs. 9–10).

All three are register arrays indexed by ``channel_slot * W + offset`` so
one physical array serves every data channel (the paper's "Bounding Switch
States": 1056 B per channel, 264 KB for 64 servers).
"""

from __future__ import annotations

from repro.core.config import AskConfig
from repro.switch.registers import PassContext, RegisterArray


#: Integer verdicts of the compiled dedup microprogram (§ channel compiler).
CHECK_FRESH = 0  #: first appearance of this (channel, seq)
CHECK_OBSERVED = 1  #: retransmission — restore the recorded bitmap
CHECK_STALE = 2  #: at or below ``max_seq - W`` — drop before any other state


class ChannelProgram:
    """One channel's dedup sequence, compiled at install time.

    The seed's generic path (frozen in ``tests/oracles/dedup.py``)
    re-derived everything per packet: the channel-slot lookup, the
    ``slot * W + seq % W`` index arithmetic, the compact/relaxed design
    branch, and a closure-dispatched ALU per register access.  A
    ``ChannelProgram`` resolves all of it once — the register *bound
    methods* (the ALU sequence), the index bases, and the design flavour —
    so the per-packet work is index math plus the already-inlined register
    operations.  This mirrors what installing a P4 program does on real
    hardware: the stage/register/ALU schedule is fixed at install, only the
    PHV differs per packet.

    Compiled programs stay valid across reboots: they hold the arrays'
    bound methods, ``control_reset`` and ``reinstall_channel`` rewrite each
    array's page table in place, and channel slots are never recycled
    (§3.3 — channels are persistent for the service lifetime).
    """

    __slots__ = (
        "unit",
        "channel_slot",
        "window",
        "compact",
        "seen_base",
        "state_base",
        "_bump_max",
        "_seen_set_bit",
        "_seen_clr_bitc",
        "_seen_read",
        "_seen_write",
        "_state_read",
        "_state_write",
    )

    def __init__(self, unit: "DedupUnit", channel_slot: int) -> None:
        if not 0 <= channel_slot < unit.max_channels:
            raise IndexError(f"channel slot {channel_slot} out of range")
        self.unit = unit
        self.channel_slot = channel_slot
        self.window = unit.window
        self.compact = unit.compact
        # Index bases: one physical array serves every channel.
        self.seen_base = channel_slot * (unit.window if unit.compact else 2 * unit.window)
        self.state_base = channel_slot * unit.window
        # Bind the register operations now, once per channel.
        self._bump_max = unit.max_seq.rmw_max
        self._seen_set_bit = unit.seen.set_bit
        self._seen_clr_bitc = unit.seen.clr_bitc
        self._seen_read = unit.seen.read
        self._seen_write = unit.seen.write
        self._state_read = unit.pkt_state.read
        self._state_write = unit.pkt_state.write

    # ------------------------------------------------------------------
    def check(self, ctx: PassContext, seq: int) -> int:
        """Dedup front: stale guard then the ``seen`` record.

        Returns :data:`CHECK_FRESH`, :data:`CHECK_OBSERVED` or
        :data:`CHECK_STALE`.
        """
        window = self.window
        new_max = self._bump_max(ctx, self.channel_slot, seq)
        if seq <= new_max - window:
            self.unit.stale_drops += 1
            return 2
        if self.compact:
            # Eq. 8: even segments record appearance as 1, odd as 0.
            if (seq // window) & 1:
                observed = self._seen_clr_bitc(ctx, self.seen_base + seq % window)
            else:
                observed = self._seen_set_bit(ctx, self.seen_base + seq % window)
        else:
            # Eqs. 5-7 (relaxed 2W-bit ablation): read, record, clear ahead.
            window2 = 2 * window
            base = self.seen_base
            idx = seq % window2
            observed = self._seen_read(ctx, base + idx)
            self._seen_write(ctx, base + idx, 1)
            self._seen_write(ctx, base + (idx + window) % window2, 0)
        if observed:
            self.unit.duplicates_detected += 1
            return 1
        return 0

    def record_bitmap(self, ctx: PassContext, seq: int, bitmap: int) -> None:
        """First appearance: persist the post-aggregation bitmap (Eq. 9)."""
        self._state_write(ctx, self.state_base + seq % self.window, bitmap)

    def load_bitmap(self, ctx: PassContext, seq: int) -> int:
        """Retransmission: restore the recorded bitmap (Eq. 10)."""
        return self._state_read(ctx, self.state_base + seq % self.window)


class DedupUnit:
    """The reliability registers for all channels of one switch.

    Parameters
    ----------
    config:
        Supplies ``window_size`` (W), ``use_compact_seen`` and the PktState
        bitmap width (``num_aas``).
    max_channels:
        Data channels this switch can serve; controls register sizing.
    """

    def __init__(self, config: AskConfig, max_channels: int) -> None:
        self.window = config.window_size
        self.compact = config.use_compact_seen
        self.max_channels = max_channels

        self.max_seq: RegisterArray[int] = RegisterArray(
            "max_seq", max_channels, width_bits=32, initial=-1
        )
        if self.compact:
            self.seen: RegisterArray[int] = RegisterArray(
                "seen", max_channels * self.window, width_bits=1, initial=0
            )
        else:
            # The conceptual 2W-bit design performs a read, a set and a
            # clear in one pass — three accesses — so it only exists on a
            # relaxed register array.  Kept for the ablation (DESIGN.md §4.2).
            self.seen = RegisterArray(
                "seen_2w",
                max_channels * 2 * self.window,
                width_bits=1,
                initial=0,
                relax_access_limit=True,
            )
        self.pkt_state: RegisterArray[int] = RegisterArray(
            "PktState", max_channels * self.window, width_bits=config.num_aas, initial=0
        )

        self.stale_drops = 0
        self.duplicates_detected = 0

    # ------------------------------------------------------------------
    @property
    def sram_bytes(self) -> int:
        """Total reliability SRAM (the paper's 1056 B/channel accounting)."""
        return self.max_seq.sram_bytes + self.seen.sram_bytes + self.pkt_state.sram_bytes

    def sram_bytes_per_channel(self) -> float:
        return self.sram_bytes / self.max_channels

    # ------------------------------------------------------------------
    def compile_channel(self, channel_slot: int) -> ChannelProgram:
        """Resolve one channel's dedup sequence at install time."""
        return ChannelProgram(self, channel_slot)

    # ------------------------------------------------------------------
    # Control plane (failover re-install)
    # ------------------------------------------------------------------
    def reinstall_channel(self, channel_slot: int, next_seq: int) -> None:
        """Re-baseline one channel's reliability state after a reboot wipe.

        The control plane knows (from the supervised restart) that the
        sender will transmit *contiguously* from ``next_seq`` and that
        every lower sequence bypasses the switch forever, so it writes
        exactly the state a healthy switch would hold had it just
        processed ``next_seq - 1``:

        - ``max_seq = next_seq - 1`` (stale guard re-established),
        - compact ``seen``: for each residue class, the first upcoming
          sequence ``s >= next_seq`` in that class must read as a first
          appearance — bit 0 if ``s`` lands in an even segment
          (``set_bit`` reports the old value) and bit 1 if odd
          (``clr_bitc`` reports the complement), Eq. 8's invariant,
        - reference 2W ``seen``: all-zero is already correct (each
          window-ahead cell is re-cleared in-pass before it is read),
        - ``PktState`` stays zeroed: the first appearance of each new
          sequence records its bitmap before any retransmission loads it.
        """
        if not 0 <= channel_slot < self.max_channels:
            raise IndexError(f"channel slot {channel_slot} out of range")
        self.max_seq.control_write(channel_slot, next_seq - 1)
        window = self.window
        if self.compact:
            base = channel_slot * window
            for residue in range(window):
                first = next_seq + ((residue - next_seq) % window)
                segment = (first // window) % 2
                self.seen.control_write(base + residue, 1 if segment else 0)
        else:
            base = channel_slot * 2 * window
            for offset in range(2 * window):
                self.seen.control_write(base + offset, 0)
        base = channel_slot * window
        for offset in range(window):
            self.pkt_state.control_write(base + offset, 0)
