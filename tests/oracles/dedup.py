"""The generic dedup stage, frozen as the oracle of
:meth:`repro.switch.dedup.ChannelProgram.check`.

The seed ran the stale guard and the ``seen`` record through
``DedupUnit``, re-deriving the channel's register indices and the
compact/2W design branch on every packet.  The switch runs a
``ChannelProgram`` compiled at install time instead;
``tests/switch/test_compiled_context.py`` requires both to return the same
0/1/2 code and leave the same drop counters over the arrival space the
integrated system can generate.
"""

from __future__ import annotations

from repro.switch.dedup import CHECK_FRESH, CHECK_OBSERVED, CHECK_STALE, DedupUnit
from repro.switch.registers import PassContext


def generic_check(unit: DedupUnit, ctx: PassContext, channel_slot: int, seq: int) -> int:
    """Stale guard, then the ``seen`` lookup/update: a ``CHECK_*`` code."""
    if not 0 <= channel_slot < unit.max_channels:
        raise IndexError(f"channel slot {channel_slot} out of range")
    new_max = unit.max_seq.rmw_max(ctx, channel_slot, seq)
    if seq <= new_max - unit.window:
        unit.stale_drops += 1
        return CHECK_STALE
    if unit.compact:
        # Eq. 8: even segments record appearance as 1 (``set_bit`` returns
        # the old value), odd ones as 0 (``clr_bitc`` returns its complement).
        index = channel_slot * unit.window + seq % unit.window
        if (seq // unit.window) % 2 == 0:
            observed = unit.seen.set_bit(ctx, index)
        else:
            observed = unit.seen.clr_bitc(ctx, index)
    else:
        # Eqs. 5-7, the conceptual 2W-bit design: read, record, clear ahead.
        window2 = 2 * unit.window
        base = channel_slot * window2
        idx = seq % window2
        observed = unit.seen.read(ctx, base + idx)
        unit.seen.write(ctx, base + idx, 1)
        unit.seen.write(ctx, base + (idx + unit.window) % window2, 0)
    if observed:
        unit.duplicates_detected += 1
        return CHECK_OBSERVED
    return CHECK_FRESH
