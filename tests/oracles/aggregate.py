"""The per-tuple switch aggregation pass, frozen as the oracle of
:meth:`repro.switch.program.AskSwitchProgram._aggregate`.

Each live short slot costs one ``AggregatorArray.aggregate_fast`` call and
one update of the pool counters; medium groups go through
``AggregatorPool.aggregate_group``.  The product inlines the register
prologue into one loop per packet and keeps the pass state and counters in
locals; ``tests/switch/test_aggregate_access_parity.py`` requires both to
leave the same registers, counters and context behind, return the same
bitmap, and raise the same exception with the same message.
"""

from __future__ import annotations

from repro.core.errors import ProtocolError
from repro.core.hashing import address_hash


def per_tuple_aggregate(program, ctx, pkt, region) -> int:
    """``program._aggregate(ctx, pkt, region)``, one call per tuple."""
    pool = program.pool
    part = program.shadow.write_part(ctx, region.task_slot)
    base = program.shadow.part_offset(part) + region.offset
    bitmap = pkt.bitmap

    short_bits = bitmap & program._short_mask
    while short_bits:
        slot = (short_bits & -short_bits).bit_length() - 1
        short_bits &= short_bits - 1
        key = pkt.keys[slot]
        if key is None:
            raise ProtocolError(f"bitmap bit {slot} set on a blank slot")
        index = base + address_hash(key) % region.size
        code = pool[slot].aggregate_fast(ctx, index, key, pkt.values[slot])
        if code:
            pool.tuples_aggregated += 1
            if code == 2:
                pool.aggregators_reserved += 1
            bitmap &= ~(1 << slot)
        else:
            pool.tuples_failed += 1

    if bitmap & program._medium_mask:
        for group, (slots, gmask) in enumerate(program._group_info):
            hit = bitmap & gmask
            if not hit:
                continue
            if hit != gmask:
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
            if pool.aggregate_group(ctx, slots, index, tuple(segments), value):
                for s in slots:
                    bitmap &= ~(1 << s)
    return bitmap
