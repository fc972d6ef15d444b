"""The switch aggregation pass, frozen in two seed shapes.

:func:`try_aggregate` is one AA's read-modify-write as the seed wrote it:
a closure ALU dispatched through ``RegisterArray.execute``, returning an
:class:`AggregateOutcome`.  It is the oracle of
:meth:`repro.switch.aggregator.AggregatorArray.aggregate_fast`, which
inlines the register prologue and returns an int code;
``tests/switch/test_aggregate_access_parity.py`` requires both to raise
the same exception, return the same outcome and leave the same cells and
access counts behind.

:func:`per_tuple_aggregate` is the per-tuple pass, the oracle of
:meth:`repro.switch.program.AskSwitchProgram._aggregate`.  Each live short
slot costs one ``aggregate_fast`` call and one update of the pool
counters; medium groups go through ``AggregatorPool.aggregate_group``.
The product inlines the register prologue into one loop per packet and
keeps the pass state and counters in locals; the same test module
requires both to leave the same registers, counters and context behind,
return the same bitmap, and raise the same exception with the same
message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.errors import ProtocolError
from repro.core.hashing import address_hash
from repro.switch.aggregator import AggregatorArray, Cell
from repro.switch.registers import PassContext


@dataclass
class AggregateOutcome:
    """Result of one slot/group aggregation attempt."""

    success: bool
    reserved: bool = False  #: True when a blank aggregator was claimed


def try_aggregate(
    aa: AggregatorArray,
    ctx: PassContext,
    index: int,
    segment: bytes,
    add_value: Optional[int],
    enabled: bool = True,
) -> AggregateOutcome:
    """The AA's single RMW for this pass.

    Compares the stored kPart with ``segment``; on blank-or-match the cell
    is claimed/updated and ``add_value`` (if not ``None``) is added to the
    vPart.  ``enabled=False`` models the predicated no-op a P4 action takes
    when an earlier condition already failed: the access still happens
    (the array is still touched once this pass) but the cell is left
    unchanged.
    """
    outcome = AggregateOutcome(success=False)

    def alu(old: Cell) -> tuple[Cell, None]:
        if not enabled:
            return old, None
        stored_key, stored_val = old
        if stored_key is None:
            outcome.success = True
            outcome.reserved = True
            value = 0 if add_value is None else add_value & aa.value_mask
            return (segment, value), None
        if stored_key == segment:
            outcome.success = True
            if add_value is None:
                return old, None
            return (stored_key, (stored_val + add_value) & aa.value_mask), None
        return old, None

    aa.registers.execute(ctx, index, alu)
    return outcome


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
