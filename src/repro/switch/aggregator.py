"""Aggregator arrays: the switch's computation-and-storage units (§3.2.1).

Each aggregator is one register cell of ``2n`` bits holding a kPart (key
segment) and a vPart (running sum).  An :class:`AggregatorArray` (AA) wraps
one register array; the :class:`AggregatorPool` is the two-dimensional array
of AAs — the first dimension selects the AA (== the packet slot), the second
the aggregator within it.

Short keys use one aggregator; medium keys use one aggregator in each AA of
a coalesced group, addressed by a single unified index (§3.2.3).  Values are
accumulated modulo ``2**value_bits`` exactly as a fixed-width hardware adder
would.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import AskConfig
from repro.switch.pisa import Pipeline
from repro.switch.registers import (
    PAGE_MASK,
    PAGE_SHIFT,
    PassContext,
    RegisterAccessError,
    RegisterArray,
)

#: An aggregator cell: (kPart, vPart).  ``None`` kPart means blank.
Cell = tuple[Optional[bytes], int]

BLANK: Cell = (None, 0)


class AggregatorArray:
    """One AA: a register array of (kPart, vPart) cells."""

    def __init__(self, name: str, size: int, key_bits: int, value_bits: int) -> None:
        self.key_bits = key_bits
        self.value_bits = value_bits
        self.value_mask = (1 << value_bits) - 1
        self.registers: RegisterArray[Cell] = RegisterArray(
            name, size, width_bits=key_bits + value_bits, initial=BLANK
        )

    @property
    def name(self) -> str:
        return self.registers.name

    @property
    def size(self) -> int:
        return self.registers.size

    # ------------------------------------------------------------------
    # Fast-path return codes for :meth:`aggregate_fast`.
    FAIL = 0
    MATCHED = 1
    RESERVED = 2

    def aggregate_fast(
        self,
        ctx: PassContext,
        index: int,
        segment: bytes,
        add_value: Optional[int],
        enabled: bool = True,
    ) -> int:
        """The AA's single read-modify-write for this pass.

        Compares the stored kPart with ``segment``; on blank-or-match the
        cell is claimed/updated and ``add_value`` (if not ``None``) is added
        to the vPart.  Returns ``FAIL``, ``MATCHED`` or ``RESERVED`` (a
        blank aggregator was claimed, which implies success).
        ``enabled=False`` models the predicated no-op a P4 action takes
        when an earlier condition already failed: the access still happens
        (the array is still touched once this pass) but the cell is left
        unchanged.

        The register access discipline is inlined rather than dispatched
        through ``RegisterArray.execute``.  Medium groups call this once
        per segment; the switch program's short-slot loop carries an
        inlined copy.  ``tests/switch/test_aggregate_access_parity.py``
        holds both to the seed's closure-ALU shape
        (``tests/oracles/aggregate.py``).
        """
        reg = self.registers
        # Inlined RegisterArray access prologue (see registers.py).
        if not reg.relax_access_limit:
            if reg._last_ctx is ctx and reg._last_pass == ctx._pass_id:
                raise RegisterAccessError(
                    f"register array {reg.name!r} accessed twice in one pass"
                    f"{' (' + ctx.label + ')' if ctx.label else ''}"
                )
            reg._last_ctx = ctx
            reg._last_pass = ctx._pass_id
        stage = reg.stage_index
        if stage is not None:
            if stage < ctx._current_stage:
                raise RegisterAccessError(
                    f"pass moved backwards: array {reg.name!r} lives in stage "
                    f"{stage} but stage {ctx._current_stage} was "
                    "already visited"
                )
            ctx._current_stage = stage
        if not 0 <= index < reg.size:
            raise IndexError(f"{reg.name}[{index}] out of range (size {reg.size})")
        reg.accesses += 1
        if not enabled:
            # Predicated no-op: the array was still touched once this pass.
            return 0
        page = reg._pages[index >> PAGE_SHIFT]
        offset = index & PAGE_MASK
        old = page[offset]
        stored_key = old[0]
        if stored_key is None:
            value = 0 if add_value is None else add_value & self.value_mask
            if page is reg._blank:
                reg._put(index, (segment, value))
            else:
                page[offset] = (segment, value)
            return 2
        if stored_key == segment:
            # An occupied cell lives on a materialized page.
            if add_value is not None:
                page[offset] = (segment, (old[1] + add_value) & self.value_mask)
            return 1
        return 0

    # ------------------------------------------------------------------
    # Control-plane (switch CPU) access used by fetch-and-reset.
    # ------------------------------------------------------------------
    def control_cell(self, index: int) -> Cell:
        return self.registers.control_read(index)

    def control_clear(self, index: int) -> None:
        self.registers.control_write(index, BLANK)

    def control_occupied(self, start: int, stop: int) -> list[tuple[int, bytes, int]]:
        """Bulk read: the occupied cells of ``[start, stop)`` as
        ``(index, kPart, vPart)``, ascending.  Only materialized pages are
        read; a blank run among them costs one C-speed ``count``."""
        occupied: list[tuple[int, bytes, int]] = []
        for first, cells in self.registers.control_read_resident(start, stop):
            if cells.count(BLANK) != len(cells):
                occupied += [(i, c[0], c[1]) for i, c in enumerate(cells, first) if c[0] is not None]
        return occupied

    def control_clear_range(self, start: int, stop: int) -> None:
        """Blank ``[start, stop)`` in place."""
        self.registers.control_reset(start, stop)

    def occupied_in(self, start: int, stop: int) -> int:
        """Occupied aggregators in ``[start, stop)`` — memory-utilization stat."""
        return len(self.control_occupied(start, stop))


class AggregatorPool:
    """The two-dimensional AA pool plus its pipeline placement.

    AAs are declared onto the pipeline starting at ``first_stage``, four per
    stage, in slot order — which automatically places each medium group's
    ``m`` AAs in the same or physically adjacent stages, as §3.2.3 requires.
    """

    def __init__(self, config: AskConfig, pipeline: Pipeline, first_stage: int) -> None:
        self.config = config
        self.arrays: list[AggregatorArray] = []
        for slot in range(config.num_aas):
            self.arrays.append(
                AggregatorArray(
                    f"AA{slot}",
                    config.aggregators_per_aa,
                    config.key_bits,
                    config.value_bits,
                )
            )
        self.next_free_stage = pipeline.declare_spread(
            first_stage, [aa.registers for aa in self.arrays]
        )
        # Cumulative statistics (switch-side observability).
        self.tuples_aggregated = 0
        self.tuples_failed = 0
        self.aggregators_reserved = 0

    def __getitem__(self, slot: int) -> AggregatorArray:
        return self.arrays[slot]

    def __len__(self) -> int:
        return len(self.arrays)

    # ------------------------------------------------------------------
    # Short keys are aggregated by ``AskSwitchProgram._aggregate``'s
    # per-packet loop, which inlines ``aggregate_fast`` and adds its
    # outcomes to the three counters above.
    def aggregate_group(
        self,
        ctx: PassContext,
        slots: tuple[int, ...],
        index: int,
        segments: tuple[bytes, ...],
        value: int,
    ) -> bool:
        """Aggregate a medium key across its coalesced group.

        Stage-by-stage predicated execution: each AA performs its single
        RMW; once a segment mismatches, later AAs run disabled.  The
        blank-prefix invariant (rows are always fully blank or fully
        written) guarantees this sequential scheme is all-or-nothing — see
        DESIGN.md §4.5.
        """
        if len(slots) != len(segments):
            raise ValueError("segment count must match the group width")
        ok = True
        last = len(slots) - 1
        arrays = self.arrays
        for pos, (slot, segment) in enumerate(zip(slots, segments)):
            add = value if pos == last else None
            code = arrays[slot].aggregate_fast(ctx, index, segment, add, enabled=ok)
            if ok and code == 0:
                ok = False
            if code == 2:
                self.aggregators_reserved += 1
        if ok:
            self.tuples_aggregated += 1
        else:
            self.tuples_failed += 1
        return ok

    # ------------------------------------------------------------------
    def occupancy(self, start: int, stop: int) -> float:
        """Fraction of aggregators occupied in ``[start, stop)`` across AAs."""
        total = (stop - start) * len(self.arrays)
        if total == 0:
            return 0.0
        occupied = sum(aa.occupied_in(start, stop) for aa in self.arrays)
        return occupied / total
