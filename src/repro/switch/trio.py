"""The ASK switch on a Trio-style run-to-completion chipset (§6).

"Trio increases the memory available to the data plane from O(10MB) to
O(1GB) while reducing restrictions on memory access … The design of ASK can
be very well adapted to this architecture.  With Trio, the shadow copy
mechanism and variable-length key processing of ASK can be further
improved."

:class:`TrioSwitch` is an :class:`~repro.switch.switch.AskSwitch` whose
aggregation memory is DRAM: one table per task over *full* keys, budgeted
in entries.  Ingress, the stale guard, the ``seen`` record and PktState,
the ACK/forward verdict, routing and the failure-domain lifecycle are the
ones every ASK switch runs.  What the store changes:

- medium keys need no coalesced groups and long keys no longer bypass the
  switch: a fully absorbed LONG packet is ACKed,
- no shadow copies: the table is large enough that periodic eviction is
  unnecessary, so swap notifications are ACKed as no-ops and a part-1
  fetch returns nothing,
- the price is processing speed: every packet spends
  ``TRIO_LATENCY_FACTOR`` times the PISA pipeline's latency in the switch.

``AskService(..., switch_factory=TrioSwitch)`` selects it.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.config import AskConfig
from repro.core.constants import SWITCH_PIPELINE_LATENCY_NS
from repro.core.errors import ProtocolError, RegionExhaustedError
from repro.core.keyspace import KeySpaceLayout, unpad_key
from repro.core.packet import AskPacket, ack_for
from repro.switch.controller import Region, SwitchController
from repro.switch.dedup import DedupUnit
from repro.switch.program import AskSwitchProgram, ProgramStats, SwitchAction, SwitchDecision
from repro.switch.registers import PassContext
from repro.switch.switch import AskSwitch

#: Run-to-completion packet processing is slower than a fixed pipeline.
TRIO_LATENCY_FACTOR = 4
#: DRAM table entries on one switch: O(1 GB) of 64-byte entries.
DRAM_ENTRIES = 16_000_000


class TrioController(SwitchController):
    """The region books of :class:`SwitchController` over the DRAM store.

    A region of ``size`` aggregators per AA books ``size × num_aas`` table
    entries out of ``total_entries``; its task slot's table holds the
    task's running totals under their full keys.
    """

    def __init__(
        self,
        config: AskConfig,
        max_tasks: int = 64,
        max_channels: int = 256,
        total_entries: int = DRAM_ENTRIES,
    ) -> None:
        # No register pool and no shadow directory: ``tables`` is the store.
        super().__init__(config, None, None, max_tasks, max_channels)  # type: ignore[arg-type]
        self.total_entries = total_entries
        #: Task slot -> full key -> value.
        self.tables: list[dict[bytes, int]] = [{} for _ in range(max_tasks)]

    @property
    def allocated_entries(self) -> int:
        return sum(region.size for region in self._regions.values()) * self.config.num_aas

    def _place(self, size: Optional[int]) -> tuple[int, int]:
        per_aa = self.config.copy_size if size is None else size
        entries = per_aa * self.config.num_aas
        if self.allocated_entries + entries > self.total_entries:
            raise RegionExhaustedError(
                f"DRAM budget exhausted ({self.allocated_entries}+{entries} "
                f"> {self.total_entries} entries)"
            )
        return 0, per_aa

    def _blank(self, region: Region) -> None:
        self.tables[region.task_slot].clear()

    def fetch_and_reset(self, task_id: int, part: int) -> dict[bytes, int]:
        """Drain the task's table.  There is one copy: part 0 takes it all
        and part 1 is empty, so the host's swap loop works unchanged."""
        table = self.tables[self._held(task_id).task_slot]
        self.fetches += 1
        if part != 0:
            return {}
        out = dict(table)
        table.clear()
        return out


class TrioProgram(AskSwitchProgram):
    """The ASK pass with a full-key table in place of the register pool."""

    aggregate_mask = 0x5  # DATA without FIN: LONG packets aggregate too
    forward_flags = 0
    controller: TrioController

    def __init__(
        self, config: AskConfig, controller: TrioController, dedup: DedupUnit, switch_name: str
    ) -> None:
        # Not the parent's constructor: it binds the register pool's arrays.
        self.config = config
        self.controller = controller
        self.dedup = dedup
        self.switch_name = switch_name
        self.stats = ProgramStats()
        self._channels = {}
        layout = KeySpaceLayout(config)
        self._short_slots = range(layout.num_short_slots)
        self._groups: list[tuple[tuple[int, ...], int]] = []
        for group in range(layout.num_groups):
            slots = layout.group_slots(group)
            self._groups.append((slots, sum(1 << s for s in slots)))

    def _process_swap(self, ctx: PassContext, pkt: AskPacket) -> SwitchDecision:
        self.stats.swaps += 1
        return SwitchDecision(SwitchAction.ACK, [ack_for(pkt, self.switch_name)])

    def _aggregate(self, ctx: PassContext, pkt: AskPacket, region: Region) -> int:
        table = self.controller.tables[region.task_slot]
        room = region.size * self.config.num_aas - len(table)
        mask = self.config.value_mask
        bitmap = pkt.bitmap
        for key, value, bits in self._live_tuples(pkt):
            if key in table:
                table[key] = (table[key] + value) & mask
            elif room > 0:
                table[key] = value & mask
                room -= 1
            else:
                continue
            bitmap &= ~bits
        return bitmap

    def _live_tuples(self, pkt: AskPacket) -> Iterator[tuple[bytes, int, int]]:
        """Each live tuple as (full key, value, its bitmap bits)."""
        keys, values, bitmap = pkt.keys, pkt.values, pkt.bitmap

        def key_at(slot: int) -> bytes:
            key = keys[slot]
            if key is None:
                raise ProtocolError(f"bitmap bit {slot} set on a blank slot")
            return key

        if pkt.flags & 0x10:  # LONG: each slot holds a whole key
            self.stats.long_packets += 1
            for slot in range(len(keys)):
                if bitmap >> slot & 1:
                    yield key_at(slot), values[slot], 1 << slot
            return
        for slot in self._short_slots:
            if bitmap >> slot & 1:
                yield unpad_key(key_at(slot)), values[slot], 1 << slot
        for group, (slots, bits) in enumerate(self._groups):
            hit = bitmap & bits
            if not hit:
                continue
            if hit != bits:
                raise ProtocolError(f"medium group {group} has a partially-set bitmap")
            yield unpad_key(b"".join(map(key_at, slots))), values[slots[-1]], bits


class TrioSwitch(AskSwitch):
    """An ASK switch whose aggregation memory is the DRAM store."""

    processing_latency_ns = SWITCH_PIPELINE_LATENCY_NS * TRIO_LATENCY_FACTOR
    controller: TrioController

    def _install(
        self, max_tasks: int, max_channels: int
    ) -> tuple[SwitchController, AskSwitchProgram]:
        # Run to completion: the dedup registers take no pipeline stages.
        controller = TrioController(self.config, max_tasks, max_channels)
        return controller, TrioProgram(self.config, controller, self.dedup, self.name)

    def _wipe_store(self) -> None:
        for table in self.controller.tables:
            table.clear()

    def resource_summary(self) -> str:
        return (
            f"trio: {self.controller.allocated_entries}/{self.controller.total_entries} "
            f"DRAM entries allocated, {self.controller.num_channels} channels, "
            f"{self.processing_latency_ns} ns/packet"
        )
