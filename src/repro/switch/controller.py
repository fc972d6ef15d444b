"""Switch controller: the control plane of the ASK switch.

The controller performs everything that does not happen per packet:

- allocating and deallocating per-task aggregator regions (step ③/⑫ of the
  workflow in Fig. 4) with multi-tenant isolation,
- registering data channels to dense reliability-state slots ("Bounding
  Switch States", §3.3),
- control-plane reads of aggregator memory — the *fetch-and-reset* that the
  host receiver drives during shadow-copy swaps and at task teardown (§3.4).

Control-plane operations go through the switch CPU (PCIe), not the
match-action pipeline: a region read or clear is modelled as one bulk transfer
per AA (a register slice), atomic with respect to packet passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional

from repro.core.config import AskConfig
from repro.core.errors import RegionExhaustedError, TaskStateError
from repro.core.keyspace import KeySpaceLayout, unpad_key
from repro.core.tenancy import TenantQuotas
from repro.switch.aggregator import AggregatorPool
from repro.switch.shadow import ShadowDirectory


@dataclass(frozen=True)
class Region:
    """A task's slice of every AA: aggregator indices ``[offset, offset+size)``
    within each copy.

    ``sources`` and ``relay`` give a region a *combiner* role in a
    spine–leaf tree.  ``sources`` widens the §7 "src is a local host"
    program-admission rule: when set, packets from those named senders run
    the program here even though they are not directly attached (a spine
    aggregating slots pre-combined by its leaves).  ``relay=True`` marks a
    leaf region whose absorbed packets must still be forwarded up the tree
    (never ACK-consumed) because a terminal region above it holds the
    running total.  The defaults reproduce the flat one-switch-per-rack
    behaviour exactly.
    """

    task_id: int
    task_slot: int
    offset: int
    size: int
    sources: Optional[FrozenSet[str]] = None
    relay: bool = False

    @property
    def end(self) -> int:
        return self.offset + self.size


@dataclass(frozen=True)
class RegionSpec:
    """Per-switch placement policy for one task's region allocation.

    Carried by :meth:`~repro.core.controlplane.ControlPlane.allocate` so a
    tree deployment can give each switch on the aggregation path its own
    admission set and relay verdict.
    """

    sources: Optional[FrozenSet[str]] = None
    relay: bool = False


class SwitchController:
    """Allocation and control-plane access for one ASK switch.

    ``_place``, ``_blank`` and ``fetch_and_reset`` touch the register
    store; :class:`~repro.switch.trio.TrioController` overrides them.
    """

    def __init__(
        self,
        config: AskConfig,
        pool: AggregatorPool,
        shadow: ShadowDirectory,
        max_tasks: int = 64,
        max_channels: int = 256,
    ) -> None:
        self.config = config
        self.pool = pool
        self.shadow = shadow
        self.layout = KeySpaceLayout(config)
        self.max_tasks = max_tasks
        self.max_channels = max_channels
        self._regions: Dict[int, Region] = {}
        self._free_task_slots = list(range(max_tasks - 1, -1, -1))
        self._channel_slots: Dict[tuple[str, int], int] = {}
        self.fetches = 0
        #: Per-tenant aggregator budgets (§7 multi-tenancy); tenants are
        #: decoded from the high bits of the task ID.
        self.tenant_quotas = TenantQuotas()

    # ------------------------------------------------------------------
    # Region allocation (first-fit over the per-copy aggregator space)
    # ------------------------------------------------------------------
    def allocate_region(
        self,
        task_id: int,
        size: Optional[int] = None,
        sources: Optional[FrozenSet[str]] = None,
        relay: bool = False,
    ) -> Region:
        """Reserve ``size`` aggregators per AA (per copy) for ``task_id``.

        ``size=None`` requests the largest free extent.  ``sources`` and
        ``relay`` set the region's combiner role (see :class:`Region`).
        Raises :class:`RegionExhaustedError` when no extent fits and
        :class:`TaskStateError` on double allocation.
        """
        if task_id in self._regions:
            raise TaskStateError(f"task {task_id} already holds a region")
        if not self._free_task_slots:
            raise RegionExhaustedError("no free task slots on the switch")
        offset, size = self._place(size)
        self.tenant_quotas.charge(task_id, size)
        region = Region(
            task_id, self._free_task_slots.pop(), offset, size, sources, relay
        )
        self._regions[task_id] = region
        return region

    def _place(self, size: Optional[int]) -> tuple[int, int]:
        """First fit: the (offset, size) of a free extent for the region."""
        free = self._free_extents()
        if not free:
            raise RegionExhaustedError("aggregator space exhausted")
        if size is None:
            return max(free, key=lambda item: item[1])
        if size < 1:
            raise ValueError("region size must be >= 1")
        for offset, extent in free:
            if extent >= size:
                return offset, size
        raise RegionExhaustedError(
            f"no free extent of {size} aggregators (largest: "
            f"{max(extent for _, extent in free)})"
        )

    def _free_extents(self) -> list[tuple[int, int]]:
        """Free (offset, length) extents in the per-copy aggregator space."""
        copy_size = self.config.copy_size
        used = sorted((r.offset, r.end) for r in self._regions.values())
        extents = []
        cursor = 0
        for start, end in used:
            if start > cursor:
                extents.append((cursor, start - cursor))
            cursor = max(cursor, end)
        if cursor < copy_size:
            extents.append((cursor, copy_size - cursor))
        return extents

    def deallocate(self, task_id: int) -> None:
        """Release a task's region (step ⑫), clearing its aggregators."""
        region = self._held(task_id)
        del self._regions[task_id]
        self._blank(region)
        self._free_task_slots.append(region.task_slot)
        self.tenant_quotas.refund(task_id, region.size)

    def lookup_region(self, task_id: int) -> Optional[Region]:
        """Data-plane match table: task id → region."""
        return self._regions.get(task_id)

    def _held(self, task_id: int) -> Region:
        region = self._regions.get(task_id)
        if region is None:
            raise TaskStateError(f"task {task_id} holds no region")
        return region

    # ------------------------------------------------------------------
    # Occupancy views (admission control / reclaim accounting)
    # ------------------------------------------------------------------
    def tenant_usage(self) -> Dict[int, int]:
        """tenant -> aggregators currently charged on this switch."""
        return self.tenant_quotas.usage()

    def reset_task(self, task_id: int) -> None:
        """Blank a task's data-plane state while keeping its allocation.

        Supervised restart support: both shadow copies of the region are
        cleared and the copy indicator rewound to 0, matching the restarted
        receiver's ``swap_epoch = 0``.  On a freshly rebooted switch the
        registers are already blank and this is a harmless no-op; on a
        *healthy* switch of a multi-switch task it discards partial
        aggregates that the restarted senders are about to replay.
        """
        self._blank(self._held(task_id))

    def _blank(self, region: Region) -> None:
        """Clear both copies of the region and rewind its copy indicator."""
        for part in range(2 if self.config.shadow_copy else 1):
            self._clear_region(region, part)
        self.shadow.clear(region.task_slot)

    # ------------------------------------------------------------------
    # Channel registry
    # ------------------------------------------------------------------
    def channel_slot(self, channel_key: tuple[str, int]) -> int:
        """Dense reliability-state slot for a data channel.

        Channels are persistent for the lifetime of the ASK service (§3.3),
        so slots are never recycled.
        """
        slot = self._channel_slots.get(channel_key)
        if slot is None:
            if len(self._channel_slots) >= self.max_channels:
                raise RegionExhaustedError(
                    f"switch supports at most {self.max_channels} data channels"
                )
            slot = len(self._channel_slots)
            self._channel_slots[channel_key] = slot
        return slot

    @property
    def num_channels(self) -> int:
        return len(self._channel_slots)

    # ------------------------------------------------------------------
    # Fetch-and-reset (control plane)
    # ------------------------------------------------------------------
    def fetch_and_reset(self, task_id: int, part: int) -> dict[bytes, int]:
        """Read all key→value pairs of copy ``part`` of a task's region and
        clear it (Alg. 1 ``Read()`` plus cleanup).

        Medium keys are reconstructed from their coalesced group rows: a row
        is valid when every segment cell is occupied, the key is the
        unpadded concatenation of segments and the value lives in the last
        cell (§3.2.3).
        """
        region = self._held(task_id)
        self.fetches += 1
        base = self.shadow.part_offset(part)
        lo, hi = base + region.offset, base + region.end
        result: dict[bytes, int] = {}
        mask = self.config.value_mask

        for slot in range(self.layout.num_short_slots):
            aa = self.pool[slot]
            for _, key, value in aa.control_occupied(lo, hi):
                plain = unpad_key(key)
                result[plain] = (result.get(plain, 0) + value) & mask
            aa.control_clear_range(lo, hi)

        for group in range(self.layout.num_groups):
            arrays = [self.pool[s] for s in self.layout.group_slots(group)]
            columns = [
                {idx: (key, value) for idx, key, value in aa.control_occupied(lo, hi)}
                for aa in arrays
            ]
            # Partial rows (some segment cell blank) are neither fetched
            # nor cleared, so complete rows are cleared cell by cell.
            for idx in sorted(set(columns[0]).intersection(*columns[1:])):
                cells = [col[idx] for col in columns]
                plain = unpad_key(b"".join(key for key, _ in cells))
                result[plain] = (result.get(plain, 0) + cells[-1][1]) & mask
                for aa in arrays:
                    aa.control_clear(idx)
        return result

    def _clear_region(self, region: Region, part: int) -> None:
        base = self.shadow.part_offset(part)
        for aa in self.pool.arrays:
            aa.control_clear_range(base + region.offset, base + region.end)

    # ------------------------------------------------------------------
    def region_occupancy(self, task_id: int, part: int) -> float:
        """Fraction of a region's aggregators occupied — Fig. 9's metric."""
        region = self._held(task_id)
        base = self.shadow.part_offset(part)
        occupied = sum(
            len(aa.control_occupied(base + region.offset, base + region.end))
            for aa in self.pool.arrays
        )
        return occupied / (region.size * len(self.pool))
