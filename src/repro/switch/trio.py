"""Trio-style run-to-completion switch backend (§6 Related Work).

"Trio increases the memory available to the data plane from O(10MB) to
O(1GB) while reducing restrictions on memory access … The design of ASK can
be very well adapted to this architecture.  With Trio, the shadow copy
mechanism and variable-length key processing of ASK can be further
improved."

This backend keeps ASK's *external* protocol bit-for-bit — the same packet
format, per-channel reliability semantics (stale guard, dedup, PktState
bitmap restoration), ACK/forward decisions and control-plane operations —
but implements the data plane the way a run-to-completion chipset would:

- aggregators are a per-task hash table keyed by the *full* key, so medium
  keys need no coalesced groups and long keys no longer bypass the switch,
- no one-access-per-pass restriction, no stage budgets, DRAM-scale
  capacity,
- no shadow copies: the table is large enough that periodic eviction is
  unnecessary (swap notifications are acknowledged as no-ops so the host
  protocol runs unchanged),
- the price is processing speed: per-packet latency is several times the
  PISA pipeline's (the Trio trade-off the paper notes).

Because the host side is untouched, :class:`~repro.core.service.AskService`
accepts this class through its ``switch_factory`` parameter and every
reliability test passes against it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.config import AskConfig
from repro.core.constants import SWITCH_PIPELINE_LATENCY_NS
from repro.core.errors import ProtocolError, RegionExhaustedError, TaskStateError
from repro.core.keyspace import KeySpaceLayout, unpad_key
from repro.core.packet import AskPacket, ack_for
from repro.core.robustness import (
    Quarantine,
    RobustnessCounters,
    quarantine_packet,
    validate_switch_ingress,
)
from repro.core.tenancy import TenantQuotas
from repro.net.fault import CorruptedFrame
from repro.net.trace import PacketTrace
from repro.runtime.interfaces import Clock, SwitchFabricView
from repro.switch.program import ProgramStats
from repro.transport.reliability import ReceiveWindow

#: Run-to-completion packet processing is slower than a fixed pipeline.
TRIO_LATENCY_FACTOR = 4


@dataclass
class _ChannelState:
    """Software reliability state for one data channel."""

    window: ReceiveWindow
    pkt_state: Dict[int, int] = field(default_factory=dict)  # seq -> bitmap

    def prune(self) -> None:
        floor = self.window.max_seq - self.window.window
        if len(self.pkt_state) > 4 * self.window.window:
            self.pkt_state = {s: b for s, b in self.pkt_state.items() if s > floor}


@dataclass
class _TaskStore:
    """One task's DRAM aggregation table."""

    capacity: int
    table: Dict[bytes, int] = field(default_factory=dict)


class TrioController:
    """Control plane of a Trio switch: same interface as
    :class:`~repro.switch.controller.SwitchController`, budgeted in table
    entries instead of register cells."""

    def __init__(self, config: AskConfig, max_tasks: int, total_entries: int) -> None:
        self.config = config
        self.max_tasks = max_tasks
        self.total_entries = total_entries
        self._stores: Dict[int, _TaskStore] = {}
        self._allocated_entries = 0
        self.tenant_quotas = TenantQuotas()
        self.fetches = 0
        self.num_channels = 0  # maintained by the switch

    # -- region interface ------------------------------------------------
    def allocate_region(self, task_id: int, size: Optional[int] = None) -> _TaskStore:
        """``size`` is in aggregators-per-AA for interface compatibility;
        the Trio store budget is that many entries per (virtual) AA."""
        if task_id in self._stores:
            raise TaskStateError(f"task {task_id} already holds a store")
        if len(self._stores) >= self.max_tasks:
            raise RegionExhaustedError("no free task slots on the switch")
        per_aa = size if size is not None else self.config.copy_size
        entries = per_aa * self.config.num_aas
        if self._allocated_entries + entries > self.total_entries:
            raise RegionExhaustedError(
                f"DRAM budget exhausted ({self._allocated_entries}+{entries} "
                f"> {self.total_entries} entries)"
            )
        self.tenant_quotas.charge(task_id, per_aa)
        store = _TaskStore(capacity=entries)
        self._stores[task_id] = store
        self._allocated_entries += entries
        return store

    def lookup_region(self, task_id: int) -> Optional[_TaskStore]:
        return self._stores.get(task_id)

    def deallocate(self, task_id: int) -> None:
        store = self._stores.pop(task_id, None)
        if store is None:
            raise TaskStateError(f"task {task_id} holds no store")
        self._allocated_entries -= store.capacity
        self.tenant_quotas.refund(task_id, store.capacity // self.config.num_aas)

    def fetch_and_reset(self, task_id: int, part: int) -> dict[bytes, int]:
        """Read-and-clear the task table.  There is only one copy (no
        shadow mechanism); part 0 drains it, part 1 is empty by
        construction, so the unmodified host receiver works either way."""
        store = self._stores.get(task_id)
        if store is None:
            raise TaskStateError(f"task {task_id} holds no store")
        self.fetches += 1
        if part != 0:
            return {}
        out = dict(store.table)
        store.table.clear()
        return out


class TrioSwitch:
    """A run-to-completion ASK switch (drop-in for :class:`AskSwitch`)."""

    def __init__(
        self,
        config: AskConfig,
        clock: Clock,
        name: str = "switch",
        max_tasks: int = 64,
        max_channels: int = 256,
        trace: Optional[PacketTrace] = None,
        total_entries: int = 16_000_000,  # O(1 GB) of 64-byte entries
    ) -> None:
        self.config = config
        self.clock = clock
        self.name = name
        self.trace = trace
        self.max_channels = max_channels
        self.controller = TrioController(config, max_tasks, total_entries)
        self.layout = KeySpaceLayout(config)
        self.stats = ProgramStats()
        self._channels: Dict[tuple[str, int], _ChannelState] = {}
        self.fabric: Optional[SwitchFabricView] = None
        self.tuples_aggregated = 0
        self.tuples_failed = 0
        self.robustness = RobustnessCounters()
        self.quarantine = Quarantine()

    # ------------------------------------------------------------------
    def bind(self, fabric: SwitchFabricView) -> None:
        self.fabric = fabric

    @property
    def local_hosts(self) -> frozenset[str]:
        if self.fabric is None:
            return frozenset()
        return frozenset(self.fabric.host_names)

    @property
    def processing_latency_ns(self) -> int:
        return SWITCH_PIPELINE_LATENCY_NS * TRIO_LATENCY_FACTOR

    # ------------------------------------------------------------------
    def _channel(self, key: tuple[str, int]) -> _ChannelState:
        state = self._channels.get(key)
        if state is None:
            if len(self._channels) >= self.max_channels:
                raise RegionExhaustedError(
                    f"switch supports at most {self.max_channels} data channels"
                )
            state = _ChannelState(ReceiveWindow(self.config.window_size))
            self._channels[key] = state
            self.controller.num_channels = len(self._channels)
        return state

    # ------------------------------------------------------------------
    def receive(self, packet: AskPacket) -> None:
        if type(packet) is CorruptedFrame:
            # Same integrity contract as the PISA backend: checksum-failed
            # frames drop (corruption degrades to loss) unless integrity
            # checks are disabled, in which case the damage is consumed.
            if self.config.integrity_checks:
                self.robustness.bump("checksum")
                return
            packet = packet.packet
        if self.trace is not None:
            self.trace.record(self.clock.now, self.name, "ingress", packet)
        emit: Optional[AskPacket] = packet  # routed untouched unless processed
        if self._should_run_program(packet):
            # The same ingress contract as the PISA backend as well:
            # structurally invalid frames and per-slot invariant violations
            # are dead-lettered, never raised, so one poison pill cannot
            # stop the switch.
            reason = validate_switch_ingress(
                packet, self.config.num_aas, self.config.data_channels_per_host
            )
            if reason is not None:
                self._quarantine(reason, packet)
                return
            try:
                emit = self._process(packet)
            except ProtocolError:
                self._quarantine("protocol-invariant", packet)
                return
            except RegionExhaustedError:
                self._quarantine("region-exhausted", packet)
                return
        if emit is not None:
            self.clock.schedule(self.processing_latency_ns, self._emit, emit)

    def _should_run_program(self, pkt: AskPacket) -> bool:
        """ACKs, swap notifications for another switch and §7 transit
        traffic are routed untouched."""
        if pkt.is_ack:
            return False
        if pkt.is_swap:
            return pkt.dst == self.name
        return pkt.src in self.local_hosts

    def _quarantine(self, reason: str, packet: AskPacket) -> None:
        quarantine_packet(self.robustness, self.quarantine, self.clock.now, reason, packet)
        if self.trace is not None:
            self.trace.record(self.clock.now, self.name, "quarantine", packet)

    def _emit(self, packet: AskPacket) -> None:
        if self.fabric is None:
            raise RuntimeError("switch is not bound to a fabric")
        if self.trace is not None:
            self.trace.record(self.clock.now, self.name, "egress", packet)
        self.fabric.send_to_host(packet.dst, packet, packet.wire_bytes())

    # ------------------------------------------------------------------
    def _process(self, pkt: AskPacket) -> Optional[AskPacket]:
        if pkt.is_swap:
            # No shadow copies on Trio: acknowledge the epoch as a no-op.
            self.stats.swaps += 1
            return ack_for(pkt, self.name)

        channel = self._channel(pkt.channel_key)
        window = channel.window
        max_before = window.max_seq
        fresh = window.is_new(pkt.seq)
        if not fresh and pkt.seq <= max_before - self.config.window_size:
            self.stats.stale_drops += 1
            return None  # stale: silently dropped (§3.3)

        self.stats.data_packets += 1
        store = self.controller.lookup_region(pkt.task_id)
        if fresh:
            bitmap = pkt.bitmap
            if pkt.is_data and not pkt.is_fin and store is not None and bitmap:
                bitmap = self._aggregate(store, pkt)
            channel.pkt_state[pkt.seq] = bitmap
            channel.prune()
        else:
            self.stats.retransmissions_seen += 1
            bitmap = channel.pkt_state.get(pkt.seq, pkt.bitmap)

        if pkt.is_fin:
            self.stats.fins += 1
            return pkt.with_bitmap(bitmap)
        if bitmap == 0:
            self.stats.packets_acked += 1
            return ack_for(pkt, self.name)
        self.stats.packets_forwarded += 1
        return pkt.with_bitmap(bitmap)

    # ------------------------------------------------------------------
    def _aggregate(self, store: _TaskStore, pkt: AskPacket) -> int:
        """Hash-table aggregation over *full* keys — including long ones."""
        mask = self.config.value_mask
        bitmap = pkt.bitmap
        keys, values = pkt.keys, pkt.values

        def key_at(slot: int) -> bytes:
            key = keys[slot]
            if key is None:
                raise ProtocolError(f"bitmap bit {slot} set on a blank slot")
            return key

        def absorb(key: bytes, value: int, bits: int) -> int:
            if key in store.table:
                store.table[key] = (store.table[key] + value) & mask
            elif len(store.table) < store.capacity:
                store.table[key] = value & mask
            else:
                self.tuples_failed += 1
                return bitmap
            self.tuples_aggregated += 1
            self.stats.tuples_aggregated += 1
            return bitmap & ~bits

        if pkt.is_long:
            self.stats.long_packets += 1
            for index in range(len(keys)):
                if bitmap >> index & 1:
                    bitmap = absorb(key_at(index), values[index], 1 << index)
            return bitmap

        for slot_index in range(self.layout.num_short_slots):
            if bitmap >> slot_index & 1:
                bitmap = absorb(unpad_key(key_at(slot_index)), values[slot_index], 1 << slot_index)
        for group in range(self.layout.num_groups):
            slots = self.layout.group_slots(group)
            bits = 0
            for s in slots:
                bits |= 1 << s
            hit = bitmap & bits
            if not hit:
                continue
            if hit != bits:
                raise ProtocolError(f"medium group {group} has a partially-set bitmap")
            segments = b"".join(map(key_at, slots))
            bitmap = absorb(unpad_key(segments), values[slots[-1]], bits)
        return bitmap

    # ------------------------------------------------------------------
    def resource_summary(self) -> str:
        used = self.controller._allocated_entries  # noqa: SLF001 - report
        return (
            f"trio: {used}/{self.controller.total_entries} DRAM entries "
            f"allocated, {len(self._channels)} channels, "
            f"{self.processing_latency_ns} ns/packet"
        )
