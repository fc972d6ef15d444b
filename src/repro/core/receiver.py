"""Receiver-side engine (§3.1 teardown, §3.3 "Host Receiver", §3.4).

The receiver daemon:

- deduplicates incoming packets per sending channel with a receive window
  and ACKs every arrival (duplicates included),
- merges the tuples the switch could not absorb into the task's residual
  map, reconstructing medium keys from their coalesced segments,
- drives the shadow-copy swap loop: after ``swap_threshold_packets``
  arrivals it reliably notifies the switch(es), then fetches and resets the
  idle copy so hot keys can reclaim aggregators,
- at teardown (all FINs in) fetches both copies, merges them with the
  residual, publishes the result and releases the switch regions.

A task may span several switches (the multi-rack deployment of §7: one
region per sender-side TOR); swap notifications broadcast to all of them
and control-plane fetches merge across them via
:class:`~repro.core.controlplane.ControlPlane`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.core.config import AskConfig
from repro.core.constants import CONTROL_LATENCY_NS
from repro.core.controlplane import ControlPlane
from repro.core.errors import ProtocolError
from repro.core.keyspace import KeySpaceLayout, unpad_key
from repro.core.packet import AskPacket, ack_for, swap_packet
from repro.core.results import AggregationResult
from repro.core.task import AggregationTask, TaskPhase
from repro.runtime.interfaces import Clock
from repro.switch.controller import Region
from repro.transport.reliability import ReceiveWindow

SendFn = Callable[[AskPacket], None]
CompletionFn = Callable[[AggregationTask], None]


@dataclass
class ReceiverTaskState:
    """Receiver-side state for one in-progress task."""

    task: AggregationTask
    regions: Dict[str, Region]
    residual: dict[bytes, int] = field(default_factory=dict)
    swap_epoch: int = 0
    swap_in_progress: bool = False
    swap_acks_pending: set[str] = field(default_factory=set)
    packets_since_swap: int = 0
    pending_finalize: bool = False
    swap_timer: Optional[object] = None
    #: Bumped on every supervised restart; control-plane completions
    #: (swap fetch, finalize fetch) capture the incarnation they were
    #: scheduled under and abort if a restart intervened.
    incarnation: int = 0
    #: Per-channel sequence floors set by supervised restart: anything
    #: below the floor belongs to the aborted pre-restart stream and must
    #: not be merged (it is still ACKed, silencing in-flight stragglers).
    restart_floors: Dict[tuple[str, int], int] = field(default_factory=dict)

    @property
    def switches(self) -> tuple[str, ...]:
        return tuple(self.regions)


class ReceiverEngine:
    """All receiver-side behaviour of one host daemon."""

    def __init__(
        self,
        host: str,
        clock: Clock,
        config: AskConfig,
        control: ControlPlane,
        send_fn: SendFn,
        on_complete: CompletionFn,
    ) -> None:
        self.host = host
        self.clock = clock
        self.config = config
        self.control = control
        self.send_fn = send_fn
        self.on_complete = on_complete
        self.layout = KeySpaceLayout(config)
        # Per-packet merge is hot: precompute each medium group's slot tuple
        # and bitmap mask once so _merge_packet tests group liveness with one
        # AND instead of rebuilding per-slot boolean lists per packet.
        self._group_masks: list[tuple[tuple[int, ...], int]] = []
        for group in range(self.layout.num_groups):
            slots = self.layout.group_slots(group)
            mask = 0
            for s in slots:
                mask |= 1 << s
            self._group_masks.append((slots, mask))
        self._medium_mask = 0
        for _, mask in self._group_masks:
            self._medium_mask |= mask
        self._short_mask = (1 << self.layout.num_short_slots) - 1
        self._tasks: dict[int, ReceiverTaskState] = {}
        self._windows: dict[tuple[str, int], ReceiveWindow] = {}
        self.stray_packets = 0
        #: Wired by the deployment builder when failure detection is on:
        #: ``degraded_probe(switch_name)`` is True while that switch must
        #: not be sent swap notifications (down or awaiting re-install).
        self.degraded_probe: Optional[Callable[[str], bool]] = None

    # ------------------------------------------------------------------
    def open_task(self, task: AggregationTask, regions: Dict[str, Region]) -> ReceiverTaskState:
        state = ReceiverTaskState(task=task, regions=dict(regions))
        self._tasks[task.task_id] = state
        return state

    def task_state(self, task_id: int) -> Optional[ReceiverTaskState]:
        return self._tasks.get(task_id)

    def _window(self, channel_key: tuple[str, int]) -> ReceiveWindow:
        win = self._windows.get(channel_key)
        if win is None:
            win = ReceiveWindow(self.config.window_size)
            self._windows[channel_key] = win
        return win

    def window_stats(self) -> tuple[int, int]:
        """(accepted, duplicates) totals across all receive windows."""
        accepted = sum(w.accepted for w in self._windows.values())
        duplicates = sum(w.duplicates for w in self._windows.values())
        return accepted, duplicates

    # ------------------------------------------------------------------
    # Packet ingress (forwarded DATA / FIN / LONG)
    # ------------------------------------------------------------------
    def on_packet(self, pkt: AskPacket) -> None:
        """Handle a data-plane packet forwarded by the switch."""
        window = self._window(pkt.channel_key)
        fresh = window.is_new(pkt.seq)
        # Every arrival is acknowledged, duplicate or not (§3.3): the ACK
        # may have been the thing that got lost.
        self.send_fn(ack_for(pkt, self.host))

        state = self._tasks.get(pkt.task_id)
        if state is None:
            # Stray packet for an unknown/finished task — ACKed above so the
            # sender stops retrying, otherwise ignored.
            self.stray_packets += 1
            return
        stats = state.task.stats
        if state.restart_floors:
            floor = state.restart_floors.get(pkt.channel_key)
            if floor is not None and pkt.seq < floor:
                # Straggler from a stream the supervisor aborted; the ACK
                # above is all it gets (fresh or not — a pre-restart seq
                # may well be "new" to the receive window).
                stats.duplicate_packets_dropped += 1
                return
        if not fresh:
            stats.duplicate_packets_dropped += 1
            return
        stats.packets_received += 1

        if pkt.is_fin:
            self._on_fin(state, pkt)
            return
        if pkt.is_bypass:
            stats.bypass_packets_received += 1
        self._merge_packet(state, pkt)
        state.packets_since_swap += 1
        self._maybe_swap(state)

    # ------------------------------------------------------------------
    def _merge_packet(self, state: ReceiverTaskState, pkt: AskPacket) -> None:
        """Aggregate the packet's remaining live tuples into the residual."""
        mask = self.config.value_mask
        residual = state.residual
        merged = 0
        keys, values = pkt.keys, pkt.values
        bitmap = pkt.bitmap
        # Walk only the set bits (lowest first, matching slot order) instead
        # of scanning every slot per packet.  Long keys travel whole; short
        # ones padded.
        is_long = pkt.is_long
        bits = bitmap if is_long else bitmap & self._short_mask
        while bits:
            slot_index = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            key = keys[slot_index]
            if key is None:
                raise ProtocolError(f"live bit {slot_index} on blank slot")
            if not is_long:
                key = unpad_key(key)
            residual[key] = (residual.get(key, 0) + values[slot_index]) & mask
            merged += 1
        if not is_long and bitmap & self._medium_mask:
            for group, (slots, gmask) in enumerate(self._group_masks):
                hit = bitmap & gmask
                if not hit:
                    continue
                if hit != gmask:
                    raise ProtocolError(f"medium group {group} arrived with a partial bitmap")
                segments = []
                for s in slots:
                    key = keys[s]
                    if key is None:
                        raise ProtocolError(f"live bit {s} on blank slot")
                    segments.append(key)
                key = unpad_key(b"".join(segments))
                residual[key] = (residual.get(key, 0) + values[slots[-1]]) & mask
                merged += 1
        state.task.stats.tuples_merged_at_receiver += merged

    # ------------------------------------------------------------------
    # Shadow-copy swap loop (§3.4)
    # ------------------------------------------------------------------
    def _maybe_swap(self, state: ReceiverTaskState) -> None:
        if not self.config.shadow_copy:
            return
        if state.swap_in_progress or state.task.phase is not TaskPhase.STREAMING:
            return
        if state.packets_since_swap < self.config.swap_threshold_packets:
            return
        if not state.switches:
            # Switchless readoption: the task completes via bypass with no
            # regions anywhere, so there is nothing to swap.
            return
        if self.degraded_probe is not None and any(
            self.degraded_probe(s) for s in state.switches
        ):
            # Degraded mode: the region is (or is about to be) blank and
            # bypass traffic skips the switch; swapping would only spin.
            return
        state.swap_in_progress = True
        state.packets_since_swap = 0
        state.swap_epoch += 1
        state.swap_acks_pending = set(state.switches)
        self._send_swaps(state)

    def _send_swaps(self, state: ReceiverTaskState) -> None:
        """(Re)notify every switch that has not acknowledged this epoch."""
        for switch_name in state.swap_acks_pending:
            self.send_fn(
                swap_packet(state.task.task_id, self.host, switch_name, state.swap_epoch)
            )
        # Swap notifications are retried until acknowledged; the desired
        # indicator value in the packet makes retries idempotent.
        state.swap_timer = self.clock.schedule(
            self.config.retransmit_timeout_ns, self._swap_timeout, state, state.swap_epoch
        )

    def _swap_timeout(self, state: ReceiverTaskState, epoch: int) -> None:
        if not (
            state.swap_in_progress and state.swap_epoch == epoch and state.swap_acks_pending
        ):
            return
        if state.task.phase is TaskPhase.FAILED:
            return  # the task was failed loudly; stop spinning
        if self.degraded_probe is not None and any(
            self.degraded_probe(s) for s in state.swap_acks_pending
        ):
            # A switch in the pending set is down; the supervisor's task
            # restart will reset the whole swap loop.  Retrying into the
            # dark would only keep the event heap alive forever.
            return
        self._send_swaps(state)

    def on_swap_ack(self, pkt: AskPacket) -> None:
        state = self._tasks.get(pkt.task_id)
        if state is None or not state.swap_in_progress or pkt.seq != state.swap_epoch:
            return
        state.swap_acks_pending.discard(pkt.src)
        if state.swap_acks_pending:
            return
        if state.swap_timer is not None:
            state.swap_timer.cancel()
            state.swap_timer = None
        # Every switch now writes the other copy; after the control-plane
        # round trip, fetch and reset the idle one.
        read_part = 1 - (state.swap_epoch & 1)
        self.clock.schedule(
            CONTROL_LATENCY_NS,
            self._complete_swap,
            state,
            read_part,
            state.incarnation,
        )

    def _complete_swap(
        self, state: ReceiverTaskState, read_part: int, incarnation: int
    ) -> None:
        if incarnation != state.incarnation or state.task.phase is TaskPhase.FAILED:
            return  # a supervised restart (or loud failure) intervened
        fetched = self.control.fetch_and_reset(state.task.task_id, read_part)
        self._merge_fetched(state, fetched)
        state.task.stats.swaps += 1
        state.swap_in_progress = False
        if state.pending_finalize:
            self._finalize(state)

    def _merge_fetched(self, state: ReceiverTaskState, fetched: dict[bytes, int]) -> None:
        mask = self.config.value_mask
        residual = state.residual
        for key, value in fetched.items():
            residual[key] = (residual.get(key, 0) + value) & mask
        state.task.stats.tuples_fetched_from_switch += len(fetched)

    # ------------------------------------------------------------------
    # Teardown (§3.1 Task Teardown)
    # ------------------------------------------------------------------
    def _on_fin(self, state: ReceiverTaskState, pkt: AskPacket) -> None:
        task = state.task
        if task.phase is TaskPhase.FAILED:
            return  # FINs for a loudly-failed task are ACKed and ignored
        task.fins_received.add(pkt.channel_key)
        if len(task.fins_received) < task.expected_fins:
            return
        if task.phase is TaskPhase.STREAMING:
            task.advance(TaskPhase.FINALIZING)
        if state.swap_in_progress:
            state.pending_finalize = True
            return
        self._finalize(state)

    def _finalize(self, state: ReceiverTaskState) -> None:
        state.pending_finalize = False
        self.clock.schedule(
            CONTROL_LATENCY_NS,
            self._complete_finalize,
            state,
            state.incarnation,
        )

    def _complete_finalize(self, state: ReceiverTaskState, incarnation: int) -> None:
        task = state.task
        if incarnation != state.incarnation or task.phase is not TaskPhase.FINALIZING:
            return  # a supervised restart rewound the task (or it failed)
        if self.control.has_regions(task.task_id):
            parts = (0, 1) if self.config.shadow_copy else (0,)
            for part in parts:
                fetched = self.control.fetch_and_reset(task.task_id, part)
                self._merge_fetched(state, fetched)
            self.control.deallocate(task.task_id)
        task.result = AggregationResult(task.task_id, dict(state.residual), task.stats)
        task.stats.completed_at_ns = self.clock.now
        task.advance(TaskPhase.COMPLETE)
        del self._tasks[task.task_id]
        self.on_complete(task)

    # ------------------------------------------------------------------
    # Failure domain
    # ------------------------------------------------------------------
    def reset_task(
        self,
        task_id: int,
        floors: Dict[tuple[str, int], int],
        regions: Optional[Dict[str, Region]] = None,
    ) -> None:
        """Supervised restart: rewind this task to a clean streaming state.

        The switch regions were (or are about to be) cleared and every
        sender rewound to payload 0, so the residual accumulated so far
        would double-count the replay — discard it, discard recorded FINs,
        abandon any swap in flight, and raise the per-channel floors so
        in-flight pre-restart packets cannot merge.  ``regions`` replaces
        the region map when the restart followed a lease-lapse reclaim and
        re-allocation.
        """
        state = self._tasks.get(task_id)
        if state is None:
            return
        task = state.task
        state.incarnation += 1
        state.residual.clear()
        task.fins_received.clear()
        if state.swap_timer is not None:
            state.swap_timer.cancel()
            state.swap_timer = None
        state.swap_in_progress = False
        state.swap_acks_pending = set()
        state.swap_epoch = 0
        state.packets_since_swap = 0
        state.pending_finalize = False
        if regions is not None:
            state.regions = dict(regions)
        for channel_key, floor in floors.items():
            previous = state.restart_floors.get(channel_key, 0)
            state.restart_floors[channel_key] = max(previous, floor)
        task.stats.task_restarts += 1
        if task.phase is TaskPhase.FINALIZING:
            task.advance(TaskPhase.STREAMING)

    def suspend(self) -> None:
        """Daemon crash: pending swap-retry timers die with the process.
        (Control-plane fetches already scheduled are modelled as executing
        on the switch CPU and complete regardless.)"""
        for state in self._tasks.values():
            if state.swap_timer is not None:
                state.swap_timer.cancel()
                state.swap_timer = None

    def recover(self) -> None:
        """Daemon restart: resume any swap round that was awaiting ACKs."""
        for state in self._tasks.values():
            if (
                state.swap_in_progress
                and state.swap_acks_pending
                and state.task.phase is not TaskPhase.FAILED
            ):
                self._send_swaps(state)
