"""The per-host ASK daemon (§3.1).

One daemon runs on every server.  It owns the host's data channels (each
bound to one worker thread in the prototype; here each is a
:class:`~repro.core.sender.SenderChannel`), the receiver engine, and the
shared-memory regions through which applications hand over and read back
key-value data.  Sending tasks are load-balanced over data channels with
``hash(task_id)`` and served FIFO per channel.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable, Optional

from dataclasses import dataclass

from repro.core.config import AskConfig
from repro.core.errors import ProtocolError
from repro.core.hashing import channel_hash
from repro.core.packer import Packer
from repro.core.packet import SWAP_CHANNEL_INDEX, AskPacket
from repro.core.receiver import ReceiverEngine
from repro.core.robustness import (
    Quarantine,
    RobustnessCounters,
    quarantine_packet,
    validate_host_ingress,
)
from repro.net.fault import CorruptedFrame
from repro.core.sender import SenderChannel, SendingJob
from repro.core.shared_memory import SharedMemoryAllocator
from repro.core.task import AggregationTask
from repro.net.topology import NetworkNode
from repro.runtime.interfaces import Clock
from repro.core.controlplane import ControlPlane
from repro.switch.controller import Region


@dataclass
class StreamHandle:
    """A live, open-ended sending stream on one data channel.

    Obtained from :meth:`HostDaemon.start_streaming`; the application feeds
    tuples as they arrive (real-time streaming, §2.1.3's unbounded
    key-value streams) and calls :meth:`finish` when the source ends,
    which releases the channel's FIN.
    """

    daemon: "HostDaemon"
    job: SendingJob
    packer: Packer
    channel: "SenderChannel"
    closed: bool = False
    tuples_fed: int = 0

    def feed(self, tuples: Iterable[tuple[bytes, int]]) -> int:
        """Pack and enqueue more tuples; returns payloads appended.

        ``tuples`` may be any iterable, a generator included: the count
        fed comes from the packer's own tally, never from ``len``."""
        if self.closed:
            raise RuntimeError("stream already finished")
        self.packer.add_stream(tuples)
        plan = self.packer.plan()
        fed = self.packer.stats.tuples_in - self.tuples_fed
        self.tuples_fed += fed
        self.job.task.stats.input_tuples += fed
        self.job.extend(plan)
        self.channel._pump()  # noqa: SLF001 - the daemon owns its channels
        return len(plan)

    def finish(self) -> None:
        """Close the stream; the FIN goes out once everything is ACKed."""
        if self.closed:
            return
        self.closed = True
        self.job.finish()
        self.channel._pump()  # noqa: SLF001


class HostDaemon(NetworkNode):
    """The ASK daemon of one host."""

    def __init__(
        self,
        name: str,
        clock: Clock,
        config: AskConfig,
        control: ControlPlane,
        send_fn: Callable[[AskPacket], None],
        on_task_complete: Callable[[AggregationTask], None],
    ) -> None:
        super().__init__(name)
        self.clock = clock
        self.config = config
        self.shm = SharedMemoryAllocator(name)
        #: key -> (lane, form), shared by every packer this daemon makes:
        #: one geometry per daemon, so a key's assignment is computed once
        #: per host rather than once per job.
        self._routes: dict[bytes, tuple[int, Any]] = {}
        self.channels = [
            SenderChannel(name, i, clock, config, send_fn, control.switch_names)
            for i in range(config.data_channels_per_host)
        ]
        self.receiver = ReceiverEngine(
            name, clock, config, control, send_fn, on_task_complete
        )
        self.malformed_packets = 0
        #: Ingress robustness: per-reason drop counters plus a bounded
        #: dead-letter quarantine for protocol-invariant violators.
        self.robustness = RobustnessCounters()
        self.quarantine = Quarantine()
        #: Sending jobs by task id, retained until the task settles so a
        #: supervised restart can rewind and replay them.
        self._jobs_by_task: dict[int, SendingJob] = {}
        self.crashes = 0
        # Gray failure: while straggling, every ingress frame's processing
        # is deferred by _straggle_ns plus a jitter draw — a slow daemon
        # service loop.  Delayed DATA models a slow receiver; delayed ACK
        # processing inflates every peer sender's observed RTT (the
        # straggler-sender case).  The jitter stream is named per host and
        # created lazily, so runs without straggle windows draw nothing.
        self._straggle_ns = 0
        self._straggle_jitter_ns = 0
        self._straggle_rng: Optional[random.Random] = None
        self.packets_straggled = 0

    # ------------------------------------------------------------------
    # Network ingress (the downlink delivers here)
    # ------------------------------------------------------------------
    def receive(self, packet: AskPacket) -> None:
        if self._straggle_ns > 0:
            self.packets_straggled += 1
            delay = self._straggle_ns
            if self._straggle_jitter_ns:
                if self._straggle_rng is None:
                    self._straggle_rng = random.Random(f"{self.name}:straggle")
                delay += self._straggle_rng.randint(0, self._straggle_jitter_ns)
            # Offline/validity checks run at *processing* time (the frame
            # sat in the service queue; a crash in between still eats it).
            self.clock.schedule(delay, self._ingress, packet)
            return
        self._ingress(packet)

    def _ingress(self, packet: AskPacket) -> None:
        if self._offline:
            self.dropped_while_down += 1
            return
        if type(packet) is CorruptedFrame:
            # Checksum-failed frame: with integrity checks on, corruption
            # degrades to loss (drop + count; the sender retransmits).
            # With them off, the damaged payload is consumed as-is — the
            # seed stack's behaviour, kept as the negative control.
            if self.config.integrity_checks:
                self.robustness.bump("checksum")
                return
            packet = packet.packet
        if packet.is_ack:
            if packet.channel_index == SWAP_CHANNEL_INDEX:
                self.receiver.on_swap_ack(packet)
            elif 0 <= packet.channel_index < len(self.channels):
                self.channels[packet.channel_index].on_ack(packet)
            else:
                # A malformed/foreign ACK must not crash the daemon; real
                # DPDK stacks count and drop such packets.
                self.malformed_packets += 1
                self.robustness.bump("channel-index")
            return
        reason = validate_host_ingress(
            packet, self.config.num_aas, len(self.channels)
        )
        if reason is not None:
            quarantine_packet(
                self.robustness, self.quarantine, self.clock.now, reason, packet
            )
            return
        try:
            self.receiver.on_packet(packet)
        except ProtocolError:
            # A deep per-slot invariant (live bit on a blank slot, partial
            # medium group) violated by a frame that passed its checksum:
            # an adversarial sender.  The receiver ACKs before merging, so
            # state stays consistent; dead-letter instead of crashing.
            quarantine_packet(
                self.robustness,
                self.quarantine,
                self.clock.now,
                "protocol-invariant",
                packet,
            )

    # ------------------------------------------------------------------
    # Application-facing operations
    # ------------------------------------------------------------------
    def channel_for_task(self, task_id: int) -> SenderChannel:
        """``hash(ID)`` load balancing of tasks over data channels (§3.1)."""
        return self.channels[channel_hash(task_id) % len(self.channels)]

    def start_sending(
        self,
        task: AggregationTask,
        tuples: list[tuple[bytes, int]],
        on_complete: Optional[Callable[[SendingJob], None]] = None,
        force_bypass: bool = False,
    ) -> SendingJob:
        """Steps ⑤–⑧: application data arrives via shared memory, the daemon
        packs it and enqueues the job on the hash-selected data channel.

        The region adopts ``tuples`` (the list is handed over, not copied),
        and the job holds the packer's plan: payloads are built as the
        channel's window admits them.

        ``force_bypass`` marks every entry of the job BYPASS before it is
        enqueued (enqueueing pumps immediately): the admission controller's
        degrade path, where a task that never got switch memory aggregates
        host-side end to end."""
        region = self.shm.allocate(task.task_id, role="send")
        region.write(tuples)
        region.seal()

        packer = Packer(self.config, self._routes)
        packer.add_stream(region.tuples)
        plan = packer.plan()
        task.stats.pack_stats.append(packer.stats)

        def _done(job: SendingJob) -> None:
            task.senders_done.add(self.name)
            self.shm.release(task.task_id, role="send")
            if on_complete is not None:
                on_complete(job)

        job = SendingJob(
            task=task, dst=task.receiver, plans=[plan],
            on_complete=_done, force_bypass=force_bypass,
        )
        self._jobs_by_task[task.task_id] = job
        self.channel_for_task(task.task_id).enqueue(job)
        return job

    def start_streaming(
        self, task: AggregationTask, force_bypass: bool = False
    ) -> StreamHandle:
        """Open an unbounded sending stream for ``task`` on the
        hash-selected data channel (§3.1 load balancing applies to
        streaming tasks exactly as to batch ones)."""
        region = self.shm.allocate(task.task_id, role="send")
        packer = Packer(self.config, self._routes)
        task.stats.pack_stats.append(packer.stats)

        def _done(job: SendingJob) -> None:
            task.senders_done.add(self.name)
            region.seal()
            self.shm.release(task.task_id, role="send")

        job = SendingJob(
            task=task, dst=task.receiver, plans=[], on_complete=_done,
            finished=False, force_bypass=force_bypass,
        )
        channel = self.channel_for_task(task.task_id)
        self._jobs_by_task[task.task_id] = job
        channel.enqueue(job)
        return StreamHandle(self, job, packer, channel)

    def open_receive_task(self, task: AggregationTask, regions: dict[str, Region]) -> None:
        """Steps ①–③ receiver side: allocate shared memory and register the
        task with the receiver engine."""
        self.shm.allocate(task.task_id, role="recv")
        self.receiver.open_task(task, regions)

    def publish_result(self, task: AggregationTask) -> None:
        """Step ⑩: place the final result in the task's shared memory."""
        if task.result is None:
            raise RuntimeError(f"task {task.task_id} has no result to publish")
        self.shm.get(task.task_id, role="recv").publish_result(task.result.values)

    # ------------------------------------------------------------------
    # Failure domain
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop the daemon process.  Protocol state (windows, jobs,
        receiver accumulators) lives in shared memory and survives; every
        pending retransmission and swap-retry timer dies with the process,
        and incoming frames are dropped until :meth:`restore`."""
        if not self.is_up:
            return
        super().crash()
        self.crashes += 1
        for channel in self.channels:
            channel.suspend()
        self.receiver.suspend()

    def restore(self) -> None:
        """Restart the daemon: rebuild sender retransmission schedules from
        the reliability layer's unacked window entries and resume any
        swap round that was mid-flight."""
        if self.is_up:
            return
        super().restore()
        for channel in self.channels:
            channel.recover()
        self.receiver.recover()

    def straggle(self, delay_ns: int, jitter_ns: int = 0) -> None:
        """Gray failure: defer every ingress frame's processing by
        ``delay_ns`` (+ uniform jitter up to ``jitter_ns``) until
        :meth:`unstraggle`.  The daemon stays alive and answers
        everything — late."""
        if delay_ns <= 0:
            raise ValueError(f"straggle delay must be positive, got {delay_ns}")
        self._straggle_ns = delay_ns
        self._straggle_jitter_ns = jitter_ns

    def unstraggle(self) -> None:
        self._straggle_ns = 0

    def abort_task(
        self, task: AggregationTask
    ) -> tuple[dict[tuple[str, int], int], bool]:
        """Supervised restart, phase 1: withdraw this host's in-window
        entries for ``task`` and rewind its job.  Returns
        ``({channel_key: floor}, withdrew_entries)`` — the restart floor
        below which the receiver must ignore stragglers, and whether any
        entries were force-acked (requiring a dedup re-baseline on this
        host's healthy switch)."""
        channel = self.channel_for_task(task.task_id)
        job = self._jobs_by_task.get(task.task_id)
        withdrawn = channel.abort_job(job) if job is not None else 0
        floors = {(self.name, channel.index): channel.window.next_seq}
        return floors, withdrawn > 0

    def park_task(self, task: AggregationTask) -> None:
        """Lease-lapse reclaim: silence this host's stream for ``task``
        without forgetting the job (a later readopt resumes it)."""
        job = self._jobs_by_task.get(task.task_id)
        if job is not None:
            self.channel_for_task(task.task_id).drop_job(job)

    def job_for(self, task_id: int) -> Optional[SendingJob]:
        """The retained sending job for ``task_id``, if any."""
        return self._jobs_by_task.get(task_id)

    def resume_task(self, task: AggregationTask) -> None:
        """Supervised restart, phase 2 (after the receiver was reset):
        requeue the rewound job so the stream replays with fresh seqs."""
        job = self._jobs_by_task.get(task.task_id)
        if job is None:
            return
        self.channel_for_task(task.task_id).requeue(job)

    def release_job(self, task_id: int) -> None:
        """Forget a settled task's retained job (no restart can need it)."""
        self._jobs_by_task.pop(task_id, None)

    def drop_task(self, task: AggregationTask) -> None:
        """The task failed loudly: abort and forget its job entirely."""
        job = self._jobs_by_task.pop(task.task_id, None)
        if job is not None:
            self.channel_for_task(task.task_id).drop_job(job)

    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        return all(ch.idle for ch in self.channels)

    def sender_bytes(self) -> int:
        return sum(ch.bytes_sent for ch in self.channels)

    def sender_packets(self) -> int:
        """Total packets transmitted by this host (retransmissions included)."""
        return sum(ch.packets_sent for ch in self.channels)

    def receiver_packets(self) -> tuple[int, int]:
        """(accepted, duplicates) receive-window totals for this host."""
        return self.receiver.window_stats()
