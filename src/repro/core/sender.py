"""Sender-side data channel (§3.1, §3.3 "Host Sender").

A data channel owns one continuous sequence space, one sliding window and a
FIFO of sending jobs (multiple aggregation tasks multiplex a channel).  The
channel streams the active job's payloads while the window permits — each
built from the job's payload plans as its window entry opens — recovers
losses with the fine-grained timeout, and ends the job with a reliable FIN.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterator, Optional

from repro.core.config import AskConfig
from repro.core.packer import PackedPayload, PayloadPlan
from repro.core.packet import (
    FLAG_BYPASS,
    FLAG_DATA,
    FLAG_FIN,
    FLAG_LONG,
    AskPacket,
)
from repro.core.task import AggregationTask, TaskPhase
from repro.runtime.interfaces import Clock
from repro.transport.congestion import CongestionWindow
from repro.transport.reliability import AdaptiveRto, RetransmitTimers
from repro.transport.window import SlidingWindow, WindowEntry

SendFn = Callable[[AskPacket], None]


@dataclass
class SendingJob:
    """One task's outbound stream on one data channel.

    The job holds a chain of payload plans (:class:`PayloadPlan`), not
    payloads: :meth:`take` builds the next payload when the window opens an
    entry for it, so a job holds its lanes and at most a window of
    payloads, however long its stream.  Batch jobs are born ``finished``
    with one plan.  A streaming job starts with ``finished=False``: each
    feed appends a plan while it runs, and the FIN is withheld until the
    application closes the stream — the unbounded key-value streams of
    §2.1.3.
    """

    task: AggregationTask
    dst: str
    plans: list[PayloadPlan]
    on_complete: Optional[Callable[["SendingJob"], None]] = None
    finished: bool = True
    #: Payloads taken from the chain (opened in the window) so far.
    next_payload: int = 0
    unacked: int = 0
    fin_sent: bool = False
    fin_acked: bool = False
    #: Set by the failure supervisor on a task it readopted switchless
    #: (its regions were reclaimed while the receiver's lease was lapsed):
    #: every entry of this job ships raw tuples end-to-end.  The channel
    #: is re-baselined on its switch when the job finishes.
    force_bypass: bool = False
    #: True once this job has reached the head of its channel's FIFO and
    #: started pumping.  The first activation fires the channel's
    #: ``activation_hook`` (tree deployments baseline the spine's dedup
    #: state there); supervised restart clears it so the replay re-fires.
    activated: bool = False
    #: Payloads in the whole chain.
    length: int = field(init=False)
    _cursor: Iterator[PackedPayload] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.length = sum(map(len, self.plans))
        self.rewind()

    @property
    def data_exhausted(self) -> bool:
        return self.next_payload >= self.length

    def take(self) -> PackedPayload:
        """Build the chain's next payload (the caller checks
        :attr:`data_exhausted` first).  The cursor walks the plan list
        lazily, so a plan appended while the job runs is reached as long
        as the cursor is never asked past :attr:`length`."""
        self.next_payload += 1
        return next(self._cursor)

    def rewind(self) -> None:
        """Restart the chain at payload 0: every plan rebuilds its payloads
        from its lanes, identical to the first pass."""
        self.next_payload = 0
        self._cursor = chain.from_iterable(self.plans)

    def extend(self, plan: PayloadPlan) -> None:
        """Append a plan (streaming feed)."""
        if self.finished:
            raise RuntimeError("cannot feed a finished job")
        self.plans.append(plan)
        self.length += len(plan)

    def finish(self) -> None:
        """No more data will arrive; the FIN may go out once drained."""
        self.finished = True


@dataclass(slots=True)
class _EntryTag:
    """What a window entry is carrying.

    ``bypass`` is decided once, when the entry is opened, and sticks for
    every retransmission of that sequence number: a packet that first went
    out in degraded mode must never later run the switch program (its seq
    predates the post-heal dedup baseline, so flipping a ``seen`` bit for
    it would corrupt the baseline).  FIN entries opened while degraded
    carry the flag for the same reason.
    """

    job: SendingJob
    payload: Optional[PackedPayload]  #: None for the FIN
    bypass: bool = False

    @property
    def is_fin(self) -> bool:
        return self.payload is None


class SenderChannel:
    """One data channel of a host daemon."""

    def __init__(
        self,
        host: str,
        index: int,
        clock: Clock,
        config: AskConfig,
        send_fn: SendFn,
        switch_names: frozenset[str] = frozenset({"switch"}),
    ) -> None:
        self.host = host
        self.index = index
        self.clock = clock
        self.config = config
        self.send_fn = send_fn
        self.switch_names = switch_names
        self.window = SlidingWindow(config.window_size)
        estimator: Optional[AdaptiveRto] = None
        if config.adaptive_rto:
            estimator = AdaptiveRto(
                config.retransmit_timeout_ns,
                config.rto_min_ns,
                config.rto_max_ns,
            )
        self.timers = RetransmitTimers(
            clock,
            self.window,
            config.retransmit_timeout_ns,
            self._resend,
            give_up_ns=config.give_up_timeout_ns,
            on_give_up=self._give_up,
            estimator=estimator,
        )
        #: Degrade-to-bypass probe, wired by the deployment builder when
        #: failure detection is on.  Checked once per entry *open* (not per
        #: packet): ``None`` keeps the fault-free fast path branch-free
        #: beyond a single identity test.
        self.bypass_probe: Optional[Callable[[], bool]] = None
        #: Called with this channel when a ``force_bypass`` job finishes,
        #: so the supervisor can re-baseline the switch's dedup state for
        #: this channel before the next (non-bypass) job opens entries.
        self.rebaseline_hook: Optional[Callable[["SenderChannel"], None]] = None
        #: Fired once per job, the first time it pumps at the head of the
        #: FIFO (window empty at that instant — jobs are strictly FIFO).
        #: Tree deployments use it to baseline combiner-switch dedup state
        #: for this channel before the job's first sequence goes out.
        self.activation_hook: Optional[
            Callable[["SenderChannel", SendingJob], None]
        ] = None
        # §7: optional ECN/AIMD congestion window, hard-capped at W so the
        # switch receive window can never be outrun.
        self.congestion: Optional[CongestionWindow] = None
        if config.congestion_control:
            self.congestion = CongestionWindow(
                clock,
                max_window=config.window_size,
                initial=config.cwnd_initial,
                freeze_ns=config.retransmit_timeout_ns,
            )
        self._jobs: deque[SendingJob] = deque()
        self._fin_retry_pending = False
        self.packets_sent = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    @property
    def active_job(self) -> Optional[SendingJob]:
        return self._jobs[0] if self._jobs else None

    @property
    def idle(self) -> bool:
        return not self._jobs and self.window.is_empty

    def enqueue(self, job: SendingJob) -> None:
        """Queue a sending job; jobs are served strictly FIFO (§3.1)."""
        self._jobs.append(job)
        if job.task.stats.started_at_ns is None:
            job.task.stats.started_at_ns = self.clock.now
        self._pump()

    # ------------------------------------------------------------------
    def _admits(self) -> bool:
        """Reliability window and (if enabled) congestion window both open."""
        if not self.window.can_send():
            return False
        if self.congestion is not None:
            return self.congestion.allows(self.window.in_flight)
        return True

    def _pump(self) -> None:
        """Send while the window allows and the active job has work."""
        job = self.active_job
        if job is None:
            return
        if not job.activated:
            job.activated = True
            if self.activation_hook is not None:
                self.activation_hook(self, job)
        bypass = job.force_bypass or (
            self.bypass_probe is not None and self.bypass_probe()
        )
        while self._admits() and not job.data_exhausted:
            job.unacked += 1
            entry = self.window.open(_EntryTag(job, job.take(), bypass))
            self._transmit(entry)
        if job.finished and job.data_exhausted and job.unacked == 0 and not job.fin_sent:
            if self._admits():
                job.fin_sent = True
                entry = self.window.open(_EntryTag(job, None, bypass))
                self._transmit(entry)
            elif not self._fin_retry_pending:
                # The FIN is due but the window refused it (e.g. a frozen
                # congestion window at drain time).  With all data ACKed
                # there is no outstanding ACK left to re-pump the channel,
                # so without this self-scheduled retry the job would stall
                # forever.
                self._fin_retry_pending = True
                self.clock.schedule(0, self._retry_fin)

    def _retry_fin(self) -> None:
        self._fin_retry_pending = False
        self._pump()

    def _build_packet(self, entry: WindowEntry) -> AskPacket:
        tag: _EntryTag = entry.payload
        if tag.is_fin:
            flags = FLAG_FIN
            keys: tuple = ()
            values: tuple = ()
            bitmap = 0
        else:
            payload = tag.payload
            flags = FLAG_DATA | FLAG_LONG if payload.is_long else FLAG_DATA
            keys = payload.keys
            values = payload.values
            bitmap = payload.bitmap
        if tag.bypass:
            flags |= FLAG_BYPASS
        return AskPacket(
            flags=flags,
            task_id=tag.job.task.task_id,
            src=self.host,
            dst=tag.job.dst,
            channel_index=self.index,
            seq=entry.seq,
            bitmap=bitmap,
            keys=keys,
            values=values,
        )

    def _transmit(self, entry: WindowEntry) -> None:
        packet = self._build_packet(entry)
        entry.transmissions += 1
        if entry.transmissions == 1:
            entry.first_sent_ns = self.clock.now
            tag: _EntryTag = entry.payload
            if not tag.is_fin:
                if tag.payload.is_long:
                    tag.job.task.stats.long_packets_sent += 1
                else:
                    tag.job.task.stats.data_packets_sent += 1
                if tag.bypass:
                    tag.job.task.stats.bypass_packets_sent += 1
        entry.last_sent_ns = self.clock.now
        self.packets_sent += 1
        self.bytes_sent += packet.wire_bytes()
        self.timers.arm(entry)
        self.send_fn(packet)

    def _resend(self, entry: WindowEntry) -> None:
        tag: _EntryTag = entry.payload
        tag.job.task.stats.retransmissions += 1
        tag.job.task.stats.timeouts += 1
        if self.congestion is not None:
            self.congestion.on_timeout()
        packet = self._build_packet(entry)
        entry.transmissions += 1
        entry.last_sent_ns = self.clock.now
        self.packets_sent += 1
        self.bytes_sent += packet.wire_bytes()
        self.send_fn(packet)

    # ------------------------------------------------------------------
    def on_ack(self, ack: AskPacket) -> None:
        """Process an ACK from the switch or the host receiver."""
        entry = self.window.ack(ack.seq)
        if entry is None:
            return  # duplicate ACK; both endpoints may ACK one packet
        if self.congestion is not None:
            self.congestion.on_ack(ack.ecn)
        self.timers.cancel(entry)
        tag: _EntryTag = entry.payload
        job = tag.job
        spurious_before = self.timers.spurious_retransmissions
        self.timers.note_ack(entry)
        newly_spurious = self.timers.spurious_retransmissions - spurious_before
        if newly_spurious:
            job.task.stats.spurious_retransmissions += newly_spurious
        if tag.is_fin:
            job.fin_acked = True
            self._finish_job(job)
        else:
            job.unacked -= 1
            if ack.src in self.switch_names:
                job.task.stats.acks_from_switch += 1
            else:
                job.task.stats.acks_from_receiver += 1
        self._pump()

    def _finish_job(self, job: SendingJob) -> None:
        if self._jobs and self._jobs[0] is job:
            self._jobs.popleft()
        if job.force_bypass and self.rebaseline_hook is not None:
            # The bypass era left holes in the switch's ``seen`` parity for
            # this channel; with the window now empty (FIN acked implies all
            # data acked), re-baseline before the next job's entries open.
            self.rebaseline_hook(self)
        if job.on_complete is not None:
            job.on_complete(job)
        self._pump()

    # ------------------------------------------------------------------
    # Failure domain
    # ------------------------------------------------------------------
    def abort_job(self, job: SendingJob) -> int:
        """Withdraw ``job``'s in-window entries and rewind it to payload 0,
        which its plans rebuild from their lanes.

        Used by supervised task restart: every unacked entry is cancelled
        and removed from the window (acking it — the window's removal
        primitive — so the base advances normally), then the job's cursor
        rewinds so a later :meth:`_pump` replays the stream with *fresh*
        sequence numbers.  Returns the number of entries withdrawn: a
        nonzero count means sequence numbers were force-acked without the
        switch necessarily having seen them, so the supervisor must
        re-baseline this channel's dedup state on every healthy switch.
        """
        withdrawn = 0
        for entry in self.window.outstanding():
            tag: _EntryTag = entry.payload
            if tag.job is job:
                self.timers.cancel(entry)
                self.window.ack(entry.seq)
                withdrawn += 1
        job.rewind()
        job.unacked = 0
        job.fin_sent = False
        job.fin_acked = False
        job.activated = False
        return withdrawn

    def requeue(self, job: SendingJob) -> None:
        """Ensure ``job`` is queued (it may have been popped by an earlier
        completion of its FIN) and pump the channel."""
        if not any(queued is job for queued in self._jobs):
            self._jobs.append(job)
        self._pump()

    def drop_job(self, job: SendingJob) -> None:
        """Abort and forget ``job`` (its task failed)."""
        self.abort_job(job)
        for i, queued in enumerate(self._jobs):
            if queued is job:
                del self._jobs[i]
                break
        self._pump()

    def suspend(self) -> None:
        """Daemon crash: every pending retransmission timer dies with the
        process.  Window/job state itself survives (shared memory)."""
        for entry in self.window.outstanding():
            self.timers.cancel(entry)

    def recover(self) -> None:
        """Daemon restart: rebuild the retransmission schedule from the
        reliability layer's unacked entries (§3.3 machinery re-used as the
        crash-recovery log) and resume pumping."""
        for entry in self.window.outstanding():
            self.timers.arm(entry)
        self._pump()

    def _give_up(self, entry: WindowEntry) -> None:
        """The give-up deadline expired: fail the task loudly."""
        tag: _EntryTag = entry.payload
        job = tag.job
        task = job.task
        if not task.is_settled:
            task.failure_reason = (
                f"sender {self.host} gave up on task {task.task_id}: seq "
                f"{entry.seq} unacknowledged after {entry.transmissions} "
                "transmissions"
            )
            task.advance(TaskPhase.FAILED)
        self.drop_job(job)
