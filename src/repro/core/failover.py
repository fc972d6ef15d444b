"""Failure supervisor: leases, switch failover, supervised task restart.

The paper's service runs on real racks where switches reboot, daemons
crash and links flap.  This module is the control-plane piece that makes
the reproduction survive those events *exactly* (bit-identical results to
a fault-free run):

Leases
    Every node (host daemon, ASK switch) is observed on a management path
    each ``heartbeat_interval_ns``; a node continuously dark for
    ``lease_ns`` (heartbeat × ``LEASE_MULTIPLE``) has *lapsed*.

Switch failover (degrade-to-bypass)
    A switch whose lease lapsed, or that rebooted and awaits state
    re-install, is **degraded**: sender channels behind it open every new
    window entry with the ``BYPASS`` flag (raw tuples ship end-to-end and
    skip the switch program), and the receiver suppresses shadow-copy
    swaps toward it.  Affected tasks get a *supervised restart* — senders
    rewound, regions cleared, the receiver's accumulator reset and fenced
    with per-channel sequence floors — so the replayed stream is counted
    exactly once.  After a reboot the control plane re-installs each data
    channel's reliability baseline (``max_seq``, compact ``seen`` parity)
    at the channel's next sequence number and re-enables aggregation.

Lease reclaim and readoption
    When a *receiver daemon's* lease lapses, its streaming tasks' switch
    regions are deallocated (multi-tenant capacity is not held hostage by
    a dead host) and the senders parked.  If the daemon returns, the
    orphaned tasks are readopted and completed *switchless*: the replay is
    forced to bypass, and the channel's dedup state is re-baselined when
    the bypass job finishes.  A daemon dark beyond the configured give-up
    deadline has all its tasks failed loudly instead.

The supervisor is entirely event-driven on the deployment's clock and
self-terminates when no failure work remains, so the fault-free sim heap
drains exactly as it does without failure detection.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.core.config import AskConfig
from repro.core.constants import CONTROL_LATENCY_NS
from repro.core.controlplane import ControlPlane
from repro.core.daemon import HostDaemon
from repro.core.sender import SenderChannel
from repro.core.task import AggregationTask, TaskPhase
from repro.runtime.interfaces import Clock, TimerHandle

if TYPE_CHECKING:
    from repro.switch.switch import AskSwitch

#: A node dark for this many heartbeat intervals has lapsed its lease.
LEASE_MULTIPLE = 3
#: Gray detection: a switch whose decayed timeout score crosses this is
#: routed around; the score is multiplied by the decay once per tick.
GRAY_SUSPICION_THRESHOLD = 3.0
GRAY_SUSPICION_DECAY = 0.5


class FailureSupervisor:
    """Heartbeat leases, failover and supervised recovery for one deployment."""

    def __init__(
        self,
        clock: Clock,
        config: AskConfig,
        control: ControlPlane,
        daemons: Dict[str, HostDaemon],
        switches: Dict[str, AskSwitch],
        host_tor: Dict[str, str],
        host_paths: Optional[Dict[str, tuple[str, ...]]] = None,
    ) -> None:
        self.clock = clock
        self.config = config
        self.control = control
        self.daemons = daemons
        self.switches = switches
        #: host name -> name of the TOR switch its uplink traverses.
        self.host_tor = host_tor
        #: host name -> every aggregation-capable switch on its path up the
        #: tree, TOR first (then its spine).  Failure scope is *subtree*:
        #: a host degrades to bypass only while one of *its own* path
        #: switches is degraded.  Defaults to the flat one-switch path.
        self.host_paths: Dict[str, tuple[str, ...]] = (
            host_paths
            if host_paths is not None
            else {host: (tor,) for host, tor in host_tor.items()}
        )
        self.heartbeat_ns = config.heartbeat_interval_ns
        self.lease_ns = self.heartbeat_ns * LEASE_MULTIPLE
        self._tasks: Dict[int, AggregationTask] = {}
        self._timer: Optional[TimerHandle] = None
        # Lease bookkeeping (management path: the supervisor observes node
        # liveness directly; partitions never cut heartbeats).
        self._last_seen: Dict[str, int] = {}
        self._down_since: Dict[str, int] = {}
        # Switches that may not aggregate: lease lapsed or awaiting
        # re-install.  Sender bypass probes and the receiver's swap
        # suppression close over this set — mutate, never rebind.
        self._degraded: set[str] = set()
        #: Switches whose current outage already restarted its tasks.
        self._handled: set[str] = set()
        #: Switches with a re-install scheduled (reboot observed).
        self._reinstalling: set[str] = set()
        #: Daemons whose current outage already reclaimed regions.
        self._daemon_handled: set[str] = set()
        #: Receiver daemon name -> task ids whose regions were reclaimed.
        self._orphans: Dict[str, List[int]] = {}
        # Gray-failure detection (config.gray_detection).  Leases cannot
        # catch a slow-but-alive switch — it still heartbeats, so its lease
        # never lapses.  Instead every tick attributes the retransmit-
        # timeout delta of each sender channel to every switch on that
        # host's path and folds it into a decaying suspicion score; a
        # switch crossing the threshold is routed around (same degrade-to-
        # bypass + supervised-restart machinery as a lease lapse) and
        # re-adopted once the score decays back down.
        self.suspicion: Dict[str, float] = {}
        self._gray: set[str] = set()
        self._timeouts_seen: Dict[tuple[str, int], int] = {}
        self.gray_routearounds = 0
        self.gray_readoptions = 0
        #: Chronological record of everything the supervisor observed and
        #: did; the chaos degradation report renders it.
        self.events: List[dict[str, Any]] = []
        self.task_restarts = 0
        self.reinstalls = 0
        self.reclaims = 0
        self.give_up_failures = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, tasks: Dict[int, AggregationTask]) -> None:
        """Adopt the service's live task table (shared, not copied)."""
        self._tasks = tasks

    def probe_for(self, host: str) -> Callable[[], bool]:
        """Bypass probe for ``host``'s sender channels: True while any
        switch on the host's path up the tree may not aggregate (its TOR,
        or — in a spine–leaf deployment — its pod's spine)."""
        path = self.host_paths[host]
        degraded = self._degraded
        if len(path) == 1:
            tor = path[0]
            return lambda: tor in degraded
        return lambda: any(name in degraded for name in path)

    def is_degraded(self, switch_name: str) -> bool:
        """Receiver-side probe: suppress swaps toward this switch?"""
        return switch_name in self._degraded

    def rebaseline_channel(self, channel: SenderChannel) -> None:
        """A forced-bypass job finished on ``channel``: re-baseline its
        dedup state on the host's TOR before non-bypass entries resume."""
        self._rebaseline(channel.host, channel)

    # ------------------------------------------------------------------
    # Liveness of the supervisor itself
    # ------------------------------------------------------------------
    def notice_activity(self) -> None:
        """Kick the heartbeat loop (new task submitted / chaos injected)."""
        self.ensure_running()

    def ensure_running(self) -> None:
        if self._timer is None:
            self._timer = self.clock.schedule(self.heartbeat_ns, self._tick)

    def _has_work(self) -> bool:
        """Keep ticking?  The loop must terminate when quiescent so the
        sim heap can drain; anything that re-creates work later (a chaos
        restore, a new submit) calls :meth:`notice_activity`."""
        if any(not t.is_settled for t in self._tasks.values()):
            return True
        if self._reinstalling:
            return True
        # A gray-suspected switch must be re-adopted (and residual
        # suspicion decayed away) even after every task settled, or the
        # next submission would start life in bypass for no reason.
        if self._gray or any(s > 0.0 for s in self.suspicion.values()):
            return True
        return any(sw.is_up and sw.needs_install for sw in self.switches.values())

    # ------------------------------------------------------------------
    # The heartbeat tick
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self._timer = None
        now = self.clock.now
        for name, sw in self.switches.items():
            if sw.is_up:
                if sw.needs_install and name not in self._reinstalling:
                    self._on_switch_reboot(name, sw)
                self._last_seen[name] = now
                self._down_since.pop(name, None)
            else:
                self._down_since.setdefault(name, now)
                last = self._last_seen.setdefault(name, now)
                if now - last > self.lease_ns and name not in self._handled:
                    self._on_switch_lease_lapse(name, now - last)
        give_up = self.config.give_up_timeout_ns
        for name, daemon in self.daemons.items():
            if daemon.is_up:
                if name in self._daemon_handled:
                    self._daemon_handled.discard(name)
                    self._readopt(daemon)
                self._last_seen[name] = now
                self._down_since.pop(name, None)
            else:
                self._down_since.setdefault(name, now)
                last = self._last_seen.setdefault(name, now)
                if now - last > self.lease_ns and name not in self._daemon_handled:
                    self._daemon_handled.add(name)
                    self._reclaim(daemon)
                if give_up is not None and now - last > give_up:
                    self._fail_tasks_of(
                        name,
                        f"host {name} unreachable beyond the give-up deadline",
                    )
        if self.config.gray_detection:
            self._gray_tick()
        if self._has_work():
            self._timer = self.clock.schedule(self.heartbeat_ns, self._tick)

    # ------------------------------------------------------------------
    # Gray-failure detection (slow-vs-dead)
    # ------------------------------------------------------------------
    def _gray_tick(self) -> None:
        """Update per-switch suspicion from this tick's timeout deltas.

        Attribution is *path*-scoped: a channel cannot tell which hop
        stretched its RTT, so its timeout delta charges every switch on
        the host's path.  That can route around an innocent neighbour of
        the slow hop — the price of detecting from the edge — but never
        loses data: route-around reuses the supervised-restart machinery,
        and re-adoption re-baselines dedup state before non-bypass entries
        resume."""
        deltas: Dict[str, int] = {}
        for host, daemon in self.daemons.items():
            path = self.host_paths.get(host, ())
            if not path:
                continue
            for channel in daemon.channels:
                key = (host, channel.index)
                seen = self._timeouts_seen.get(key, 0)
                current = channel.timers.timeouts
                if current > seen:
                    self._timeouts_seen[key] = current
                    for name in path:
                        deltas[name] = deltas.get(name, 0) + current - seen
        for name, sw in self.switches.items():
            score = self.suspicion.get(name, 0.0) * GRAY_SUSPICION_DECAY + deltas.get(name, 0)
            if score < 1e-9:
                score = 0.0
            self.suspicion[name] = score
            if not sw.is_up or sw.needs_install:
                continue  # actually dark: the lease machinery owns it
            if name in self._gray:
                if score < 1.0:
                    self._gray_readopt(name)
            elif score >= GRAY_SUSPICION_THRESHOLD and name not in self._handled:
                self._gray_suspect(name, score)

    def _gray_suspect(self, name: str, score: float) -> None:
        """Route around a slow-but-alive switch before any lease would
        lapse (it never will — the node still heartbeats).  Same sequence
        as a lease lapse: degrade the subtree to bypass, restart every
        task behind the switch so in-flight non-bypass entries are
        withdrawn rather than stranded behind a stale dedup baseline."""
        self._gray.add(name)
        self._degraded.add(name)
        self._handled.add(name)
        self.gray_routearounds += 1
        self._log("gray-suspected", name, score=round(score, 3))
        for task_id in self._tasks_behind(name):
            self._restart_task_id(task_id)

    def _gray_readopt(self, name: str) -> None:
        """Suspicion decayed: re-adopt the switch.  Every live entry was
        opened in bypass (the flag sticks per entry), so re-baselining
        each channel at its next sequence number makes later non-bypass
        entries contiguous — exactly the post-reboot re-install contract,
        minus the register wipe."""
        for host, daemon in self.daemons.items():
            if name not in self.host_paths.get(host, ()):
                continue
            for channel in daemon.channels:
                if channel.window.next_seq == 0:
                    continue
                slot = self.switches[name].controller.channel_slot(
                    (host, channel.index)
                )
                self.switches[name].dedup.reinstall_channel(
                    slot, channel.window.next_seq
                )
        self._gray.discard(name)
        self._degraded.discard(name)
        self._handled.discard(name)
        self.gray_readoptions += 1
        self._log("gray-readopted", name)

    def _log(self, kind: str, target: Any, **detail: Any) -> None:
        event = {"t_ns": self.clock.now, "kind": kind, "target": target}
        event.update(detail)
        self.events.append(event)

    # ------------------------------------------------------------------
    # Switch failover
    # ------------------------------------------------------------------
    def _on_switch_lease_lapse(self, name: str, dark_ns: int) -> None:
        """The switch has been dark a full lease: assume its in-flight
        aggregates are lost, degrade its rack to bypass and restart every
        task holding a region on it."""
        self._degraded.add(name)
        self._handled.add(name)
        self._log("switch-lease-lapsed", name, dark_ns=dark_ns)
        for task_id in self._tasks_behind(name):
            self._restart_task_id(task_id)

    def _on_switch_reboot(self, name: str, sw: AskSwitch) -> None:
        """The switch is back with wiped registers.  Restart its tasks
        (unless the lease lapse already did) into bypass and schedule the
        control-plane re-install after one control latency."""
        self._degraded.add(name)
        down_ns = self.clock.now - self._down_since.get(name, self.clock.now)
        self._log("switch-reboot-observed", name, boot=sw.boot_count, down_ns=down_ns)
        if name not in self._handled:
            self._handled.add(name)
            for task_id in self._tasks_behind(name):
                self._restart_task_id(task_id)
        self._reinstalling.add(name)
        self.clock.schedule(
            CONTROL_LATENCY_NS, self._reinstall, name, sw.boot_count
        )

    def _reinstall(self, name: str, boot: int) -> None:
        """Re-install the rebooted switch's reliability baselines and
        re-enable aggregation — atomically, so every later entry a sender
        opens is a non-bypass packet contiguous from the baseline."""
        self._reinstalling.discard(name)
        sw = self.switches[name]
        if not sw.is_up or sw.boot_count != boot or not sw.needs_install:
            return  # crashed again mid-install; the next observation re-drives
        # Baseline every data channel homed on this switch — not just the
        # ones that already hold a channel slot.  A channel whose first
        # packet never reached the switch (it crashed before or during
        # setup) has no slot yet, but its sequence counter may already be
        # deep in an *odd* segment; on power-on-zero ``seen`` registers
        # every odd-segment sequence reads as a duplicate and a full
        # window of data would be silently dropped-and-ACKed.
        for host, daemon in self.daemons.items():
            if name not in self.host_paths.get(host, ()):
                continue
            for channel in daemon.channels:
                if channel.window.next_seq == 0:
                    continue  # power-on state is the correct baseline
                # Baseline the *whole* path, not just the rebooted switch:
                # the bypass era left ``seen`` gaps on every switch the
                # host's entries would have traversed (a healthy spine
                # above a crashed leaf saw none of them either).
                self._baseline_path(host, channel, installing=name)
        sw.mark_installed()
        self._degraded.discard(name)
        self._handled.discard(name)
        self.reinstalls += 1
        self._log("switch-reinstalled", name, boot=boot)

    def _rebaseline(self, host: str, channel: SenderChannel) -> None:
        """Write the channel's dedup baseline on every switch of the
        host's path (skipping any that is down or pending re-install — the
        switch-wide re-install covers those with a fresher sequence
        number)."""
        self._baseline_path(host, channel)

    def _baseline_path(
        self, host: str, channel: SenderChannel, installing: Optional[str] = None
    ) -> None:
        """Re-install ``channel``'s reliability baseline (``max_seq``,
        compact ``seen`` parity) at its next sequence number on every
        switch of ``host``'s path.  ``installing`` names a switch being
        re-installed right now: it still reads ``needs_install`` but must
        receive the baseline."""
        for name in self.host_paths.get(host, ()):
            sw = self.switches[name]
            if name != installing and (not sw.is_up or sw.needs_install):
                continue
            slot = sw.controller.channel_slot((host, channel.index))
            sw.dedup.reinstall_channel(slot, channel.window.next_seq)

    def _tasks_behind(self, name: str) -> tuple[int, ...]:
        """Task ids a failure of switch ``name`` forces to restart: every
        task holding a region on it, plus — in a tree — every unsettled
        region-holding task with a sender whose path traverses it.  The
        second set matters when the placement policy left ``name`` without
        regions (a leaf under spine-only placement): its in-flight entries
        still touched ``name``'s dedup state, so the post-outage baseline
        invalidates them and only a supervised replay keeps exactly-once.
        In a flat deployment regions live on the sender-side TORs, so the
        second set adds nothing and behaviour is unchanged."""
        behind = list(self.control.tasks_on(name))
        seen = set(behind)
        for task_id, task in self._tasks.items():
            if task_id in seen or task.is_settled:
                continue
            if not self.control.has_regions(task_id):
                continue
            if any(
                name in self.host_paths.get(host, ()) for host in task.senders
            ):
                behind.append(task_id)
        return tuple(behind)

    # ------------------------------------------------------------------
    # Supervised task restart
    # ------------------------------------------------------------------
    def _restart_task_id(self, task_id: int) -> None:
        task = self._tasks.get(task_id)
        if task is None or task.is_settled:
            return
        self._restart_task(task)

    def _restart_task(self, task: AggregationTask) -> None:
        """Replay ``task`` from scratch, exactly once.

        Runs atomically within one event: (1) every sender withdraws the
        task's window entries and rewinds its job, (2) the task's switch
        regions are cleared, (3) channels whose entries were force-acked
        are re-baselined on healthy switches, (4) the receiver discards
        its accumulator and fences pre-restart sequence numbers, (5) the
        senders resume — in bypass where the TOR is degraded.
        """
        floors: Dict[tuple[str, int], int] = {}
        rebaseline_hosts: List[str] = []
        for host in task.senders:
            f, withdrew = self.daemons[host].abort_task(task)
            floors.update(f)
            if withdrew:
                rebaseline_hosts.append(host)
        if self.control.has_regions(task.task_id):
            self.control.reset_task(task.task_id)
        for host in rebaseline_hosts:
            channel = self.daemons[host].channel_for_task(task.task_id)
            self._baseline_path(host, channel)
        self.daemons[task.receiver].receiver.reset_task(task.task_id, floors)
        for host in task.senders:
            self.daemons[host].resume_task(task)
        self.task_restarts += 1
        self._log("task-restarted", task.task_id, phase=task.phase.value)

    # ------------------------------------------------------------------
    # Receiver lease reclaim / readoption
    # ------------------------------------------------------------------
    def _reclaim(self, daemon: HostDaemon) -> None:
        """The receiver daemon's lease lapsed: free its streaming tasks'
        switch regions and silence their senders.  FINALIZING tasks are
        left alone — their completion fetch may already be in flight."""
        name = daemon.name
        reclaimed: List[int] = []
        for task_id, task in self._tasks.items():
            if task.receiver != name or task.is_settled:
                continue
            if task.phase not in (TaskPhase.SETUP, TaskPhase.STREAMING):
                continue
            if not self.control.has_regions(task_id):
                continue
            for host in task.senders:
                self.daemons[host].park_task(task)
            self.control.deallocate(task_id)
            reclaimed.append(task_id)
        if reclaimed:
            self._orphans.setdefault(name, []).extend(reclaimed)
            self.reclaims += len(reclaimed)
            self._log("regions-reclaimed", name, tasks=list(reclaimed))

    def _readopt(self, daemon: HostDaemon) -> None:
        """The daemon is back after a lease lapse: its orphaned tasks
        restart and complete *switchless* — the replay is forced to
        bypass (their regions are gone) and each channel re-baselines its
        switch dedup state when the bypass job finishes."""
        self._log("daemon-readopted", daemon.name)
        for task_id in self._orphans.pop(daemon.name, []):
            task = self._tasks.get(task_id)
            if task is None or task.is_settled:
                continue
            floors: Dict[tuple[str, int], int] = {}
            for host in task.senders:
                d = self.daemons[host]
                f, _ = d.abort_task(task)
                floors.update(f)
                job = d.job_for(task_id)
                if job is not None:
                    job.force_bypass = True
            daemon.receiver.reset_task(task_id, floors, regions={})
            for host in task.senders:
                self.daemons[host].resume_task(task)
            self.task_restarts += 1
            self._log("task-readopted", task_id)

    # ------------------------------------------------------------------
    # Loud failure
    # ------------------------------------------------------------------
    def _fail_tasks_of(self, name: str, reason: str) -> None:
        """Fail every non-settled task that ``name`` participates in."""
        for task in self._tasks.values():
            if task.is_settled:
                continue
            if name != task.receiver and name not in task.senders:
                continue
            task.failure_reason = reason
            task.advance(TaskPhase.FAILED)
            for host in task.senders:
                self.daemons[host].drop_task(task)
            if self.control.has_regions(task.task_id):
                self.control.deallocate(task.task_id)
            self.give_up_failures += 1
            self._log("task-failed", task.task_id, reason=reason)
