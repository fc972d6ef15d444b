"""`AskSwitch` — the network-facing switch facade.

Builds the pipeline layout (Fig. 6 / §4):

- stage 0: ``max_seq``, ``seen``, ``copy_indicator`` (the dedup/shadow front),
- stages 1…: the AA pool, four AAs per stage, medium groups automatically on
  physically adjacent stages,
- one final stage: ``PktState`` (written after the aggregation outcome is
  known, §3.3).

On packet arrival the program runs immediately (state changes are atomic per
packet — the PISA guarantee) and the resulting packets leave the switch
after ``SWITCH_PIPELINE_LATENCY_NS``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import AskConfig
from repro.core.constants import SWITCH_PIPELINE_LATENCY_NS
from repro.core.errors import ProtocolError, RegionExhaustedError
from repro.core.packet import AskPacket
from repro.core.robustness import (
    Quarantine,
    RobustnessCounters,
    quarantine_packet,
    validate_switch_ingress,
)
from repro.net.fault import CorruptedFrame
from repro.net.topology import NetworkNode
from repro.net.trace import PacketTrace
from repro.runtime.interfaces import Clock, SwitchFabricView
from repro.switch.aggregator import AggregatorPool
from repro.switch.controller import SwitchController
from repro.switch.dedup import DedupUnit
from repro.switch.pisa import Pipeline
from repro.switch.program import AskSwitchProgram, SwitchDecision
from repro.switch.registers import PassContext
from repro.switch.shadow import ShadowDirectory


class AskSwitch(NetworkNode):
    """One ASK-enabled top-of-rack switch."""

    #: Ingress to egress, for program passes and routed packets alike.
    processing_latency_ns = SWITCH_PIPELINE_LATENCY_NS

    def __init__(
        self,
        config: AskConfig,
        clock: Clock,
        name: str = "switch",
        max_tasks: int = 64,
        max_channels: int = 256,
        trace: Optional[PacketTrace] = None,
        max_stages: int = 64,
    ) -> None:
        super().__init__(name)
        self.config = config
        self.clock = clock
        self.trace = trace

        # ``max_stages`` defaults above a single physical pipeline's 16
        # because the prototype chains pipelines when one is not enough
        # (§4: "multiple pipelines can be ... chained together").  The
        # default full geometry fits in 10 stages of one pipeline.
        self.pipeline = Pipeline(max_stages=max_stages)
        self.dedup = DedupUnit(config, max_channels)
        self.controller, self.program = self._install(max_tasks, max_channels)
        self.fabric: Optional[SwitchFabricView] = None

        # Failure-domain lifecycle.  ``boot_count`` increments on every
        # reboot (restore after crash); ``_needs_install`` disables the ASK
        # program — the switch routes, but aggregates nothing — until the
        # control plane re-installs dedup baselines via
        # :meth:`mark_installed`.
        self.boot_count = 0
        self._needs_install = False
        self.self_addressed_drops = 0

        # Ingress robustness: per-reason drop counters plus a bounded
        # dead-letter quarantine for frames that pass the integrity check
        # yet violate protocol invariants (poison pills).
        self.robustness = RobustnessCounters()
        self.quarantine = Quarantine()

        # Compiled fast path: one reusable pass context for the lifetime of
        # the switch (re-armed per packet in O(1)), and the rack's host set
        # cached lazily on first ingress (the deployment builder attaches
        # hosts after bind(), so bind-time capture would be empty).
        self._ctx = PassContext()
        self._local_hosts_cache: Optional[frozenset[str]] = None

    def _install(
        self, max_tasks: int, max_channels: int
    ) -> tuple[SwitchController, AskSwitchProgram]:
        """Lay the aggregation memory out on the pipeline and build the
        controller and program over it; a subclass with another store
        overrides this."""
        config = self.config
        self.shadow = ShadowDirectory(config, max_tasks)
        front = self.pipeline.stage(0)
        front.add_array(self.dedup.max_seq)
        front.add_array(self.dedup.seen)
        front.add_array(self.shadow.indicator)
        self.pool = AggregatorPool(config, self.pipeline, first_stage=1)
        self.pipeline.declare(self.pool.next_free_stage, self.dedup.pkt_state)
        controller = SwitchController(
            config, self.pool, self.shadow, max_tasks=max_tasks, max_channels=max_channels
        )
        program = AskSwitchProgram(
            config, controller, self.pool, self.dedup, self.shadow, switch_name=self.name
        )
        return controller, program

    # ------------------------------------------------------------------
    def bind(self, fabric: SwitchFabricView) -> None:
        """Attach the switch to its fabric view (done by the deployment
        builder): ``host_names`` keys the §7 bypass rule, ``send_to_host``
        carries every egressing frame."""
        self.fabric = fabric
        self._local_hosts_cache = None

    @property
    def stats(self):
        return self.program.stats

    # ------------------------------------------------------------------
    @property
    def local_hosts(self) -> frozenset[str]:
        """Hosts attached to this switch's rack."""
        if self.fabric is None:
            return frozenset()
        hosts = frozenset(self.fabric.host_names)
        self._local_hosts_cache = hosts
        return hosts

    def _should_run_program(self, packet: AskPacket) -> bool:
        """The §7 bypass rule, extended with the combiner role: the ASK
        program runs at the sender-side TOR (the switch whose rack
        originated the packet), for control packets addressed to this
        switch, and — in a spine–leaf tree — wherever the task's region
        names the packet's sender in its ``sources`` admission set (a spine
        combining slots its leaves pre-aggregated).  Everything else —
        ACKs, degraded BYPASS traffic, all traffic while the rebooted
        program awaits re-install, and cross-rack transit toward the
        receiver host — is routed untouched, so a pure-transit switch keeps
        no per-channel state.
        """
        flags = packet.flags
        if flags & 0x2:  # ACK
            return False
        if self._needs_install or flags & 0x20:  # BYPASS
            return False
        if flags & 0x8:  # SWAP
            return packet.dst == self.name
        hosts = self._local_hosts_cache
        if hosts is None:
            hosts = self.local_hosts  # rebuilds and caches
        if packet.src in hosts:
            return True
        region = self.controller.lookup_region(packet.task_id)
        return (
            region is not None
            and region.sources is not None
            and packet.src in region.sources
        )

    def receive(self, packet: AskPacket) -> None:
        """Ingress: run the pipeline pass (or pure routing for transit
        traffic), emit results after the pipeline latency."""
        if self._offline:
            self.dropped_while_down += 1
            return
        if type(packet) is CorruptedFrame:
            # The fabric delivered a frame whose checksum no longer
            # matches.  With integrity on it is dropped here — corruption
            # degrades to loss, §3.3 retransmission recovers it.  With
            # integrity off the damaged payload is consumed as-is (the
            # seed stack's behaviour, kept as the negative control).
            if self.config.integrity_checks:
                self.robustness.bump("checksum")
                if self.trace is not None:
                    self.trace.record(
                        self.clock.now, self.name, "integrity-drop", packet
                    )
                return
            packet = packet.packet
        if self.trace is not None:
            self.trace.record(self.clock.now, self.name, "ingress", packet)
        if not self._should_run_program(packet):
            self.clock.call_later(self.processing_latency_ns, self._route, packet)
            return
        reason = validate_switch_ingress(
            packet, self.config.num_aas, self.config.data_channels_per_host
        )
        if reason is not None:
            # Structurally invalid despite an intact checksum: only an
            # adversarial or buggy sender produces these.  Dead-letter,
            # never raise — one poison pill must not stop the pipeline.
            self._quarantine(reason, packet)
            return
        ctx = self.pipeline.begin_pass_into(self._ctx)
        try:
            decision = self.program.process(ctx, packet)
        except ProtocolError:
            # Deep per-slot invariant violated mid-pass (live bit on a
            # blank slot, partial medium group).  Register writes commit
            # per instruction and the pass context re-arms per packet, so
            # containing the pass here leaves the pipeline consistent.
            self._quarantine("protocol-invariant", packet)
            return
        except RegionExhaustedError:
            # An adversarial flood of fresh (src, channel) pairs exhausted
            # the controller's channel slots; shed the packet, keep serving
            # established channels.
            self._quarantine("region-exhausted", packet)
            return
        if decision.emit:
            # Pipeline egress is never cancelled: allocation-free scheduling.
            self.clock.call_later(self.processing_latency_ns, self._emit, decision)
        elif self.trace is not None:
            self.trace.record(self.clock.now, self.name, "drop", packet)

    def _quarantine(self, reason: str, packet: AskPacket) -> None:
        quarantine_packet(
            self.robustness, self.quarantine, self.clock.now, reason, packet
        )
        if self.trace is not None:
            self.trace.record(self.clock.now, self.name, "quarantine", packet)

    def _route(self, packet: AskPacket) -> None:
        """Plain routing: deliver toward the destination untouched."""
        if self.fabric is None:
            raise RuntimeError("switch is not bound to a fabric")
        if packet.dst == self.name:
            # Self-addressed control traffic (a swap notification) while
            # the program is disabled: a wiped switch has nothing to apply
            # it to, so it is dropped; the receiver's swap loop is reset by
            # the supervised restart.
            self.self_addressed_drops += 1
            return
        if self.trace is not None:
            self.trace.record(self.clock.now, self.name, "route", packet)
        self.fabric.send_to_host(packet.dst, packet, packet.wire_bytes())

    def _emit(self, decision: SwitchDecision) -> None:
        if self.fabric is None:
            raise RuntimeError("switch is not bound to a fabric")
        for pkt in decision.emit:
            if self.trace is not None:
                self.trace.record(self.clock.now, self.name, decision.action.value, pkt)
            self.fabric.send_to_host(pkt.dst, pkt, pkt.wire_bytes())

    # ------------------------------------------------------------------
    # Failure domain (reboot = Tofino power cycle: all registers wiped)
    # ------------------------------------------------------------------
    @property
    def needs_install(self) -> bool:
        return self._needs_install

    def restore(self) -> None:
        """Reboot: the data plane comes back with every register at its
        power-on value — every page of every array points back at the
        shared blank page, O(pages).  Control-plane books (region
        allocations, channel slots) live on the controller CPU and survive;
        the program stays disabled until the control plane re-installs the
        reliability baselines and calls :meth:`mark_installed`.
        """
        if self.is_up:
            return
        super().restore()
        self.dedup.max_seq.control_reset()
        self.dedup.seen.control_reset()
        self.dedup.pkt_state.control_reset()
        self._wipe_store()
        self.boot_count += 1
        self._needs_install = True
        # Compiled channel programs bind the arrays' methods (whose page
        # tables the wipe rewrote in place) and never-recycled channel
        # slots, so they would remain valid — cleared anyway so a rebooted
        # switch recompiles from the re-installed control-plane state.
        self.program.invalidate_compiled()
        self._local_hosts_cache = None

    def _wipe_store(self) -> None:
        """Reset the aggregation memory to its power-on state: the copy
        indicators and every AA."""
        self.shadow.indicator.control_reset()
        for aa in self.pool.arrays:
            aa.registers.control_reset()

    def mark_installed(self) -> None:
        """Control plane finished re-installing state; aggregation resumes."""
        self._needs_install = False

    # ------------------------------------------------------------------
    def resource_summary(self) -> str:
        """Pipeline resource report (stages, SRAM, and the register cells
        the host holds against those declared), for docs and examples."""
        lines = [self.pipeline.summary()]
        lines.append(
            f"reliability SRAM: {self.dedup.sram_bytes_per_channel():.0f} B/channel "
            f"({self.dedup.sram_bytes / 1024:.1f} KiB total for "
            f"{self.dedup.max_channels} channels)"
        )
        arrays = [array for stage in self.pipeline.stages for array in stage.arrays]
        declared = sum(array.size for array in arrays)
        resident = sum(array.resident_cells for array in arrays)
        lines.append(
            f"register cells: {declared:,} declared, {resident:,} resident on the host "
            f"({100 * resident / declared:.1f} %)"
        )
        return "\n".join(lines)
