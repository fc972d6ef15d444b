"""`DeploymentBuilder` — the one place rack wiring happens.

Declare racks (and spines), pick a backend, build::

    deployment = (
        DeploymentBuilder(config, backend="asyncio", fault=fault)
        .add_rack(3)
        .build(on_task_complete=publish)
    )
    deployment.daemons["h0"] ...

Wiring order is part of the determinism contract: fabric, then every
spine, then per rack: switch → install → register → hosts in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from repro.core.config import AskConfig
from repro.core.controlplane import ControlPlane
from repro.core.daemon import HostDaemon
from repro.core.errors import ConfigError
from repro.core.failover import FailureSupervisor
from repro.core.packet import AskPacket
from repro.core.task import AggregationTask
from repro.core.tenancy import AdmissionController
from repro.net.fault import FaultModel
from repro.net.trace import PacketTrace
from repro.runtime.asyncio_fabric import AsyncioFabric
from repro.runtime.codec import VERSION, VERSION_LEGACY
from repro.runtime.fabric import TopologyFabric
from repro.runtime.interfaces import Clock, TaskRunner
from repro.runtime.sim import SimFabric

#: ``"sim-sharded"`` wires the exact same deterministic sim fabric as
#: ``"sim"`` — sharding happens one layer up (:mod:`repro.runtime.sharded`
#: replicates the deployment per shard) — but is validated against the
#: feature set the conservative-window coordinator can replicate.
BACKENDS = ("sim", "asyncio", "sim-sharded")

CompletionFn = Callable[[AggregationTask], None]


def validate_sharded_config(config: AskConfig) -> None:
    """Reject config features the sharded backend cannot replicate.

    Sharded correctness rests on two invariants: no zero-latency
    cross-shard calls outside the validated task closure, and no
    fabric-global mutable state outside the per-host corruption streams.
    These features break one or the other:

    * ``failure_detection`` — the supervisor heartbeats and re-installs
      switch state across racks with zero latency.
    * ``admission_control`` — the admission queue serializes grants over
      the whole deployment's release edges.
    * ``trace`` — the packet trace is a single global ring; per-shard
      rings would interleave differently.
    """
    for flag, why in (
        ("failure_detection", "the supervisor makes zero-latency cross-rack calls"),
        ("admission_control", "the admission queue is deployment-global"),
        ("trace", "the packet trace is a single global ring"),
    ):
        if getattr(config, flag, False):
            raise ConfigError(
                f"backend 'sim-sharded' does not support config.{flag}: {why}"
            )


@dataclass
class Deployment:
    """A wired ASK deployment: fabric + switches + control + daemons."""

    config: AskConfig
    backend: str
    fabric: Any
    runner: TaskRunner
    control: ControlPlane
    switches: Dict[str, Any]
    daemons: Dict[str, HostDaemon]
    trace: Optional[PacketTrace]
    #: rack name -> host names, in wiring order
    racks: Dict[str, List[str]] = field(default_factory=dict)
    #: Present when ``config.failure_detection`` is on: heartbeat leases,
    #: switch failover and supervised recovery for this deployment.
    supervisor: Optional[FailureSupervisor] = None
    #: Present when ``config.admission_control`` is on: the bounded,
    #: per-tenant-fair wait queue in front of region allocation.
    admission: Optional[AdmissionController] = None

    @property
    def clock(self) -> Clock:
        return self.fabric.clock

    @property
    def switch(self) -> Any:
        """The switch of a single-rack deployment."""
        if len(self.switches) != 1:
            raise ValueError(
                f"deployment has {len(self.switches)} switches; use .switches"
            )
        return next(iter(self.switches.values()))

    def close(self) -> None:
        """Release backend resources (sockets/tasks on asyncio; no-op sim)."""
        close = getattr(self.fabric, "close", None)
        if close is not None:
            close()


class DeploymentBuilder:
    """Assemble an ASK deployment on a chosen backend.

    One ``add_rack`` call builds the classic single-rack deployment;
    several build the §7 flat multi-rack mesh, and racks declared under
    ``add_spine`` switches a spine–leaf tree.  Every shape wires the same
    way on every backend: one rack is the spineless one-rack case.
    """

    def __init__(
        self,
        config: Optional[AskConfig] = None,
        backend: str = "sim",
        fault: Optional[FaultModel] = None,
        max_tasks: int = 64,
        max_channels: int = 256,
        switch_factory: Optional[Callable[..., Any]] = None,
        core_bandwidth_gbps: Optional[float] = 400.0,
        core_latency_ns: int = 2_000,
        bind_host: str = "127.0.0.1",
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; pick one of {BACKENDS}")
        self.config = config if config is not None else AskConfig()
        if backend == "sim-sharded":
            validate_sharded_config(self.config)
        if switch_factory is None:
            from repro.switch.switch import AskSwitch

            switch_factory = AskSwitch
        self.backend = backend
        self.fault = fault
        self.max_tasks = max_tasks
        self.max_channels = max_channels
        self.switch_factory = switch_factory
        self.core_bandwidth_gbps = core_bandwidth_gbps
        self.core_latency_ns = core_latency_ns
        self.bind_host = bind_host
        self._racks: List[tuple[str, str, List[str], Optional[str]]] = []
        self._spines: List[str] = []

    # ------------------------------------------------------------------
    def add_spine(self, switch_name: Optional[str] = None) -> str:
        """Declare a spine switch (one per pod of racks) and return its
        name, to be passed as ``spine=`` to the pod's ``add_rack`` calls.
        Spine-backed racks route inter-rack traffic up the tree instead of
        over the flat pairwise core mesh."""
        if switch_name is None:
            switch_name = f"spine-s{len(self._spines)}"
        self._spines.append(switch_name)
        return switch_name

    def add_rack(
        self,
        hosts: Union[int, Iterable[str]],
        switch_name: Optional[str] = None,
        rack: Optional[str] = None,
        spine: Optional[str] = None,
    ) -> "DeploymentBuilder":
        """Declare one rack: its hosts and (optionally) names.

        ``hosts`` is a count (named ``h0..hN-1``, continuing across
        racks) or explicit names.  The first rack's switch defaults to
        ``"switch"`` to preserve the single-rack service's addressing;
        later racks default to ``tor-<rack>``.  ``spine`` hangs the rack
        under a switch declared with :meth:`add_spine`.
        """
        index = len(self._racks)
        if rack is None:
            rack = f"r{index}"
        if isinstance(hosts, int):
            offset = sum(len(names) for _, _, names, _ in self._racks)
            host_names = [f"h{offset + i}" for i in range(hosts)]
        else:
            host_names = list(hosts)
        if switch_name is None:
            switch_name = "switch" if index == 0 else f"tor-{rack}"
        self._racks.append((rack, switch_name, host_names, spine))
        return self

    # ------------------------------------------------------------------
    def _make_fabric(self, trace: Optional[PacketTrace]) -> Any:
        config = self.config
        ecn = config.ecn_threshold_bytes if config.congestion_control else None
        if self.backend == "asyncio":
            # Integrity off => speak the legacy v1 frame (no CRC trailer),
            # the wire-level equivalent of skipping the checksum verify.
            frame_version = VERSION if config.integrity_checks else VERSION_LEGACY
            fabric: TopologyFabric = AsyncioFabric(
                fault=self.fault,
                bind_host=self.bind_host,
                trace=trace,
                frame_version=frame_version,
            )
        else:
            fabric = SimFabric(
                bandwidth_gbps=config.link_bandwidth_gbps,
                latency_ns=config.link_latency_ns,
                core_bandwidth_gbps=self.core_bandwidth_gbps,
                core_latency_ns=self.core_latency_ns,
                host_max_pps=config.host_max_pps,
                fault=self.fault,
                trace=trace,
                ecn_threshold_bytes=ecn,
            )
        # The fault-stream naming rule (MultiRackTopology.attach_host): only a
        # layout of one spineless rack draws its host-link streams from the
        # template itself, under the names one-rack schedules were recorded with.
        fabric.topology.one_rack = len(self._racks) == 1 and not self._spines
        return fabric

    def _sender_for(self, fabric: Any, host: str) -> Callable[[AskPacket], None]:
        def send(packet: AskPacket) -> None:
            fabric.send_to_switch(host, packet, packet.wire_bytes())

        return send

    # ------------------------------------------------------------------
    def build(self, on_task_complete: CompletionFn) -> Deployment:
        """Wire everything; returns the ready deployment.

        ``on_task_complete`` is invoked by the receiving daemon when a
        task's result is final (services publish it to shared memory).
        """
        if not self._racks:
            raise ValueError("declare at least one rack with add_rack()")
        trace = PacketTrace(enabled=self.config.trace)
        active_trace = trace if self.config.trace else None
        fabric = self._make_fabric(active_trace)
        control = ControlPlane()
        switches: Dict[str, Any] = {}
        daemons: Dict[str, HostDaemon] = {}
        racks: Dict[str, List[str]] = {}

        # Spines first (a rack's add_rack wires uplinks to an existing
        # spine); declaration order is part of the determinism contract.
        for spine_name in self._spines:
            spine_switch = self.switch_factory(
                self.config,
                fabric.clock,
                name=spine_name,
                max_tasks=self.max_tasks,
                max_channels=self.max_channels,
                trace=active_trace,
            )
            fabric.install_spine(spine_switch)
            switches[spine_name] = spine_switch
            control.register(spine_name, spine_switch.controller)

        for rack, switch_name, host_names, spine in self._racks:
            switch = self.switch_factory(
                self.config,
                fabric.clock,
                name=switch_name,
                max_tasks=self.max_tasks,
                max_channels=self.max_channels,
                trace=active_trace,
            )
            fabric.install_switch(switch, rack, spine=spine)
            switches[switch_name] = switch
            control.register(switch_name, switch.controller)
            racks[rack] = list(host_names)
            for name in host_names:
                daemon = HostDaemon(
                    name,
                    fabric.clock,
                    self.config,
                    control,
                    send_fn=self._sender_for(fabric, name),
                    on_task_complete=on_task_complete,
                )
                daemons[name] = daemon
                fabric.attach_host(daemon, rack)

        if self._spines:
            # Combiner dedup baselining: whenever a job first activates on
            # a channel, the pod spine's `seen`/`max_seq` state for that
            # channel is re-installed at the channel's next sequence number
            # iff the task's spine region admits this host.  Packets of
            # other jobs may have bypassed the spine entirely (same-rack
            # traffic, leaf-only tasks), so the contiguity Eq. 8 requires
            # is re-established per job, at a moment the window is
            # provably empty (jobs are strictly FIFO).
            host_spine = {
                host: spine
                for _, _, rack_hosts, spine in self._racks
                if spine is not None
                for host in rack_hosts
            }
            hook = _make_activation_hook(switches, host_spine)
            for daemon in daemons.values():
                for channel in daemon.channels:
                    channel.activation_hook = hook

        host_paths = {
            host: (tor,) if spine is None else (tor, spine)
            for _, tor, rack_hosts, spine in self._racks
            for host in rack_hosts
        }

        supervisor: Optional[FailureSupervisor] = None
        if self.config.failure_detection:
            host_tor = {
                host: tor
                for _, tor, rack_hosts, _ in self._racks
                for host in rack_hosts
            }
            supervisor = FailureSupervisor(
                fabric.clock,
                self.config,
                control,
                daemons,
                switches,
                host_tor,
                host_paths=host_paths,
            )
            for name, daemon in daemons.items():
                probe = supervisor.probe_for(name)
                for channel in daemon.channels:
                    channel.bypass_probe = probe
                    channel.rebaseline_hook = supervisor.rebaseline_channel
                daemon.receiver.degraded_probe = supervisor.is_degraded

        admission: Optional[AdmissionController] = None
        if self.config.admission_control:
            admission = AdmissionController(fabric.clock, self.config)
            admission.occupancy_fn = control.tenant_occupancy
            # Every deallocation path — task teardown, loud failure,
            # supervisor reclaim — wakes the waiters immediately.
            control.on_release = admission.on_release
            if supervisor is None:
                # A degraded (forced-bypass) job skips the switch, so the
                # switch-side dedup never advances past its sequences;
                # when the job finishes, the channel's baseline must be
                # re-installed on the host's path before the next job's
                # non-bypass entries arrive.  With failure detection on,
                # the supervisor's hook already does this.
                hook = _make_degrade_rebaseline_hook(switches, host_paths)
                for daemon in daemons.values():
                    for channel in daemon.channels:
                        channel.rebaseline_hook = hook

        return Deployment(
            config=self.config,
            backend=self.backend,
            fabric=fabric,
            runner=fabric.runner(),
            control=control,
            switches=switches,
            daemons=daemons,
            trace=trace,
            racks=racks,
            supervisor=supervisor,
            admission=admission,
        )


def _make_degrade_rebaseline_hook(
    switches: Dict[str, Any], host_paths: Dict[str, tuple[str, ...]]
) -> Callable[[Any], None]:
    """Re-install a channel's dedup baseline on every switch of its
    host's path after a forced-bypass job finishes (admission-degrade
    deployments without a failure supervisor — see the wiring site)."""

    def hook(channel: Any) -> None:
        for name in host_paths.get(channel.host, ()):
            sw = switches[name]
            if not sw.is_up or getattr(sw, "needs_install", False):
                continue
            sw.dedup.reinstall_channel(
                sw.controller.channel_slot((channel.host, channel.index)),
                channel.window.next_seq,
            )

    return hook


def _make_activation_hook(
    switches: Dict[str, Any], host_spine: Dict[str, str]
) -> Callable[[Any, Any], None]:
    """Per-job spine dedup baselining for tree deployments (see the
    comment at the builder's wiring site)."""

    def hook(channel: Any, job: Any) -> None:
        spine_name = host_spine.get(channel.host)
        if spine_name is None:
            return
        if channel.window.next_seq == 0:
            return  # power-on state is the correct baseline
        sw = switches[spine_name]
        if not sw.is_up or getattr(sw, "needs_install", False):
            return  # the supervisor's re-install covers it with fresher state
        region = sw.controller.lookup_region(job.task.task_id)
        if (
            region is None
            or region.sources is None
            or channel.host not in region.sources
        ):
            return  # this task's packets never run the program at the spine
        sw.dedup.reinstall_channel(
            sw.controller.channel_slot((channel.host, channel.index)),
            channel.window.next_seq,
        )

    return hook
