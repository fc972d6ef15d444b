"""Discrete-event backend: the existing simulator stack behind the
:class:`~repro.runtime.interfaces.Fabric` / ``TaskRunner`` interfaces.

These wrappers add **no** event hops and **no** extra scheduling — every
``send`` delegates straight into the same :class:`StarTopology` /
:class:`Link` / :class:`Nic` code the services used before the runtime
layer existed, so a fixed seed produces exactly the schedule, stats and
retransmission counts it always did (``bench/run.py`` checks this on
every repetition: ``rack_lossy`` at seed 7 must reproduce its recorded
fingerprint).

:class:`~repro.net.simulator.Simulator` itself satisfies the
:class:`~repro.runtime.interfaces.Clock` protocol, so ``fabric.clock`` is
the simulator object and simulated components keep scheduling on it
directly.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterator, Optional

from repro.net.fault import (
    CorruptedFrame,
    FaultModel,
    LinkSlowdown,
    corrupt_packet_fields,
)
from repro.net.link import Link
from repro.net.multirack import MultiRackTopology, RackView, SpineView
from repro.net.simulator import Simulator, paused_gc
from repro.net.topology import NetworkNode, StarTopology
from repro.net.trace import PacketTrace
from repro.runtime.interfaces import Node


class _CorruptionWindow:
    """Chaos-driven corruption: while a node is in the window, frames it
    sends or receives are corrupted with probability ``rate``.

    Orthogonal to the per-link :class:`FaultModel` streams (which model
    steady-state line noise): the window models an episode — a failing
    optic, a bad cable — that chaos schedules switch on (``corrupt``) and
    off (``cleanse``).  Draws come from dedicated ``random.Random``
    streams so opening a window never perturbs the link fault schedules.

    Streams are keyed per *drawing host* (the first endpoint every call
    site passes — the sending host of the frame under inspection), lazily
    created from ``"<seed_label>:<host>"``.  A fabric-wide stream would
    interleave draws in global packet order, which a rack-sharded run
    (:mod:`repro.runtime.sharded`) cannot reproduce: each shard only sees
    its own hosts' sends.  Per-host streams depend only on that host's
    own send order, which is identical serial and sharded, so the sum of
    ``injected`` over shards equals the serial count draw-for-draw.
    """

    __slots__ = ("targets", "rate", "injected", "_seed_label", "_rngs")

    def __init__(self, seed_label: str, rate: float = 0.5) -> None:
        self.targets: set[str] = set()
        self.rate = rate
        self.injected = 0
        self._seed_label = seed_label
        self._rngs: Dict[str, random.Random] = {}

    def maybe_corrupt(
        self, packet: object, key: Optional[str], *endpoints: Optional[str]
    ) -> object:
        if not self.targets or type(packet) is CorruptedFrame:
            return packet
        if not any(
            e in self.targets for e in (key, *endpoints) if e is not None
        ):
            return packet
        if key is None:  # pragma: no cover - every call site keys by host
            key = ""
        rng = self._rngs.get(key)
        if rng is None:
            rng = self._rngs[key] = random.Random(f"{self._seed_label}:{key}")
        if rng.random() >= self.rate:
            return packet
        if not hasattr(packet, "bitmap"):
            return packet
        self.injected += 1
        return CorruptedFrame(corrupt_packet_fields(packet, rng))


class SimRunner:
    """Run-to-completion driver over one :class:`Simulator`.

    Both drains run under :func:`~repro.net.simulator.paused_gc`, as
    ``run_serial``, ``run_sharded`` and the shard workers do: a run's
    garbage is reclaimed by reference counting, and the cycle collector's
    passes over the live input streams and aggregator cells find nothing
    (``tests/runtime/test_sim_gc_pause.py`` holds that to
    ``gc.collect() == 0`` on three scenarios).
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim

    def run(
        self, until: Optional[int] = None, max_events: Optional[int] = None
    ) -> None:
        with paused_gc():
            self.sim.run(until=until, max_events=max_events)

    def run_until(
        self,
        done: Callable[[], bool],
        max_events: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        # A drained heap is the simulator's quiescent point: either every
        # task completed (done() now holds) or progress is impossible and
        # the caller reports the stall.  ``timeout_s`` is wall-clock and
        # meaningless under simulated time.
        with paused_gc():
            self.sim.run(max_events=max_events)

    def run_forever(self) -> None:
        self.sim.run()


class _SimChaosFabric:
    """What both simulator fabrics share: the clock/runner pair and the
    chaos wiring (partition, corruption and gray-slowdown windows).

    Subclasses own a topology and say where things are in it: ``_node``
    (name -> node), ``_links`` (every link) and ``_slow_links`` (the links
    a slowed node touches).
    """

    backend = "sim"

    def __init__(self, sim: Optional[Simulator], fault: Optional[FaultModel]) -> None:
        self.sim = sim if sim is not None else Simulator()
        self._partitioned: set[str] = set()
        #: Frames dropped at a partitioned node's egress (its ingress
        #: drops are counted on the node itself).
        self.partition_drops = 0
        seed = fault.seed if fault is not None else 0
        self._corruption = _CorruptionWindow(f"{seed}:chaos-corrupt")
        #: Gray-failure knobs (chaos ``slow``/``revive``): every link
        #: touching a slowed node pays ``latency * slow_multiplier`` plus
        #: uniform jitter up to ``slow_jitter_ns`` per packet.  Set before
        #: the first ``slow`` event; the per-link jitter streams are
        #: seeded from ``{seed}:chaos-slow:{link_name}``.
        self.slow_multiplier = 4.0
        self.slow_jitter_ns = 0
        self._slow_label = f"{seed}:chaos-slow"
        self._slowdowns: Dict[str, LinkSlowdown] = {}

    @property
    def clock(self) -> Simulator:
        return self.sim

    def runner(self) -> SimRunner:
        return SimRunner(self.sim)

    # ------------------------------------------------------------------
    # Where things are in the subclass's topology
    # ------------------------------------------------------------------
    def _node(self, name: str) -> NetworkNode:
        raise NotImplementedError

    def _links(self) -> Iterator[Link]:
        raise NotImplementedError

    def _slow_links(self, name: str) -> Iterator[Link]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Fault injection: network partitions (pure loss, nodes keep running)
    # ------------------------------------------------------------------
    def partition(self, name: str) -> None:
        """Cut ``name`` off: its egress is dropped here (counted in
        :attr:`partition_drops`) and its ingress at the node.  A
        partitioned *switch* still flushes frames already in its pipeline
        — exactly the asymmetry a real link flap exhibits."""
        self._partitioned.add(name)
        self._node(name).set_partitioned(True)

    def heal(self, name: str) -> None:
        self._partitioned.discard(name)
        self._node(name).set_partitioned(False)

    # ------------------------------------------------------------------
    # Fault injection: corruption windows (chaos "corrupt"/"cleanse")
    # ------------------------------------------------------------------
    def corrupt(self, name: str) -> None:
        """Open a corruption window on ``name``: frames it sends or
        receives are delivered corrupted (with probability
        ``corruption_rate``) until :meth:`cleanse`.  Where the window
        applies is the subclass's ``send_to_switch``/``send_to_host``."""
        self._corruption.targets.add(name)

    def cleanse(self, name: str) -> None:
        self._corruption.targets.discard(name)

    @property
    def corruption_rate(self) -> float:
        """Per-frame corruption probability inside an open window."""
        return self._corruption.rate

    @corruption_rate.setter
    def corruption_rate(self, rate: float) -> None:
        self._corruption.rate = rate

    @property
    def corruption_injected(self) -> int:
        """Corrupted frames delivered by this fabric: steady-state link
        corruption (``FaultModel.corrupt_rate``) plus chaos windows."""
        return self._corruption.injected + sum(
            link.packets_corrupted for link in self._links()
        )

    # ------------------------------------------------------------------
    # Fault injection: gray slowdown windows (chaos "slow"/"revive")
    # ------------------------------------------------------------------
    def _set_slow(self, name: str, active: bool) -> None:
        for link in self._slow_links(name):
            slowdown = self._slowdowns.get(link.name)
            if slowdown is None:
                slowdown = self._slowdowns[link.name] = LinkSlowdown(
                    self._slow_label,
                    link.name,
                    multiplier=self.slow_multiplier,
                    jitter_ns=self.slow_jitter_ns,
                )
                link.slowdown = slowdown
            slowdown.active = active

    def slow(self, name: str) -> None:
        """Gray failure: every link touching ``name`` gets slower (never
        lossy) until :meth:`revive` — the node stays alive and heartbeats
        keep answering, just late."""
        self._set_slow(name, True)

    def revive(self, name: str) -> None:
        self._set_slow(name, False)

    @property
    def packets_slowed(self) -> int:
        """Packets delivered late through an open slowdown window."""
        return sum(link.packets_slowed for link in self._links())


class SimFabric(_SimChaosFabric):
    """One rack on the deterministic simulator.

    Construction order matters for seed-for-seed reproducibility and
    mirrors the pre-runtime services exactly: the simulator exists first,
    the switch is installed (building the star topology), then hosts
    attach in order, each deriving its two per-link fault models.
    """

    def __init__(
        self,
        bandwidth_gbps: Optional[float] = 100.0,
        latency_ns: int = 1_000,
        host_max_pps: Optional[float] = None,
        fault: Optional[FaultModel] = None,
        trace: Optional[PacketTrace] = None,
        ecn_threshold_bytes: Optional[int] = None,
        sim: Optional[Simulator] = None,
    ) -> None:
        super().__init__(sim, fault)
        self._params = dict(
            bandwidth_gbps=bandwidth_gbps,
            latency_ns=latency_ns,
            host_max_pps=host_max_pps,
            fault=fault,
            trace=trace,
            ecn_threshold_bytes=ecn_threshold_bytes,
        )
        self.topology: Optional[StarTopology] = None

    # ------------------------------------------------------------------
    def install_switch(self, switch: Node) -> None:
        """Create the star around ``switch`` and bind the switch to it."""
        if self.topology is not None:
            raise RuntimeError("fabric already has a switch installed")
        self.topology = StarTopology(self.sim, switch, **self._params)
        bind = getattr(switch, "bind", None)
        if bind is not None:
            bind(self)

    def _star(self) -> StarTopology:
        if self.topology is None:
            raise RuntimeError("install_switch() must run before fabric use")
        return self.topology

    # ------------------------------------------------------------------
    # Fabric interface
    # ------------------------------------------------------------------
    @property
    def host_names(self) -> list[str]:
        return [] if self.topology is None else self.topology.host_names

    def attach_host(self, host: Node) -> None:
        self._star().attach_host(host)

    def send_to_switch(self, host: str, packet: object, size_bytes: int) -> None:
        if host in self._partitioned:
            self.partition_drops += 1
            return
        star = self._star()
        packet = self._corruption.maybe_corrupt(packet, host, star.switch.name)
        star.send_to_switch(host, packet, size_bytes)

    def send_to_host(self, host: str, packet: object, size_bytes: int) -> None:
        star = self._star()
        packet = self._corruption.maybe_corrupt(
            packet, host, getattr(packet, "src", None)
        )
        star.send_to_host(host, packet, size_bytes)

    # ------------------------------------------------------------------
    # Chaos wiring: where things are in the star
    # ------------------------------------------------------------------
    def _node(self, name: str) -> NetworkNode:
        star = self._star()
        if name == star.switch.name:
            return star.switch
        return star.host(name)

    def _links(self) -> Iterator[Link]:
        if self.topology is None:
            return
        for port in self.topology._uplinks.values():  # noqa: SLF001
            yield port.link
        for port in self.topology._downlinks.values():  # noqa: SLF001
            yield port.link

    def _slow_links(self, name: str) -> Iterator[Link]:
        star = self._star()
        if name == star.switch.name:
            yield from self._links()
        else:
            yield star._uplinks[name].link  # noqa: SLF001
            yield star._downlinks[name].link  # noqa: SLF001


class SimMultiRackFabric(_SimChaosFabric):
    """The §7 multi-rack fabric on the deterministic simulator.

    The single-rack :class:`Fabric` surface applies per rack through the
    :class:`~repro.net.multirack.RackView` each switch binds to; host
    uplinks route by the host's rack, so ``send_to_switch`` keeps the
    single-rack signature.
    """

    def __init__(
        self,
        bandwidth_gbps: Optional[float] = 100.0,
        latency_ns: int = 1_000,
        core_bandwidth_gbps: Optional[float] = 400.0,
        core_latency_ns: int = 2_000,
        host_max_pps: Optional[float] = None,
        fault: Optional[FaultModel] = None,
        trace: Optional[PacketTrace] = None,
        ecn_threshold_bytes: Optional[int] = None,
        sim: Optional[Simulator] = None,
    ) -> None:
        super().__init__(sim, fault)
        self.topology = MultiRackTopology(
            self.sim,
            bandwidth_gbps=bandwidth_gbps,
            latency_ns=latency_ns,
            core_bandwidth_gbps=core_bandwidth_gbps,
            core_latency_ns=core_latency_ns,
            host_max_pps=host_max_pps,
            fault=fault,
            trace=trace,
            ecn_threshold_bytes=ecn_threshold_bytes,
        )
        self._host_rack: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def install_switch(
        self, switch: Node, rack: str, spine: Optional[str] = None
    ) -> RackView:
        """Create ``rack`` around ``switch``, wire links, bind.  With
        ``spine`` the rack hangs under that (already installed) spine
        instead of joining the flat pairwise core mesh."""
        view = self.topology.add_rack(rack, switch, spine=spine)
        bind = getattr(switch, "bind", None)
        if bind is not None:
            bind(view)
        return view

    def install_spine(self, switch: Node) -> "SpineView":
        """Declare a spine switch (tree deployments) and bind its view."""
        view = self.topology.add_spine(switch)
        bind = getattr(switch, "bind", None)
        if bind is not None:
            bind(view)
        return view

    def attach_host(self, host: Node, rack: Optional[str] = None) -> None:
        if rack is None:
            raise ValueError("a multi-rack fabric needs the host's rack")
        self.topology.attach_host(rack, host)
        self._host_rack[host.name] = rack

    # ------------------------------------------------------------------
    @property
    def host_names(self) -> list[str]:
        return self.topology.host_names

    def rack_of_host(self, host: str) -> str:
        return self.topology.rack_of_host(host)

    def send_to_switch(self, host: str, packet: object, size_bytes: int) -> None:
        if host in self._partitioned:
            self.partition_drops += 1
            return
        # Chaos corruption windows apply at the host uplink (frames the
        # target sends, or frames addressed to it, break on their first
        # hop); switch-egress traffic routes through per-rack RackViews
        # and relies on the per-link ``FaultModel.corrupt_rate`` instead.
        packet = self._corruption.maybe_corrupt(
            packet, host, getattr(packet, "dst", None)
        )
        self.topology.send_to_switch(host, packet, size_bytes)

    def send_to_host(self, host: str, packet: object, size_bytes: int) -> None:
        """Route from the host's own TOR (used by tests/tools; switches
        route through their bound :class:`RackView` instead)."""
        self.topology.route_from_switch(
            self.topology.rack_of_host(host), host, packet, size_bytes
        )

    # ------------------------------------------------------------------
    # Chaos wiring: where things are in the multi-rack topology
    # ------------------------------------------------------------------
    def _node(self, name: str) -> NetworkNode:
        topo = self.topology
        if name in topo._switch_rack:  # noqa: SLF001 - fabric owns its topology
            return topo.switch_of(topo.rack_of_switch(name))
        if name in topo._spine_switches:  # noqa: SLF001
            return topo.spine_node(name)
        return topo.host_node(name)

    def _links(self) -> Iterator[Link]:
        topo = self.topology
        for star in topo._stars.values():  # noqa: SLF001 - fabric owns topology
            for port in star._uplinks.values():  # noqa: SLF001
                yield port.link
            for port in star._downlinks.values():  # noqa: SLF001
                yield port.link
        for nic in topo._core_links.values():  # noqa: SLF001
            yield nic.link
        for nic in topo._up_nics.values():  # noqa: SLF001
            yield nic.link
        for nic in topo._down_nics.values():  # noqa: SLF001
            yield nic.link
        for nic in topo._spine_core.values():  # noqa: SLF001
            yield nic.link

    def _slow_links(self, name: str) -> Iterator[Link]:
        """Star links of ``name``'s rack plus any interconnect links it
        terminates; for a host, just its own uplink and downlink."""
        topo = self.topology
        if name in topo._switch_rack:  # noqa: SLF001 - fabric owns topology
            rack = topo.rack_of_switch(name)
            endpoint = ("rack", rack)
        elif name in topo._spine_switches:  # noqa: SLF001
            rack = None
            endpoint = ("spine", name)
        else:
            rack = topo.rack_of_host(name)
            star = topo._stars[rack]  # noqa: SLF001
            yield star._uplinks[name].link  # noqa: SLF001
            yield star._downlinks[name].link  # noqa: SLF001
            return
        if rack is not None:
            star = topo._stars[rack]  # noqa: SLF001
            for port in star._uplinks.values():  # noqa: SLF001
                yield port.link
            for port in star._downlinks.values():  # noqa: SLF001
                yield port.link
        for _name, src, dst, nic in topo.interconnect_links():
            if src == endpoint or dst == endpoint:
                yield nic.link
