"""Discrete-event backend: the simulator stack behind the
:class:`~repro.runtime.interfaces.Fabric` / ``TaskRunner`` interfaces.

One fabric, :class:`SimFabric`, over one
:class:`~repro.net.multirack.MultiRackTopology`: one rack is its
spineless one-rack case, beside the flat mesh and the spine–leaf tree.
The wrapper adds **no** event hops and **no** extra scheduling — every
``send`` delegates straight into the topology's :class:`Link` for that
cable direction, so a fixed seed produces exactly the schedule, stats and
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
from repro.net.trace import PacketTrace
from repro.runtime.interfaces import Node


class _CorruptionWindow:
    """Chaos-driven corruption: while a node is in the window, frames
    put at risk by :meth:`SimFabric.send_to_switch` are corrupted with
    probability ``rate``.

    Orthogonal to the per-link :class:`FaultModel` streams (which model
    steady-state line noise): the window models an episode — a failing
    optic, a bad cable — that chaos schedules switch on (``corrupt``) and
    off (``cleanse``).  Draws come from dedicated ``random.Random``
    streams so opening a window never perturbs the link fault schedules.

    Streams are keyed per *sending host*, lazily created from
    ``"<seed_label>:<host>"``.  A fabric-wide stream would interleave
    draws in global packet order, which a rack-sharded run
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
        self, packet: object, host: str, tor: str, dst: Optional[str]
    ) -> object:
        targets = self.targets
        if type(packet) is CorruptedFrame or not (
            host in targets or tor in targets or dst in targets
        ):
            return packet
        rng = self._rngs.get(host)
        if rng is None:
            rng = self._rngs[host] = random.Random(f"{self._seed_label}:{host}")
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


class SimFabric:
    """An ASK deployment's racks on the deterministic simulator.

    Construction order matters for seed-for-seed reproducibility: the
    simulator exists first, then (in the builder's order) every spine,
    then per rack its switch and its hosts, each host deriving its two
    per-link fault models.  Switches route through the
    :class:`~repro.net.multirack.RackView` or
    :class:`~repro.net.multirack.SpineView` they bind to; hosts send
    through :meth:`send_to_switch`, which is also where partitions and
    chaos corruption windows act on a host's frames.
    """

    backend = "sim"

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
        self.sim = sim if sim is not None else Simulator()
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
        self._host_tor: Dict[str, str] = {}
        self._partitioned: set[str] = set()
        #: Frames dropped at a partitioned host's egress (its ingress
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
    # Wiring
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

    def install_spine(self, switch: Node) -> SpineView:
        """Declare a spine switch (tree deployments) and bind its view."""
        view = self.topology.add_spine(switch)
        bind = getattr(switch, "bind", None)
        if bind is not None:
            bind(view)
        return view

    def attach_host(self, host: Node, rack: str) -> None:
        self.topology.attach_host(rack, host)
        self._host_tor[host.name] = self.topology.switch_of(rack).name

    @property
    def host_names(self) -> list[str]:
        return self.topology.host_names

    # ------------------------------------------------------------------
    # Frame movement
    # ------------------------------------------------------------------
    def send_to_switch(self, host: str, packet: object, size_bytes: int) -> None:
        """Host uplink: ``host``'s frame toward its own TOR.

        Chaos corruption windows act here, where every frame enters the
        fabric: a frame is at risk when the sending host, that host's TOR
        or ``packet.dst`` is in a window.  A window on a TOR therefore
        breaks every frame its rack's hosts send, on one rack, a mesh or
        a tree alike.  Switch egress is left to the per-link
        ``FaultModel.corrupt_rate``.
        """
        if host in self._partitioned:
            self.partition_drops += 1
            return
        corruption = self._corruption
        if corruption.targets:
            packet = corruption.maybe_corrupt(
                packet, host, self._host_tor[host], getattr(packet, "dst", None)
            )
        self.topology.send_to_switch(host, packet, size_bytes)

    def _links(self) -> Iterator[Link]:
        """Every link: each host's uplink and downlink, then the
        interconnect (``bench/harness.py`` fingerprints through this)."""
        for _name, _src, _dst, link in self.topology.links():
            yield link

    # ------------------------------------------------------------------
    # Fault injection: network partitions (pure loss, nodes keep running)
    # ------------------------------------------------------------------
    def partition(self, name: str) -> None:
        """Cut ``name`` off: a host's egress is dropped here (counted in
        :attr:`partition_drops`) and every node's ingress at the node.  A
        partitioned *switch* still flushes frames already in its pipeline
        — exactly the asymmetry a real link flap exhibits."""
        self._partitioned.add(name)
        self.topology.node(name).set_partitioned(True)

    def heal(self, name: str) -> None:
        self._partitioned.discard(name)
        self.topology.node(name).set_partitioned(False)

    # ------------------------------------------------------------------
    # Fault injection: corruption windows (chaos "corrupt"/"cleanse")
    # ------------------------------------------------------------------
    def corrupt(self, name: str) -> None:
        """Open a corruption window on ``name`` until :meth:`cleanse`;
        :meth:`send_to_switch` says which frames it puts at risk (each
        corrupted with probability ``corruption_rate``)."""
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
    def _slow_links(self, name: str) -> Iterator[Link]:
        """The links a slowed ``name`` touches: both of a host's links; for
        a switch, every link it terminates (a TOR's host links included)."""
        topology = self.topology
        if name in self._host_tor:
            endpoint = ("host", name)
        elif name in topology.spine_names:
            endpoint = ("spine", name)
        else:
            topology.node(name)  # unknown names raise TopologyError
            endpoint = ("rack", topology.rack_of_switch(name))
        for _name, src, dst, link in topology.links():
            if endpoint in (src, dst):
                yield link

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
