"""Rack topology: per-rack ASK TOR switches, one rack, flat mesh or spine–leaf.

Every deployment, on either backend, is one :class:`MultiRackTopology`.
Every host is wired to its rack's TOR switch by an uplink and a
downlink.  One rack is the spineless case with no interconnect at all.
Racks interconnect one of two ways:

Flat mesh (the §7 deployment, a depth-1 tree)
    TOR switches are wired pairwise with (faster, wider) core links.  This
    is the historical layout and stays byte-identical: no spine state is
    created and every routing decision takes the pre-tree code path.

Spine–leaf tree
    Racks are grouped into pods, each pod served by one spine switch
    (:meth:`MultiRackTopology.add_spine`); a rack's TOR (its *leaf*) has
    an uplink/downlink pair to its pod's spine and spines interconnect
    pairwise.  Inter-rack paths traverse spine nodes — leaf → spine
    [→ spine] → leaf → host — instead of the flat core mesh, which is
    what lets a spine ``AskSwitch`` act as a combiner for
    already-partially-aggregated slots.

Each switch sees the fabric through a view — ``host_names`` (the §7
bypass rule keys on it; empty for spines) and ``send_to_host`` (which
transparently routes anywhere, including control packets addressed to a
remote switch by name).

Every direction of every cable is one wire, filed in one registry under
its stable name (``<host>->switch``, ``switch-><host>``,
``core:<a>-><b>``, ``up:<rack>-><spine>``, ``down:<spine>-><rack>``)
with its ``(src, dst)`` endpoint tags (``("host"|"rack"|"spine",
name)``).  Only the wire differs by backend: a simulated
:class:`~repro.net.link.Link`, or a UDP datagram wire
(:mod:`repro.runtime.asyncio_fabric`).  Both carry the same per-link
counters (``packets_sent``, ``bytes_sent``, ``packets_dropped``,
``packets_duplicated``, ``packets_corrupted``, ``packets_slowed``).
Routing, fault injection, the chaos windows, sharding and reports all
look links up there.

Link fault streams derive from those names — a host link's under
``rack:<rack>`` — so they do not depend on wiring order.  A topology
built for one spineless rack (:attr:`MultiRackTopology.one_rack`) is the
exception: its host links draw from the template itself.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple

from repro.core.errors import TopologyError
from repro.net.fault import CorruptedFrame, FaultModel, LinkSlowdown
from repro.net.link import DeliverFn, Link
from repro.net.simulator import Simulator
from repro.net.topology import NetworkNode
from repro.net.trace import PacketTrace

#: Bandwidth of every switch-to-switch (core, up, down) link.
CORE_BANDWIDTH_GBPS = 400.0

#: A link endpoint: ``("host"|"rack"|"spine", name)``.
Endpoint = Tuple[str, str]
#: One registry row: ``(name, src, dst, link)``; ``link`` is the wire the
#: backend filed (see :class:`MultiRackTopology`).
Wire = Tuple[str, Endpoint, Endpoint, Any]
#: A backend's wire constructor: ``(name, src, dst, fault) -> wire``.
WireFn = Callable[[str, Endpoint, Endpoint, Optional[FaultModel]], Any]


class RackView:
    """One TOR (leaf) switch's view of the fabric.

    Implements the topology interface :class:`~repro.switch.switch.AskSwitch`
    binds to: local ``host_names`` plus ``send_to_host`` that routes
    anywhere (local downlink, core link, or up the tree).
    """

    def __init__(self, fabric: "MultiRackTopology", rack: str) -> None:
        self._fabric = fabric
        self.rack = rack

    @property
    def host_names(self) -> list[str]:
        return self._fabric.hosts_of(self.rack)

    def send_to_host(self, destination: str, packet: Any, size_bytes: int) -> None:
        self._fabric.route_from_switch(self.rack, destination, packet, size_bytes)


class SpineView:
    """A spine switch's view of the fabric.

    A spine has no directly attached hosts — ``host_names`` is empty, so
    the §7 "src is local" rule never fires there and the combiner rule
    (region ``sources``) is what admits packets to the program.
    """

    def __init__(self, fabric: "MultiRackTopology", spine: str) -> None:
        self._fabric = fabric
        self.spine = spine

    @property
    def host_names(self) -> list[str]:
        return []

    def send_to_host(self, destination: str, packet: Any, size_bytes: int) -> None:
        self._fabric.route_from_spine(self.spine, destination, packet, size_bytes)


class ShardPlan:
    """A rack-cut partition of a multi-rack topology.

    ``shards`` maps shard name → the racks (and, for trees, the spines)
    that shard owns.  Shard *rank* is the position in declaration order;
    ranks feed the composite order tickets of
    :meth:`~repro.net.simulator.Simulator.enable_shard_order`, so the plan
    itself — like link names — is part of the determinism contract and
    must be identical in every shard process.

    Construction validates the plan shape (duplicate shard names,
    double-assigned or empty shards); :meth:`validate` checks it against a
    concrete topology (unknown/missing racks and spines).
    """

    def __init__(
        self,
        shards: Sequence[tuple[str, Sequence[str], Sequence[str]]],
    ) -> None:
        #: (shard name, racks, spines) per shard, rank order.
        self.shards: list[tuple[str, tuple[str, ...], tuple[str, ...]]] = []
        self._rack_rank: Dict[str, int] = {}
        self._spine_rank: Dict[str, int] = {}
        names: set[str] = set()
        for rank, (name, racks, spines) in enumerate(shards):
            if name in names:
                raise TopologyError(f"duplicate shard name {name!r}", name)
            names.add(name)
            racks = tuple(racks)
            spines = tuple(spines)
            if not racks:
                raise TopologyError(f"shard {name!r} owns no racks", name)
            for rack in racks:
                if rack in self._rack_rank:
                    raise TopologyError(
                        f"rack {rack!r} assigned to two shards", rack
                    )
                self._rack_rank[rack] = rank
            for spine in spines:
                if spine in self._spine_rank:
                    raise TopologyError(
                        f"spine {spine!r} assigned to two shards", spine
                    )
                self._spine_rank[spine] = rank
            self.shards.append((name, racks, spines))
        if not self.shards:
            raise TopologyError("a shard plan needs at least one shard", "")

    def __len__(self) -> int:
        return len(self.shards)

    @property
    def names(self) -> list[str]:
        return [name for name, _, _ in self.shards]

    def rank_of_rack(self, rack: str) -> int:
        try:
            return self._rack_rank[rack]
        except KeyError:
            raise TopologyError(f"rack {rack!r} is not in the shard plan", rack) from None

    def rank_of_spine(self, spine: str) -> int:
        try:
            return self._spine_rank[spine]
        except KeyError:
            raise TopologyError(
                f"spine {spine!r} is not in the shard plan", spine
            ) from None

    def rank_of(self, endpoint: tuple[str, str]) -> int:
        """Rank of a boundary-link endpoint: ``("rack"|"spine", name)``."""
        kind, name = endpoint
        return self.rank_of_rack(name) if kind == "rack" else self.rank_of_spine(name)

    def validate(self, topology: "MultiRackTopology") -> None:
        """Check the plan covers ``topology`` exactly (racks and spines)."""
        planned_racks = set(self._rack_rank)
        actual_racks = set(topology.racks)
        for rack in sorted(planned_racks - actual_racks):
            raise TopologyError(f"shard plan names unknown rack {rack!r}", rack)
        for rack in sorted(actual_racks - planned_racks):
            raise TopologyError(f"rack {rack!r} is not in the shard plan", rack)
        planned_spines = set(self._spine_rank)
        actual_spines = set(topology.spine_names)
        for spine in sorted(planned_spines - actual_spines):
            raise TopologyError(f"shard plan names unknown spine {spine!r}", spine)
        for spine in sorted(actual_spines - planned_spines):
            raise TopologyError(f"spine {spine!r} is not in the shard plan", spine)


def plan_rack_shards(
    racks: Sequence[str],
    count: int,
    spine_of: Optional[Dict[str, str]] = None,
    spread_spines: bool = False,
) -> ShardPlan:
    """Partition ``racks`` (declaration order) into ``count`` contiguous,
    balanced shards named ``shard0..shardN-1``.

    Spines follow their pod by default — a spine is owned by the shard of
    the first rack hanging under it, so spine-resident aggregation state
    (placement ``"spine"``/``"both"``) stays co-resident with its pod when
    pods are not split across shards.  ``spread_spines=True`` instead
    deals spines round-robin across shards: the right call for
    transit-only spines (placement ``"leaf"``), where it turns the spine
    mesh itself into cross-shard parallelism.
    """
    racks = list(racks)
    if count < 1:
        raise TopologyError(f"shard count must be >= 1, got {count}", str(count))
    if count > len(racks):
        raise TopologyError(
            f"cannot cut {len(racks)} rack(s) into {count} shards", str(count)
        )
    base, extra = divmod(len(racks), count)
    groups: list[list[str]] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        groups.append(racks[start:start + size])
        start += size
    spine_ranks: Dict[str, int] = {}
    if spine_of:
        spines = list(dict.fromkeys(spine_of.values()))
        if spread_spines:
            for index, spine in enumerate(spines):
                spine_ranks[spine] = index % count
        else:
            rack_rank = {
                rack: rank for rank, group in enumerate(groups) for rack in group
            }
            for spine in spines:
                first = next(r for r in racks if spine_of.get(r) == spine)
                spine_ranks[spine] = rack_rank[first]
    return ShardPlan(
        [
            (
                f"shard{rank}",
                group,
                tuple(s for s, r in spine_ranks.items() if r == rank),
            )
            for rank, group in enumerate(groups)
        ]
    )


class MultiRackTopology:
    """Racks of hosts behind per-rack switches: one rack, flat mesh or
    spine–leaf.

    ``wire`` is the backend's wire constructor, called once per link at
    build time as ``wire(name, src, dst, fault)``; what it returns is
    filed under ``name``.  Without one the topology builds a
    :class:`~repro.net.link.Link` on ``sim`` from the bandwidth, latency
    and host-rate arguments, which only that default reads.
    """

    def __init__(
        self,
        sim: Optional[Simulator],
        bandwidth_gbps: Optional[float] = 100.0,
        latency_ns: int = 1_000,
        core_latency_ns: int = 2_000,
        host_max_pps: Optional[float] = None,
        fault: Optional[FaultModel] = None,
        trace: Optional[PacketTrace] = None,
        ecn_threshold_bytes: Optional[int] = None,
        wire: Optional[WireFn] = None,
    ) -> None:
        self.sim = sim
        self.bandwidth_gbps = bandwidth_gbps
        self.latency_ns = latency_ns
        self.core_latency_ns = core_latency_ns
        self.host_max_pps = host_max_pps
        self._fault_template = fault
        self.trace = trace
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self._new_wire: WireFn = wire if wire is not None else self._link
        #: Every link, by stable name, with its endpoint tags.
        self._links: Dict[str, tuple[Endpoint, Endpoint, Any]] = {}
        self._switches: Dict[str, NetworkNode] = {}  # rack -> leaf switch
        self._switch_rack: Dict[str, str] = {}  # leaf switch name -> rack
        self._rack_hosts: Dict[str, list[str]] = {}
        self._hosts: Dict[str, NetworkNode] = {}
        self._host_rack: Dict[str, str] = {}
        # Spine–leaf state (all empty in the flat depth-1 layout).
        self._spine_switches: Dict[str, NetworkNode] = {}  # spine name -> node
        self._rack_spine: Dict[str, str] = {}  # rack -> spine switch name
        #: The fault-stream naming rule (see :meth:`attach_host`).  The
        #: deployment builder sets it for a layout of one spineless rack.
        self.one_rack = False
        # Chaos windows (see partition, corrupt and slow), seeded from
        # the fault template so a chaos run replays under its seed.
        seed = fault.seed if fault is not None else 0
        self._partitioned: set[str] = set()
        #: Frames dropped at a partitioned host's egress (its ingress
        #: drops are counted on the node itself).
        self.partition_drops = 0
        self._corrupting: set[str] = set()
        #: Per-frame corruption probability inside an open window.
        self.corruption_rate = 0.5
        #: Frames a corruption window damaged (link faults not included).
        self.window_corruptions = 0
        self._corrupt_label = f"{seed}:chaos-corrupt"
        self._corrupt_rngs: Dict[str, random.Random] = {}
        #: Slowdown strength for every link a ``slow`` window opens on;
        #: set before the first window, the links keep what they got.
        self.slow_multiplier = 4.0
        self.slow_jitter_ns = 0
        self._slow_label = f"{seed}:chaos-slow"

    # ------------------------------------------------------------------
    def _wire(
        self, name: str, src: Endpoint, dst: Endpoint, fault: Optional[FaultModel] = None
    ) -> None:
        """File the backend's wire for one link direction under ``name``.
        A host link takes the ``fault`` it is given; a switch-to-switch
        link draws its fault stream from the template under its own
        name, so core streams do not depend on rack creation order."""
        if name in self._links:
            raise TopologyError(f"link {name!r} already exists", name)
        if src[0] != "host" and dst[0] != "host" and self._fault_template is not None:
            fault = self._fault_template.derive(name)
        self._links[name] = (src, dst, self._new_wire(name, src, dst, fault))

    def _link(
        self, name: str, src: Endpoint, dst: Endpoint, fault: Optional[FaultModel]
    ) -> Link:
        """The simulator's wire: a :class:`Link` at the host rate (an
        uplink under the host pps cap) or the core rate, delivering to
        the node ``dst`` names; a host link also records ``"rx"``."""
        sim = self.sim
        if sim is None:
            raise TopologyError("a topology without a wire constructor needs a simulator", name)
        node = self.node_at(dst)
        if src[0] == "host" or dst[0] == "host":
            bandwidth, latency = self.bandwidth_gbps, self.latency_ns
            deliver = self._host_receive(sim, name, node)
        else:
            bandwidth, latency = CORE_BANDWIDTH_GBPS, self.core_latency_ns
            deliver = node.receive
        return Link(
            sim,
            bandwidth,
            latency,
            fault=fault,
            name=name,
            ecn_threshold_bytes=self.ecn_threshold_bytes,
            deliver=deliver,
            max_pps=self.host_max_pps if src[0] == "host" else None,
            trace=self.trace,
        )

    def _host_receive(self, sim: Simulator, name: str, node: NetworkNode) -> DeliverFn:
        """A host link's far end; it also records ``"rx"`` under a trace."""
        trace = self.trace
        if trace is None:
            return node.receive
        receive = node.receive

        def deliver(packet: Any) -> None:
            trace.record(sim.now, name, "rx", packet)
            receive(packet)

        return deliver

    def _claim(self, name: str) -> None:
        """Refuse a second node called ``name``: names address frames."""
        if name in self._host_rack or name in self._switch_rack or name in self._spine_switches:
            raise TopologyError(f"node {name!r} already placed", name)

    # ------------------------------------------------------------------
    def add_spine(self, switch: NetworkNode) -> SpineView:
        """Declare a spine switch, wiring pairwise core links to every
        existing spine.  Spines must be declared before their racks."""
        name = switch.name
        self._claim(name)
        if len(self._rack_spine) != len(self._switches):
            raise TopologyError(
                "cannot add a spine to a flat multi-rack topology: existing "
                "racks were wired into the pairwise core mesh",
                name,
            )
        self._spine_switches[name] = switch
        spine = ("spine", name)
        for other in self._spine_switches:
            if other != name:
                self._wire(f"core:{name}->{other}", spine, ("spine", other))
                self._wire(f"core:{other}->{name}", ("spine", other), spine)
        return SpineView(self, name)

    def add_rack(
        self, rack: str, switch: NetworkNode, spine: Optional[str] = None
    ) -> RackView:
        """Create a rack around ``switch`` and return the switch's fabric
        view.  Without ``spine`` the rack joins the flat pairwise core
        mesh; with ``spine`` it hangs under that (already declared) spine
        and inter-rack traffic routes up the tree."""
        if rack in self._switches:
            raise TopologyError(f"rack {rack!r} already exists", rack)
        self._claim(switch.name)
        if spine is None and self._spine_switches:
            raise TopologyError(
                f"rack {rack!r} needs a spine: this topology is spine–leaf",
                rack,
            )
        if spine is not None and spine not in self._spine_switches:
            raise TopologyError(f"unknown spine {spine!r}", spine)
        if self.one_rack and (self._switches or spine is not None):
            raise TopologyError(
                f"rack {rack!r}: this topology holds one spineless rack", rack
            )
        self._switches[rack] = switch
        self._switch_rack[switch.name] = rack
        self._rack_hosts[rack] = []
        tor = ("rack", rack)
        if spine is None:
            for other in self._switches:
                if other != rack:
                    self._wire(f"core:{rack}->{other}", tor, ("rack", other))
                    self._wire(f"core:{other}->{rack}", ("rack", other), tor)
        else:
            self._rack_spine[rack] = spine
            self._wire(f"up:{rack}->{spine}", tor, ("spine", spine))
            self._wire(f"down:{spine}->{rack}", ("spine", spine), tor)
        return RackView(self, rack)

    def attach_host(self, rack: str, host: NetworkNode) -> None:
        """Wire ``host`` to ``rack``'s TOR with one uplink and one downlink.

        Fault-stream naming: each host link derives its stream from its
        own name under ``rack:<rack>``, so racks differ but stay
        reproducible and independent of the order racks were added.  A
        layout of one spineless rack (``one_rack``) instead draws from
        the template itself, as ``fault.derive("h0->switch")``: the names
        every one-rack schedule has always been drawn with.
        """
        name = host.name
        self._claim(name)
        if rack not in self._switches:
            raise TopologyError(f"unknown rack {rack!r}", rack)
        template = self._fault_template
        if template is not None and not self.one_rack:
            template = template.derive(f"rack:{rack}")
        self._hosts[name] = host
        self._host_rack[name] = rack
        self._rack_hosts[rack].append(name)
        up, down = f"{name}->switch", f"switch->{name}"
        end, tor = ("host", name), ("rack", rack)
        self._wire(up, end, tor, None if template is None else template.derive(up))
        self._wire(down, tor, end, None if template is None else template.derive(down))

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def hosts_of(self, rack: str) -> list[str]:
        return list(self._rack_hosts[rack])

    def rack_of_host(self, host: str) -> str:
        try:
            return self._host_rack[host]
        except KeyError:
            raise TopologyError(f"unknown host {host!r}", host) from None

    def host_node(self, host: str) -> NetworkNode:
        """The attached node object for ``host`` (fault injection)."""
        self.rack_of_host(host)
        return self._hosts[host]

    def _endpoint(self, name: str) -> Endpoint:
        """The endpoint tag of the host, TOR or spine called ``name``."""
        if name in self._host_rack:
            return ("host", name)
        if name in self._spine_switches:
            return ("spine", name)
        if name in self._switch_rack:
            return ("rack", self._switch_rack[name])
        raise TopologyError(f"unknown node {name!r}", name)

    def node_at(self, endpoint: Endpoint) -> NetworkNode:
        """The node behind an endpoint tag."""
        kind, name = endpoint
        if kind == "host":
            return self._hosts[name]
        if kind == "rack":
            return self._switches[name]
        return self._spine_switches[name]

    def node(self, name: str) -> NetworkNode:
        """The host, TOR or spine switch called ``name``."""
        return self.node_at(self._endpoint(name))

    def nodes(self) -> Iterator[NetworkNode]:
        """Every spine, TOR and host, each kind in wiring order."""
        yield from self._spine_switches.values()
        yield from self._switches.values()
        yield from self._hosts.values()

    def uplink(self, host: str) -> Any:
        """The host→TOR link of ``host``."""
        self.rack_of_host(host)
        return self._links[f"{host}->switch"][2]

    def downlink(self, host: str) -> Any:
        """The TOR→host link of ``host``."""
        self.rack_of_host(host)
        return self._links[f"switch->{host}"][2]

    def rack_of_switch(self, switch_name: str) -> str:
        return self._switch_rack[switch_name]

    def spine_of_rack(self, rack: str) -> Optional[str]:
        """The rack's spine switch name (None in the flat layout)."""
        return self._rack_spine.get(rack)

    def spine_node(self, spine: str) -> NetworkNode:
        return self._spine_switches[spine]

    @property
    def racks(self) -> list[str]:
        return list(self._switches)

    @property
    def spine_names(self) -> list[str]:
        return list(self._spine_switches)

    @property
    def host_names(self) -> list[str]:
        return list(self._host_rack)

    # ------------------------------------------------------------------
    # The link registry
    # ------------------------------------------------------------------
    def links(self) -> Iterator[Wire]:
        """Every link as ``(name, src, dst, link)``: each host's uplink
        and downlink in attach order, then :meth:`interconnect_links`."""
        for name, (src, dst, link) in self._links.items():
            if src[0] == "host" or dst[0] == "host":
                yield name, src, dst, link
        yield from self.interconnect_links()

    def interconnect_links(self) -> Iterator[Wire]:
        """Every switch-to-switch link as ``(name, src, dst, link)``.

        Host links never appear here — a host always shares a shard with
        its rack's TOR, so only these fabric links can cross a shard cut.
        Order: rack mesh, uplinks, downlinks, spine mesh (the endpoint
        kinds sort that way), each in wiring order.  Names cannot collide:
        ``core:`` names are rack-pair names in the flat mesh and
        spine-pair names in a tree, and the two layouts are mutually
        exclusive by construction.
        """
        wires = [
            (name, src, dst, link)
            for name, (src, dst, link) in self._links.items()
            if src[0] != "host" and dst[0] != "host"
        ]
        wires.sort(key=lambda wire: (wire[1][0], wire[2][0]))
        return iter(wires)

    def link_total(self, counter: str) -> int:
        """One per-link counter (``packets_sent``, ``bytes_sent``,
        ``packets_dropped``, ``packets_duplicated``, ``packets_corrupted``
        or ``packets_slowed``) summed over the registry."""
        return int(sum(getattr(link, counter) for _src, _dst, link in self._links.values()))

    # ------------------------------------------------------------------
    # Data movement
    # ------------------------------------------------------------------
    def _send(self, name: str, packet: Any, size_bytes: int) -> None:
        self._links[name][2].send(packet, size_bytes)

    def send_to_switch(self, host: str, packet: Any, size_bytes: int) -> None:
        """Host uplink: ``host``'s frame toward its own TOR (its leaf).

        Every frame enters the fabric here, so this is where a
        partitioned host's egress is dropped and where corruption
        windows act (see :meth:`corrupt`).
        """
        if host in self._partitioned:
            self.partition_drops += 1
            return
        uplink = self._links[f"{host}->switch"][2]
        if self._corrupting:
            packet = self._maybe_corrupt(host, packet, uplink)
        uplink.send(packet, size_bytes)

    def route_from_switch(
        self, rack: str, destination: str, packet: Any, size_bytes: int
    ) -> None:
        """Route a packet leaving ``rack``'s (leaf) switch toward
        ``destination`` — a host, a remote switch, or a spine by name."""
        if destination in self._switch_rack:
            target_rack = self._switch_rack[destination]
            if target_rack == rack:
                # Addressed to this very switch; deliver directly (a swap
                # notification that was routed here).
                self._switches[rack].receive(packet)
                return
        elif destination in self._spine_switches:
            # Control traffic addressed to a spine: up the tree.
            self._send(f"up:{rack}->{self._rack_spine[rack]}", packet, size_bytes)
            return
        else:
            if destination not in self._host_rack:
                raise TopologyError(f"unknown destination {destination!r}", destination)
            target_rack = self._host_rack[destination]
            if target_rack == rack:
                self._send(f"switch->{destination}", packet, size_bytes)
                return
        if rack in self._rack_spine:
            self._send(f"up:{rack}->{self._rack_spine[rack]}", packet, size_bytes)
        else:
            self._send(f"core:{rack}->{target_rack}", packet, size_bytes)

    def route_from_spine(
        self, spine: str, destination: str, packet: Any, size_bytes: int
    ) -> None:
        """Route a packet leaving ``spine`` toward ``destination`` — down
        to a pod leaf/host, across the spine mesh, or to itself."""
        if destination == spine:
            self._spine_switches[spine].receive(packet)
            return
        if destination in self._spine_switches:
            self._send(f"core:{spine}->{destination}", packet, size_bytes)
            return
        if destination in self._switch_rack:
            rack = self._switch_rack[destination]
        else:
            if destination not in self._host_rack:
                raise TopologyError(f"unknown destination {destination!r}", destination)
            rack = self._host_rack[destination]
        target_spine = self._rack_spine[rack]
        if target_spine == spine:
            self._send(f"down:{spine}->{rack}", packet, size_bytes)
        else:
            self._send(f"core:{spine}->{target_spine}", packet, size_bytes)

    # ------------------------------------------------------------------
    # Chaos windows: one rule on every backend; only the damage a frame
    # takes is its wire's (``damage``, ``slowdown``).
    # ------------------------------------------------------------------
    def partition(self, name: str) -> None:
        """Cut ``name`` off: a host's egress is dropped by
        :meth:`send_to_switch` (counted in :attr:`partition_drops`) and
        every node's ingress at the node.  A partitioned *switch* still
        flushes frames already in its pipeline — exactly the asymmetry a
        real link flap exhibits."""
        node = self.node(name)
        self._partitioned.add(name)
        node.set_partitioned(True)

    def heal(self, name: str) -> None:
        node = self.node(name)
        self._partitioned.discard(name)
        node.set_partitioned(False)

    def corrupt(self, name: str) -> None:
        """Open a corruption window on ``name`` until :meth:`cleanse`.

        A frame is at risk when its sending host, that host's TOR or
        ``packet.dst`` is in a window; a window on a TOR therefore breaks
        every frame its rack's hosts send, on one rack, a mesh or a tree
        alike.  Each frame at risk is damaged, by its uplink's
        ``damage``, with probability :attr:`corruption_rate`.  Switch
        egress is left to the per-link ``FaultModel.corrupt_rate``.

        Draws come from per-*host* streams ``{seed}:chaos-corrupt:{host}``,
        apart from the link fault streams.  A fabric-wide stream would
        interleave draws in global packet order, which a rack-sharded run
        cannot reproduce; a host's own send order is identical serial and
        sharded, so the shards' :attr:`window_corruptions` sum to the
        serial count draw for draw.
        """
        self._corrupting.add(name)

    def cleanse(self, name: str) -> None:
        self._corrupting.discard(name)

    def _maybe_corrupt(self, host: str, packet: Any, uplink: Any) -> Any:
        targets = self._corrupting
        tor = self._switches[self._host_rack[host]].name
        if type(packet) is CorruptedFrame or not (
            host in targets or tor in targets or getattr(packet, "dst", None) in targets
        ):
            return packet
        rng = self._corrupt_rngs.get(host)
        if rng is None:
            rng = self._corrupt_rngs[host] = random.Random(f"{self._corrupt_label}:{host}")
        if rng.random() >= self.corruption_rate or not hasattr(packet, "bitmap"):
            return packet
        self.window_corruptions += 1
        return uplink.damage(packet, rng)

    @property
    def corruption_injected(self) -> int:
        """Corrupted frames this fabric sent: corruption windows plus
        per-link ``FaultModel.corrupt_rate`` draws."""
        return self.window_corruptions + self.link_total("packets_corrupted")

    def _set_slow(self, name: str, active: bool) -> None:
        """Open or close the slowdown on every link ``name`` terminates
        (both of a host's links; a TOR's host links included)."""
        endpoint = self._endpoint(name)
        for link_name, (src, dst, link) in self._links.items():
            if endpoint == src or endpoint == dst:
                if link.slowdown is None:
                    link.slowdown = LinkSlowdown(
                        self._slow_label,
                        link_name,
                        multiplier=self.slow_multiplier,
                        jitter_ns=self.slow_jitter_ns,
                    )
                link.slowdown.active = active

    def slow(self, name: str) -> None:
        """Gray failure: every link touching ``name`` gets slower (never
        lossy) until :meth:`revive` — the node stays alive and heartbeats
        keep answering, just late.  Each link keeps one
        :class:`~repro.net.fault.LinkSlowdown`, jitter stream
        ``{seed}:chaos-slow:{link}``, across windows."""
        self._set_slow(name, True)

    def revive(self, name: str) -> None:
        self._set_slow(name, False)
