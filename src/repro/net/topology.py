"""Topology wiring: hosts connected to one top-of-rack switch.

The paper deploys ASK on a TOR switch serving the hosts of one rack (§7,
"Deployment in Multi-rack networks").  :class:`StarTopology` builds exactly
that: N hosts, each with an uplink to and a downlink from the switch, every
link owning its own fault model so tests can, e.g., make only the
switch→receiver direction lossy.  It is the per-rack part of
:class:`~repro.net.multirack.MultiRackTopology`, which every simulated
deployment — one rack included — is built on.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.net.fault import FaultModel
from repro.net.link import Link
from repro.net.nic import Nic
from repro.net.simulator import Simulator
from repro.net.trace import PacketTrace


class NetworkNode:
    """Base class for anything attached to the network.

    Subclasses override :meth:`receive`.  Sending goes through the port
    objects handed out by the topology.

    Failure-domain lifecycle: :meth:`crash`/:meth:`restore` model a
    fail-stop process, :meth:`set_partitioned` a severed network
    attachment.  Both fold into the single ``_offline`` flag that
    receive paths test (one branch per packet); subclasses that override
    ``crash``/``restore`` must call ``super()`` to keep it coherent.
    Frames arriving while offline are counted in ``dropped_while_down``
    by the subclass receive path — the chaos report reads the counter.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._crashed = False
        self._partitioned = False
        self._offline = False
        self.dropped_while_down = 0

    @property
    def is_up(self) -> bool:
        return not self._crashed

    def crash(self) -> None:
        """Fail-stop: the node goes dark until :meth:`restore`."""
        self._crashed = True
        self._offline = True

    def restore(self) -> None:
        """Bring a crashed node back (subclasses add state recovery)."""
        self._crashed = False
        self._offline = self._partitioned

    def set_partitioned(self, partitioned: bool) -> None:
        self._partitioned = partitioned
        self._offline = self._crashed or partitioned

    def receive(self, packet: Any) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class _Port:
    """A unidirectional attachment: NIC shaper + link + fixed destination."""

    def __init__(self, nic: Nic, destination: NetworkNode, trace: Optional[PacketTrace], name: str):
        self.nic = nic
        self.destination = destination
        self.trace = trace
        self.name = name

    def send(self, packet: Any, size_bytes: int) -> None:
        if self.trace is not None:
            self.trace.record(self.nic.sim.now, self.name, "tx", packet)
        self.nic.send(packet, size_bytes, self._deliver)

    def _deliver(self, packet: Any) -> None:
        if self.trace is not None:
            self.trace.record(self.nic.sim.now, self.name, "rx", packet)
        self.destination.receive(packet)

    @property
    def link(self) -> Link:
        return self.nic.link


class StarTopology:
    """N hosts wired to a single switch node.

    Parameters
    ----------
    sim:
        The simulator all links schedule on.
    switch:
        The central node (an :class:`~repro.switch.switch.AskSwitch` in
        production use, anything with ``receive`` in tests).
    bandwidth_gbps / latency_ns / host_max_pps:
        Link parameters applied uniformly; individual links can be retuned
        afterwards through :meth:`uplink` / :meth:`downlink`.
    fault:
        Template fault model; each link gets an independent child derived
        with :meth:`~repro.net.fault.FaultModel.derive` keyed by the link
        name, so loss patterns differ per link, stay reproducible, and do
        not depend on the order hosts were attached.
    """

    def __init__(
        self,
        sim: Simulator,
        switch: NetworkNode,
        bandwidth_gbps: Optional[float] = 100.0,
        latency_ns: int = 1_000,
        host_max_pps: Optional[float] = None,
        fault: Optional[FaultModel] = None,
        trace: Optional[PacketTrace] = None,
        ecn_threshold_bytes: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.switch = switch
        self.bandwidth_gbps = bandwidth_gbps
        self.latency_ns = latency_ns
        self.host_max_pps = host_max_pps
        self._fault_template = fault
        self.trace = trace
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self._uplinks: Dict[str, _Port] = {}
        self._downlinks: Dict[str, _Port] = {}
        self._hosts: Dict[str, NetworkNode] = {}

    # ------------------------------------------------------------------
    def _make_fault(self, link_name: str) -> Optional[FaultModel]:
        if self._fault_template is None:
            return None
        return self._fault_template.derive(link_name)

    def attach_host(self, host: NetworkNode) -> None:
        """Wire ``host`` to the switch with one uplink and one downlink."""
        if host.name in self._hosts:
            raise ValueError(f"host {host.name!r} already attached")
        self._hosts[host.name] = host
        up_name = f"{host.name}->switch"
        down_name = f"switch->{host.name}"
        up_link = Link(
            self.sim,
            self.bandwidth_gbps,
            self.latency_ns,
            fault=self._make_fault(up_name),
            name=up_name,
            ecn_threshold_bytes=self.ecn_threshold_bytes,
        )
        down_link = Link(
            self.sim,
            self.bandwidth_gbps,
            self.latency_ns,
            fault=self._make_fault(down_name),
            name=down_name,
            ecn_threshold_bytes=self.ecn_threshold_bytes,
        )
        self._uplinks[host.name] = _Port(
            Nic(self.sim, up_link, self.host_max_pps), self.switch, self.trace, up_link.name
        )
        self._downlinks[host.name] = _Port(
            Nic(self.sim, down_link, None), host, self.trace, down_link.name
        )

    # ------------------------------------------------------------------
    def uplink(self, host_name: str) -> _Port:
        """The host→switch port for ``host_name``."""
        return self._uplinks[host_name]

    def downlink(self, host_name: str) -> _Port:
        """The switch→host port for ``host_name``."""
        return self._downlinks[host_name]

    def host(self, host_name: str) -> NetworkNode:
        return self._hosts[host_name]

    @property
    def host_names(self) -> list[str]:
        return list(self._hosts)

    def send_to_switch(self, host_name: str, packet: Any, size_bytes: int) -> None:
        self._uplinks[host_name].send(packet, size_bytes)

    def send_to_host(self, host_name: str, packet: Any, size_bytes: int) -> None:
        self._downlinks[host_name].send(packet, size_bytes)
