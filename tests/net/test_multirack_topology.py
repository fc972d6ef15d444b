"""Unit tests for the multi-rack fabric wiring."""

import pytest

from repro.net.fault import FaultModel
from repro.net.multirack import MultiRackTopology
from repro.net.simulator import Simulator
from repro.net.topology import NetworkNode


class Sink(NetworkNode):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def _fabric(num_racks=2, hosts_per_rack=2, fault=None):
    sim = Simulator()
    fabric = MultiRackTopology(sim, bandwidth_gbps=None, latency_ns=10, fault=fault)
    switches, hosts = {}, {}
    for r in range(num_racks):
        rack = f"r{r}"
        switch = Sink(f"tor-{rack}")
        fabric.add_rack(rack, switch)
        switches[rack] = switch
        for h in range(hosts_per_rack):
            host = Sink(f"{rack}h{h}")
            fabric.attach_host(rack, host)
            hosts[host.name] = host
    return sim, fabric, switches, hosts


def test_host_uplink_reaches_local_tor():
    sim, fabric, switches, hosts = _fabric()
    fabric.send_to_switch("r0h0", "pkt", 64)
    sim.run()
    assert switches["r0"].received == ["pkt"]
    assert switches["r1"].received == []


def test_route_to_local_host_uses_downlink():
    sim, fabric, switches, hosts = _fabric()
    fabric.route_from_switch("r0", "r0h1", "pkt", 64)
    sim.run()
    assert hosts["r0h1"].received == ["pkt"]


def test_route_to_remote_host_crosses_core_to_remote_tor():
    sim, fabric, switches, hosts = _fabric()
    fabric.route_from_switch("r0", "r1h0", "pkt", 64)
    sim.run()
    # One core hop delivers to the remote TOR, which then routes onward.
    assert switches["r1"].received == ["pkt"]
    assert hosts["r1h0"].received == []  # the sink TOR doesn't forward


def test_route_to_remote_switch_by_name():
    sim, fabric, switches, hosts = _fabric()
    fabric.route_from_switch("r0", "tor-r1", "swap", 64)
    sim.run()
    assert switches["r1"].received == ["swap"]


def test_route_to_own_switch_delivers_synchronously():
    sim, fabric, switches, hosts = _fabric()
    fabric.route_from_switch("r0", "tor-r0", "swap", 64)
    assert switches["r0"].received == ["swap"]


def test_rack_and_host_lookups():
    sim, fabric, switches, hosts = _fabric()
    assert fabric.rack_of_host("r1h0") == "r1"
    assert fabric.rack_of_switch("tor-r0") == "r0"
    assert fabric.hosts_of("r0") == ["r0h0", "r0h1"]
    assert set(fabric.racks) == {"r0", "r1"}
    assert len(fabric.host_names) == 4


def test_rack_views_expose_local_hosts_only():
    sim = Simulator()
    fabric = MultiRackTopology(sim, bandwidth_gbps=None)
    view0 = fabric.add_rack("r0", Sink("tor-r0"))
    view1 = fabric.add_rack("r1", Sink("tor-r1"))
    fabric.attach_host("r0", Sink("a"))
    fabric.attach_host("r1", Sink("b"))
    assert view0.host_names == ["a"]
    assert view1.host_names == ["b"]


def test_duplicate_rack_and_host_rejected():
    sim, fabric, switches, hosts = _fabric()
    with pytest.raises(ValueError):
        fabric.add_rack("r0", Sink("tor-x"))
    with pytest.raises(ValueError):
        fabric.attach_host("r1", Sink("r0h0"))


def test_three_racks_get_full_mesh_core():
    sim, fabric, switches, hosts = _fabric(num_racks=3)
    for src in ("r0", "r1", "r2"):
        for dst in ("r0", "r1", "r2"):
            if src == dst:
                continue
            fabric.route_from_switch(src, f"tor-{dst}", f"{src}->{dst}", 10)
    sim.run()
    assert len(switches["r0"].received) == 2
    assert len(switches["r1"].received) == 2
    assert len(switches["r2"].received) == 2


def test_core_links_have_independent_fault_streams():
    fault = FaultModel(loss_rate=0.5, seed=2)
    sim, fabric, switches, hosts = _fabric(fault=fault)
    links = {name: link for name, _src, _dst, link in fabric.interconnect_links()}
    a = links["core:r0->r1"].fault
    b = links["core:r1->r0"].fault
    seq_a = [a.decide().drop for _ in range(64)]
    seq_b = [b.decide().drop for _ in range(64)]
    assert seq_a != seq_b
