"""Tests for one rack's wiring: hosts around one TOR switch."""

import pytest

from repro.net.fault import FaultModel
from repro.net.simulator import Simulator
from repro.net.multirack import MultiRackTopology
from repro.net.topology import NetworkNode
from repro.net.trace import PacketTrace


class Sink(NetworkNode):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def _build(num_hosts=2, fault=None, trace=None):
    sim = Simulator()
    switch = Sink("switch")
    topo = MultiRackTopology(sim, bandwidth_gbps=None, latency_ns=10, fault=fault, trace=trace)
    topo.one_rack = True
    topo.add_rack("r0", switch)
    hosts = [Sink(f"h{i}") for i in range(num_hosts)]
    for host in hosts:
        topo.attach_host("r0", host)
    return sim, switch, topo, hosts


def test_uplink_reaches_switch():
    sim, switch, topo, hosts = _build()
    topo.send_to_switch("h0", "pkt", 100)
    sim.run()
    assert switch.received == ["pkt"]


def test_downlink_reaches_host():
    sim, switch, topo, hosts = _build()
    topo.route_from_switch("r0", "h1", "pkt", 100)
    sim.run()
    assert hosts[1].received == ["pkt"]
    assert hosts[0].received == []


def test_duplicate_host_rejected():
    sim, switch, topo, hosts = _build()
    with pytest.raises(ValueError):
        topo.attach_host("r0", Sink("h0"))


def test_host_names_listed_in_order():
    _, _, topo, _ = _build(3)
    assert topo.host_names == ["h0", "h1", "h2"]


def test_per_link_fault_models_are_independent_streams():
    fault = FaultModel(loss_rate=0.5, seed=11)
    sim, switch, topo, hosts = _build(2, fault=fault)
    up0 = topo.uplink("h0").fault
    up1 = topo.uplink("h1").fault
    down0 = topo.downlink("h0").fault
    assert up0 is not fault  # template copied, never shared
    seq0 = [up0.decide().drop for _ in range(50)]
    seq1 = [up1.decide().drop for _ in range(50)]
    seq2 = [down0.decide().drop for _ in range(50)]
    assert seq0 != seq1 or seq0 != seq2


def test_no_fault_template_means_reliable_links():
    _, _, topo, _ = _build(1, fault=None)
    assert topo.uplink("h0").fault.is_reliable


def test_trace_records_tx_and_rx():
    trace = PacketTrace()
    sim, switch, topo, hosts = _build(1, trace=trace)
    topo.send_to_switch("h0", "pkt", 64)
    sim.run()
    assert trace.count(kind="tx") == 1
    assert trace.count(kind="rx") == 1
    assert trace.records[0].site == "h0->switch"


def test_host_lookup():
    _, _, topo, hosts = _build(2)
    assert topo.host_node("h1") is hosts[1]
