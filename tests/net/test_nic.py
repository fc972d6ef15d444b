"""Tests for a link's packets-per-second cap (a host NIC's launch rate)."""

from repro.net.link import Link
from repro.net.simulator import Simulator


def _run(sim, link, count, size=100):
    arrivals = []
    link.deliver = lambda p: arrivals.append((sim.now, p))
    for i in range(count):
        link.send(i, size)
    sim.run()
    return arrivals


def test_pps_cap_spaces_packets():
    sim = Simulator()
    link = Link(sim, bandwidth_gbps=None, latency_ns=0, max_pps=1e6)
    arrivals = _run(sim, link, 3)
    times = [t for t, _ in arrivals]
    # 1 Mpps -> 1000 ns between launches.
    assert times == [0, 1000, 2000]


def test_no_cap_sends_immediately():
    sim = Simulator()
    link = Link(sim, bandwidth_gbps=None, latency_ns=0, max_pps=None)
    arrivals = _run(sim, link, 5)
    assert [t for t, _ in arrivals] == [0, 0, 0, 0, 0]


def test_min_packet_gap():
    sim = Simulator()
    link = Link(sim, bandwidth_gbps=None, latency_ns=0, max_pps=9e6)
    assert link.gap_ns == 111  # 1e9 / 9e6 rounded


def test_counters():
    sim = Simulator()
    link = Link(sim, bandwidth_gbps=None, latency_ns=0, max_pps=1e6)
    _run(sim, link, 4, size=50)
    assert link.packets_sent == 4
    assert link.bytes_sent == 200


def test_pps_and_serialization_compose():
    sim = Simulator()
    # PPS gap 1000 ns dominates the 10 ns serialization.
    link = Link(sim, bandwidth_gbps=100.0, latency_ns=0, max_pps=1e6)
    arrivals = _run(sim, link, 2, size=125)  # 125 B == 10 ns at 100 Gbps
    assert [t for t, _ in arrivals] == [10, 1010]
