"""Tests for links: serialization, FIFO ordering, fault application."""

from repro.net.fault import FaultModel
from repro.net.link import Link, gbps_to_bits_per_ns
from repro.net.simulator import Simulator


def _collect(sim, link, sends):
    """Send (packet, size) pairs and return [(arrival_time, packet)]."""
    arrivals = []
    link.deliver = lambda p: arrivals.append((sim.now, p))
    for packet, size in sends:
        link.send(packet, size)
    sim.run()
    return arrivals


def test_serialization_time_at_100gbps():
    # 100 Gbps == 100 bits/ns, so 1250 bytes == 10000 bits == 100 ns.
    sim = Simulator()
    link = Link(sim, bandwidth_gbps=100.0, latency_ns=0)
    arrivals = _collect(sim, link, [("p", 1250)])
    assert arrivals == [(100, "p")]


def test_latency_added_after_serialization():
    sim = Simulator()
    link = Link(sim, bandwidth_gbps=100.0, latency_ns=500)
    arrivals = _collect(sim, link, [("p", 1250)])
    assert arrivals == [(600, "p")]


def test_fifo_serialization_queues_back_to_back_sends():
    sim = Simulator()
    link = Link(sim, bandwidth_gbps=100.0, latency_ns=0)
    arrivals = _collect(sim, link, [("a", 1250), ("b", 1250)])
    assert arrivals == [(100, "a"), (200, "b")]


def test_infinite_bandwidth_has_no_serialization_delay():
    sim = Simulator()
    link = Link(sim, bandwidth_gbps=None, latency_ns=7)
    arrivals = _collect(sim, link, [("p", 10_000_000)])
    assert arrivals == [(7, "p")]


def test_dropped_packets_never_arrive_but_consume_wire_time():
    sim = Simulator()
    link = Link(sim, bandwidth_gbps=100.0, latency_ns=0, fault=FaultModel(loss_rate=1.0))
    arrivals = _collect(sim, link, [("a", 1250), ("b", 1250)])
    assert arrivals == []
    assert link.packets_dropped == 2
    # Serialization still happened: the transmitter was busy until 200 ns.
    assert link.utilization_window_end == 200


def test_duplicate_delivers_twice():
    sim = Simulator()
    link = Link(
        sim,
        bandwidth_gbps=100.0,
        latency_ns=0,
        fault=FaultModel(duplicate_rate=1.0, max_extra_delay_ns=10, seed=2),
    )
    arrivals = _collect(sim, link, [("p", 1250)])
    assert [p for _, p in arrivals] == ["p", "p"]
    assert link.packets_duplicated == 1


def test_reordering_lets_later_packet_overtake():
    sim = Simulator()
    # Reorder every packet with a large extra delay; with a fixed seed the
    # two packets get different extra delays, so order can flip.
    link = Link(
        sim,
        bandwidth_gbps=None,
        latency_ns=10,
        fault=FaultModel(reorder_rate=1.0, max_extra_delay_ns=10_000, seed=4),
    )
    arrivals = _collect(sim, link, [("a", 100), ("b", 100)])
    assert sorted(p for _, p in arrivals) == ["a", "b"]
    assert len(arrivals) == 2


def test_counters():
    sim = Simulator()
    link = Link(sim, bandwidth_gbps=100.0, latency_ns=0)
    _collect(sim, link, [("a", 100), ("b", 200)])
    assert link.packets_sent == 2
    assert link.bytes_sent == 300


def test_minimum_one_ns_serialization():
    sim = Simulator()
    link = Link(sim, bandwidth_gbps=100.0, latency_ns=0)
    assert link.serialization_ns(1) >= 1


def test_gbps_conversion_identity():
    assert gbps_to_bits_per_ns(100.0) == 100.0
