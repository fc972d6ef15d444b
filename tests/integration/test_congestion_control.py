"""Integration tests: ECN marking and AIMD behaviour end to end (§7)."""

import pytest

from repro.core.config import AskConfig
from repro.core.service import AskService
from repro.net.link import Link
from repro.net.simulator import Simulator


# ---------------------------------------------------------------------------
# Link-level ECN marking
# ---------------------------------------------------------------------------
class _MarkablePacket:
    def __init__(self):
        self.ecn = False

    def with_ecn(self):
        marked = _MarkablePacket()
        marked.ecn = True
        return marked


def test_link_marks_when_backlog_exceeds_threshold():
    sim = Simulator()
    delivered = []
    link = Link(
        sim, bandwidth_gbps=1.0, latency_ns=0, ecn_threshold_bytes=1000,
        deliver=delivered.append,
    )
    for _ in range(10):
        link.send(_MarkablePacket(), 500)
    sim.run()
    assert any(p.ecn for p in delivered)
    assert not delivered[0].ecn  # the first packet saw an empty queue
    assert link.packets_marked > 0
    assert link.max_backlog_bytes > 1000


def test_link_never_marks_below_threshold():
    sim = Simulator()
    delivered = []
    link = Link(
        sim, bandwidth_gbps=100.0, latency_ns=0, ecn_threshold_bytes=10_000,
        deliver=delivered.append,
    )
    link.send(_MarkablePacket(), 500)
    sim.run()
    assert not delivered[0].ecn


def test_link_without_threshold_never_marks():
    sim = Simulator()
    delivered = []
    link = Link(sim, bandwidth_gbps=1.0, latency_ns=0, deliver=delivered.append)
    for _ in range(50):
        link.send(_MarkablePacket(), 500)
    sim.run()
    assert not any(p.ecn for p in delivered)


# ---------------------------------------------------------------------------
# End-to-end AIMD behaviour
# ---------------------------------------------------------------------------
def _congested_service(congestion_control):
    # A slow (1 Gbps) fabric with a tight ECN threshold: a full reliability
    # window of packets vastly overruns the queue without CC.
    cfg = AskConfig.small(
        window_size=64,
        congestion_control=congestion_control,
        ecn_threshold_bytes=2_000,
        cwnd_initial=4.0,
        link_bandwidth_gbps=1.0,
        link_latency_ns=500,
        retransmit_timeout_us=1000.0,
    )
    return AskService(cfg, hosts=2), cfg


def _run_stream(service):
    stream = [(("k%03d" % (i % 100)).encode(), 1) for i in range(3000)]
    result = service.aggregate({"h0": stream}, receiver="h1", check=True)
    return result


def test_congestion_control_bounds_queue_depth():
    without, _ = _congested_service(congestion_control=False)
    _run_stream(without)
    with_cc, _ = _congested_service(congestion_control=True)
    _run_stream(with_cc)
    backlog_without = without.topology.uplink("h0").max_backlog_bytes
    backlog_with = with_cc.topology.uplink("h0").max_backlog_bytes
    assert backlog_with < backlog_without / 3


def test_congestion_window_reacts_to_marks():
    service, cfg = _congested_service(congestion_control=True)
    _run_stream(service)
    channel = service.daemon("h0").channels[0]
    assert channel.congestion is not None
    assert channel.congestion.decreases > 0
    assert channel.congestion.increases > 0
    assert channel.congestion.cwnd <= cfg.window_size


def test_result_stays_exact_under_congestion_control():
    service, _ = _congested_service(congestion_control=True)
    result = _run_stream(service)
    assert result.stats.input_tuples == 3000


def test_acks_echo_the_ecn_mark():
    service, _ = _congested_service(congestion_control=True)
    _run_stream(service)
    # The senders observed at least one echoed mark (the decreases above
    # can only be triggered through the echo path).
    channel = service.daemon("h0").channels[0]
    assert channel.congestion.decreases >= 1


def test_no_congestion_state_when_disabled():
    service, _ = _congested_service(congestion_control=False)
    assert service.daemon("h0").channels[0].congestion is None


def test_throughput_not_destroyed_by_cc():
    # AIMD should converge near the bottleneck rate, not collapse: the CC
    # run may be at most ~2.5x slower than the uncontrolled blast.
    without, _ = _congested_service(congestion_control=False)
    t_without = _run_stream(without).stats.completion_time_ns
    with_cc, _ = _congested_service(congestion_control=True)
    t_with = _run_stream(with_cc).stats.completion_time_ns
    assert t_with < t_without * 2.5
