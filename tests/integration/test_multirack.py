"""Tests for the §7 hierarchical (multi-rack) deployment."""

import pytest

from repro.core.config import AskConfig
from repro.core.controlplane import ControlPlane
from repro.core.errors import RegionExhaustedError, TaskStateError
from repro.core.service import AskService
from repro.net.fault import FaultModel
from repro.workloads.stream import exact_aggregate, merge_results


def _service(fault=None, **cfg_overrides):
    cfg = AskConfig.small(**cfg_overrides)
    return AskService(
        cfg,
        racks={"r0": ["a", "b"], "r1": ["c", "d"]},
        fault=fault,
    )


def _check(service, streams, receiver):
    result = service.aggregate(streams, receiver=receiver, check=True)
    expected = merge_results(
        [exact_aggregate(s, 32) for s in streams.values()], 32
    )
    assert result.values == expected
    return result


def test_cross_rack_aggregation_is_exact():
    service = _service()
    streams = {
        "a": [(b"cat", 1)] * 50,
        "c": [(b"cat", 2)] * 50,
    }
    result = _check(service, streams, receiver="b")
    assert result[b"cat"] == 150


def test_each_rack_aggregates_locally():
    service = _service()
    streams = {
        "a": [(("k%02d" % (i % 10)).encode(), 1) for i in range(200)],
        "c": [(("k%02d" % (i % 10)).encode(), 1) for i in range(200)],
    }
    _check(service, streams, receiver="b")
    # Both sender-side TORs absorbed packets from their own rack.
    assert service.switches["r0"].stats.packets_acked > 0
    assert service.switches["r1"].stats.packets_acked > 0


def test_receiver_side_tor_is_bypassed():
    """§7: cross-rack traffic bypasses the receiver TOR — it runs no
    pipeline pass and keeps no channel state."""
    service = _service()
    _check(service, {"a": [(b"x", 1)] * 100}, receiver="c")
    receiver_tor = service.switches["r1"]
    assert receiver_tor.pipeline.passes == 0
    assert receiver_tor.controller.num_channels == 0
    sender_tor = service.switches["r0"]
    assert sender_tor.pipeline.passes > 0


def test_channel_state_bounded_to_local_hosts():
    """The §7 motivation: per-switch reliability state covers only the
    rack's own data channels, never remote senders'."""
    service = _service()
    streams = {"a": [(b"x", 1)] * 60, "c": [(b"y", 1)] * 60}
    _check(service, streams, receiver="b")
    r0_channels = service.switches["r0"].controller.num_channels
    r1_channels = service.switches["r1"].controller.num_channels
    assert r0_channels == 1  # host a's channel only
    assert r1_channels == 1  # host c's channel only


def test_exactly_once_across_racks_under_faults():
    fault = FaultModel(loss_rate=0.08, duplicate_rate=0.05, reorder_rate=0.1, seed=5)
    service = _service(fault=fault)
    streams = {
        "a": [(("k%02d" % (i % 25)).encode(), 1) for i in range(300)],
        "c": [(("k%02d" % (i % 25)).encode(), 3) for i in range(300)],
        "d": [(("k%02d" % (i % 25)).encode(), 5) for i in range(300)],
    }
    result = _check(service, streams, receiver="b")
    assert result.stats.retransmissions > 0


def test_swaps_broadcast_to_every_sender_tor():
    service = _service(swap_threshold_packets=4)
    streams = {
        "a": [(("k%02d" % (i % 30)).encode(), 1) for i in range(400)],
        "c": [(("k%02d" % (i % 30)).encode(), 1) for i in range(400)],
    }
    result = _check(service, streams, receiver="b")
    assert result.stats.swaps >= 1
    assert service.switches["r0"].shadow.swaps_applied >= 1
    assert service.switches["r1"].shadow.swaps_applied >= 1


def test_swaps_survive_lossy_core():
    fault = FaultModel(loss_rate=0.1, seed=9)
    service = _service(fault=fault, swap_threshold_packets=4)
    streams = {
        "a": [(("k%02d" % (i % 30)).encode(), 1) for i in range(300)],
        "c": [(("k%02d" % (i % 30)).encode(), 1) for i in range(300)],
    }
    result = _check(service, streams, receiver="d")
    assert result.stats.swaps >= 1


def test_rack_local_task_works_too():
    service = _service()
    result = _check(service, {"a": [(b"k", 2)] * 40}, receiver="b")
    # Only the local TOR is involved.
    assert service.switches["r1"].pipeline.passes == 0


def test_core_traffic_reduced_by_rack_local_aggregation():
    """The hierarchy's point: the core carries only residuals + control."""
    cfg = AskConfig.small(aggregators_per_aa=2048, trace=True)
    service = AskService(cfg, racks={"r0": ["a", "b"], "r1": ["c", "d"]})
    stream = [(("k%02d" % (i % 20)).encode(), 1) for i in range(1000)]
    result = service.aggregate({"c": stream}, receiver="a", check=True)
    data_sent = result.stats.data_packets_sent
    core_tx = service.trace.count(site="core:r1->r0")
    # Nearly everything was absorbed at tor-r1; only stragglers crossed.
    assert core_tx < data_sent / 2


def test_unknown_hosts_rejected():
    service = _service()
    with pytest.raises(KeyError):
        service.submit({"zz": [(b"a", 1)]}, receiver="b")
    with pytest.raises(KeyError):
        service.submit({"a": [(b"a", 1)]}, receiver="zz")


# ---------------------------------------------------------------------------
# ControlPlane unit behaviour
# ---------------------------------------------------------------------------
def test_controlplane_all_or_nothing_allocation():
    service = _service()
    control = service.control
    names = sorted(control.switch_names)
    big = service.config.copy_size
    # Fill one switch completely so a two-switch allocation must fail ...
    control.controller(names[0]).allocate_region(99, size=big)
    with pytest.raises(RegionExhaustedError):
        control.allocate(1, names, size=big)
    # ... and must have rolled back on the other switch.
    other = control.controller(names[1])
    region = other.allocate_region(2, size=big)
    assert region.size == big


def test_controlplane_rejects_empty_switch_set():
    control = ControlPlane()
    with pytest.raises(ValueError):
        control.allocate(1, [])


def test_controlplane_unknown_task_operations():
    control = ControlPlane()
    with pytest.raises(TaskStateError):
        control.fetch_and_reset(5, 0)
    control.deallocate(5)  # deallocating nothing is a no-op


def test_streaming_session_spans_racks_and_swaps_broadcast():
    """A multi-rack streaming session: senders in both racks stay live
    across several feeds, and every shadow-copy swap notification reaches
    *all* sender-side TORs (§3.4 + §7) before the receiver fetches."""
    service = _service(swap_threshold_packets=4)
    # A 1-aggregator region forces most tuples through to the receiver,
    # so packets actually arrive there and trip the swap threshold.
    session = service.open_stream(["a", "c"], receiver="d", region_size=1)
    for round_ in range(6):
        session.feed("a", [(b"k%02d" % i, 1) for i in range(20)])
        session.feed("c", [(b"k%02d" % i, 2) for i in range(20)])
        service.run()
    session.close()
    service.run_to_completion()

    result = session.result
    assert result is not None
    assert result.values == {b"k%02d" % i: 18 for i in range(20)}
    # The swap loop actually ran, and both TORs honoured the broadcast —
    # each observed the same number of epoch flips.
    assert result.stats.swaps > 0
    assert service.switches["r0"].stats.swaps == result.stats.swaps
    assert service.switches["r1"].stats.swaps == result.stats.swaps


def test_streaming_single_rack_senders_leave_other_tor_untouched():
    """A session whose senders all live in r0 must not allocate or swap
    on r1's TOR even though the receiver sits behind it."""
    service = _service(swap_threshold_packets=4)
    session = service.open_stream(["a", "b"], receiver="c", region_size=1)
    session.feed("a", [(b"k%02d" % i, 1) for i in range(30)])
    session.feed("b", [(b"k%02d" % i, 1) for i in range(30)])
    session.close()
    service.run_to_completion()

    assert session.result is not None
    assert session.result.values == {b"k%02d" % i: 2 for i in range(30)}
    assert service.switches["r0"].stats.swaps > 0
    assert service.switches["r1"].stats.swaps == 0
    assert service.switches["r1"].pipeline.passes == 0
