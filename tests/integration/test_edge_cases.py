"""Hard-edge configurations and degenerate inputs."""

import pytest

from repro.core.config import AskConfig
from repro.core.packet import AskPacket, PacketFlag
from repro.core.service import AskService
from repro.net.fault import FaultModel
from repro.net.simulator import Simulator
from repro.switch.program import SwitchAction
from repro.switch.switch import AskSwitch


def test_window_of_one_still_exact_under_loss():
    # W=1: stop-and-wait. The slowest legal configuration must stay exact.
    cfg = AskConfig.small(window_size=1)
    service = AskService(cfg, hosts=2, fault=FaultModel(loss_rate=0.1, seed=3))
    result = service.aggregate({"h0": [(b"k", 1)] * 40}, receiver="h1", check=True)
    assert result[b"k"] == 40


def test_one_bit_values_wrap_consistently():
    cfg = AskConfig.small(value_bits=1)
    service = AskService(cfg, hosts=2)
    result = service.aggregate({"h0": [(b"k", 1)] * 5}, receiver="h1", check=True)
    assert result[b"k"] == 1  # 5 mod 2


def test_single_aa_no_medium_groups():
    cfg = AskConfig(
        num_aas=1,
        aggregators_per_aa=32,
        medium_key_groups=0,
        window_size=8,
        data_channels_per_host=1,
    )
    service = AskService(cfg, hosts=2)
    result = service.aggregate(
        {"h0": [(b"a", 1), (b"b", 2), (b"a", 3)]}, receiver="h1", check=True
    )
    assert result.values == {b"a": 4, b"b": 2}


def test_empty_sender_stream_sends_only_fin():
    service = AskService(AskConfig.small(), hosts=3)
    task = service.submit(
        {"h0": [], "h1": [(b"k", 1)]}, receiver="h2"
    )
    service.run_to_completion()
    assert task.result.values == {b"k": 1}
    assert task.stats.data_packets_sent == 1  # h0 contributed nothing


def test_single_tuple_task():
    service = AskService(AskConfig.small(), hosts=2)
    result = service.aggregate({"h0": [(b"one", 42)]}, receiver="h1", check=True)
    assert result.values == {b"one": 42}


def test_empty_bitmap_data_packet_is_acked_not_forwarded():
    # A degenerate (all-blank) data packet: the switch consumes it.
    cfg = AskConfig.small()
    switch = AskSwitch(cfg, Simulator(), max_tasks=2, max_channels=4)
    switch.controller.allocate_region(1)
    pkt = AskPacket(PacketFlag.DATA, 1, "h0", "h1", 0, 0, bitmap=0,
                    keys=(None,) * cfg.num_aas, values=(None,) * cfg.num_aas)
    decision = switch.program.process(switch.pipeline.begin_pass(), pkt)
    assert decision.action is SwitchAction.ACK


def test_zero_value_tuples_are_counted_not_lost():
    # value 0 must still claim/match an aggregator and appear in the result.
    service = AskService(AskConfig.small(), hosts=2)
    result = service.aggregate(
        {"h0": [(b"zero", 0), (b"zero", 0)]}, receiver="h1", check=True
    )
    assert result.values == {b"zero": 0}


def test_huge_values_wrap_like_hardware():
    service = AskService(AskConfig.small(), hosts=2)
    big = 0xFFFF_FFFF
    result = service.aggregate(
        {"h0": [(b"k", big), (b"k", big)]}, receiver="h1", check=True
    )
    assert result[b"k"] == (2 * big) & 0xFFFF_FFFF


def test_empty_key_is_a_valid_short_key():
    service = AskService(AskConfig.small(), hosts=2)
    result = service.aggregate(
        {"h0": [(b"", 7), (b"", 3)]}, receiver="h1", check=True
    )
    assert result.values == {b"": 10}


def test_hundreds_of_distinct_medium_keys():
    cfg = AskConfig.small(aggregators_per_aa=2048)
    service = AskService(cfg, hosts=2)
    stream = [(("med%03d" % i).encode(), i) for i in range(500)]
    result = service.aggregate({"h0": stream}, receiver="h1", check=True)
    assert len(result) == 500


def test_swap_threshold_of_one_packet():
    cfg = AskConfig.small(swap_threshold_packets=1)
    service = AskService(cfg, hosts=2)
    stream = [(("k%02d" % (i % 20)).encode(), 1) for i in range(200)]
    result = service.aggregate({"h0": stream}, receiver="h1", region_size=1, check=True)
    # Swaps are serialized (notify -> ack -> fetch) so the count is bounded
    # by round trips, not by the threshold alone; at least some must fire.
    assert result.stats.swaps >= 2


def test_retransmit_timeout_shorter_than_rtt_still_terminates():
    # Pathological RTO: every packet times out before its ACK can return.
    # Throughput collapses but correctness and termination must hold.
    cfg = AskConfig.small(retransmit_timeout_us=1.0, link_latency_ns=5_000)
    service = AskService(cfg, hosts=2)
    result = service.aggregate({"h0": [(b"k", 1)] * 10}, receiver="h1", check=True)
    assert result[b"k"] == 10
    assert result.stats.retransmissions > 0
