"""Tests for the ASK switch program (the per-packet pass)."""

import pytest

from repro.core.config import AskConfig
from repro.core.errors import ProtocolError
from repro.core.packer import pack_stream
from repro.core.packet import AskPacket, PacketFlag, fin_packet, swap_packet
from repro.net.simulator import Simulator
from repro.switch.program import SwitchAction
from repro.switch.switch import AskSwitch


def _switch(config=None):
    cfg = config or AskConfig.small(shadow_copy=True)
    switch = AskSwitch(cfg, Simulator(), max_tasks=4, max_channels=8)
    return cfg, switch


def _data_packet(cfg, tuples, seq=0, task=1, src="h0", dst="h1", channel=0):
    payloads, _ = pack_stream(tuples, cfg)
    assert len(payloads) == 1, "test tuples must fit one packet"
    payload = payloads[0]
    flags = PacketFlag.DATA | (PacketFlag.LONG if payload.is_long else PacketFlag(0))
    return AskPacket(
        flags=flags,
        task_id=task,
        src=src,
        dst=dst,
        channel_index=channel,
        seq=seq,
        bitmap=payload.bitmap,
        keys=payload.keys,
        values=payload.values,
    )


def _process(switch, pkt):
    ctx = switch.pipeline.begin_pass()
    return switch.program.process(ctx, pkt)


def test_fully_aggregated_packet_acked_to_sender():
    cfg, switch = _switch()
    switch.controller.allocate_region(1)
    pkt = _data_packet(cfg, [(b"cat", 2)])
    decision = _process(switch, pkt)
    assert decision.action is SwitchAction.ACK
    (ack,) = decision.emit
    assert ack.is_ack and ack.dst == "h0" and ack.seq == pkt.seq


def test_collision_forwards_remaining_tuples():
    cfg, switch = _switch()
    switch.controller.allocate_region(1, size=1)  # one aggregator per AA: easy collisions
    # Two different keys in the same subspace slot collide at region size 1.
    from repro.core.keyspace import KeySpaceLayout

    layout = KeySpaceLayout(cfg)
    keys = {}
    word = 0
    while not any(len(v) >= 2 for v in keys.values()):
        key = ("%04d" % word).encode()
        word += 1
        slot = layout.assign(key).primary_slot
        keys.setdefault(slot, []).append(key)
    pair = next(v for v in keys.values() if len(v) >= 2)
    first = _data_packet(cfg, [(pair[0], 1)], seq=0)
    second = _data_packet(cfg, [(pair[1], 1)], seq=1)
    assert _process(switch, first).action is SwitchAction.ACK
    decision = _process(switch, second)
    assert decision.action is SwitchAction.FORWARD
    (fwd,) = decision.emit
    assert fwd.bitmap == second.bitmap  # nothing aggregated
    assert fwd.dst == "h1"


def test_retransmitted_fully_aggregated_packet_not_reaggregated():
    cfg, switch = _switch()
    switch.controller.allocate_region(1)
    pkt = _data_packet(cfg, [(b"cat", 2)])
    _process(switch, pkt)
    decision = _process(switch, pkt)  # duplicate
    assert decision.action is SwitchAction.ACK
    # Value must be 2, not 4.
    fetched = switch.controller.fetch_and_reset(1, part=0)
    assert fetched == {b"cat": 2}


def test_retransmitted_partial_packet_carries_recorded_bitmap():
    cfg, switch = _switch()
    switch.controller.allocate_region(1, size=1)
    from repro.core.keyspace import KeySpaceLayout

    layout = KeySpaceLayout(cfg)
    # Find two short keys in the same slot (they collide at size-1 regions)
    # and one in a different slot.
    by_slot = {}
    word = 0
    while True:
        key = ("%04d" % word).encode()
        word += 1
        slot = layout.assign(key).primary_slot
        by_slot.setdefault(slot, []).append(key)
        pairs = [s for s, v in by_slot.items() if len(v) >= 2]
        others = [s for s in by_slot if s not in pairs]
        if pairs and others:
            break
    colliding_slot = pairs[0]
    other_slot = others[0]
    k1, k2 = by_slot[colliding_slot][:2]
    k3 = by_slot[other_slot][0]
    _process(switch, _data_packet(cfg, [(k1, 1)], seq=0))
    partial = _data_packet(cfg, [(k2, 1), (k3, 1)], seq=1)
    first = _process(switch, partial)
    assert first.action is SwitchAction.FORWARD
    forwarded_bitmap = first.emit[0].bitmap
    # Retransmission must carry exactly the recorded (post-aggregation)
    # bitmap — k3 was consumed, k2 was not (Eq. 10).
    retry = _process(switch, partial)
    assert retry.action is SwitchAction.FORWARD
    assert retry.emit[0].bitmap == forwarded_bitmap
    assert forwarded_bitmap != partial.bitmap


def test_stale_packet_dropped_silently():
    cfg, switch = _switch()
    switch.controller.allocate_region(1)
    w = cfg.window_size
    _process(switch, _data_packet(cfg, [(b"a", 1)], seq=3 * w))
    decision = _process(switch, _data_packet(cfg, [(b"b", 1)], seq=2 * w - 1))
    assert decision.action is SwitchAction.DROP
    assert decision.emit == []


def test_fin_always_forwarded_and_deduped_at_receiver_not_switch():
    cfg, switch = _switch()
    switch.controller.allocate_region(1)
    fin = fin_packet(1, "h0", "h1", 0, seq=0)
    first = _process(switch, fin)
    second = _process(switch, fin)
    assert first.action is SwitchAction.FORWARD
    assert second.action is SwitchAction.FORWARD


def test_long_packet_bypasses_aggregation():
    cfg, switch = _switch()
    switch.controller.allocate_region(1)
    long_key = b"x" * (cfg.medium_key_bytes + 3)
    pkt = _data_packet(cfg, [(long_key, 5)])
    assert pkt.is_long
    decision = _process(switch, pkt)
    assert decision.action is SwitchAction.FORWARD
    assert decision.emit[0].bitmap == pkt.bitmap
    assert switch.controller.fetch_and_reset(1, part=0) == {}


def test_swap_packet_flips_indicator_and_acks():
    cfg, switch = _switch()
    region = switch.controller.allocate_region(1)
    swap = swap_packet(1, "h1", "switch", epoch=1)
    decision = _process(switch, swap)
    assert decision.action is SwitchAction.ACK
    assert decision.emit[0].seq == 1
    ctx = switch.pipeline.begin_pass()
    assert switch.shadow.write_part(ctx, region.task_slot) == 1


def test_data_after_swap_lands_in_other_copy():
    cfg, switch = _switch()
    switch.controller.allocate_region(1)
    _process(switch, _data_packet(cfg, [(b"cat", 1)], seq=0))
    _process(switch, swap_packet(1, "h1", "switch", epoch=1))
    _process(switch, _data_packet(cfg, [(b"cat", 3)], seq=1))
    assert switch.controller.fetch_and_reset(1, part=0) == {b"cat": 1}
    assert switch.controller.fetch_and_reset(1, part=1) == {b"cat": 3}


def test_unknown_task_data_still_deduped_and_forwarded():
    cfg, switch = _switch()
    pkt = _data_packet(cfg, [(b"cat", 1)], task=42)
    decision = _process(switch, pkt)
    assert decision.action is SwitchAction.FORWARD
    assert decision.emit[0].bitmap == pkt.bitmap


def test_ack_packets_are_routed_untouched():
    cfg, switch = _switch()
    ack = AskPacket(PacketFlag.ACK, 1, "switch", "h0", 0, 7)
    decision = _process(switch, ack)
    assert decision.action is SwitchAction.FORWARD
    assert decision.emit == [ack]


def test_partial_medium_group_bitmap_is_a_protocol_error():
    cfg, switch = _switch()
    switch.controller.allocate_region(1)
    medium_key = b"abcdef"  # 6 bytes -> medium
    pkt = _data_packet(cfg, [(medium_key, 1)])
    broken = pkt.with_bitmap(pkt.bitmap & (pkt.bitmap - 1))  # clear lowest bit
    if broken.bitmap:
        with pytest.raises(ProtocolError):
            _process(switch, broken)


def test_per_tuple_stats_accumulate():
    cfg, switch = _switch()
    switch.controller.allocate_region(1)
    _process(switch, _data_packet(cfg, [(b"cat", 1), (b"dogs", 1)], seq=0))
    assert switch.stats.data_packets == 1
    assert switch.stats.packets_acked == 1
    assert switch.pool.tuples_aggregated == 2


def test_address_hash_table_stops_caching_at_the_memo_limit():
    from repro.core.hashing import MEMO_LIMIT

    cfg, switch = _switch()
    switch.controller.allocate_region(1)
    full = dict.fromkeys((b"%05d" % i for i in range(MEMO_LIMIT)), 0)
    switch.program._hashes = full
    assert _process(switch, _data_packet(cfg, [(b"cat", 2)])).action is SwitchAction.ACK
    assert len(full) == MEMO_LIMIT  # the new key was hashed, not cached
    assert switch.controller.fetch_and_reset(1, part=0) == {b"cat": 2}
