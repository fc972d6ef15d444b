"""Tests for ECN mark propagation through the packet layer and the switch."""

from repro.core.config import AskConfig
from repro.core.packet import AskPacket, PacketFlag, ack_for
from repro.net.simulator import Simulator
from repro.switch.switch import AskSwitch


def _data(ecn=False):
    return AskPacket(
        PacketFlag.DATA, 1, "h0", "h1", 0, 0,
        bitmap=0b1, keys=(b"cat\x80",), values=(1,), ecn=ecn,
    )


def test_with_ecn_marks_a_copy():
    pkt = _data()
    marked = pkt.with_ecn()
    assert marked.ecn and not pkt.ecn
    assert (marked.keys, marked.values) == (pkt.keys, pkt.values)
    assert marked.seq == pkt.seq


def test_with_ecn_is_idempotent():
    marked = _data(ecn=True)
    assert marked.with_ecn() is marked


def test_ack_echoes_the_mark():
    assert ack_for(_data(ecn=True), "switch").ecn
    assert not ack_for(_data(ecn=False), "switch").ecn


def test_with_bitmap_preserves_the_mark():
    assert _data(ecn=True).with_bitmap(0).ecn


def test_switch_ack_echoes_ingress_mark():
    cfg = AskConfig.small()
    switch = AskSwitch(cfg, Simulator(), max_tasks=2, max_channels=4)
    switch.controller.allocate_region(1)
    decision = switch.program.process(switch.pipeline.begin_pass(), _data(ecn=True))
    (ack,) = decision.emit
    assert ack.is_ack and ack.ecn


def test_switch_forward_carries_mark_onward():
    cfg = AskConfig.small()
    switch = AskSwitch(cfg, Simulator(), max_tasks=2, max_channels=4)
    # No region: the packet is forwarded unaggregated, mark intact.
    decision = switch.program.process(switch.pipeline.begin_pass(), _data(ecn=True))
    (fwd,) = decision.emit
    assert fwd.ecn
