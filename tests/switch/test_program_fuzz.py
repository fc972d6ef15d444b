"""Fuzzing the switch program with arbitrary valid packets.

Invariants that must hold for *any* packet the host stack can construct:
no exception escapes the pipeline, PISA access rules are never violated
(they would raise), every emitted packet is well-formed, and tuples are
conserved (absorbed into switch memory or still live in the forwarded
bitmap — never duplicated, never dropped silently).
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import AskConfig
from repro.core.packer import pack_stream
from repro.core.packet import AskPacket, PacketFlag, fin_packet
from repro.net.simulator import Simulator
from repro.switch.program import SwitchAction
from repro.switch.switch import AskSwitch
from tests.conftest import fuzz_budget


@settings(
    max_examples=fuzz_budget(150),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 100_000),
    region_size=st.sampled_from([1, 2, 8, 32]),
    num_packets=st.integers(1, 30),
    dup_prob=st.floats(0, 0.5),
)
def test_program_invariants_under_arbitrary_traffic(
    seed, region_size, num_packets, dup_prob
):
    rng = random.Random(seed)
    cfg = AskConfig.small(window_size=8)
    switch = AskSwitch(cfg, Simulator(), max_tasks=4, max_channels=8)
    switch.controller.allocate_region(1, size=region_size)

    # Build a legal packet sequence: windowed seqs, short/medium/long keys,
    # occasional FINs, random in-window duplicates.
    keys = [
        rng.choice(
            [
                ("s%02d" % rng.randint(0, 20)).encode(),
                ("medum%02d" % rng.randint(0, 20)).encode(),
                ("long-key-%06d" % rng.randint(0, 20)).encode(),
            ]
        )
        for _ in range(40)
    ]
    packets = []
    seq = 0
    for _ in range(num_packets):
        if rng.random() < 0.1:
            packets.append(fin_packet(1, "h0", "h1", 0, seq))
        else:
            tuples = [(rng.choice(keys), rng.randint(0, 2**31)) for _ in range(3)]
            payloads, _ = pack_stream(tuples, cfg)
            payload = payloads[0]
            flags = PacketFlag.DATA | (
                PacketFlag.LONG if payload.is_long else PacketFlag(0)
            )
            packets.append(
                AskPacket(flags, 1, "h0", "h1", 0, seq, bitmap=payload.bitmap,
                          keys=payload.keys, values=payload.values)
            )
        seq += 1

    absorbed_value = 0
    forwarded_value = 0
    sent_value = 0
    seen_seqs = set()
    schedule = []
    for pkt in packets:
        schedule.append(pkt)
        if rng.random() < dup_prob:
            schedule.append(pkt)  # immediate duplicate (still in window)

    for pkt in schedule:
        first_time = pkt.seq not in seen_seqs
        seen_seqs.add(pkt.seq)
        if first_time and pkt.is_data:
            sent_value += sum(v for v in pkt.values if v is not None)
        decision = switch.program.process(switch.pipeline.begin_pass(), pkt)
        for emitted in decision.emit:
            if emitted.is_ack:
                assert emitted.dst == "h0"
                assert emitted.seq == pkt.seq
            else:
                assert emitted.dst == "h1"
                # A forwarded packet's live bits always index real slots.
                assert emitted.bitmap >> emitted.num_slots == 0
                assert all(
                    key is not None
                    for i, key in enumerate(emitted.keys)
                    if emitted.bitmap >> i & 1
                )
                if first_time and emitted.is_data and not emitted.is_fin:
                    forwarded_value += _live_value(emitted)
        if decision.action is SwitchAction.DROP:
            assert not decision.emit

    absorbed_value = sum(
        v for part in (0, 1) for v in switch.controller.fetch_and_reset(1, part).values()
    )
    # Conservation: every first-transmission value is either in switch
    # memory or was forwarded onward (modulo 32-bit wraparound).
    mask = cfg.value_mask
    assert (absorbed_value + forwarded_value) & mask == sent_value & mask


def _live_value(pkt):
    from repro.core.keyspace import KeySpaceLayout

    layout = KeySpaceLayout(AskConfig.small(window_size=8))
    total = 0
    if pkt.is_long:
        return sum(v for i, v in enumerate(pkt.values) if pkt.bitmap >> i & 1)
    for index in range(layout.num_short_slots):
        if pkt.bitmap >> index & 1:
            total += pkt.values[index]
    for group in range(layout.num_groups):
        slots = layout.group_slots(group)
        if pkt.bitmap >> slots[0] & 1:
            total += pkt.values[slots[-1]]
    return total
