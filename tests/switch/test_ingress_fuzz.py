"""Stateful fuzzing of switch and host ingress.

Hostile packet objects — random flag bytes, out-of-range indices,
negative sequence numbers, nonsense bitmaps, plus checksum-failed
wrappers around field-mutated valid frames (the sim fabric's corruption
model) — are driven through the switch's ``receive`` (one ingress, over the
PISA register store and over ``TrioSwitch``'s DRAM store) and
``HostDaemon.receive`` on a fully wired deployment.  The invariants:

- no exception ever escapes an ingress,
- every refused packet shows up as a counted drop or a quarantine entry
  (accounted, never silent),
- the deployment still aggregates bit-exactly afterwards — a poison-pill
  stream must not wedge the pipeline or the receive windows.

Frames that are *semantically valid* (they pass validation and carry a
matching checksum) are indistinguishable from real traffic by design —
ASK has no sender authentication — so the fuzzer only injects frames the
integrity layer is specified to refuse.  In-flight damage to real
traffic, where the genuine copy is retransmitted, is covered by the
corruption property tests instead.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import AskConfig
from repro.core.keyspace import KeySpaceLayout
from repro.core.packet import FLAG_DATA, AskPacket
from repro.core.results import reference_aggregate
from repro.core.robustness import (
    validate_host_ingress,
    validate_switch_ingress,
)
from repro.core.service import AskService
from repro.net.fault import CorruptedFrame, corrupt_packet_fields
from repro.switch.switch import AskSwitch
from repro.switch.trio import TrioSwitch
from tests.conftest import build_packet, fuzz_budget

NODE_NAMES = ["h0", "h1", "h2", "switch"]

#: Each switch backend with the config its own tests run it under (Trio
#: keeps no shadow copies).
BACKENDS = {
    "pisa": (AskSwitch, AskConfig.small()),
    "trio": (TrioSwitch, AskConfig.small(shadow_copy=False)),
}

_slots = st.lists(
    st.one_of(
        st.none(),
        st.tuples(st.binary(min_size=0, max_size=16), st.integers(-(2**31), 2**63)),
    ),
    max_size=8,
)

#: Deliberately hostile field ranges: undefined flag bits, impossible
#: combinations, negative ids/seqs, bitmaps wider than any slot tuple.
_garbage_packets = st.builds(
    build_packet,
    flags=st.integers(0, 255),
    task_id=st.integers(-10, 2**50),
    src=st.sampled_from(NODE_NAMES),
    dst=st.sampled_from(NODE_NAMES),
    channel_index=st.integers(-3, 300),
    seq=st.integers(-10, 2**41),
    bitmap=st.integers(-2, 2**20),
    slots=_slots,
    ecn=st.booleans(),
)


def _valid_stream_packet(rng: random.Random, config: AskConfig) -> AskPacket:
    from repro.core.packer import pack_stream

    tuples = [
        (("k%03d" % rng.randint(0, 50)).encode(), rng.randint(0, 2**20))
        for _ in range(3)
    ]
    payloads, _ = pack_stream(tuples, config)
    payload = payloads[0]
    flags = 0x1 | (0x10 if payload.is_long else 0)
    return AskPacket(
        flags, 1, "h0", "h2", 0, rng.randint(0, 7),
        bitmap=payload.bitmap, keys=payload.keys, values=payload.values,
    )


_fuzz_budget = settings(
    max_examples=fuzz_budget(20),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
_fuzz_inputs = given(
    packets=st.lists(_garbage_packets, min_size=1, max_size=25),
    seed=st.integers(0, 10_000),
)


@_fuzz_budget
@_fuzz_inputs
def test_ingress_survives_garbage_and_stays_exact(packets, seed):
    _survives_garbage_and_stays_exact("pisa", packets, seed)


@_fuzz_budget
@_fuzz_inputs
def test_trio_ingress_survives_garbage_and_stays_exact(packets, seed):
    _survives_garbage_and_stays_exact("trio", packets, seed)


def _survives_garbage_and_stays_exact(backend, packets, seed):
    rng = random.Random(seed)
    switch_factory, config = BACKENDS[backend]
    service = AskService(config, hosts=3, switch_factory=switch_factory)
    switch = service.switch
    config = service.config
    daemon = service.deployment.daemons["h2"]

    # Checksum-failed wrappers around field-mutated real frames: the
    # shape the sim fabric's corruption model actually delivers.
    stream = list(packets) + [
        CorruptedFrame(corrupt_packet_fields(_valid_stream_packet(rng, config), rng))
        for _ in range(6)
    ]
    rng.shuffle(stream)

    injected = 0
    for pkt in stream:
        to_switch = rng.random() < 0.7
        target = switch if to_switch else daemon
        if type(pkt) is CorruptedFrame:
            refused = True
        elif pkt.flags & 0x2:  # ACK bit set
            if to_switch:
                continue  # plain-routed transit at the switch, skip
            if pkt.channel_index == -1 or 0 <= pkt.channel_index < len(
                daemon.channels
            ):
                continue  # would be consumed as a (spoofed) valid ACK
            refused = True  # out-of-range ACK: counted as malformed
        else:
            validator = validate_switch_ingress if to_switch else validate_host_ingress
            width = config.data_channels_per_host if to_switch else len(daemon.channels)
            reason = validator(pkt, config.num_aas, width)
            if reason is None or (to_switch and not switch._should_run_program(pkt)):
                # Passes validation (or is plain-routed transit): a frame
                # indistinguishable from real traffic — out of scope here.
                continue
            refused = True
        injected += 1
        before = target.robustness.total + getattr(target, "malformed_packets", 0)
        target.receive(pkt)  # must never raise
        service.run()  # drain routed deliveries / pipeline egress
        after = target.robustness.total + getattr(target, "malformed_packets", 0)
        if refused:
            assert after > before, "refused packet was not accounted"

    # Nothing the fuzzer injected may wedge the pipeline: a clean
    # aggregation over the same deployment still comes out bit-exact.
    streams = {
        "h0": [(b"alpha", 1), (b"beta", 2)] * 10,
        "h1": [(b"alpha", 3), (b"gamma", 5)] * 10,
    }
    expected = reference_aggregate(
        {h: list(s) for h, s in streams.items()}, config.value_mask
    )
    result = service.aggregate(streams, receiver="h2")
    assert result.values == expected
    # The quarantine never grows past its bound no matter the stream.
    assert switch.quarantine.held() <= switch.quarantine.limit
    assert daemon.quarantine.held() <= daemon.quarantine.limit


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_per_slot_violations_are_dead_lettered_not_raised_or_aggregated(backend):
    """A local DATA frame with a live bit over a blank slot, and one whose
    medium group has only its first bit live, pass the header checks but
    break a per-slot invariant: each switch backend quarantines both as
    ``protocol-invariant`` and aggregates nothing."""
    switch_factory, config = BACKENDS[backend]
    service = AskService(config, hosts=2, switch_factory=switch_factory)
    switch = service.switch
    switch.controller.allocate_region(1)
    blank = (None,) * config.num_aas
    live_bit_on_blank = AskPacket(
        FLAG_DATA, 1, "h0", "h1", 0, 0, bitmap=0b1, keys=blank, values=blank
    )
    group = KeySpaceLayout(config).group_slots(0)
    keys, values = list(blank), list(blank)
    for slot in group:
        keys[slot], values[slot] = b"seg%d" % slot, 0
    values[group[-1]] = 7
    partial_group = AskPacket(
        FLAG_DATA, 1, "h0", "h1", 0, 1,
        bitmap=1 << group[0], keys=tuple(keys), values=tuple(values),
    )
    for pkt in (live_bit_on_blank, partial_group):
        switch.receive(pkt)  # must not raise
    service.run()
    assert switch.robustness.get("protocol-invariant") == 2
    assert [entry.seq for entry in switch.quarantine.entries] == [0, 1]
    assert switch.stats.tuples_aggregated == 0
