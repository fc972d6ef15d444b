"""Unit tests for the ingress-hardening primitives.

Counters, the bounded quarantine ring, and the semantic validators are
exercised directly here; their end-to-end behaviour (corrupted frames
become counted drops, poison pills become quarantine entries) is covered
by the chaos/corruption property tests and the ingress fuzzers.
"""

import pytest

from repro.core.packet import (
    FLAG_ACK,
    FLAG_BYPASS,
    FLAG_DATA,
    FLAG_FIN,
    FLAG_LONG,
    FLAG_SWAP,
    SWAP_CHANNEL_INDEX,
    AskPacket,
)
from repro.core.robustness import (
    DEFINED_FLAG_MASK,
    Quarantine,
    QuarantineEntry,
    RobustnessCounters,
    quarantine_packet,
    validate_host_ingress,
    validate_switch_ingress,
)

NUM_AAS = 4
CHANNELS = 2


def data_packet(**overrides):
    fields = dict(
        flags=FLAG_DATA,
        task_id=1,
        src="h0",
        dst="switch",
        channel_index=0,
        seq=0,
        bitmap=0b0011,
        keys=(b"a" * 10, b"b" * 10, None, None),
        values=(1, 2, None, None),
    )
    fields.update(overrides)
    return AskPacket(**fields)


# ----------------------------------------------------------------------
# RobustnessCounters
# ----------------------------------------------------------------------
def test_counters_accumulate_per_reason():
    counters = RobustnessCounters()
    assert not counters
    assert counters.total == 0
    counters.bump("checksum")
    counters.bump("checksum")
    counters.bump("bad-flag-combination")
    assert counters
    assert counters.get("checksum") == 2
    assert counters.get("missing") == 0
    assert counters.total == 3
    assert counters.as_dict() == {"checksum": 2, "bad-flag-combination": 1}
    # as_dict is a snapshot, not a live view.
    counters.as_dict()["checksum"] = 99
    assert counters.get("checksum") == 2


# ----------------------------------------------------------------------
# Quarantine
# ----------------------------------------------------------------------
def _entry(i: int) -> QuarantineEntry:
    return QuarantineEntry(
        t_ns=i,
        reason="protocol-invariant",
        src="h0",
        dst="switch",
        task_id=1,
        channel_index=0,
        seq=i,
        flags=FLAG_DATA,
    )


def test_quarantine_is_bounded_and_counts_evictions():
    quarantine = Quarantine(limit=3)
    for i in range(5):
        quarantine.admit(_entry(i))
    assert quarantine.admitted == 5
    assert quarantine.evicted == 2
    assert quarantine.held() == 3
    assert len(quarantine) == 3
    # Oldest entries were evicted; the newest survive in order.
    assert [e.seq for e in quarantine.entries] == [2, 3, 4]
    assert quarantine.summary() == {"admitted": 5, "evicted": 2, "held": 3}


def test_quarantine_rejects_nonpositive_limit():
    with pytest.raises(ValueError):
        Quarantine(limit=0)


def test_quarantine_packet_counts_and_records_header():
    counters = RobustnessCounters()
    quarantine = Quarantine()
    pkt = data_packet(seq=7)
    quarantine_packet(counters, quarantine, 123, "protocol-invariant", pkt)
    assert counters.get("protocol-invariant") == 1
    (entry,) = quarantine.entries
    assert entry.t_ns == 123
    assert entry.reason == "protocol-invariant"
    assert (entry.src, entry.dst) == ("h0", "switch")
    assert entry.seq == 7
    assert entry.as_dict()["flags"] == FLAG_DATA


# ----------------------------------------------------------------------
# Validators
# ----------------------------------------------------------------------
def test_clean_data_packet_passes_both_ingresses():
    pkt = data_packet()
    assert validate_switch_ingress(pkt, NUM_AAS, CHANNELS) is None
    assert validate_host_ingress(pkt, NUM_AAS, CHANNELS) is None


def test_undefined_flag_bits_rejected():
    pkt = data_packet(flags=FLAG_DATA | 0x40)
    assert 0x40 & ~DEFINED_FLAG_MASK
    assert validate_switch_ingress(pkt, NUM_AAS, CHANNELS) == "undefined-flags"
    assert validate_host_ingress(pkt, NUM_AAS, CHANNELS) == "undefined-flags"


@pytest.mark.parametrize(
    "flags",
    [
        FLAG_DATA | FLAG_ACK,
        FLAG_ACK | FLAG_FIN,
        FLAG_SWAP | FLAG_DATA,
        FLAG_ACK | FLAG_BYPASS,
        FLAG_LONG,  # LONG without DATA
        0,  # no flags at all
    ],
)
def test_impossible_flag_combinations_rejected(flags):
    pkt = data_packet(flags=flags)
    assert validate_switch_ingress(pkt, NUM_AAS, CHANNELS) == "bad-flag-combination"


@pytest.mark.parametrize(
    "overrides,reason",
    [
        (dict(task_id=-1), "task-id-range"),
        (dict(seq=-5), "seq-range"),
        (dict(bitmap=-1), "bitmap-range"),
        (dict(bitmap=0b10000), "bitmap-range"),  # bit 4 with 4 slots
        (dict(channel_index=CHANNELS), "channel-index"),
        (dict(channel_index=-1), "channel-index"),
    ],
)
def test_range_violations_rejected(overrides, reason):
    pkt = data_packet(**overrides)
    assert validate_switch_ingress(pkt, NUM_AAS, CHANNELS) == reason
    assert validate_host_ingress(pkt, NUM_AAS, CHANNELS) == reason


def test_slot_count_bounded_by_channel_width_for_short_frames():
    width = NUM_AAS + 1
    pkt = data_packet(keys=(b"k" * 10,) * width, values=(1,) * width, bitmap=0b1)
    assert validate_switch_ingress(pkt, NUM_AAS, CHANNELS) == "slot-count"


def test_long_frames_may_exceed_channel_width():
    # LONG payloads bypass switch aggregation, so slot position is not an
    # AA index and the width bound does not apply.
    width = NUM_AAS + 2
    pkt = data_packet(
        flags=FLAG_DATA | FLAG_LONG,
        keys=(b"k" * 30,) * width,
        values=(1,) * width,
        bitmap=(1 << width) - 1,
    )
    assert validate_switch_ingress(pkt, NUM_AAS, CHANNELS) is None


def test_swap_must_use_swap_channel():
    good = data_packet(
        flags=FLAG_SWAP, channel_index=SWAP_CHANNEL_INDEX, bitmap=0, keys=(), values=()
    )
    bad = data_packet(flags=FLAG_SWAP, channel_index=0, bitmap=0, keys=(), values=())
    assert validate_switch_ingress(good, NUM_AAS, CHANNELS) is None
    assert validate_switch_ingress(bad, NUM_AAS, CHANNELS) == "channel-index"
    # A SWAP delivered to a *host* is misrouted no matter the channel.
    assert validate_host_ingress(good, NUM_AAS, CHANNELS) == "misrouted-swap"
