"""Tests for the switch reliability state (seen / max_seq / PktState).

Every check goes through ``DedupUnit.compile_channel(slot)``: the
:class:`~repro.switch.dedup.ChannelProgram` whose 0/1/2 codes the switch
program reads."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AskConfig
from repro.switch.dedup import CHECK_FRESH, CHECK_OBSERVED, CHECK_STALE, DedupUnit
from repro.switch.registers import PassContext, RegisterAccessError
from tests.conftest import fuzz_budget


def _unit(window=8, compact=True, channels=4, num_aas=8):
    cfg = AskConfig.small(window_size=window, use_compact_seen=compact, num_aas=num_aas)
    return DedupUnit(cfg, max_channels=channels)


def _check(unit, channel_slot, seq):
    """One packet's pass through the channel's compiled dedup program."""
    return unit.compile_channel(channel_slot).check(PassContext(), seq)


def test_first_appearance_not_observed():
    unit = _unit()
    assert _check(unit, 0, 0) == CHECK_FRESH


def test_second_appearance_observed():
    unit = _unit()
    _check(unit, 0, 3)
    assert _check(unit, 0, 3) == CHECK_OBSERVED
    assert unit.duplicates_detected == 1


def test_stale_packet_dropped_before_touching_seen():
    unit = _unit(window=8)
    _check(unit, 0, 20)  # max_seq = 20, window floor = 12
    assert _check(unit, 0, 12) == CHECK_STALE
    assert unit.stale_drops == 1


def test_boundary_seq_just_inside_window_accepted():
    # Arrival invariant of the integrated system (§3.3): a sequence number
    # can only be emitted once everything a full window below it was ACKed,
    # i.e. has already traversed the switch.  Deliver 0..12, let 13..19 be
    # in flight, 20 overtakes them, then 13 arrives: it is just inside the
    # window (> max_seq - W) and must be accepted as fresh.
    unit = _unit(window=8)
    for seq in range(13):
        _check(unit, 0, seq)
    _check(unit, 0, 20)
    assert _check(unit, 0, 13) == CHECK_FRESH


def test_channels_are_isolated():
    unit = _unit()
    _check(unit, 0, 5)
    assert _check(unit, 1, 5) == CHECK_FRESH


def test_sequence_wraps_across_segments():
    # Sequences one window apart reuse the same bit with flipped parity.
    unit = _unit(window=4)
    for seq in range(16):
        assert _check(unit, 0, seq) == CHECK_FRESH, f"seq {seq} falsely observed"


def test_retransmit_after_window_advance_detected_within_window():
    unit = _unit(window=8)
    for seq in range(6):
        _check(unit, 0, seq)
    assert _check(unit, 0, 4) == CHECK_OBSERVED


def test_compact_design_uses_w_bits_per_channel():
    compact = _unit(window=8, compact=True, channels=2)
    reference = _unit(window=8, compact=False, channels=2)
    assert compact.seen.size == 2 * 8
    assert reference.seen.size == 2 * 16  # 2W per channel


def test_reference_design_needs_relaxed_registers():
    reference = _unit(compact=False)
    assert reference.seen.relax_access_limit
    compact = _unit(compact=True)
    assert not compact.seen.relax_access_limit


def test_compact_design_single_access_per_pass():
    unit = _unit(compact=True)
    ctx = PassContext()
    unit.compile_channel(0).check(ctx, 0)
    # seen was touched once; touching it again in the same pass must fail.
    with pytest.raises(RegisterAccessError):
        unit.seen.read(ctx, 0)


def test_pkt_state_roundtrip():
    unit = _unit(window=8)
    program = unit.compile_channel(1)
    program.record_bitmap(PassContext(), 5, 0b1010)
    assert program.load_bitmap(PassContext(), 5) == 0b1010


def test_pkt_state_indexed_modulo_window_per_channel():
    unit = _unit(window=8)
    p0, p1 = unit.compile_channel(0), unit.compile_channel(1)
    p0.record_bitmap(PassContext(), 3 + 8, 0b11)  # same cell as seq 3
    p1.record_bitmap(PassContext(), 3, 0b01)
    assert p0.load_bitmap(PassContext(), 3) == 0b11
    assert p1.load_bitmap(PassContext(), 3) == 0b01


def test_sram_accounting_close_to_paper():
    # Paper (§3.3): 256 + 256*32 bits = 1056 B per channel for seen+PktState;
    # our accounting adds the 4-byte max_seq register.
    cfg = AskConfig(window_size=256)  # 32 AAs -> 32-bit PktState entries
    unit = DedupUnit(cfg, max_channels=64)
    per_channel = unit.sram_bytes_per_channel()
    assert 1056 <= per_channel <= 1064


def test_channel_slot_bounds_checked():
    unit = _unit(channels=2)
    with pytest.raises(IndexError):
        unit.compile_channel(2)


class _ReferenceWindow:
    """An oracle receive window: explicit set of in-window seen sequences,
    classifying each arrival with the switch's 0/1/2 code."""

    def __init__(self, window):
        self.window = window
        self.max_seq = -1
        self.seen = set()

    def check(self, seq):
        self.max_seq = max(self.max_seq, seq)
        if seq <= self.max_seq - self.window:
            return CHECK_STALE
        if seq in self.seen:
            return CHECK_OBSERVED
        self.seen.add(seq)
        self.seen = {s for s in self.seen if s > self.max_seq - self.window}
        return CHECK_FRESH


@settings(max_examples=fuzz_budget(300), deadline=None)
@given(
    data=st.data(),
    window=st.sampled_from([2, 4, 8]),
    compact=st.booleans(),
)
def test_dedup_equals_oracle_for_window_respecting_arrivals(data, window, compact):
    """Any arrival sequence the integrated system can generate gets the same
    code from the compiled program (compact and 2W designs alike) as from
    an explicit-set oracle, through one reused pass context as on the
    switch.

    The reachable arrival space (§3.3): a sequence number ``s`` can arrive
    only if every sequence ≤ ``s - W`` has already arrived at least once —
    because the sender admits ``s`` only after those were ACKed, and every
    ACK (switch's or receiver's) implies a prior traversal of the switch.
    Within that constraint, arbitrary reordering, duplication and staleness
    are possible, and the strategy exercises them all.
    """
    unit = _unit(window=window, compact=compact, channels=1)
    program = unit.compile_channel(0)
    ctx = PassContext()
    oracle = _ReferenceWindow(window)
    next_new = 0  # smallest sequence number that has never arrived
    counts = {CHECK_FRESH: 0, CHECK_OBSERVED: 0, CHECK_STALE: 0}
    for _ in range(80):
        seq = data.draw(st.integers(min_value=0, max_value=next_new + window - 1))
        if seq == next_new:
            next_new += 1
        expected = oracle.check(seq)
        assert program.check(ctx.reset(), seq) == expected, f"seq {seq}"
        counts[expected] += 1
    assert unit.duplicates_detected == counts[CHECK_OBSERVED]
    assert unit.stale_drops == counts[CHECK_STALE]
