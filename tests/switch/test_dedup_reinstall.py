"""Failover re-install baselines (control plane → DedupUnit).

After a reboot wipes the reliability registers, ``reinstall_channel``
writes exactly the state a healthy switch would hold had it just
processed ``next_seq - 1``.  These tests pin the baseline math — most
importantly the compact ``seen`` parity for *odd* segments, where the
power-on-zero register would misread a fresh sequence as a duplicate —
and the self-healing behaviour for pre-baseline stragglers.  Packets go
through each channel's compiled program, as on the switch.
"""

import pytest

from repro.core.config import AskConfig
from repro.switch.dedup import CHECK_FRESH, CHECK_OBSERVED, CHECK_STALE, DedupUnit
from repro.switch.registers import PassContext

W = 8


def _unit(compact=True, window=W):
    cfg = AskConfig.small(window_size=window, use_compact_seen=compact)
    return DedupUnit(cfg, max_channels=4)


def _check(unit, channel_slot, seq):
    return unit.compile_channel(channel_slot).check(PassContext(), seq)


def _load(unit, channel_slot, seq):
    return unit.compile_channel(channel_slot).load_bitmap(PassContext(), seq)


# Baselines across both segment parities and mid-segment offsets.
BASELINES = [8, 12, 16, 20, 27, 40]


@pytest.mark.parametrize("compact", [True, False])
@pytest.mark.parametrize("next_seq", BASELINES)
def test_contiguous_stream_from_baseline_reads_fresh(compact, next_seq):
    unit = _unit(compact=compact)
    unit.reinstall_channel(0, next_seq)
    for seq in range(next_seq, next_seq + 3 * W):
        assert _check(unit, 0, seq) == CHECK_FRESH, f"seq {seq}"
    assert unit.stale_drops == 0 and unit.duplicates_detected == 0


@pytest.mark.parametrize("compact", [True, False])
@pytest.mark.parametrize("next_seq", BASELINES)
def test_duplicates_still_detected_after_baseline(compact, next_seq):
    unit = _unit(compact=compact)
    unit.reinstall_channel(0, next_seq)
    _check(unit, 0, next_seq)
    assert _check(unit, 0, next_seq) == CHECK_OBSERVED


def test_odd_segment_baseline_would_misread_without_reinstall():
    # The failure mode the baseline exists to prevent: seq 24 with W=8
    # lands in segment 3 (odd), where the compact scheme reports the
    # *complement* of the stored bit — all-zero registers read "seen".
    unit = _unit(compact=True)
    assert _check(unit, 0, 3 * W) == CHECK_OBSERVED, "precondition for the baseline's existence"
    healed = _unit(compact=True)
    healed.reinstall_channel(0, 3 * W)
    assert _check(healed, 0, 3 * W) == CHECK_FRESH


@pytest.mark.parametrize("next_seq", [16, 20, 27])
def test_straggler_within_window_reads_duplicate_and_heals(next_seq):
    # A pre-reboot packet less than W below the baseline arrives late: in
    # the compact design it must read as a duplicate (drop + ACK, bitmap 0
    # → nothing re-added) AND leave the seen bit such that the real first
    # appearance of its residue still reads fresh afterwards.  (The 2W
    # reference design lacks this defense-in-depth — a down switch drops
    # frames outright, so no straggler can reach a rebooted switch.)
    unit = _unit(compact=True)
    unit.reinstall_channel(0, next_seq)
    straggler = next_seq - 1
    assert _check(unit, 0, straggler) == CHECK_OBSERVED
    assert _load(unit, 0, straggler) == 0
    first = straggler + W  # same residue class, the real first appearance
    assert _check(unit, 0, first) == CHECK_FRESH


@pytest.mark.parametrize("compact", [True, False])
def test_straggler_a_full_window_below_is_stale(compact):
    unit = _unit(compact=compact)
    unit.reinstall_channel(0, 20)
    # max_seq = 19, stale guard drops seq <= 19 - W = 11.
    assert _check(unit, 0, 11) == CHECK_STALE
    assert _check(unit, 0, 3) == CHECK_STALE
    assert _check(unit, 0, 12) != CHECK_STALE


@pytest.mark.parametrize("compact", [True, False])
def test_pkt_state_is_zeroed_by_reinstall(compact):
    unit = _unit(compact=compact)
    _check(unit, 0, 5)
    unit.compile_channel(0).record_bitmap(PassContext(), 5, 0b1011)
    unit.reinstall_channel(0, 16)
    for offset in range(W):
        assert _load(unit, 0, 16 + offset) == 0


def test_reinstall_only_touches_its_channel():
    unit = _unit(compact=True)
    _check(unit, 1, 7)
    unit.compile_channel(1).record_bitmap(PassContext(), 7, 0b1)
    unit.reinstall_channel(0, 24)
    assert _check(unit, 1, 7) == CHECK_OBSERVED  # neighbour's dedup state intact
    assert _load(unit, 1, 7) == 0b1


def test_reinstall_rejects_out_of_range_slot():
    unit = _unit()
    with pytest.raises(IndexError):
        unit.reinstall_channel(4, 8)
    with pytest.raises(IndexError):
        unit.reinstall_channel(-1, 8)
