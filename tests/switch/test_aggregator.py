"""Tests for aggregator arrays and the coalesced group scheme."""

import pytest

from repro.core.config import AskConfig
from repro.core.packer import pack_stream
from repro.core.packet import AskPacket, PacketFlag
from repro.net.simulator import Simulator
from repro.switch.aggregator import AggregatorArray, AggregatorPool
from repro.switch.pisa import Pipeline
from repro.switch.registers import PassContext, RegisterAccessError
from repro.switch.switch import AskSwitch


def _aa(size=16):
    return AggregatorArray("AA0", size, key_bits=32, value_bits=32)


def test_blank_cell_is_claimed():
    aa = _aa()
    assert aa.aggregate_fast(PassContext(), 3, b"key1", 5) == AggregatorArray.RESERVED
    assert aa.control_cell(3) == (b"key1", 5)


def test_matching_key_accumulates():
    aa = _aa()
    aa.aggregate_fast(PassContext(), 3, b"key1", 5)
    assert aa.aggregate_fast(PassContext(), 3, b"key1", 7) == AggregatorArray.MATCHED
    assert aa.control_cell(3) == (b"key1", 12)


def test_mismatched_key_fails_without_mutation():
    aa = _aa()
    aa.aggregate_fast(PassContext(), 3, b"key1", 5)
    assert aa.aggregate_fast(PassContext(), 3, b"key2", 7) == AggregatorArray.FAIL
    assert aa.control_cell(3) == (b"key1", 5)


def test_value_wraps_at_register_width():
    aa = _aa()
    aa.aggregate_fast(PassContext(), 0, b"k", 0xFFFFFFFF)
    aa.aggregate_fast(PassContext(), 0, b"k", 2)
    assert aa.control_cell(0) == (b"k", 1)  # modulo 2^32


def test_disabled_access_touches_but_does_not_mutate():
    aa = _aa()
    ctx = PassContext()
    assert aa.aggregate_fast(ctx, 0, b"k", 5, enabled=False) == AggregatorArray.FAIL
    assert aa.control_cell(0) == (None, 0)
    # The register array was still accessed once this pass (predicated no-op).
    with pytest.raises(RegisterAccessError):
        aa.aggregate_fast(ctx, 1, b"k", 5)


def test_none_add_value_reserves_with_zero():
    aa = _aa()
    aa.aggregate_fast(PassContext(), 0, b"seg", None)
    assert aa.control_cell(0) == (b"seg", 0)


def test_occupied_in_range():
    aa = _aa()
    aa.aggregate_fast(PassContext(), 1, b"a", 1)
    aa.aggregate_fast(PassContext(), 5, b"b", 1)
    assert aa.occupied_in(0, 8) == 2
    assert aa.occupied_in(2, 8) == 1


class TestPool:
    def _pool(self, config=None):
        cfg = config or AskConfig(
            num_aas=4,
            aggregators_per_aa=16,
            medium_key_groups=1,
            medium_group_width=2,
            shadow_copy=False,
        )
        return cfg, AggregatorPool(cfg, Pipeline(max_stages=32), first_stage=0)

    def test_pool_builds_one_aa_per_slot(self):
        cfg, pool = self._pool()
        assert len(pool) == 4
        assert all(pool[i].size == 16 for i in range(4))

    def test_short_aggregation_counts_stats(self):
        # Short tuples are aggregated by the switch program's per-packet
        # loop, which adds its outcomes to the pool's counters.
        cfg = AskConfig.small(shadow_copy=False)
        switch = AskSwitch(cfg, Simulator(), max_tasks=4, max_channels=8)
        switch.controller.allocate_region(1)
        (payload,) = pack_stream([(b"k", 1)], cfg)[0]
        pkt = AskPacket(
            PacketFlag.DATA, 1, "h0", "h1", 0, 0, payload.bitmap, payload.keys, payload.values
        )
        switch.program.process(switch.pipeline.begin_pass(), pkt)
        assert switch.pool.tuples_aggregated == 1
        assert switch.pool.aggregators_reserved == 1
        assert switch.pool.tuples_failed == 0

    def test_group_all_or_nothing_on_blank_row(self):
        cfg, pool = self._pool()
        ok = pool.aggregate_group(PassContext(), (2, 3), 5, (b"your", b"s\x80\x00\x00"), 9)
        assert ok
        assert pool[2].control_cell(5) == (b"your", 0)
        assert pool[3].control_cell(5) == (b"s\x80\x00\x00", 9)

    def test_group_mismatch_leaves_row_untouched(self):
        cfg, pool = self._pool()
        pool.aggregate_group(PassContext(), (2, 3), 5, (b"your", b"s\x80\x00\x00"), 9)
        ok = pool.aggregate_group(PassContext(), (2, 3), 5, (b"your", b"self"), 3)
        assert not ok
        # The matching prefix segment must not be corrupted (the X1Y2 case).
        assert pool[2].control_cell(5) == (b"your", 0)
        assert pool[3].control_cell(5) == (b"s\x80\x00\x00", 9)
        assert pool.tuples_failed == 1

    def test_group_match_accumulates_value_in_last_slot(self):
        cfg, pool = self._pool()
        pool.aggregate_group(PassContext(), (2, 3), 5, (b"your", b"s\x80\x00\x00"), 9)
        pool.aggregate_group(PassContext(), (2, 3), 5, (b"your", b"s\x80\x00\x00"), 4)
        assert pool[3].control_cell(5)[1] == 13
        assert pool[2].control_cell(5)[1] == 0

    def test_group_segment_count_must_match_width(self):
        cfg, pool = self._pool()
        with pytest.raises(ValueError):
            pool.aggregate_group(PassContext(), (2, 3), 0, (b"only-one",), 1)

    def test_pool_occupancy_fraction(self):
        cfg, pool = self._pool()
        pool[0].aggregate_fast(PassContext(), 0, b"aaaa", 1)
        assert pool.occupancy(0, 16) == pytest.approx(1 / 64)

    def test_pool_respects_stage_budget_of_four_per_stage(self):
        cfg = AskConfig(
            num_aas=8,
            aggregators_per_aa=16,
            medium_key_groups=2,
            medium_group_width=2,
            shadow_copy=False,
        )
        pipeline = Pipeline(max_stages=32)
        pool = AggregatorPool(cfg, pipeline, first_stage=0)
        stages = [aa.registers.stage_index for aa in pool.arrays]
        assert stages == [0, 0, 0, 0, 1, 1, 1, 1]
