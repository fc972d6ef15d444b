"""Tests for the switch controller: regions, channels, fetch-and-reset."""

import pytest

from repro.core.config import AskConfig
from repro.core.controlplane import ControlPlane
from repro.core.errors import RegionExhaustedError, TaskStateError
from repro.core.hashing import address_hash
from repro.core.keyspace import KeySpaceLayout, pad_key
from repro.net.simulator import Simulator
from repro.switch.aggregator import AggregatorPool
from repro.switch.controller import RegionSpec, SwitchController
from repro.switch.pisa import Pipeline
from repro.switch.registers import PassContext
from repro.switch.shadow import ShadowDirectory
from repro.switch.switch import AskSwitch


def _controller(config=None, max_tasks=4, max_channels=8):
    cfg = config or AskConfig(
        num_aas=4,
        aggregators_per_aa=32,
        medium_key_groups=1,
        medium_group_width=2,
        window_size=8,
    )
    pool = AggregatorPool(cfg, Pipeline(max_stages=32), first_stage=0)
    shadow = ShadowDirectory(cfg, max_tasks)
    return cfg, pool, SwitchController(cfg, pool, shadow, max_tasks, max_channels)


def test_allocate_default_takes_largest_extent():
    cfg, pool, ctrl = _controller()
    region = ctrl.allocate_region(1)
    assert region.offset == 0
    assert region.size == cfg.copy_size


def test_regions_do_not_overlap():
    cfg, pool, ctrl = _controller()
    a = ctrl.allocate_region(1, size=4)
    b = ctrl.allocate_region(2, size=4)
    assert {a.offset, b.offset} == {0, 4}


def test_double_allocation_rejected():
    cfg, pool, ctrl = _controller()
    ctrl.allocate_region(1, size=4)
    with pytest.raises(TaskStateError):
        ctrl.allocate_region(1, size=4)


def test_exhaustion_raises():
    cfg, pool, ctrl = _controller()
    ctrl.allocate_region(1, size=cfg.copy_size)
    with pytest.raises(RegionExhaustedError):
        ctrl.allocate_region(2, size=1)


def test_deallocate_frees_extent_and_task_slot():
    cfg, pool, ctrl = _controller()
    region = ctrl.allocate_region(1, size=cfg.copy_size)
    ctrl.deallocate(1)
    again = ctrl.allocate_region(2, size=cfg.copy_size)
    assert again.offset == region.offset


def test_deallocate_unknown_task_rejected():
    cfg, pool, ctrl = _controller()
    with pytest.raises(TaskStateError):
        ctrl.deallocate(9)


def test_first_fit_reuses_gap():
    cfg, pool, ctrl = _controller()
    ctrl.allocate_region(1, size=4)
    ctrl.allocate_region(2, size=4)
    ctrl.deallocate(1)
    region = ctrl.allocate_region(3, size=4)
    assert region.offset == 0


def test_task_slots_limited():
    cfg, pool, ctrl = _controller(max_tasks=2)
    ctrl.allocate_region(1, size=1)
    ctrl.allocate_region(2, size=1)
    with pytest.raises(RegionExhaustedError):
        ctrl.allocate_region(3, size=1)


def test_channel_slots_dense_and_persistent():
    cfg, pool, ctrl = _controller()
    assert ctrl.channel_slot(("h0", 0)) == 0
    assert ctrl.channel_slot(("h1", 0)) == 1
    assert ctrl.channel_slot(("h0", 0)) == 0  # stable on re-lookup
    assert ctrl.num_channels == 2


def test_channel_capacity_enforced():
    cfg, pool, ctrl = _controller(max_channels=1)
    ctrl.channel_slot(("h0", 0))
    with pytest.raises(RegionExhaustedError):
        ctrl.channel_slot(("h0", 1))


def test_fetch_and_reset_short_keys():
    cfg, pool, ctrl = _controller()
    region = ctrl.allocate_region(1)
    layout = KeySpaceLayout(cfg)
    assignment = layout.assign(b"cat")
    index = region.offset + address_hash(assignment.padded) % region.size
    pool[assignment.primary_slot].aggregate_fast(PassContext(), index, assignment.padded, 7)
    fetched = ctrl.fetch_and_reset(1, part=0)
    assert fetched == {b"cat": 7}
    # Reset: a second fetch returns nothing.
    assert ctrl.fetch_and_reset(1, part=0) == {}


def test_fetch_and_reset_reconstructs_medium_keys():
    cfg, pool, ctrl = _controller()
    region = ctrl.allocate_region(1)
    layout = KeySpaceLayout(cfg)
    key = b"yourself"[:6]  # 6 bytes -> medium
    assignment = layout.assign(key)
    segments = layout.segments(assignment.padded)
    index = region.offset + address_hash(assignment.padded) % region.size
    pool.aggregate_group(PassContext(), assignment.slots, index, segments, 11)
    fetched = ctrl.fetch_and_reset(1, part=0)
    assert fetched == {key: 11}


def test_fetch_unknown_task_rejected():
    cfg, pool, ctrl = _controller()
    with pytest.raises(TaskStateError):
        ctrl.fetch_and_reset(3, part=0)


def test_deallocate_clears_cells():
    cfg, pool, ctrl = _controller()
    region = ctrl.allocate_region(1)
    layout = KeySpaceLayout(cfg)
    assignment = layout.assign(b"dog")
    index = region.offset + address_hash(assignment.padded) % region.size
    pool[assignment.primary_slot].aggregate_fast(PassContext(), index, assignment.padded, 3)
    ctrl.deallocate(1)
    region2 = ctrl.allocate_region(2)
    assert ctrl.fetch_and_reset(2, part=0) == {}


def test_region_occupancy_metric():
    cfg, pool, ctrl = _controller()
    region = ctrl.allocate_region(1)
    layout = KeySpaceLayout(cfg)
    assignment = layout.assign(b"dog")
    index = region.offset + address_hash(assignment.padded) % region.size
    pool[assignment.primary_slot].aggregate_fast(PassContext(), index, assignment.padded, 3)
    occ = ctrl.region_occupancy(1, part=0)
    assert occ == pytest.approx(1 / (region.size * cfg.num_aas))


def test_invalid_region_size():
    cfg, pool, ctrl = _controller()
    with pytest.raises(ValueError):
        ctrl.allocate_region(1, size=0)


@pytest.mark.parametrize("switch_cls", [AskSwitch])
def test_allocate_with_spec_sets_the_combiner_role(switch_cls):
    # ControlPlane.allocate passes sources=/relay= by keyword whenever a
    # RegionSpec is given; the controller must accept them.
    switch = switch_cls(AskConfig.small(), Simulator(), max_tasks=4)
    control = ControlPlane()
    control.register("spine", switch.controller)
    spec = RegionSpec(sources=frozenset({"leaf0", "leaf1"}), relay=True)
    region = control.allocate(1, ["spine"], size=4, specs={"spine": spec})["spine"]
    assert region.sources == spec.sources
    assert region.relay is True
    assert switch.controller.lookup_region(1) is region
