"""Bulk control-plane register access == the seed's per-cell walk.

``SwitchController.fetch_and_reset`` and the region clears read and reset
register *slices* (``control_occupied`` / ``control_clear_range``).  The
per-cell body they replaced lives on as ``reference_fetch_and_reset``; this
module requires the same result dict *in the same insertion order*, the same
register contents afterwards (both shadow copies, neighbouring regions
included) and the same ``fetches`` counter.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.config import AskConfig
from repro.core.keyspace import pad_key
from repro.net.simulator import Simulator
from repro.switch.aggregator import AggregatorArray
from repro.switch.switch import AskSwitch
from tests.oracles.control import reference_fetch_and_reset

_GEOMETRIES = [
    AskConfig.small(),
    AskConfig.small(shadow_copy=False),
    AskConfig.small(num_aas=6, aggregators_per_aa=32, medium_key_groups=1, medium_group_width=3),
    AskConfig.small(num_aas=3, medium_key_groups=0),
    AskConfig(),  # paper geometry: 32 AAs x 32 768 aggregators
]

#: Few distinct keys, so the same plain key lands in several slots and the
#: ``result.get(plain, 0) + value`` merge runs.  The last three are not
#: ``key_bytes`` long.
_KEYS = [b"", b"a", b"ab", b"abcd", b"\x00\x00", b"a\x80", b"toolong", b"xy"]
_VALUES = [0, 1, 2**31, 2**32 - 1]

#: (kind, slot/group selector, where, copy (0 = the fetched one), relative
#: index, key, value, partial-row mask) — selectors are reduced modulo the
#: geometry; most writes land where the fetch looks, the rest around it.
_WRITES = st.lists(
    st.tuples(
        st.sampled_from(["short", "row", "row", "partial", "raw"]),
        st.integers(0, 63),
        st.sampled_from(["target"] * 4 + ["left", "right"]),
        st.sampled_from([0, 0, 0, 1]),
        st.integers(0, 1 << 16),
        st.sampled_from(_KEYS),
        st.sampled_from(_VALUES),
        st.integers(1, 254),
    ),
    max_size=64,
)


def _cell_writes(cfg, layout, regions, shadow, fetched_part, write):
    """Expand one abstract write into ``(aa, index, segment, add)`` RMWs."""
    kind, selector, where, other_copy, rel, key, value, mask = write
    region = regions[where]
    part = fetched_part ^ other_copy if cfg.shadow_copy else 0
    index = shadow.part_offset(part) + region.offset + rel % region.size
    if kind == "raw":  # any AA, unpadded bytes (exotic length when != key_bytes)
        return [(selector % cfg.num_aas, index, key, value)]
    if kind == "short" or not layout.num_groups:
        return [(selector % layout.num_short_slots, index, pad_key(key[:4], cfg.key_bytes), value)]
    slots = layout.group_slots(selector % layout.num_groups)
    padded = pad_key(key, cfg.medium_key_bytes)
    segments = [padded[i : i + cfg.key_bytes] for i in range(0, len(padded), cfg.key_bytes)]
    last = len(slots) - 1
    row = [
        (slot, index, segment, value if pos == last else None)
        for pos, (slot, segment) in enumerate(zip(slots, segments))
    ]
    if kind == "partial":  # hostile: a proper, non-empty subset of the row
        keep = [cell for pos, cell in enumerate(row) if mask >> pos & 1]
        return keep if 0 < len(keep) < len(row) else row[:1]
    return row


def _rmw(switch, aa, index, segment, add):
    """One data-plane aggregator RMW."""
    switch.pool[aa].aggregate_fast(switch.pipeline.begin_pass(), index, segment, add)


def _assert_same_registers(a, b):
    """Storage equality: every cell of every AA, both copies."""
    for left, right in zip(a.pool.arrays, b.pool.arrays):
        read_left, read_right = left.registers.control_read_range, right.registers.control_read_range
        assert read_left(0, left.size) == read_right(0, right.size), left.name


def _reference_clear(controller, region):
    for part in range(2 if controller.config.shadow_copy else 1):
        base = controller.shadow.part_offset(part)
        for aa in controller.pool.arrays:
            for idx in range(base + region.offset, base + region.end):
                aa.control_clear(idx)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    cfg=st.sampled_from(_GEOMETRIES),
    sizes=st.tuples(st.integers(1, 2), st.integers(1, 12), st.integers(1, 2)),
    slack=st.floats(0, 1),
    part=st.integers(0, 1),
    writes=_WRITES,
)
@example(  # one plain key in two slots, as an exotic kPart and in two rows: masked merges
    cfg=_GEOMETRIES[0],
    sizes=(1, 4, 1),
    slack=0.5,
    part=1,
    writes=[
        ("short", 0, "target", 0, 0, b"a", 2**32 - 1, 1),
        ("short", 1, "target", 0, 1, b"a", 2**31, 1),
        ("raw", 2, "target", 0, 2, b"a", 2**31, 1),
        ("row", 0, "target", 0, 3, b"ab", 2**32 - 1, 1),
        ("row", 1, "target", 0, 0, b"ab", 2, 1),
        ("partial", 1, "target", 0, 1, b"ab", 5, 2),
    ],
)
def test_bulk_fetch_and_clear_match_the_per_cell_oracle(cfg, sizes, slack, part, writes):
    part = part if cfg.shadow_copy else 0
    left, size, right = sizes
    # The left neighbour's size sets the target's offset: anywhere in the copy.
    left += int(slack * (cfg.copy_size - sum(sizes)))
    bulk, oracle = (AskSwitch(cfg, Simulator(), max_tasks=4) for _ in range(2))
    for switch in (bulk, oracle):
        ctrl = switch.controller
        regions = {
            "left": ctrl.allocate_region(1, left),
            "target": ctrl.allocate_region(2, size),
            "right": ctrl.allocate_region(3, right),
        }
        assert regions["left"].end == regions["target"].offset
        assert regions["target"].end == regions["right"].offset
        for write in writes:
            for cell in _cell_writes(cfg, ctrl.layout, regions, ctrl.shadow, part, write):
                _rmw(switch, *cell)
    _assert_same_registers(bulk, oracle)

    got = bulk.controller.fetch_and_reset(2, part)
    want = reference_fetch_and_reset(oracle.controller, 2, part)
    assert list(got.items()) == list(want.items())
    assert bulk.controller.fetches == oracle.controller.fetches == 1
    _assert_same_registers(bulk, oracle)

    bulk.controller.deallocate(2)
    _reference_clear(oracle.controller, regions["target"])
    _assert_same_registers(bulk, oracle)
    assert bulk.controller.region_occupancy(1, 0) == oracle.controller.region_occupancy(1, 0)


def test_paper_geometry_teardown_never_reads_cell_by_cell(monkeypatch):
    """Structural guard: the bulk path has no per-cell fallback."""
    cfg = AskConfig()
    switch = AskSwitch(cfg, Simulator())
    ctrl = switch.controller
    region = ctrl.allocate_region(1)
    assert region.size == cfg.copy_size
    expected = {}
    for i in range(400):  # 300 short keys, then 100 complete medium rows
        key = b"k%03d" % i if i < 300 else b"med%03d" % i
        assignment = ctrl.layout.assign(key)
        segments = ctrl.layout.segments(assignment.padded) if i >= 300 else (assignment.padded,)
        last = len(segments) - 1
        for pos, (slot, segment) in enumerate(zip(assignment.slots, segments)):
            _rmw(switch, slot, region.offset + 37 * i, segment, i if pos == last else None)
        expected[key] = i

    def per_cell_read(self, index):
        raise AssertionError("control-plane walk fell back to per-cell reads")

    monkeypatch.setattr(AggregatorArray, "control_cell", per_cell_read)
    assert ctrl.fetch_and_reset(1, 0) == expected
    assert ctrl.fetch_and_reset(1, 1) == {}
    ctrl.deallocate(1)
    # Both copies were cleared whole: every page is the shared blank again.
    assert all(aa.control_occupied(0, aa.size) == [] for aa in switch.pool.arrays)
    assert sum(aa.registers.resident_cells for aa in switch.pool.arrays) == 0


@pytest.mark.parametrize("switch_cls", [AskSwitch])
def test_control_occupied_is_ascending_and_range_bounded(switch_cls):
    cfg = AskConfig.small()
    switch = switch_cls(cfg, Simulator(), max_tasks=4)
    for index, segment, value in ((9, b"late", 2), (3, b"earl", 0), (20, b"out!", 5), (5, b"odd", 1)):
        _rmw(switch, 1, index, segment, value)
    aa = switch.pool[1]
    assert aa.control_occupied(3, 20) == [(3, b"earl", 0), (5, b"odd", 1), (9, b"late", 2)]
    assert aa.control_occupied(10, 20) == [] == switch.pool[0].control_occupied(0, aa.size)
    aa.control_clear_range(4, 10)
    assert aa.control_occupied(0, aa.size) == [(3, b"earl", 0), (20, b"out!", 5)]
