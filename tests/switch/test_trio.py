"""Tests for the Trio run-to-completion backend (§6)."""

import random

import pytest

from repro.core.config import AskConfig
from repro.core.constants import SWITCH_PIPELINE_LATENCY_NS
from repro.core.errors import RegionExhaustedError, TaskStateError
from repro.core.results import reference_aggregate
from repro.core.service import AskService
from repro.net.fault import FaultModel
from repro.switch.trio import TRIO_LATENCY_FACTOR, TrioController, TrioSwitch
from repro.workloads.datasets import get_dataset


def _service(fault=None, **overrides):
    cfg = AskConfig.small(shadow_copy=False, **overrides)
    return AskService(cfg, hosts=2, switch_factory=TrioSwitch, fault=fault)


def test_basic_aggregation_matches_reference():
    service = _service()
    result = service.aggregate(
        {"h0": [(b"cat", 1), (b"dog", 2), (b"cat", 3)]}, receiver="h1", check=True
    )
    assert result[b"cat"] == 4


def test_long_keys_aggregate_on_the_switch():
    """The §6 improvement: no long-key bypass on run-to-completion."""
    service = _service()
    stream = [(b"a-very-long-key-%02d" % (i % 5), 1) for i in range(200)]
    result = service.aggregate({"h0": stream}, receiver="h1", check=True)
    assert result.stats.switch_aggregation_ratio == 1.0
    assert result.stats.tuples_merged_at_receiver == 0


def test_pisa_backend_cannot_do_that():
    cfg = AskConfig.small(shadow_copy=False)
    service = AskService(cfg, hosts=2)  # default PISA backend
    stream = [(b"a-very-long-key-%02d" % (i % 5), 1) for i in range(200)]
    result = service.aggregate({"h0": stream}, receiver="h1", check=True)
    assert result.stats.switch_aggregation_ratio == 0.0  # all bypassed


def test_exactly_once_under_faults():
    rng = random.Random(1)
    keys = [b"short", b"mediumkey"[:6], b"a-definitely-long-key"]
    stream = [(rng.choice(keys), rng.randint(1, 9)) for _ in range(400)]
    fault = FaultModel(loss_rate=0.1, duplicate_rate=0.08, reorder_rate=0.1, seed=7)
    service = _service(fault=fault)
    result = service.aggregate({"h0": stream}, receiver="h1", check=True)
    assert result.stats.retransmissions > 0


def test_capacity_overflow_falls_back_to_receiver():
    service = _service()
    stream = [(("k%03d" % i).encode(), 1) for i in range(100)]
    # Budget of 1 per virtual AA * 8 AAs = 8 table entries.
    result = service.aggregate({"h0": stream}, receiver="h1", region_size=1, check=True)
    assert 0 < result.stats.tuples_aggregated_at_switch <= 8
    assert result.stats.tuples_merged_at_receiver >= 92


def test_swap_notifications_are_harmless_noops():
    # Shadow copies are pointless on Trio but the host may still send
    # swap notifications; the protocol must stay exact.
    cfg = AskConfig.small(shadow_copy=True, swap_threshold_packets=2)
    service = AskService(cfg, hosts=2, switch_factory=TrioSwitch)
    stream = [(("k%02d" % (i % 20)).encode(), 1) for i in range(300)]
    # A tiny store forces forwards, so the receiver reaches its swap
    # threshold and notifies the switch.
    result = service.aggregate({"h0": stream}, receiver="h1", region_size=1, check=True)
    assert result.stats.swaps >= 1  # acknowledged and completed


def test_processing_latency_is_slower_than_pisa():
    service = _service()
    assert (
        service.switch.processing_latency_ns
        == SWITCH_PIPELINE_LATENCY_NS * TRIO_LATENCY_FACTOR
    )


def test_controller_budget_accounting():
    cfg = AskConfig.small(shadow_copy=False)
    controller = TrioController(cfg, max_tasks=4, total_entries=100)
    controller.allocate_region(1, size=10)  # 10 * 8 AAs = 80 entries
    assert controller.allocated_entries == 80
    with pytest.raises(RegionExhaustedError):
        controller.allocate_region(2, size=10)
    controller.deallocate(1)
    controller.allocate_region(2, size=10)


def test_controller_rejects_double_allocation_and_unknown_tasks():
    cfg = AskConfig.small(shadow_copy=False)
    controller = TrioController(cfg, max_tasks=4, total_entries=10_000)
    controller.allocate_region(1, size=1)
    with pytest.raises(TaskStateError):
        controller.allocate_region(1, size=1)
    with pytest.raises(TaskStateError):
        controller.fetch_and_reset(9, 0)


def test_fetch_part_one_is_empty():
    cfg = AskConfig.small(shadow_copy=False)
    controller = TrioController(cfg, max_tasks=4, total_entries=10_000)
    region = controller.allocate_region(1, size=4)
    controller.tables[region.task_slot][b"k"] = 5
    assert controller.fetch_and_reset(1, 1) == {}
    assert controller.fetch_and_reset(1, 0) == {b"k": 5}
    assert controller.fetch_and_reset(1, 0) == {}


def test_text_corpus_trio_beats_pisa_on_switch_ratio():
    stream = get_dataset("NG", 2_000).stream(3_000, seed=3)
    pisa = AskService(
        AskConfig.small(shadow_copy=False, aggregators_per_aa=4096), hosts=2
    ).aggregate({"h0": stream}, receiver="h1", check=True)
    trio = _service(aggregators_per_aa=4096).aggregate(
        {"h0": stream}, receiver="h1", check=True
    )
    assert trio.stats.switch_aggregation_ratio > pisa.stats.switch_aggregation_ratio


def _mixed_stream(n=600, seed=5):
    """Short, medium and long keys, so every key class takes the store."""
    rng = random.Random(seed)
    keys = [b"cat", b"medium-1", b"a-definitely-long-key-%d" % rng.randint(0, 3)]
    keys += [b"k%02d" % i for i in range(12)]
    return [(rng.choice(keys), rng.randint(1, 9)) for _ in range(n)]


def test_one_rack_with_failure_detection_aggregates_exactly():
    cfg = AskConfig.small(shadow_copy=False, failure_detection=True)
    service = AskService(cfg, hosts=2, switch_factory=TrioSwitch)
    result = service.aggregate({"h0": _mixed_stream()}, receiver="h1", check=True)
    assert result.stats.switch_aggregation_ratio == 1.0


@pytest.mark.parametrize("placement", ["leaf", "spine", "both"])
def test_one_pod_tree_aggregates_exactly(placement):
    """Combiner ``sources`` and relay regions work on the full-key store."""
    cfg = AskConfig.small(shadow_copy=False)
    service = AskService(
        cfg,
        pods={"p0": {"r0": ["h0", "h1"], "r1": ["h2"]}},
        placement=placement,
        switch_factory=TrioSwitch,
    )
    streams = {"h0": _mixed_stream(seed=1), "h1": _mixed_stream(seed=2)}
    result = service.aggregate(streams, receiver="h2", check=True)
    assert result.stats.tuples_aggregated_at_switch > 0


def test_crash_and_restore_mid_task_is_exactly_once():
    from repro.chaos import ChaosEvent, ChaosOrchestrator, ChaosSchedule

    cfg = AskConfig.small(
        shadow_copy=False, failure_detection=True, heartbeat_interval_us=50.0
    )
    service = AskService(cfg, hosts=3, switch_factory=TrioSwitch)
    schedule = ChaosSchedule(
        seed=0,
        horizon_ns=500_000,
        events=(
            ChaosEvent(30_000, "crash", "switch"),
            ChaosEvent(80_000, "restore", "switch"),
        ),
    )
    ChaosOrchestrator(service.deployment, schedule).arm()
    streams = {
        "h0": [(b"hot", 1)] * 50 + [(b"key-%04d" % i, i) for i in range(1200)],
        "h1": [(b"a-definitely-long-key", 3)] * 400,
    }
    task = service.submit(streams, receiver="h2")
    service.run_to_completion()
    service.run()
    assert task.result is not None
    assert task.result.values == reference_aggregate(streams, cfg.value_mask)
    assert task.stats.bypass_packets_sent > 0
    assert service.switch.boot_count == 1
    assert not service.switch.needs_install


def test_restore_wipes_and_reset_task_blanks_the_store():
    cfg = AskConfig.small(shadow_copy=False)
    switch = AskService(cfg, hosts=2, switch_factory=TrioSwitch).switch
    controller = switch.controller
    region = controller.allocate_region(1, size=4)
    controller.tables[region.task_slot][b"k"] = 5
    controller.reset_task(1)
    assert controller.tables[region.task_slot] == {}
    assert controller.lookup_region(1) == region  # the allocation stays

    controller.tables[region.task_slot][b"k"] = 5
    switch.crash()
    switch.restore()
    assert controller.tables[region.task_slot] == {}
    assert switch.boot_count == 1 and switch.needs_install
