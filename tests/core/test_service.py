"""End-to-end tests for the AskService facade."""

import pytest

from repro.core.config import AskConfig
from repro.core.errors import TaskFailedError, TaskStateError, TopologyError
from repro.core.service import AskService, TreeAskService
from repro.core.task import TaskPhase
from repro.workloads.stream import exact_aggregate


def test_basic_aggregation_matches_reference():
    service = AskService(AskConfig.small(), hosts=3)
    streams = {"h0": [(b"cat", 1), (b"dog", 2)], "h1": [(b"cat", 5)]}
    result = service.aggregate(streams, receiver="h2", check=True)
    assert result.values == {b"cat": 6, b"dog": 2}


def test_receiver_can_also_send():
    service = AskService(AskConfig.small(), hosts=2)
    streams = {"h0": [(b"a", 1)], "h1": [(b"a", 2)]}
    result = service.aggregate(streams, receiver="h1", check=True)
    assert result[b"a"] == 3


def test_mixed_key_classes_end_to_end():
    service = AskService(AskConfig.small(), hosts=2)
    streams = {
        "h0": [
            (b"cat", 1),  # short
            (b"medium", 2),  # medium (coalesced)
            (b"a-much-longer-key", 3),  # long (bypasses the switch)
            (b"cat", 4),
        ]
    }
    result = service.aggregate(streams, receiver="h1", check=True)
    assert result[b"cat"] == 5
    assert result[b"medium"] == 2
    assert result[b"a-much-longer-key"] == 3


def test_value_wraparound_is_consistent():
    cfg = AskConfig.small(value_bits=8)
    service = AskService(cfg, hosts=2)
    streams = {"h0": [(b"k", 200), (b"k", 100)]}
    result = service.aggregate(streams, receiver="h1")
    assert result[b"k"] == (300) & 0xFF


def test_concurrent_tasks_are_isolated():
    service = AskService(AskConfig.small(), hosts=3)
    t1 = service.submit({"h0": [(b"x", 1)] * 50}, receiver="h2", region_size=8)
    t2 = service.submit({"h1": [(b"x", 10)] * 50}, receiver="h2", region_size=8)
    service.run_to_completion()
    assert t1.result[b"x"] == 50
    assert t2.result[b"x"] == 500


def test_sequential_tasks_reuse_persistent_channels():
    service = AskService(AskConfig.small(), hosts=2)
    first = service.aggregate({"h0": [(b"a", 1)] * 30}, receiver="h1")
    second = service.aggregate({"h0": [(b"a", 2)] * 30}, receiver="h1")
    assert first[b"a"] == 30
    assert second[b"a"] == 60
    # The channel kept one continuous sequence space across both tasks.
    channel = service.daemon("h0").channels[0]
    assert channel.window.next_seq >= 60


def test_unknown_hosts_rejected():
    service = AskService(AskConfig.small(), hosts=2)
    with pytest.raises(KeyError):
        service.submit({"h9": [(b"a", 1)]}, receiver="h1")
    with pytest.raises(KeyError):
        service.submit({"h0": [(b"a", 1)]}, receiver="h9")


def test_empty_task_rejected():
    service = AskService(AskConfig.small(), hosts=2)
    with pytest.raises(ValueError):
        service.submit({}, receiver="h1")


def test_duplicate_task_id_rejected():
    service = AskService(AskConfig.small(), hosts=2)
    service.submit({"h0": [(b"a", 1)]}, receiver="h1", task_id=7)
    with pytest.raises(TaskStateError):
        service.submit({"h0": [(b"a", 1)]}, receiver="h1", task_id=7)


def test_task_progresses_through_phases():
    service = AskService(AskConfig.small(), hosts=2)
    task = service.submit({"h0": [(b"a", 1)]}, receiver="h1")
    assert task.phase is TaskPhase.SUBMITTED
    service.run_to_completion()
    assert task.phase is TaskPhase.COMPLETE
    assert task.stats.completed_at_ns is not None
    assert task.stats.started_at_ns is not None


def test_result_published_to_receiver_shared_memory():
    service = AskService(AskConfig.small(), hosts=2)
    task = service.submit({"h0": [(b"a", 2)]}, receiver="h1")
    service.run_to_completion()
    region = service.daemon("h1").shm.get(task.task_id, role="recv")
    assert region.result == {b"a": 2}


def test_switch_region_released_after_completion():
    service = AskService(AskConfig.small(), hosts=2)
    task = service.submit({"h0": [(b"a", 1)]}, receiver="h1")
    service.run_to_completion()
    assert service.switch.controller.lookup_region(task.task_id) is None


def test_region_size_controls_collisions():
    # With a one-aggregator region, distinct keys in one subspace collide
    # and fall through to the receiver — but the result stays exact.
    service = AskService(AskConfig.small(), hosts=2)
    streams = {"h0": [(("k%02d" % i).encode(), 1) for i in range(40)]}
    result = service.aggregate(streams, receiver="h1", region_size=1, check=True)
    assert len(result) == 40
    assert result.stats.tuples_merged_at_receiver > 0


def test_aggregate_check_passes_reference_comparison():
    service = AskService(AskConfig.small(), hosts=2)
    stream = [(("w%02d" % (i % 17)).encode(), i) for i in range(200)]
    result = service.aggregate({"h0": stream}, receiver="h1", check=True)
    expected = exact_aggregate(stream, value_bits=32)
    assert result.values == expected


def test_stats_account_for_every_tuple():
    service = AskService(AskConfig.small(), hosts=2)
    stream = [(("w%02d" % (i % 9)).encode(), 1) for i in range(120)]
    result = service.aggregate({"h0": stream}, receiver="h1")
    stats = result.stats
    assert stats.input_tuples == 120
    assert 0 <= stats.tuples_merged_at_receiver <= 120
    assert stats.tuples_aggregated_at_switch + stats.tuples_merged_at_receiver == 120


def test_hosts_accepts_names():
    service = AskService(AskConfig.small(), hosts=["alpha", "beta"])
    result = service.aggregate({"alpha": [(b"a", 1)]}, receiver="beta")
    assert result[b"a"] == 1


def test_failed_allocation_tears_down_and_leaves_service_reusable():
    """A mid-submit allocation failure (tenant quota here) must fail the
    handle loudly, unwind every partial reservation, and leave the rest
    of the service untouched: the concurrent survivor still completes
    exactly and a fresh same-tenant submit fits again afterwards."""
    from repro.core.tenancy import TenantQuotaError

    service = AskService(AskConfig.small(), hosts=2)
    service.switch.controller.tenant_quotas.set(7, 8)
    survivor = service.submit(
        {"h0": [(b"a", 1)] * 300}, receiver="h1", region_size=8, tenant_id=7
    )
    doomed = service.submit(
        {"h0": [(b"a", 1)] * 300}, receiver="h1", region_size=8, tenant_id=7
    )
    with pytest.raises(TenantQuotaError):
        service.run_to_completion()

    assert doomed.phase is TaskPhase.FAILED
    assert "allocation failed" in doomed.failure_reason
    # The doomed task was fully unwound: off the books, no regions held.
    assert doomed.task_id not in service.tasks
    assert not service.control.has_regions(doomed.task_id)

    # The service keeps running: the survivor finishes bit-exact ...
    service.run_to_completion()
    assert survivor.result is not None
    assert survivor.result[b"a"] == 300
    # ... and the freed quota admits a fresh task for the same tenant.
    retry = service.submit(
        {"h0": [(b"b", 2)] * 50}, receiver="h1", region_size=8, tenant_id=7
    )
    service.run_to_completion()
    assert retry.result is not None and retry.result[b"b"] == 100


def test_open_stream_rejects_repeated_sender():
    service = AskService(AskConfig.small(), hosts=3)
    with pytest.raises(ValueError, match="distinct"):
        service.open_stream(["h0", "h0"], receiver="h2")
    assert not service.tasks


def test_auto_task_ids_skip_explicit_ones():
    service = AskService(AskConfig.small(), hosts=2)
    explicit = service.submit(
        {"h0": [(b"a", 1)]}, receiver="h1", region_size=8, task_id=1
    )
    auto = service.submit({"h0": [(b"a", 2)]}, receiver="h1", region_size=8)
    assert auto.task_id != explicit.task_id
    assert set(service.tasks) == {explicit.task_id, auto.task_id}
    service.run_to_completion()
    assert explicit.result[b"a"] == 1 and auto.result[b"a"] == 2


def test_placement_is_checked_against_the_layout():
    pods = {"p0": {"r0": ["h0", "h1"]}, "p1": {"r1": ["h2", "h3"]}}
    with pytest.raises(ValueError, match="unknown placement"):
        AskService(AskConfig.small(), pods=pods, placement="root")
    tree = AskService(AskConfig.small(), pods=pods)
    assert tree.placement == "both"
    with pytest.raises(ValueError, match="unknown placement"):
        tree.submit({"h0": [(b"a", 1)]}, receiver="h3", placement="root")
    # Without spines there is nothing to place: every region lives on the
    # sender-side TORs, so an explicit placement is a topology error.
    for service in (
        AskService(AskConfig.small(), hosts=2),
        AskService(AskConfig.small(), racks={"r0": ["h0"], "r1": ["h1"]}),
    ):
        assert service.placement == "leaf"
        with pytest.raises(TopologyError):
            service.submit({"h0": [(b"a", 1)]}, receiver="h1", placement="leaf")
        with pytest.raises(TopologyError):
            service.open_stream(["h0"], receiver="h1", placement="spine")
        assert not service.tasks
    with pytest.raises(TopologyError):
        AskService(AskConfig.small(), hosts=2, placement="spine")


def test_one_layout_per_service():
    with pytest.raises(ValueError, match="one layout"):
        AskService(AskConfig.small(), hosts=2, racks={"r0": ["a"], "r1": ["b"]})


def test_layouts_name_their_switches():
    rack = AskService(AskConfig.small(), hosts=["a", "b"], switch_name="tor")
    assert set(rack.switches) == {"r0"} and rack.switch.name == "tor"
    mesh = AskService(AskConfig.small(), racks={"x": ["a"], "y": ["b"]})
    assert {r: s.name for r, s in mesh.switches.items()} == {"x": "tor-x", "y": "tor-y"}
    assert mesh.spines == {}
    tree = TreeAskService(AskConfig.small(), None, "spine")
    assert tree.placement == "spine"
    assert {p: s.name for p, s in tree.spines.items()} == {"s0": "spine-s0", "s1": "spine-s1"}
    assert len(tree.switches) == 4 and len(tree.hosts) == 8


def test_sender_gives_up_loudly_when_the_switch_is_unreachable():
    """With failure detection off, nothing reroutes around a partitioned
    switch: the sender retransmits until the give-up deadline, then fails
    the task with a reason instead of hanging."""
    cfg = AskConfig.small(retransmit_timeout_us=50.0, give_up_timeout_us=300.0)
    assert not cfg.failure_detection
    service = AskService(cfg, hosts=2)
    service.fabric.partition("switch")
    with pytest.raises(TaskFailedError, match="sender h0 gave up on task 1"):
        service.aggregate({"h0": [(b"k", 1)]}, receiver="h1")
    task = service.tasks[1]
    assert task.phase is TaskPhase.FAILED
    assert task.failure_reason == (
        "sender h0 gave up on task 1: seq 0 unacknowledged after 6 transmissions"
    )
    assert service.daemons["h0"].channel_for_task(1).timers.give_ups == 1
