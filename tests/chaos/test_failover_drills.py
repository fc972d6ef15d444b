"""Deterministic failure drills against the simulated backend.

Each drill arms an explicit (hand-written, not sampled) chaos schedule
against a live deployment and asserts the supervised-recovery contract:
the result stays bit-exact against the fault-free reference, and the
supervisor's event log shows the expected failover path.

Timing cheat-sheet (config used below): heartbeat 50 µs → ticks at
50 k, 100 k, ... ns; lease = 3 heartbeats = 150 k ns; control-plane
re-install latency 10 k ns.
"""

import json

import pytest

from repro.chaos import ChaosEvent, ChaosOrchestrator, ChaosSchedule
from repro.core.config import AskConfig
from repro.core.errors import TaskFailedError
from repro.core.results import reference_aggregate
from repro.core.service import AskService
from repro.core.task import TaskPhase


def _service(**overrides):
    return AskService(
        AskConfig.small(
            failure_detection=True, heartbeat_interval_us=50.0, **overrides
        ),
        hosts=3,
    )


def _streams():
    """Hot keys plus a long distinct-key tail: the tail keeps the stream
    in flight well past the fault window (hot keys alone pack into a
    handful of frames and finish before anything breaks)."""
    return {
        "h0": [(b"hot", 1)] * 50
        + [(f"key-{i:04d}".encode(), i) for i in range(1200)],
        "h1": [(b"hot", 3)] * 50
        + [(f"key-{i:04d}".encode(), 1) for i in range(800)],
    }


def _expected(service, streams):
    return reference_aggregate(
        {h: list(s) for h, s in streams.items()}, service.config.value_mask
    )


def _run_drill(service, events, streams=None):
    schedule = ChaosSchedule(seed=0, horizon_ns=500_000, events=tuple(events))
    orchestrator = ChaosOrchestrator(service.deployment, schedule)
    orchestrator.arm()
    streams = streams if streams is not None else _streams()
    expected = _expected(service, streams)
    task = service.submit(streams, receiver="h2")
    service.run_to_completion()
    service.run()  # drain trailing chaos/reinstall events off the heap
    assert task.result is not None
    assert task.result.values == expected, "degraded run diverged from reference"
    return task, orchestrator


# ---------------------------------------------------------------------------
# Switch reboot: degrade-to-bypass, re-install, re-enabled aggregation
# ---------------------------------------------------------------------------
def test_switch_reboot_drill_completes_via_bypass_and_reenables_offload():
    service = _service()
    task, orchestrator = _run_drill(
        service,
        [
            ChaosEvent(30_000, "crash", "switch"),
            ChaosEvent(80_000, "restore", "switch"),
        ],
    )
    # The degraded window shipped raw tuples end-to-end.
    assert task.stats.bypass_packets_sent > 0
    assert task.stats.bypass_packets_received > 0
    kinds = [e["kind"] for e in service.supervisor.events]
    assert "switch-reboot-observed" in kinds
    assert "switch-reinstalled" in kinds
    assert "task-restarted" in kinds
    assert service.supervisor.reinstalls == 1
    assert not service.switch.needs_install

    # The degradation report pairs the outage with its re-install.
    report = orchestrator.report(tasks=service.tasks)
    assert report.totals["faults_injected"] == 1
    assert report.totals["switch_reboots"] == 1
    assert report.totals["bypass_packets_sent"] > 0
    latencies = report.recovery_latencies_ns[service.switch.name]
    assert len(latencies) == 1 and latencies[0] > 0
    assert json.loads(report.to_json())["seed"] == 0
    assert "switch-reinstalled" in report.summary()

    # Post-heal, in-network aggregation is back: a second task offloads
    # onto the switch again (no bypass, offload counters move).
    aggregated_before = service.switch.program.stats.tuples_aggregated
    second = service.submit({"h0": [(b"again", 1)] * 120}, receiver="h2")
    service.run_to_completion()
    assert second.result is not None and second.result[b"again"] == 120
    assert service.switch.program.stats.tuples_aggregated > aggregated_before
    assert second.stats.bypass_packets_sent == 0


def test_switch_lease_lapse_drill_bypasses_while_dark():
    # Down well past the 150 k ns lease (the supervisor first observes the
    # node at its 50 k tick, so the lapse fires at the 250 k tick): the
    # lapse itself — not the reboot — must already degrade the rack and
    # restart its tasks.
    service = _service()
    task, _ = _run_drill(
        service,
        [
            ChaosEvent(30_000, "crash", "switch"),
            ChaosEvent(300_000, "restore", "switch"),
        ],
    )
    kinds = [e["kind"] for e in service.supervisor.events]
    assert "switch-lease-lapsed" in kinds
    assert "switch-reinstalled" in kinds
    assert task.stats.bypass_packets_sent > 0
    assert not service.switch.needs_install


# ---------------------------------------------------------------------------
# Daemon crashes: supervised recovery from the reliability layer
# ---------------------------------------------------------------------------
def test_sender_daemon_crash_drill_rebuilds_retransmission_schedule():
    service = _service()
    task, _ = _run_drill(
        service,
        [
            ChaosEvent(40_000, "crash", "h0"),
            ChaosEvent(100_000, "restore", "h0"),
        ],
    )
    daemon = service.daemons["h0"]
    assert daemon.crashes == 1
    # ACKs arriving at the dead process were lost; the rebuilt timers
    # re-drove the unacked entries.
    assert daemon.dropped_while_down > 0
    assert task.stats.retransmissions > 0


def test_receiver_daemon_crash_drill_resumes_swaps():
    # Down 100 k ns < the lease: no reclaim — the restarted receiver picks
    # its accumulator back up and the switch's swap retries deliver.
    service = _service()
    task, _ = _run_drill(
        service,
        [
            ChaosEvent(40_000, "crash", "h2"),
            ChaosEvent(140_000, "restore", "h2"),
        ],
    )
    assert service.daemons["h2"].crashes == 1
    assert service.supervisor.reclaims == 0
    assert task.phase is TaskPhase.COMPLETE


# ---------------------------------------------------------------------------
# Receiver lease lapse: reclaim, switchless readoption
# ---------------------------------------------------------------------------
def test_receiver_lease_lapse_drill_reclaims_regions_and_readopts():
    service = _service()
    task, _ = _run_drill(
        service,
        [
            ChaosEvent(30_000, "crash", "h2"),
            ChaosEvent(400_000, "restore", "h2"),
        ],
    )
    kinds = [e["kind"] for e in service.supervisor.events]
    assert "regions-reclaimed" in kinds
    assert "daemon-readopted" in kinds
    assert "task-readopted" in kinds
    assert service.supervisor.reclaims >= 1
    # The readopted task completed *switchless*: replayed in bypass, its
    # reclaimed regions never re-allocated.
    assert task.stats.bypass_packets_received > 0
    assert not service.control.has_regions(task.task_id)

    # The channel's switch dedup state was re-baselined when the bypass
    # job finished: the next task aggregates in-network again.
    aggregated_before = service.switch.program.stats.tuples_aggregated
    follow_up = service.submit(
        {"h0": [(b"post", 2)] * 150, "h1": [(b"post", 1)] * 100}, receiver="h2"
    )
    service.run_to_completion()
    assert follow_up.result is not None and follow_up.result[b"post"] == 400
    assert service.switch.program.stats.tuples_aggregated > aggregated_before


# ---------------------------------------------------------------------------
# Give-up deadline: loud failure, reusable service
# ---------------------------------------------------------------------------
def test_give_up_drill_fails_loudly_and_frees_capacity():
    service = _service(give_up_timeout_us=300.0)
    schedule = ChaosSchedule(
        seed=0,
        horizon_ns=500_000,
        events=(ChaosEvent(30_000, "crash", "h2"),),  # never restored
    )
    ChaosOrchestrator(service.deployment, schedule).arm()
    task = service.submit(_streams(), receiver="h2")
    with pytest.raises(TaskFailedError, match="give-up deadline"):
        service.run_to_completion()
    assert task.phase is TaskPhase.FAILED
    assert task.failure_reason and "h2" in task.failure_reason
    assert service.supervisor.give_up_failures >= 1
    # Capacity was not held hostage: regions freed, service reusable.
    assert not service.control.has_regions(task.task_id)
    survivor = service.submit({"h0": [(b"alive", 1)] * 60}, receiver="h1")
    service.run_to_completion()
    assert survivor.result is not None and survivor.result[b"alive"] == 60


# ---------------------------------------------------------------------------
# Partitions: pure loss, healed by retransmission alone
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("target", ["h0", "h2", "switch"])
def test_partition_drill_heals_by_retransmission(target):
    service = _service()
    task, orchestrator = _run_drill(
        service,
        [
            ChaosEvent(30_000, "partition", target),
            ChaosEvent(100_000, "heal", target),
        ],
    )
    report = orchestrator.report(tasks=service.tasks)
    dropped = (
        report.totals["frames_dropped_by_partition"]
        + report.totals["frames_dropped_at_down_nodes"]
    )
    assert dropped > 0, "the partition never cut a frame"
    assert task.stats.retransmissions > 0
    # A partition is not a failure: no restart, no bypass, no reclaim.
    assert service.supervisor.task_restarts == 0
    assert service.supervisor.reclaims == 0


# ---------------------------------------------------------------------------
# Gray failure: slow-is-the-new-dead route-around and re-adoption
# ---------------------------------------------------------------------------
def test_gray_slow_switch_drill_routes_around_then_readopts():
    # 30 µs links make the clean round trip ~61 µs; the 4x slow window
    # inflates it to ~244 µs, far past the 100 µs fixed RTO — but every
    # heartbeat still arrives (late), so the lease never lapses.  The
    # supervisor must convict the switch on timeout evidence alone,
    # degrade its subtree to bypass, and re-adopt after the revive.
    service = AskService(
        AskConfig.small(
            failure_detection=True,
            heartbeat_interval_us=50.0,
            link_latency_ns=30_000,
            gray_detection=True,
        ),
        hosts=3,
    )
    schedule = ChaosSchedule(
        seed=0,
        horizon_ns=3_000_000,
        events=(
            ChaosEvent(150_000, "slow", "switch"),
            ChaosEvent(600_000, "revive", "switch"),
        ),
    ).check_windows()
    orchestrator = ChaosOrchestrator(service.deployment, schedule)
    orchestrator.arm()
    streams = _streams()
    expected = _expected(service, streams)
    task = service.submit(streams, receiver="h2")
    service.run_to_completion()
    service.run()  # drain the revive and the post-calm re-adoption
    assert task.result is not None
    assert task.result.values == expected

    # Everything stayed alive — no lease lapsed, no node was declared
    # dead — yet the switch was routed around on timeout evidence...
    kinds = [e["kind"] for e in service.supervisor.events]
    assert "gray-suspected" in kinds
    assert "switch-lease-lapsed" not in kinds
    assert service.supervisor.gray_routearounds >= 1
    assert task.stats.timeouts > 0
    assert task.stats.bypass_packets_sent > 0
    # ...and re-adopted once the path calmed down.
    assert "gray-readopted" in kinds
    assert service.supervisor.gray_readoptions >= 1
    assert not service.switch.needs_install

    # The degradation report tells the same story.
    report = orchestrator.report(tasks=service.tasks)
    assert report.gray["gray_faults_injected"] == 1
    assert report.gray["gray_routearounds"] >= 1
    assert report.gray["timeouts"] > 0
    assert "gray" in report.summary()


# ---------------------------------------------------------------------------
# Orchestrator contract
# ---------------------------------------------------------------------------
def test_orchestrator_rejects_unsupervised_deployments():
    service = AskService(AskConfig.small(), hosts=2)
    schedule = ChaosSchedule(
        seed=0, horizon_ns=1000, events=(ChaosEvent(0, "crash", "h0"),)
    )
    with pytest.raises(ValueError, match="unsupervised"):
        ChaosOrchestrator(service.deployment, schedule)
    # ... unless the caller explicitly opts out of recovery.
    ChaosOrchestrator(service.deployment, schedule, require_supervisor=False)


def test_orchestrator_rejects_unknown_targets_and_double_arm():
    service = _service()
    bad = ChaosSchedule(
        seed=0, horizon_ns=1000, events=(ChaosEvent(0, "crash", "h9"),)
    )
    with pytest.raises(KeyError, match="h9"):
        ChaosOrchestrator(service.deployment, bad)
    good = ChaosSchedule(
        seed=0, horizon_ns=1000, events=(ChaosEvent(0, "partition", "h0"),)
    )
    orchestrator = ChaosOrchestrator(service.deployment, good)
    orchestrator.arm()
    with pytest.raises(RuntimeError, match="already armed"):
        orchestrator.arm()


def test_back_to_back_flap_windows_keep_one_toggle_chain():
    """A pending toggle of a closed flap window must not act on the next
    window on the same target: partition and heal strictly alternate, and
    only each window's own toggles count."""
    service = AskService(AskConfig.small(), hosts=3)
    schedule = ChaosSchedule(
        seed=0,
        horizon_ns=150_000,
        events=(
            ChaosEvent(0, "flap", "h1"),
            ChaosEvent(50_000, "steady", "h1"),
            ChaosEvent(55_000, "flap", "h1"),
            ChaosEvent(150_000, "steady", "h1"),
        ),
        flap_period_ns=20_000,
    ).check_windows()
    fabric = service.fabric
    calls = []
    for name in ("partition", "heal"):

        def record(target, _apply=getattr(fabric, name), _name=name):
            calls.append((service.clock.now, _name))
            _apply(target)

        setattr(fabric, name, record)
    orchestrator = ChaosOrchestrator(
        service.deployment, schedule, require_supervisor=False
    )
    orchestrator.arm()
    service.run()
    kinds = [name for _, name in calls]
    assert kinds == ["partition", "heal"] * (len(kinds) // 2)
    # Window 1 toggles at 20 and 40 us; window 2 at 75, 95, 115, 135 us.
    assert orchestrator.flap_toggles == 6
    assert (60_000, "heal") not in calls
