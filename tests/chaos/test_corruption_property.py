"""End-to-end data integrity under injected corruption.

The tentpole property: with integrity checks enabled, *corruption is
indistinguishable from loss*.  Bit flips on the wire (asyncio backend) or
field mutations on packet objects (sim backend) are caught by the
checksum layer, dropped, counted, and healed by §3.3 retransmission — so
the final aggregate is bit-identical to the fault-free reference, and
the books balance: every injected corruption event that reached a
decoder shows up as a counted drop or a quarantine entry.

The combined drill stacks corruption windows on top of Gilbert–Elliott
burst loss and a switch reboot in one chaos schedule — the full fault
soup — and still demands exactness on both backends.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosOrchestrator, ChaosSchedule
from repro.chaos.schedule import ChaosEvent
from repro.core.config import AskConfig
from repro.core.packet import AskPacket, Slot
from repro.core.results import reference_aggregate
from repro.core.service import AskService
from repro.net.fault import CorruptedFrame, FaultModel, GilbertElliott
from tests.conftest import fuzz_budget


def _streams():
    return {
        "h0": [(b"hot", 1), (b"cold", 2)] * 40
        + [(f"key-{i:04d}".encode(), i) for i in range(900)],
        "h1": [(b"hot", 3)] * 40
        + [(f"key-{i:04d}".encode(), 1) for i in range(600)],
    }


def _expected(service, streams):
    return reference_aggregate(
        {h: list(s) for h, s in streams.items()}, service.config.value_mask
    )


def _robustness_books(deployment):
    nodes = list(deployment.daemons.values()) + list(deployment.switches.values())
    drops = sum(n.robustness.total for n in nodes)
    quarantined = sum(
        n.quarantine.admitted for n in nodes if hasattr(n, "quarantine")
    )
    return drops, quarantined


# ----------------------------------------------------------------------
# Sim backend: field-mutation corruption on every link
# ----------------------------------------------------------------------
@settings(
    max_examples=fuzz_budget(12),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(seed=st.integers(0, 10_000), rate=st.sampled_from([0.02, 0.08, 0.2]))
def test_corruption_is_indistinguishable_from_loss_on_sim(seed, rate):
    service = AskService(
        AskConfig.small(),
        hosts=3,
        fault=FaultModel(corrupt_rate=rate, seed=seed),
    )
    streams = _streams()
    expected = _expected(service, streams)
    result = service.aggregate(streams, receiver="h2")
    assert result.values == expected

    # The books balance: a pure-corruption model never loses a frame, so
    # every damaged frame reaches exactly one decoder and is refused
    # there.  (Sim corruption mutates fields behind a checksum-failed
    # wrapper, so nothing ever gets deep enough to be quarantined.)
    injected = service.topology.corruption_injected
    drops, quarantined = _robustness_books(service.deployment)
    assert quarantined == 0
    assert drops == injected


def test_sim_corruption_actually_injects_and_heals():
    # Deterministic positive control for the property above: at a 20%
    # rate over ~thousands of frames the schedule must damage plenty.
    service = AskService(
        AskConfig.small(), hosts=3, fault=FaultModel(corrupt_rate=0.2, seed=7)
    )
    streams = _streams()
    expected = _expected(service, streams)
    result = service.aggregate(streams, receiver="h2")
    assert result.values == expected
    assert service.topology.corruption_injected > 100
    assert result.stats.retransmissions > 0


def test_integrity_off_is_the_negative_control():
    # Without integrity checks a checksum-failed frame is unwrapped and
    # consumed as-is — the seed stack's behaviour.  This is the control
    # showing the drops above come from the integrity layer, not luck.
    service = AskService(AskConfig.small(integrity_checks=False), hosts=3)
    daemon = service.deployment.daemons["h2"]
    switch = service.switch
    pkt = AskPacket(
        0x1, 99, "h0", "h2", 0, 0, bitmap=0b1,
        slots=(Slot(b"k" * 10, 3),) + (None,) * 3,
    )
    daemon.receive(CorruptedFrame(pkt))
    switch.receive(CorruptedFrame(pkt))
    service.run()
    assert daemon.robustness.total == 0
    assert switch.robustness.get("checksum") == 0


@pytest.mark.parametrize(
    "layout, tor",
    [
        ({"hosts": 3}, "switch"),
        ({"racks": {"r0": ("h0", "h1"), "r1": ("h2",)}}, "tor-r0"),
        ({"pods": {"p0": {"r0": ("h0", "h1")}, "p1": {"r1": ("h2",)}}}, "tor-r0"),
    ],
)
def test_tor_window_breaks_its_racks_uplink_frames_on_every_layout(layout, tor):
    """A chaos window on a TOR puts every frame its rack's hosts send at
    risk — one rack, flat mesh or tree alike.  Each corrupted frame is
    refused and counted at its first ingress: mostly that TOR, plus the
    other racks' TORs for frames addressed to it."""
    service = AskService(AskConfig.small(), **layout)
    service.topology.corrupt(tor)
    streams = _streams()
    expected = _expected(service, streams)
    result = service.aggregate(streams, receiver="h2")
    assert result.values == expected
    injected = service.topology.corruption_injected
    assert service.deployment.switches[tor].robustness.get("checksum") > 500
    drops, quarantined = _robustness_books(service.deployment)
    assert (drops, quarantined) == (injected, 0)


# ----------------------------------------------------------------------
# Asyncio backend: bit-flip corruption on encoded datagrams
# ----------------------------------------------------------------------
@settings(
    max_examples=2,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(seed=st.integers(0, 100))
def test_corruption_is_indistinguishable_from_loss_on_asyncio(seed):
    config = dataclasses.replace(
        AskConfig.small(), retransmit_timeout_us=2000
    )
    service = AskService(
        config,
        hosts=3,
        fault=FaultModel(corrupt_rate=0.05, seed=seed),
        backend="asyncio",
    )
    try:
        service.fabric.start()
        streams = _streams()
        expected = _expected(service, streams)
        task = service.submit(streams, receiver="h2")
        service.run_to_completion(timeout_s=90.0)
        assert task.result is not None
        assert task.result.values == expected
        # Drain: frames damaged right at completion are still in flight;
        # give the loop a moment to decode (and refuse) the stragglers.
        for _ in range(2):
            service.run(until=service.clock.now + 100_000_000)  # 100 ms
        injected = service.topology.corruption_injected
        drops, quarantined = _robustness_books(service.deployment)
        # The books balance for everything that reached a decoder: every
        # refused datagram is attributed to exactly one node's counters.
        # ``injected`` is only an upper bound on a real kernel — under a
        # retransmission storm the UDP receive buffer overflows and sheds
        # damaged and clean datagrams alike (that *is* loss, and the clean
        # side of it is what the retransmissions above healed).
        assert drops + quarantined == service.fabric.malformed_frames
        assert 0 < drops + quarantined <= injected
    finally:
        service.close()


# ----------------------------------------------------------------------
# Combined drill: corruption + burst loss + a switch reboot, one run
# ----------------------------------------------------------------------
def _drill_schedule(horizon_scale: int) -> ChaosSchedule:
    """Corruption window on h0 overlapping a switch reboot; offsets are
    multiplied out so one shape serves both clocks."""
    s = horizon_scale
    return ChaosSchedule(
        seed=0,
        horizon_ns=250 * s,
        events=(
            ChaosEvent(20 * s, "corrupt", "h0"),
            ChaosEvent(40 * s, "crash", "switch"),
            ChaosEvent(120 * s, "restore", "switch"),
            ChaosEvent(160 * s, "cleanse", "h0"),
        ),
    )


def test_combined_fault_drill_on_sim():
    service = AskService(
        AskConfig.small(failure_detection=True, heartbeat_interval_us=50.0),
        hosts=3,
        fault=FaultModel(
            corrupt_rate=0.03,
            burst=GilbertElliott(p_good_bad=0.02, p_bad_good=0.3, loss_bad=0.5),
            seed=11,
        ),
    )
    schedule = _drill_schedule(horizon_scale=1_000)  # 250 µs horizon
    orchestrator = ChaosOrchestrator(service.deployment, schedule)
    orchestrator.arm()
    streams = _streams()
    expected = _expected(service, streams)
    task = service.submit(streams, receiver="h2")
    service.run_to_completion()
    service.run()  # drain recoveries scheduled past completion
    assert task.result is not None
    assert task.result.values == expected
    assert len(orchestrator.injected) == len(schedule.events)
    report = orchestrator.report(tasks=service.tasks)
    assert report.totals["switch_reboots"] >= 1
    # Both the per-link model and the chaos window injected corruption,
    # and every refused frame is on the books.
    assert report.totals["corrupted_frames_injected"] > 0
    assert report.totals["robustness_drops"] > 0


def test_combined_fault_drill_on_asyncio():
    config = dataclasses.replace(
        AskConfig.small(),
        retransmit_timeout_us=2000,
        failure_detection=True,
        heartbeat_interval_us=2_000.0,
    )
    service = AskService(
        config,
        hosts=3,
        fault=FaultModel(
            corrupt_rate=0.03,
            burst=GilbertElliott(p_good_bad=0.02, p_bad_good=0.3, loss_bad=0.5),
            seed=11,
        ),
        backend="asyncio",
    )
    try:
        schedule = _drill_schedule(horizon_scale=120_000)  # 30 ms horizon
        orchestrator = ChaosOrchestrator(service.deployment, schedule)
        service.fabric.start()
        orchestrator.arm()
        streams = _streams()
        expected = _expected(service, streams)
        task = service.submit(streams, receiver="h2")
        service.run_to_completion(timeout_s=90.0)
        assert task.result is not None
        assert task.result.values == expected
        report = orchestrator.report(tasks=service.tasks)
        assert report.totals["robustness_drops"] >= 0  # books exist either way
    finally:
        service.close()
