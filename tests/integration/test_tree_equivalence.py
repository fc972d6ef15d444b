"""The hierarchical-tree equivalence contract.

Whatever the tree shape and placement policy, a spine–leaf deployment must
produce the exact aggregate of a flat single-switch run — aggregation is
commutative and associative mod 2^value_bits, so *where* the merging
happens (leaf, spine, receiver host) can never change *what* is merged.
The property below drives generated workloads through every placement
policy, and through the spineless flat mesh of the same racks, and
compares ``values_sha256`` fingerprints against the single-switch
reference on both backends; the crash drills then assert the contract
holds through a spine failure on both backends (exactly-once under
subtree bypass + replay).
"""

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import AskConfig
from repro.core.results import reference_aggregate, values_sha256
from repro.core.service import PLACEMENTS, AskService
from repro.net.fault import FaultModel

#: 2 pods x 2 racks x 2 hosts — the smallest tree with a cross-pod path.
PODS = {
    "s0": {"r0": ["h0", "h1"], "r1": ["h2", "h3"]},
    "s1": {"r2": ["h4", "h5"], "r3": ["h6", "h7"]},
}
#: The same racks as a spineless flat mesh.
RACKS = {rack: hosts for pod_racks in PODS.values() for rack, hosts in pod_racks.items()}
SENDERS = ("h0", "h2", "h4", "h6")  # one per rack, both pods
#: Every multi-switch layout of those racks: the tree under each placement
#: policy, then the flat mesh (``None``).
LAYOUTS = PLACEMENTS + (None,)


def _flat_fingerprint(streams, config):
    service = AskService(config, hosts=8)
    try:
        result = service.aggregate(streams, receiver="h7", check=True)
        return values_sha256(result.values)
    finally:
        service.close()


def _layout_fingerprint(streams, config, placement, fault=None, backend="sim"):
    layout = {"racks": RACKS} if placement is None else {"pods": PODS, "placement": placement}
    service = AskService(config, fault=fault, backend=backend, **layout)
    try:
        start = getattr(service.fabric, "start", None)
        if start is not None:
            start()
        result = service.aggregate(streams, receiver="h7", check=True)
        return values_sha256(result.values)
    finally:
        service.close()


def _check_layout_matches_flat(seed, num_keys, tuples, placement, backend, config):
    rng = random.Random(seed)
    keys = [b"k%02d" % i for i in range(num_keys)]
    streams = {
        sender: [(rng.choice(keys), rng.randint(0, 2**20)) for _ in range(tuples)]
        for sender in SENDERS
    }
    flat = _flat_fingerprint(streams, config)
    fault = FaultModel(loss_rate=0.05, duplicate_rate=0.05, seed=seed)
    assert _layout_fingerprint(streams, config, placement, fault, backend) == flat
    expected = reference_aggregate(streams, config.value_mask)
    assert flat == values_sha256(expected)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 1000),
    num_keys=st.integers(1, 20),
    tuples=st.integers(1, 120),
    placement=st.sampled_from(LAYOUTS),
)
def test_tree_matches_flat_single_switch_reference(seed, num_keys, tuples, placement):
    _check_layout_matches_flat(seed, num_keys, tuples, placement, "sim", AskConfig.small())


@pytest.mark.parametrize("placement", LAYOUTS, ids=lambda p: p or "mesh")
@settings(
    max_examples=2,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 1000),
    num_keys=st.integers(1, 20),
    tuples=st.integers(1, 60),
)
def test_layouts_match_flat_single_switch_reference_over_udp(
    placement, seed, num_keys, tuples
):
    """The same property on the asyncio backend: real sockets, wall-clock
    timers, the fault model on every datagram."""
    config = dataclasses.replace(AskConfig.small(), retransmit_timeout_us=2_000.0)
    _check_layout_matches_flat(seed, num_keys, tuples, placement, "asyncio", config)


# ----------------------------------------------------------------------
# Spine crash mid-task: exactly-once on both backends
# ----------------------------------------------------------------------
def _crash_config(backend):
    config = AskConfig.small()
    return dataclasses.replace(
        config,
        failure_detection=True,
        heartbeat_interval_us=50.0 if backend == "sim" else 2_000.0,
        retransmit_timeout_us=100.0 if backend == "sim" else 2_000.0,
    )


def _streams():
    return {
        "h0": [(b"hot", 1)] * 40 + [(b"k%04d" % i, i) for i in range(400)],
        "h2": [(b"hot", 2)] * 40 + [(b"k%04d" % i, 1) for i in range(300)],
        "h4": [(b"k%04d" % i, 2) for i in range(300)],
    }


@pytest.mark.parametrize("backend", ["sim", "asyncio"])
@pytest.mark.parametrize("placement", ["spine", "both"])
def test_spine_crash_mid_task_stays_exactly_once(backend, placement):
    """Crash the spine holding a task's combiner regions while the task is
    in flight; the supervisor degrades that subtree to bypass, replays,
    and the result must still be bit-exact (no loss, no double-count)."""
    from repro.chaos import ChaosOrchestrator, ChaosSchedule
    from repro.chaos.schedule import ChaosEvent

    sim = backend == "sim"
    horizon = 250_000 if sim else 30_000_000
    service = AskService(
        _crash_config(backend), backend=backend, pods=PODS, placement=placement
    )
    try:
        schedule = ChaosSchedule(
            seed=0,
            horizon_ns=horizon,
            events=(
                ChaosEvent(horizon // 4, "crash", "spine-s0"),
                ChaosEvent((horizon * 3) // 4, "restore", "spine-s0"),
            ),
        )
        orchestrator = ChaosOrchestrator(service.deployment, schedule)
        start = getattr(service.fabric, "start", None)
        if start is not None:
            start()
        orchestrator.arm()
        streams = _streams()
        result = service.aggregate(streams, receiver="h7", check=True)
        expected = reference_aggregate(streams, service.config.value_mask)
        assert dict(result.items()) == expected
        injected = [e["kind"] for e in orchestrator.injected]
        assert "crash" in injected
    finally:
        service.close()


def test_leaf_crash_under_spine_placement_stays_exactly_once():
    """The leaf holds no regions under "spine" placement, but its death
    still strands its senders' in-flight packets — the supervisor must
    find the task via the path map, not via region bookkeeping."""
    from repro.chaos import ChaosOrchestrator, ChaosSchedule
    from repro.chaos.schedule import ChaosEvent

    service = AskService(_crash_config("sim"), pods=PODS, placement="spine")
    try:
        schedule = ChaosSchedule(
            seed=0,
            horizon_ns=250_000,
            events=(
                ChaosEvent(60_000, "crash", "tor-r0"),
                ChaosEvent(180_000, "restore", "tor-r0"),
            ),
        )
        orchestrator = ChaosOrchestrator(service.deployment, schedule)
        orchestrator.arm()
        streams = _streams()
        result = service.aggregate(streams, receiver="h7", check=True)
        expected = reference_aggregate(streams, service.config.value_mask)
        assert dict(result.items()) == expected
    finally:
        service.close()
