"""The licence for draining the simulator with the cycle collector paused.

``SimRunner.run``/``run_until`` drain under ``paused_gc()``.  That is only
free if a run leaves no cyclic garbage for the collector to find: then
pausing it changes nothing but the time its passes cost.  Three scenarios
that exercise different protocol paths — admission queueing with several
tenants, a lossy rack (retransmissions, duplicates, reordering) and a
small spine-leaf tree — run with the collector off from build to finish,
and a full collection afterwards must find nothing.  The collector must
also be back on after ``run_to_completion``, however it ends.
"""

import gc
import random

import pytest

from repro import AskConfig, AskService, FaultModel
from repro.chaos import ChaosEvent, ChaosOrchestrator, ChaosSchedule
from repro.core.errors import TaskFailedError


def _stream(rng, count, keys=64):
    return [(b"k%03d" % rng.randrange(keys), rng.randint(1, 99)) for _ in range(count)]


def _admission_queued_rack():
    config = AskConfig.small(
        admission_control=True, admission_deadline_us=None, admission_queue_limit=64
    )
    service = AskService(config, hosts=4, max_tasks=2)
    for tenant in (1, 2):
        service.register_tenant(tenant)
    rng = random.Random(3)
    for index in range(8):
        streams = {"h0": _stream(rng, 30), "h1": _stream(rng, 30)}
        service.submit(streams, "h3", region_size=8, tenant_id=1 + index % 2)
    return service


def _lossy_rack():
    fault = FaultModel(
        loss_rate=0.05, duplicate_rate=0.03, reorder_rate=0.1, max_extra_delay_ns=50_000, seed=5
    )
    config = AskConfig.small(window_size=32, retransmit_timeout_us=50.0)
    service = AskService(config, hosts=3, fault=fault)
    rng = random.Random(5)
    service.submit({"h0": _stream(rng, 600), "h1": _stream(rng, 600)}, "h2")
    return service


def _small_tree():
    pods = {
        "p0": {"r0": ["h0", "h1"], "r1": ["h2", "h3"]},
        "p1": {"r2": ["h4", "h5"], "r3": ["h6", "h7"]},
    }
    service = AskService(
        AskConfig.small(aggregators_per_aa=256),
        pods=pods,
        placement="both",
        fault=FaultModel(loss_rate=0.02, seed=9),
    )
    rng = random.Random(9)
    streams = {host: _stream(rng, 150) for host in ("h0", "h2", "h3", "h5")}
    service.submit(streams, "h7", region_size=64)
    return service


@pytest.mark.parametrize("build", [_admission_queued_rack, _lossy_rack, _small_tree])
def test_a_simulated_run_leaves_no_cyclic_garbage(build):
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        service = build()
        service.run_to_completion()
        assert service.tasks and all(t.result is not None for t in service.tasks.values())
        assert gc.collect() == 0
        service.close()
    finally:
        if was_enabled:
            gc.enable()


def test_the_collector_is_back_on_after_every_drain():
    assert gc.isenabled()
    service = _lossy_rack()
    service.run(until=20_000)
    assert gc.isenabled()
    service.run_to_completion()
    assert gc.isenabled()
    service.close()


def test_the_collector_is_back_on_when_a_task_fails():
    service = AskService(
        AskConfig.small(
            failure_detection=True, heartbeat_interval_us=50.0, give_up_timeout_us=300.0
        ),
        hosts=3,
    )
    schedule = ChaosSchedule(
        seed=0, horizon_ns=500_000, events=(ChaosEvent(30_000, "crash", "h2"),)
    )
    ChaosOrchestrator(service.deployment, schedule).arm()
    rng = random.Random(1)
    service.submit({"h0": _stream(rng, 1200, keys=1200)}, receiver="h2")
    with pytest.raises(TaskFailedError, match="give-up deadline"):
        service.run_to_completion()
    assert gc.isenabled()
    service.close()


def test_the_collector_is_back_on_when_the_drain_raises():
    service = _lossy_rack()

    def explode():
        raise RuntimeError("callback failed")

    service.sim.schedule(10, explode)
    with pytest.raises(RuntimeError, match="callback failed"):
        service.run_to_completion()
    assert gc.isenabled()
    service.close()
