"""Chaos tests: many tasks, many tenants, racks, faults — all at once.

These are the closest thing to a production soak test the simulator can
run: every submitted task must complete with its exact reference result no
matter how the scenario mixes features.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import AskConfig
from repro.core.service import AskService
from repro.net.fault import FaultModel
from repro.workloads.stream import exact_aggregate, merge_results


def _expected(streams):
    return merge_results([exact_aggregate(s, 32) for s in streams.values()], 32)


def test_many_concurrent_tasks_single_rack():
    rng = random.Random(0)
    fault = FaultModel(loss_rate=0.05, duplicate_rate=0.05, reorder_rate=0.1, seed=1)
    service = AskService(
        AskConfig.small(swap_threshold_packets=8), hosts=6, fault=fault
    )
    submissions = []
    for t in range(10):
        senders = rng.sample(service.hosts, k=rng.randint(1, 3))
        receiver = rng.choice(service.hosts)
        streams = {
            s: [
                (("t%d-k%02d" % (t, rng.randint(0, 15))).encode(), rng.randint(1, 9))
                for _ in range(rng.randint(20, 120))
            ]
            for s in senders
        }
        task = service.submit(
            streams, receiver, region_size=2, tenant_id=t % 3
        )
        submissions.append((task, _expected(streams)))
    service.run_to_completion()
    for task, expected in submissions:
        assert task.result.values == expected, f"task {task.task_id} diverged"


def test_staggered_submissions_interleave_correctly():
    # Tasks submitted while earlier ones are mid-flight share channels and
    # switch memory; FIFO channel scheduling must keep them all exact.
    service = AskService(AskConfig.small(), hosts=3)
    first = service.submit({"h0": [(b"x", 1)] * 200}, "h2", region_size=4)
    service.run(until=service.sim.now + 50_000)  # let the first task start
    second = service.submit({"h0": [(b"x", 10)] * 200}, "h2", region_size=4)
    third = service.submit({"h1": [(b"y", 2)] * 100}, "h2", region_size=4)
    service.run_to_completion()
    assert first.result[b"x"] == 200
    assert second.result[b"x"] == 2000
    assert third.result[b"y"] == 200


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(seed=st.integers(0, 10_000))
def test_multirack_chaos_property(seed):
    rng = random.Random(seed)
    fault = FaultModel(
        loss_rate=rng.uniform(0, 0.1),
        duplicate_rate=rng.uniform(0, 0.1),
        reorder_rate=rng.uniform(0, 0.15),
        seed=seed,
    )
    service = AskService(
        AskConfig.small(swap_threshold_packets=16),
        racks={"r0": ["a", "b"], "r1": ["c", "d"]},
        fault=fault,
    )
    submissions = []
    for t in range(rng.randint(1, 4)):
        senders = rng.sample(service.hosts, k=rng.randint(1, 3))
        receiver = rng.choice(service.hosts)
        streams = {
            s: [
                (("k%02d" % rng.randint(0, 20)).encode(), rng.randint(1, 5))
                for _ in range(rng.randint(10, 80))
            ]
            for s in senders
        }
        submissions.append(
            (service.submit(streams, receiver, region_size=2), _expected(streams))
        )
    service.run_to_completion()
    for task, expected in submissions:
        assert task.result.values == expected
