"""The sharded simulator's correctness contract: serial == sharded.

The property: for ANY scenario — random topology shape, fault seeds,
placements, shard counts, task mixes, chaos schedules (including events
landing exactly on window boundaries) — the rack-sharded conservative
PDES run produces a result fingerprint byte-identical to the one-process
serial run.  Not statistically close: identical, down to every per-link
counter and every task's ``values_sha256``.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosEvent, ChaosSchedule
from repro.chaos.schedule import RECOVERY_OF
from repro.core.config import AskConfig
from repro.core.errors import ChaosScheduleError, ConfigError, TopologyError
from repro.runtime.sharded import (
    ShardedScenario,
    ShardedTask,
    demo_plan,
    demo_scenario,
    make_plan,
    run_serial,
    run_sharded,
    submission_order,
    task_homes,
)
from tests.conftest import fuzz_budget

CORE_LATENCY_NS = 4_000


def _config():
    return AskConfig.small(window_size=16, retransmit_timeout_us=40.0)


def _stream(rng, length, keyspace=24):
    keys = [f"k{i:02d}".encode() for i in range(keyspace)]
    return tuple((rng.choice(keys), rng.randint(1, 99)) for _ in range(length))


@st.composite
def sharded_scenarios(draw):
    """A random scenario plus a plan it is closed under.

    Tree topologies dominate on purpose: with single-rack pods and
    spread spines, leaf-placed tasks transit spines owned by *other*
    shards, which is the only way aggregation traffic crosses the cut
    (the zero-latency control plane pins each task's racks to one
    shard).  Flat meshes exercise the window loop with idle cross links.
    """
    import random

    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    tree = draw(st.booleans())
    racks_list = []
    if tree:
        num_pods = draw(st.integers(2, 4))
        pods = {}
        host_id = 0
        for p in range(num_pods):
            rack = f"r{p}"
            racks_list.append(rack)
            pods[f"p{p}"] = {
                rack: tuple(f"h{host_id + i}" for i in range(2))
            }
            host_id += 2
        topo_kwargs = {"pods": pods, "placement": "leaf"}
    else:
        num_racks = draw(st.integers(2, 4))
        racks = {}
        host_id = 0
        for r in range(num_racks):
            rack = f"r{r}"
            racks_list.append(rack)
            racks[rack] = tuple(f"h{host_id + i}" for i in range(2))
            host_id += 2
        topo_kwargs = {"racks": racks}

    shards = draw(st.integers(2, len(racks_list)))
    spread = draw(st.booleans()) if tree else False

    scenario_probe = ShardedScenario(config=_config(), **topo_kwargs)
    plan = make_plan(scenario_probe, shards, spread_spines=spread)
    layout = scenario_probe.layout
    rack_hosts, rack_of, spine_of = layout.rack_hosts, layout.rack_of, layout.spine_of

    tasks = []
    for _ in range(draw(st.integers(1, 3))):
        # Senders may live on ANY rack of the receiver's shard (the task
        # closure rule), not just the receiver's own rack: multi-rack
        # tasks make a sender's aggregation traffic transit spines owned
        # by other shards, colliding same-instant local events with
        # injected cross-shard messages — the ordering case the ticket
        # scheme exists for.
        rack = draw(st.sampled_from(racks_list))
        home = plan.rank_of_rack(rack)
        receiver = draw(st.sampled_from(list(rack_hosts[rack])))
        pool = sorted(
            h
            for r in racks_list
            if plan.rank_of_rack(r) == home
            for h in rack_hosts[r]
            if h != receiver
        )
        senders = draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True)
        )
        placement = None
        if tree:
            allowed = ["leaf"]
            task_racks = {rack} | {rack_of[s] for s in senders}
            if all(
                plan.rank_of_spine(spine_of[r]) == home for r in task_racks
            ):
                allowed += ["spine", "both"]
            placement = draw(st.sampled_from(allowed))
        tasks.append(
            ShardedTask(
                streams={s: _stream(rng, draw(st.integers(20, 60))) for s in senders},
                receiver=receiver,
                placement=placement,
                region_size=4,
            )
        )

    chaos = []
    all_hosts = [h for hosts in rack_hosts.values() for h in hosts]
    for _ in range(draw(st.integers(0, 2))):
        # Boundary-aligned times: multiples of the cross-shard lookahead,
        # the exact timestamps a conservative window barrier lands on.
        start = draw(st.integers(1, 20)) * CORE_LATENCY_NS
        span = draw(st.integers(1, 10)) * CORE_LATENCY_NS
        kind = draw(
            st.sampled_from(["partition", "corrupt", "slow", "straggle"])
        )
        # A corruption window on a TOR puts its whole rack's uplink frames
        # at risk, each drawn from its sending host's stream.
        targets = all_hosts + list(layout.tor_of.values()) if kind == "corrupt" else all_hosts
        target = draw(st.sampled_from(targets))
        chaos.append(ChaosEvent(start, kind, target))
        chaos.append(ChaosEvent(start + span, RECOVERY_OF[kind], target))

    fault = None
    if draw(st.booleans()):
        fault = {
            "loss_rate": 0.03,
            "duplicate_rate": 0.02,
            "reorder_rate": 0.05,
            "max_extra_delay_ns": 15_000,
            "seed": draw(st.integers(0, 10_000)),
        }
    scenario = ShardedScenario(
        config=_config(),
        tasks=tuple(tasks),
        chaos=ChaosSchedule(
            seed=0,
            horizon_ns=30 * CORE_LATENCY_NS,
            events=tuple(chaos),
            corruption_rate=0.3,
            # Nonzero jitter so gray windows actually consume their named
            # streams — the draws must replay identically across the cut.
            slow_jitter_ns=3_000,
            straggle_jitter_ns=2_000,
        ),
        fault=fault,
        core_latency_ns=CORE_LATENCY_NS,
        **topo_kwargs,
    )
    return scenario, plan


@settings(
    max_examples=fuzz_budget(15),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=sharded_scenarios())
def test_serial_and_sharded_fingerprints_identical(case):
    scenario, plan = case
    serial = run_serial(scenario, plan)
    sharded, stats = run_sharded(scenario, plan)
    assert serial == sharded
    assert stats.shards == len(plan)


# ----------------------------------------------------------------------
# Deterministic anchors
# ----------------------------------------------------------------------
def test_demo_scenario_identity_with_cross_shard_traffic():
    scenario = demo_scenario()
    plan = demo_plan(scenario)
    serial = run_serial(scenario, plan)
    sharded, stats = run_sharded(scenario, plan)
    assert serial == sharded
    # The demo must genuinely exercise the cut, or it proves nothing.
    assert stats.messages > 0
    assert stats.windows > 1
    assert all(t["values_sha256"] for t in serial["tasks"].values())


def test_process_mode_matches_in_process_mode():
    scenario = demo_scenario(seed=3)
    plan = demo_plan(scenario)
    inproc, _ = run_sharded(scenario, plan, processes=False)
    forked, _ = run_sharded(scenario, plan, processes=True)
    assert inproc == forked


def _three_shard_scenario(seed=5, tuples=1_400):
    """Six single-rack pods cut into three shards with spread spines: every
    leaf-placed task transits spines owned by both other shards, so one
    window emits batches to two destinations.  Per-link ``corrupt_rate``
    wraps frames *on* the boundary links — the chaos ``corrupt`` window
    alone breaks frames at the host uplink, where the TOR drops them
    before the cut."""
    import random

    rng = random.Random(seed)
    pods = {f"p{i}": {f"r{i}": (f"h{2 * i}", f"h{2 * i + 1}")} for i in range(6)}
    tasks = tuple(
        ShardedTask(
            streams={
                f"h{4 * shard}": _stream(rng, tuples, keyspace=64),
                f"h{4 * shard + 2}": _stream(rng, tuples, keyspace=64),
            },
            receiver=f"h{4 * shard + 3}",
            placement="leaf",
            region_size=8,
        )
        for shard in range(3)
    )
    scenario = ShardedScenario(
        config=AskConfig.small(window_size=32, retransmit_timeout_us=50.0),
        pods=pods,
        tasks=tasks,
        chaos=ChaosSchedule(
            seed=seed,
            horizon_ns=400_000,
            events=(
                ChaosEvent(40_000, "corrupt", "h4"),
                ChaosEvent(400_000, "cleanse", "h4"),
            ),
            corruption_rate=0.2,
        ),
        fault={
            "loss_rate": 0.01,
            "duplicate_rate": 0.01,
            "reorder_rate": 0.03,
            "corrupt_rate": 0.01,
            "max_extra_delay_ns": 20_000,
            "seed": seed,
        },
    )
    return scenario, make_plan(scenario, 3, spread_spines=True)


def test_forked_three_shard_run_with_corrupted_frames_across_the_cut():
    scenario, plan = _three_shard_scenario()
    serial = run_serial(scenario, plan)
    inproc, inproc_stats = run_sharded(scenario, plan, processes=False)
    forked, forked_stats = run_sharded(scenario, plan, processes=True)
    assert serial == inproc == forked
    assert inproc_stats.messages == forked_stats.messages >= 5_000
    assert inproc_stats.windows == forked_stats.windows
    assert all(t["phase"] == "complete" for t in serial["tasks"].values())
    assert serial["chaos_corruption_injected"] > 0
    # shard1 owns r2/r3 and spine-p1/p4: its up-link to spine-p2 lands in
    # shard2 and its up-link to spine-p3 in shard0 — two destinations —
    # and both carried frames the link itself corrupted (index 4), i.e.
    # CorruptedFrame objects went through the pipe.
    for link in ("up:r2->spine-p2", "up:r3->spine-p3"):
        assert serial["links"][link][0] > 0
        assert serial["links"][link][4] > 0
    assert plan.rank_of_rack("r2") == plan.rank_of_rack("r3") == 1
    assert (plan.rank_of_spine("spine-p2"), plan.rank_of_spine("spine-p3")) == (2, 0)
    # Measurement side channel: sum over shards vs per-window slowest.
    for stats in (inproc_stats, forked_stats):
        assert 0.0 < stats.critical_path_cpu_s <= stats.worker_cpu_s
        assert 1.0 <= stats.parallel_bound <= stats.shards


def test_chaos_event_exactly_on_window_boundary():
    # Lookahead == core_latency_ns, so window horizons land on multiples
    # of it; chaos at exactly such an instant must replay identically.
    scenario = demo_scenario(seed=11)
    lookahead = scenario.core_latency_ns
    boundary_chaos = ChaosSchedule(
        seed=11,
        horizon_ns=40 * lookahead,
        events=tuple(
            ChaosEvent(k * lookahead, kind, "h2")
            for k, kind in (
                (10, "partition"), (20, "heal"), (30, "corrupt"), (40, "cleanse")
            )
        ),
        corruption_rate=0.5,
    )
    scenario = ShardedScenario(
        config=scenario.config,
        pods=scenario.pods,
        placement=scenario.placement,
        tasks=scenario.tasks,
        chaos=boundary_chaos,
        fault=scenario.fault,
        core_latency_ns=scenario.core_latency_ns,
    )
    plan = demo_plan(scenario)
    assert run_serial(scenario, plan) == run_sharded(scenario, plan)[0]


def test_gray_chaos_slow_and_straggle_identity():
    # Gray windows with jittered named streams: a slowed host pays
    # per-link latency draws on its own shard only, a straggling daemon's
    # service-delay draws happen where the daemon's frames are delivered
    # — the non-owning replica must see none of it, so serial and sharded
    # replay identically down to every counter.
    base = demo_scenario(seed=11)
    gray_chaos = ChaosSchedule(
        seed=11,
        horizon_ns=80_000,
        events=(
            ChaosEvent(8_000, "slow", "h2"),
            ChaosEvent(60_000, "revive", "h2"),
            ChaosEvent(12_000, "straggle", "h0"),
            ChaosEvent(80_000, "unstraggle", "h0"),
        ),
        slow_multiplier=6.0,
        slow_jitter_ns=3_000,
        straggle_delay_ns=20_000,
        straggle_jitter_ns=2_000,
    )
    scenario = ShardedScenario(
        config=base.config,
        pods=base.pods,
        placement=base.placement,
        tasks=base.tasks,
        chaos=gray_chaos,
        fault=base.fault,
        core_latency_ns=base.core_latency_ns,
    )
    plan = demo_plan(scenario)
    serial = run_serial(scenario, plan)
    sharded, stats = run_sharded(scenario, plan)
    assert serial == sharded
    assert stats.messages > 0  # the gray windows ran with live cut traffic


def test_generated_schedules_replay_identically_on_shards():
    # The sampled schedules the CLI drills use, over the demo scenario's
    # hosts, TORs and spines: windows on transit spines and on TORs of
    # the other shard must replay identically on every replica.
    base = demo_scenario()
    layout = base.layout
    kinds = ("partition", "corrupt", "slow", "straggle")
    drawn = set()
    for seed in range(8):
        chaos = ChaosSchedule.generate(
            seed,
            hosts=list(layout.rack_of),
            switches=[*layout.tor_of.values(), *layout.spines.values()],
            horizon_ns=200_000,
            min_down_ns=20_000,
            max_down_ns=80_000,
            max_faults=4,
            kinds=kinds,
        )
        drawn.update(e.kind for e in chaos.events)
        scenario = dataclasses.replace(base, chaos=chaos)
        plan = demo_plan(scenario)
        serial = run_serial(scenario, plan)
        assert serial == run_sharded(scenario, plan)[0], seed
        assert all(t["phase"] == "complete" for t in serial["tasks"].values())
    assert drawn >= set(kinds)


@pytest.mark.parametrize("kind", ["crash", "flap", "overload"])
def test_kinds_shards_cannot_replay_are_rejected(kind):
    chaos = ChaosSchedule(
        seed=0,
        horizon_ns=20_000,
        events=(
            ChaosEvent(10_000, kind, "h1"),
            ChaosEvent(20_000, RECOVERY_OF[kind], "h1"),
        ),
    )
    with pytest.raises(ChaosScheduleError, match=repr(kind)) as excinfo:
        dataclasses.replace(demo_scenario(), chaos=chaos)
    assert excinfo.value.target == "h1"


# ----------------------------------------------------------------------
# Closure and config validation
# ----------------------------------------------------------------------
def _flat_scenario(tasks=()):
    return ShardedScenario(
        config=_config(),
        racks={"r0": ("h0", "h1"), "r1": ("h2", "h3")},
        tasks=tuple(tasks),
    )


def test_cross_shard_task_is_rejected_with_tagged_error():
    scenario = _flat_scenario(
        [ShardedTask(streams={"h0": ((b"k", 1),)}, receiver="h2")]
    )
    plan = make_plan(scenario, 2)
    with pytest.raises(TopologyError) as excinfo:
        task_homes(scenario, plan)
    assert excinfo.value.name == "h0"
    assert "control plane" in str(excinfo.value)


def test_spine_placement_needs_home_shard_spine():
    # r1's pod spine lands in shard1 under 2-way spreading while r1
    # itself stays in shard0: a spine-resident placement there would put
    # aggregation state out of the control plane's reach.
    scenario = ShardedScenario(
        config=_config(),
        pods={
            "p0": {"r0": ("h0", "h1")},
            "p1": {"r1": ("h2", "h3")},
            "p2": {"r2": ("h4", "h5")},
            "p3": {"r3": ("h6", "h7")},
        },
        placement="leaf",
        tasks=(
            ShardedTask(
                streams={"h2": ((b"k", 1),)}, receiver="h3", placement="spine"
            ),
        ),
    )
    plan = make_plan(scenario, 2, spread_spines=True)
    assert plan.rank_of_rack("r1") != plan.rank_of_spine("spine-p1")
    with pytest.raises(TopologyError) as excinfo:
        task_homes(scenario, plan)
    assert excinfo.value.name == "spine-p1"
    # The identical scenario with transit-only spines is legal.
    leaf = ShardedScenario(
        config=scenario.config,
        pods=scenario.pods,
        placement="leaf",
        tasks=(ShardedTask(streams={"h2": ((b"k", 1),)}, receiver="h3"),),
    )
    assert task_homes(leaf, plan) == [plan.rank_of_rack("r1")]


def test_submission_order_is_shard_major():
    scenario = _flat_scenario(
        [
            ShardedTask(streams={"h2": ((b"k", 1),)}, receiver="h3"),  # shard1
            ShardedTask(streams={"h0": ((b"k", 1),)}, receiver="h1"),  # shard0
        ]
    )
    plan = make_plan(scenario, 2)
    assert submission_order(scenario, plan) == [1, 0]


def test_sharded_backend_rejects_incompatible_config():
    # Rejected at construction, so run_serial cannot accept a scenario
    # that run_sharded would refuse.
    with pytest.raises(ConfigError):
        ShardedScenario(
            config=AskConfig.small(admission_control=True),
            racks={"r0": ("h0",), "r1": ("h1",)},
        )
