"""Rack-sharded scenario execution: serial == sharded, byte for byte.

This module is the service-layer half of the sharded simulator
(:mod:`repro.net.sharded` is the mechanism: outbox proxies, conservative
windows, order-preserving injection).  It defines a *replayable scenario*
— topology, tasks, chaos schedule, fault seeds — and two executors over
it whose result fingerprints must be identical:

:func:`run_serial`
    One plain :class:`~repro.net.simulator.Simulator` runs everything,
    exactly as every existing test and benchmark does.

:func:`run_sharded`
    One full deployment *replica* per shard.  Every replica is built with
    the identical construction sequence — so node names, link names and
    the name-derived per-link fault RNG streams agree everywhere — but
    each shard only *submits* the tasks homed on it and only *executes*
    the events that reach its nodes; boundary links forward deliveries as
    ticketed messages.  The scenario's :class:`~repro.chaos.ChaosSchedule`
    is armed on **every** replica (its events are zero-cost on nodes whose
    packets never visit a shard), so partition flags and corruption
    windows flip at the same instant everywhere.  Only the kinds the
    kind table marks ``replayable`` may appear in it.

The task closure rule
---------------------
Aggregation traffic crosses shards freely — that is the point.  What
cannot cross is the *zero-latency control plane*: region allocation,
teardown fetch, sender kickoff and the spine activation hook are direct
method calls with no wire representation.  A task is therefore **homed**
on the shard of its receiver's rack, and :func:`task_homes` rejects (with
a tagged :class:`TopologyError`) any task whose senders — or, for tree
placements ``"spine"``/``"both"``, whose pod spines, which then hold
aggregation state — live outside the home shard.  Transit-only nodes
(spines under placement ``"leaf"``, intermediate racks) may be anywhere:
their work is purely packet-driven and happens in whichever shard owns
them.

Fingerprints
------------
A fingerprint holds per-task results (``values_sha256`` + the full
:class:`~repro.core.results.TaskStats`), per-host send/receive counters,
per-link counters for every link in the fabric, the fabric's partition
and chaos-corruption totals, and the total event count.  Sharded runs
merge by ownership — tasks by home, hosts by rack shard, links by source
endpoint — with disjoint key sets, so a merge is a union, not a
reconciliation.  Event counts sum exactly after subtracting the
``(shards - 1) × len(chaos.events)`` replicated chaos events.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.chaos.orchestrator import ChaosOrchestrator
from repro.chaos.schedule import KIND_OF, ChaosEvent, ChaosSchedule
from repro.core.config import AskConfig
from repro.core.errors import ChaosScheduleError, TopologyError
from repro.core.service import AskService, RackLayout
from repro.core.task import AggregationTask
from repro.net.fault import FaultModel
from repro.net.multirack import MultiRackTopology, ShardPlan, plan_rack_shards
from repro.net.sharded import (
    InProcessShard,
    Message,
    ProcessShard,
    ShardedSimulator,
    attach_boundaries,
    attach_serial_boundaries,
    cross_shard_lookahead,
    cross_shard_routes,
)
from repro.net.simulator import Simulator, paused_gc
from repro.runtime.builder import validate_sharded_config

__all__ = [
    "ShardedRunStats",
    "ShardedScenario",
    "ShardedTask",
    "demo_plan",
    "demo_scenario",
    "make_plan",
    "merge_fingerprints",
    "run_serial",
    "run_sharded",
    "submission_order",
    "task_homes",
]

#: One sender's key-value stream, by value (scenarios must be replayable
#: and fork-safe, so no iterators).
Stream = Tuple[Tuple[bytes, int], ...]

#: A collected fingerprint (or one shard's slice of one).
Fingerprint = Dict[str, Any]

@dataclass(frozen=True)
class ShardedTask:
    """One aggregation task of a scenario.

    ``placement`` overrides the scenario's tree placement policy for this
    task (tree scenarios only).  Senders and receiver must share a shard —
    see the task closure rule in the module docstring.
    """

    streams: Mapping[str, Stream]
    receiver: str
    placement: Optional[str] = None
    region_size: Optional[int] = None


@dataclass(frozen=True)
class ShardedScenario:
    """A complete, self-contained description of a multi-rack run.

    Exactly one of ``racks`` (flat mesh: rack → host names) or ``pods``
    (spine–leaf: pod → rack → host names) must be set, with at least two
    racks; ``placement`` is the tree's default placement policy (``None``:
    the layout's default, see :meth:`~repro.core.service.RackLayout.placement`).
    ``fault`` holds :class:`~repro.net.fault.FaultModel` kwargs —
    the model itself is stateful, so every build constructs a fresh one.
    ``chaos`` is armed at t = 0 on the serial run and on every replica;
    a kind the shards cannot replay (crash, flap, overload) is a tagged
    :class:`~repro.core.errors.ChaosScheduleError`.  Replaying the gray
    kinds is safe: per-link slowdown jitter streams only draw on the
    shard whose packets cross the link, and a straggling daemon on a
    non-owning replica never receives a frame.  A ``config`` the sharded
    backend cannot replicate (:func:`validate_sharded_config`) is rejected
    here, so :func:`run_serial` and :func:`run_sharded` accept the same
    scenarios.
    """

    config: AskConfig
    racks: Optional[Mapping[str, Tuple[str, ...]]] = None
    pods: Optional[Mapping[str, Mapping[str, Tuple[str, ...]]]] = None
    placement: Optional[str] = None
    tasks: Tuple[ShardedTask, ...] = ()
    chaos: ChaosSchedule = ChaosSchedule(seed=0, horizon_ns=0, events=())
    fault: Optional[Mapping[str, Any]] = None
    core_latency_ns: int = 2_000

    def __post_init__(self) -> None:
        if (self.racks is None) == (self.pods is None):
            raise ValueError("set exactly one of racks= (flat) or pods= (tree)")
        validate_sharded_config(self.config)
        layout = self.layout
        if len(layout.rack_hosts) < 2:
            raise ValueError("a sharded scenario needs at least two racks")
        layout.placement(self.placement)
        for event in self.chaos.events:
            if not KIND_OF[event.kind].replayable:
                raise ChaosScheduleError(
                    f"chaos kind {event.kind!r} at {event.at_ns} cannot be "
                    "replayed on every shard replica of a sharded run",
                    event.target,
                )

    @property
    def layout(self) -> RackLayout:
        """Hosts, racks and switch names, exactly as the service wires them
        (no build required)."""
        return RackLayout.of(racks=self.racks, pods=self.pods)


@dataclass(frozen=True)
class ShardedRunStats:
    """Measurement-only side channel of a sharded run (never part of the
    fingerprint identity check)."""

    shards: int
    windows: int
    messages: int
    lookahead_ns: Optional[int]
    #: CPU seconds the shards spent inside windows (unpack + run + pack).
    worker_cpu_s: float = 0.0
    #: The same, counting only each window's slowest shard.
    critical_path_cpu_s: float = 0.0

    @property
    def parallel_bound(self) -> float:
        """Upper bound, in ``[1, shards]``, on the speed-up one core per
        shard could give this run: shard CPU over its critical path."""
        if self.critical_path_cpu_s <= 0.0:
            return 1.0
        return self.worker_cpu_s / self.critical_path_cpu_s


# ----------------------------------------------------------------------
# Planning and validation
# ----------------------------------------------------------------------
def make_plan(
    scenario: ShardedScenario, shards: int, spread_spines: bool = False
) -> ShardPlan:
    """Cut the scenario's racks into ``shards`` contiguous balanced shards
    (see :func:`~repro.net.multirack.plan_rack_shards`)."""
    layout = scenario.layout
    return plan_rack_shards(
        list(layout.rack_hosts),
        shards,
        spine_of=layout.spine_of or None,
        spread_spines=spread_spines,
    )


def task_homes(scenario: ShardedScenario, plan: ShardPlan) -> List[int]:
    """Home shard rank per task, enforcing the task closure rule."""
    layout = scenario.layout
    rack_of = layout.rack_of
    default = layout.placement(scenario.placement)
    homes: List[int] = []
    for index, task in enumerate(scenario.tasks):
        if task.receiver not in rack_of:
            raise TopologyError(
                f"task {index}: unknown receiver {task.receiver!r}", task.receiver
            )
        home = plan.rank_of_rack(rack_of[task.receiver])
        placement = default if task.placement is None else layout.placement(task.placement)
        for sender in task.streams:
            if sender not in rack_of:
                raise TopologyError(
                    f"task {index}: unknown sender {sender!r}", sender
                )
            rank = plan.rank_of_rack(rack_of[sender])
            if rank != home:
                raise TopologyError(
                    f"task {index}: sender {sender!r} lives in shard "
                    f"{plan.names[rank]!r} but the task is homed on "
                    f"{plan.names[home]!r}; the zero-latency control plane "
                    "(allocation, kickoff, teardown) cannot cross the shard cut",
                    sender,
                )
        if placement != "leaf":
            for sender in task.streams:
                spine = layout.spine_of[rack_of[sender]]
                rank = plan.rank_of_spine(spine)
                if rank != home:
                    raise TopologyError(
                        f"task {index}: placement {placement!r} puts aggregation "
                        f"state on spine {spine!r} (shard {plan.names[rank]!r}) "
                        f"but the task is homed on {plan.names[home]!r}; keep "
                        "pod spines with their pod (spread_spines=False) for "
                        "spine-resident placements",
                        spine,
                    )
        homes.append(home)
    return homes


def submission_order(scenario: ShardedScenario, plan: ShardPlan) -> List[int]:
    """Canonical task order: shard-major, original order within a shard.

    The serial baseline submits in this order so that same-instant
    collisions between tasks of different shards resolve in shard-rank
    order — exactly the residual tiebreak of the composite order tickets
    (:meth:`~repro.net.simulator.Simulator.enable_shard_order`).
    """
    homes = task_homes(scenario, plan)
    return sorted(range(len(scenario.tasks)), key=lambda i: (homes[i], i))


# ----------------------------------------------------------------------
# Building and driving one deployment (serial, or one shard's replica)
# ----------------------------------------------------------------------
def _build_service(scenario: ShardedScenario) -> AskService:
    fault = (
        FaultModel(**dict(scenario.fault)) if scenario.fault is not None else None
    )
    return AskService(
        scenario.config,
        fault=fault,
        racks=scenario.racks,
        pods=scenario.pods,
        placement=scenario.placement,
        core_latency_ns=scenario.core_latency_ns,
    )


def _arm_chaos(service: AskService, scenario: ShardedScenario) -> None:
    """Arm the scenario's schedule at t = 0, before any task submission —
    identical push order on the serial sim and on every shard replica, so
    same-instant ordering against task events agrees."""
    ChaosOrchestrator(
        service.deployment, scenario.chaos, require_supervisor=False
    ).arm()


def _submit(service: AskService, task: ShardedTask) -> AggregationTask:
    streams = {host: list(stream) for host, stream in task.streams.items()}
    return service.submit(
        streams, task.receiver, region_size=task.region_size, placement=task.placement
    )


# ----------------------------------------------------------------------
# Fingerprint collection and merging
# ----------------------------------------------------------------------
def _task_fingerprint(task: AggregationTask) -> Dict[str, Any]:
    values_digest: Optional[str] = None
    if task.result is not None:
        values_digest = hashlib.sha256(
            repr(sorted(task.result.values.items())).encode()
        ).hexdigest()
    return {
        "phase": task.phase.value,
        "failure": task.failure_reason,
        "values_sha256": values_digest,
        "stats": asdict(task.stats),
    }


def _link_counters(link: Any) -> Tuple[int, int, int, int, int, int, int]:
    return (
        link.packets_sent,
        link.bytes_sent,
        link.packets_dropped,
        link.packets_duplicated,
        link.packets_corrupted,
        link.packets_marked,
        link.max_backlog_bytes,
    )


def _collect(
    service: Any,
    tasks: Mapping[int, AggregationTask],
    plan: ShardPlan,
    rank: Optional[int],
) -> Fingerprint:
    """The fingerprint slice owned by ``rank`` (everything, when None).

    Ownership: tasks by home shard (the caller only passes owned tasks),
    hosts by rack shard, links by the shard of their first switch-side
    endpoint (a host link's rack, an interconnect link's source), fabric
    totals local to the collecting replica.
    """
    topology: MultiRackTopology = service.fabric.topology
    hosts: Dict[str, Tuple[int, int, int]] = {}
    links: Dict[str, Tuple[int, int, int, int, int, int, int]] = {}
    for rack in topology.racks:
        if rank is not None and plan.rank_of_rack(rack) != rank:
            continue
        for host in topology.hosts_of(rack):
            daemon = service.daemons[host]
            accepted, duplicates = daemon.receiver_packets()
            hosts[host] = (daemon.sender_packets(), accepted, duplicates)
    for name, src, dst, link in topology.links():
        owner = dst if src[0] == "host" else src
        if rank is None or plan.rank_of(owner) == rank:
            links[name] = _link_counters(link)
    return {
        "tasks": {index: _task_fingerprint(task) for index, task in sorted(tasks.items())},
        "hosts": {host: hosts[host] for host in sorted(hosts)},
        "links": {name: links[name] for name in sorted(links)},
        "partition_drops": topology.partition_drops,
        "chaos_corruption_injected": topology.window_corruptions,
        "events_processed": service.sim.events_processed,
    }


def merge_fingerprints(
    payloads: Sequence[Fingerprint], chaos_events: int
) -> Fingerprint:
    """Union the per-shard fingerprint slices into one serial-comparable
    fingerprint.  Key sets are disjoint by ownership; the event total
    subtracts the chaos events every non-first replica re-executed."""
    tasks: Dict[int, Any] = {}
    hosts: Dict[str, Any] = {}
    links: Dict[str, Any] = {}
    partition_drops = 0
    corruption_injected = 0
    events = 0
    for payload in payloads:
        tasks.update(payload["tasks"])
        hosts.update(payload["hosts"])
        links.update(payload["links"])
        partition_drops += payload["partition_drops"]
        corruption_injected += payload["chaos_corruption_injected"]
        events += payload["events_processed"]
    events -= max(0, len(payloads) - 1) * chaos_events
    return {
        "tasks": {index: tasks[index] for index in sorted(tasks)},
        "hosts": {host: hosts[host] for host in sorted(hosts)},
        "links": {name: links[name] for name in sorted(links)},
        "partition_drops": partition_drops,
        "chaos_corruption_injected": corruption_injected,
        "events_processed": events,
    }


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
def run_serial(scenario: ShardedScenario, plan: ShardPlan) -> Fingerprint:
    """The serial oracle: one simulator, every task, full drain.

    Runs the *canonical* serial schedule: the same composite
    ``(push_time, rank, seq)`` order tickets the shard replicas claim,
    with the rank following event ownership and switching to the
    destination shard at every cross-cut link.  A plain counter would
    break equal-arrival, equal-push-time ties by global push sequence —
    an order that follows each packet's causal path through transit
    spines and is unknowable to distributed shards — so the ticket is
    made the definition of same-instant order on both sides instead.
    """
    homes = task_homes(scenario, plan)
    order = submission_order(scenario, plan)
    with paused_gc():
        service = _build_service(scenario)
        sim: Simulator = service.sim
        plan.validate(service.fabric.topology)
        sim.enable_serial_shard_order()
        attach_serial_boundaries(service.fabric.topology, plan, sim)
        # Context 0 for chaos: scheduled before any submission in every
        # execution mode, so the rank only orders it against same-push-time
        # task events — which the lowest rank does consistently.
        sim.set_shard_context(0)
        _arm_chaos(service, scenario)
        tasks: Dict[int, AggregationTask] = {}
        for index in order:
            sim.set_shard_context(homes[index])
            tasks[index] = _submit(service, scenario.tasks[index])
        sim.run()
    return _collect(service, tasks, plan, None)


class _ShardRun:
    """One shard's replica: the :class:`~repro.net.sharded.ShardContext`."""

    def __init__(
        self,
        scenario: ShardedScenario,
        plan: ShardPlan,
        rank: int,
        homes: Sequence[int],
        order: Sequence[int],
    ) -> None:
        service = _build_service(scenario)
        self.service = service
        self.sim: Simulator = service.sim
        self.outbox: Dict[int, List[Message]] = {}
        self.inbound = attach_boundaries(
            service.fabric.topology, plan, rank, self.outbox
        )
        self.sim.enable_shard_order(rank)
        _arm_chaos(service, scenario)
        self.tasks: Dict[int, AggregationTask] = {}
        for index in order:
            if homes[index] == rank:
                self.tasks[index] = _submit(service, scenario.tasks[index])
        self._plan = plan
        self._rank = rank

    def finish(self) -> Fingerprint:
        return _collect(self.service, self.tasks, self._plan, self._rank)


class _ProbeNode:
    """Name-only stand-in switch for interconnect enumeration: the probe
    topology is never run, so ``receive`` must never fire."""

    def __init__(self, name: str) -> None:
        self.name = name

    def receive(self, packet: Any) -> None:  # pragma: no cover
        raise AssertionError("probe topology must never carry packets")


def _probe_topology(scenario: ShardedScenario) -> MultiRackTopology:
    """A host-less replica of the scenario's fabric, for lookahead and
    route computation without building a full deployment: the layout's
    switch names, wired in the builder's order (spines, then racks)."""
    topology = MultiRackTopology(
        Simulator(),
        bandwidth_gbps=scenario.config.link_bandwidth_gbps,
        latency_ns=scenario.config.link_latency_ns,
        core_latency_ns=scenario.core_latency_ns,
    )
    layout = scenario.layout
    for spine in layout.spines.values():
        topology.add_spine(_ProbeNode(spine))
    for rack, tor in layout.tor_of.items():
        topology.add_rack(rack, _ProbeNode(tor), spine=layout.spine_of.get(rack))
    return topology


def run_sharded(
    scenario: ShardedScenario,
    plan: ShardPlan,
    processes: bool = False,
) -> Tuple[Fingerprint, ShardedRunStats]:
    """Execute the scenario sharded; returns ``(fingerprint, stats)``.

    The fingerprint must equal :func:`run_serial`'s for the same scenario
    and plan — that identity is the backend's correctness contract,
    enforced by the hypothesis property and the CI determinism step.
    ``processes=True`` forks one worker per shard (the performance mode);
    the default runs shards in-process (the reference/debug mode).
    """
    homes = task_homes(scenario, plan)
    order = submission_order(scenario, plan)
    probe = _probe_topology(scenario)
    plan.validate(probe)
    lookahead = cross_shard_lookahead(probe, plan)
    routes = cross_shard_routes(probe, plan)

    def factory(rank: int) -> _ShardRun:
        return _ShardRun(scenario, plan, rank, homes, order)

    handles: List[Any] = []
    coordinator: Optional[ShardedSimulator] = None
    try:
        # Replica construction churns as many allocations as the run
        # itself; build under the same paused collector the coordinator
        # runs under (fork workers pause their own).
        with paused_gc():
            if processes:
                handles = ProcessShard.start_all(factory, len(plan))
            else:
                for rank in range(len(plan)):
                    handles.append(InProcessShard(factory, rank))
            coordinator = ShardedSimulator(handles, routes, lookahead)
            payloads = coordinator.run()
    finally:
        if coordinator is not None:
            coordinator.close()
        else:
            for handle in handles:
                handle.close()
    fingerprint = merge_fingerprints(payloads, len(scenario.chaos.events))
    return fingerprint, ShardedRunStats(
        shards=len(plan),
        windows=coordinator.windows,
        messages=coordinator.messages,
        lookahead_ns=lookahead,
        worker_cpu_s=coordinator.worker_cpu_s,
        critical_path_cpu_s=coordinator.critical_path_cpu_s,
    )


# ----------------------------------------------------------------------
# Canonical demo scenario (CLI `repro demo --backend sim-sharded`,
# suite --sharded identity job, CI determinism step)
# ----------------------------------------------------------------------
def demo_scenario(seed: int = 7) -> ShardedScenario:
    """A small 4-pod/4-rack tree scenario with chaos and lossy links.

    Single-rack pods + :func:`demo_plan`'s round-robin spine spreading
    put half the transit spines in the *other* shard, so the leaf-placed
    tasks genuinely cross the shard cut (up-link, spine-core and
    down-link classes all carry inter-shard messages) while staying
    small enough to run serial + sharded in well under a second.
    """
    import random

    rng = random.Random(seed)
    pods = {
        "p0": {"r0": ("h0", "h1")},
        "p1": {"r1": ("h2", "h3")},
        "p2": {"r2": ("h4", "h5")},
        "p3": {"r3": ("h6", "h7")},
    }
    keys = [f"k{i:02d}".encode() for i in range(32)]

    def stream(n: int) -> Stream:
        return tuple((rng.choice(keys), rng.randint(1, 99)) for _ in range(n))

    tasks = (
        # Cross-pod leaf tasks: the sender-side spine is a pure transit
        # node, so it may sit in the other shard (demo_plan puts
        # spine-p1 and spine-p3 opposite their racks' shards).
        ShardedTask(
            streams={"h0": stream(120), "h2": stream(120)},
            receiver="h3",
            placement="leaf",
            region_size=8,
        ),
        ShardedTask(
            streams={"h4": stream(120), "h6": stream(120)},
            receiver="h7",
            placement="leaf",
            region_size=8,
        ),
        # Spine-resident placement: aggregation state on spine-p0, which
        # demo_plan keeps in the home shard.
        ShardedTask(
            streams={"h1": stream(80)}, receiver="h0", placement="spine", region_size=8
        ),
    )
    chaos = ChaosSchedule(
        seed=seed,
        horizon_ns=140_000,
        events=(
            ChaosEvent(40_000, "corrupt", "h2"),
            ChaosEvent(140_000, "cleanse", "h2"),
            ChaosEvent(60_000, "partition", "h6"),
            ChaosEvent(100_000, "heal", "h6"),
        ),
    )
    return ShardedScenario(
        config=AskConfig.small(window_size=32, retransmit_timeout_us=50.0),
        pods=pods,
        tasks=tasks,
        chaos=chaos,
        fault={
            "loss_rate": 0.02,
            "duplicate_rate": 0.01,
            "reorder_rate": 0.05,
            "max_extra_delay_ns": 20_000,
            "seed": seed,
        },
    )


def demo_plan(scenario: ShardedScenario, shards: int = 2) -> ShardPlan:
    """The canonical cut for :func:`demo_scenario`: spines spread
    round-robin so leaf-placement traffic transits remote shards."""
    return make_plan(scenario, shards, spread_spines=True)
