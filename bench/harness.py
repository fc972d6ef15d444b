"""One repetition of one workload: set up, drive, check, count.

A repetition (``Rep``) builds a fresh deployment from the seed, times the
interval from the first ``submit`` to the last task settled, checks every
task against ``reference_aggregate`` and gathers the raw counters the
per-layer metrics are computed from.  Failures never abort the run: a
task that raised, timed out or returned a wrong aggregate is counted in
``Rep.failed`` and the next repetition starts on a fresh deployment.
"""

from __future__ import annotations

import gc
import resource
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from bench.workloads import Fabric16Sharded, ServiceWorkload, TaskSpec, Workload


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def children_cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return children.ru_utime + children.ru_stime


def gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def _meters() -> Tuple[float, float, float, int]:
    return time.perf_counter(), cpu_seconds(), children_cpu_seconds(), gc_collections()


def _read_meters(rep: "Rep", start: Tuple[float, float, float, int]) -> None:
    """Fill ``rep`` with what was spent since ``start = _meters()``."""
    wall, cpu, children, collections = _meters()
    rep.wall_s = wall - start[0]
    rep.cpu_s = cpu - start[1]
    rep.children_cpu_s = children - start[2]
    rep.gc_collections = collections - start[3]


@dataclass
class Rep:
    """What one repetition measured."""

    tuples: int = 0
    ops: int = 0  #: tasks attempted
    failed: int = 0  #: tasks that raised, timed out or aggregated wrongly
    setup_s: float = 0.0
    wall_s: float = 0.0  #: first submit -> last task settled
    cpu_s: float = 0.0  #: process + reaped children, same interval
    children_cpu_s: float = 0.0
    gc_collections: int = 0
    jct_ns: int = 0  #: fabric clock, first submit -> last completion
    task_ns: List[int] = field(default_factory=list)  #: per-task latency
    #: what must repeat exactly between reps of a simulated workload
    fingerprint: Optional[Dict[str, Any]] = None
    #: raw counts for the per-layer metrics (see ``metrics.counter_metrics``)
    counters: Dict[str, Any] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Service-driven workloads (sim and UDP)
# ----------------------------------------------------------------------
def run_service_rep(
    workload: ServiceWorkload, seed: int, vectorized: bool = False
) -> Rep:
    from repro.core.errors import AskError

    rep = Rep()
    setup_start = time.perf_counter()
    specs = workload.generate(seed)
    service = workload.build(seed, vectorized=vectorized)
    rep.setup_s = time.perf_counter() - setup_start
    rep.ops = len(specs)
    rep.tuples = sum(len(s) for spec in specs for s in spec.streams.values())
    tasks: List[Any] = []
    try:
        clock_start = service.clock.now
        start = _meters()
        try:
            for spec in specs:
                tasks.append(
                    service.submit(spec.streams, spec.receiver, **spec.options)
                )
            service.run_to_completion(timeout_s=workload.timeout_s)
        except AskError as exc:  # FabricTimeoutError, TaskFailedError, ...
            rep.notes.append(f"{type(exc).__name__}: {exc}")
        except Exception:  # the harness must keep running; record and count
            rep.notes.append(traceback.format_exc(limit=4))
        _read_meters(rep, start)
        _check_tasks(rep, service, specs, tasks, clock_start)
        rep.counters = _service_counters(service, tasks)
        if workload.fabric == "sim":
            rep.fingerprint = _service_fingerprint(service, tasks)
    finally:
        service.close()
    return rep


def _check_tasks(
    rep: Rep, service: Any, specs: Sequence[TaskSpec], tasks: Sequence[Any], clock_start: int
) -> None:
    from repro.core.results import reference_aggregate

    mask = service.config.value_mask
    last_completion = clock_start
    for index, spec in enumerate(specs):
        task = tasks[index] if index < len(tasks) else None
        if task is None or task.result is None:
            rep.failed += 1
            continue
        if task.result.values != reference_aggregate(spec.streams, mask):
            rep.failed += 1
            rep.notes.append(f"task {task.task_id}: result differs from reference_aggregate")
            continue
        stats = task.stats
        rep.task_ns.append(stats.completed_at_ns - stats.submitted_at_ns)
        last_completion = max(last_completion, stats.completed_at_ns)
    rep.jct_ns = last_completion - clock_start


def _links(service: Any) -> List[Any]:
    # The sim fabrics expose their links only through this iterator.
    links = getattr(service.fabric, "_links", None)
    return list(links()) if links is not None else []


def _service_fingerprint(service: Any, tasks: Sequence[Any]) -> Dict[str, Any]:
    from repro.core.results import values_sha256

    return {
        "values_sha256": [
            values_sha256(task.result.values) if task.result is not None else None
            for task in tasks
        ],
        "events_processed": service.sim.events_processed,
        "final_now_ns": service.sim.now,
        "sender_packets": sum(d.sender_packets() for d in service.daemons.values()),
        "links": {
            link.name: [
                link.packets_sent,
                link.bytes_sent,
                link.packets_dropped,
                link.packets_duplicated,
            ]
            for link in _links(service)
        },
    }


def _sum_task_stats(all_stats: Sequence[Any], counters: Dict[str, Any]) -> None:
    """Fold ``TaskStats`` objects (or their ``asdict`` form, as sharded
    fingerprints carry them) into ``counters``."""

    def get(stats: Any, name: str) -> Any:
        return stats[name] if isinstance(stats, dict) else getattr(stats, name)

    for name in (
        "input_tuples",
        "data_packets_sent",
        "long_packets_sent",
        "retransmissions",
        "timeouts",
        "spurious_retransmissions",
        "acks_from_switch",
        "tuples_merged_at_receiver",
        "tuples_fetched_from_switch",
        "swaps",
    ):
        counters[name] = sum(get(stats, name) for stats in all_stats)
    counters["degraded_tasks"] = sum(
        1 for stats in all_stats if get(stats, "degraded_to_bypass")
    )
    counters["admission_wait_ns"] = [get(stats, "admission_wait_ns") for stats in all_stats]
    packs = [pack for stats in all_stats for pack in get(stats, "pack_stats")]
    for name in ("tuples_in", "packets", "long_packets", "blank_slots"):
        counters[f"pack_{name}"] = sum(get(pack, name) for pack in packs)


def _service_counters(service: Any, tasks: Sequence[Any]) -> Dict[str, Any]:
    counters: Dict[str, Any] = {"tasks": len(tasks), "num_aas": service.config.num_aas}
    _sum_task_stats([task.stats for task in tasks], counters)
    daemons = service.daemons.values()
    counters["sender_packets"] = sum(d.sender_packets() for d in daemons)
    windows = [d.receiver_packets() for d in daemons]
    counters["recv_accepted"] = sum(accepted for accepted, _ in windows)
    counters["recv_duplicates"] = sum(duplicates for _, duplicates in windows)
    links = _links(service)
    counters["link_packets"] = sum(link.packets_sent for link in links)
    counters["link_bytes"] = sum(link.bytes_sent for link in links)
    counters["link_dropped"] = sum(link.packets_dropped for link in links)
    counters["link_duplicated"] = sum(link.packets_duplicated for link in links)
    programs = [switch.stats for switch in service.deployment.switches.values()]
    counters["switch_passes"] = sum(p.data_packets + p.stale_drops for p in programs)
    counters["switch_seen_before"] = sum(
        p.stale_drops + p.retransmissions_seen for p in programs
    )
    if service.backend == "sim":
        counters["events"] = service.sim.events_processed
    else:
        counters["frames_sent"] = service.fabric.frames_sent
        counters["malformed_frames"] = service.fabric.malformed_frames
    if service.admission is not None:
        snapshot = service.admission.snapshot()
        counters["admission_queued"] = snapshot["queued"]
        counters["admission_degraded"] = snapshot["degraded"]
    return counters


# ----------------------------------------------------------------------
# The sharded workload
# ----------------------------------------------------------------------
def _sharded_reference_digests(scenario: Any) -> List[str]:
    from repro.core.results import reference_aggregate, values_sha256

    return [
        values_sha256(
            reference_aggregate(
                {host: list(stream) for host, stream in task.streams.items()},
                scenario.config.value_mask,
            )
        )
        for task in scenario.tasks
    ]


def run_sharded_rep(
    workload: Fabric16Sharded, seed: int, serial: bool = False
) -> Rep:
    """One repetition through ``run_sharded(processes=True)``, or — with
    ``serial`` — through the ``run_serial`` oracle of the same scenario.

    Both executors build their deployment inside the call, so set-up here
    is input generation plus the shard plan.  They are called through the
    module attribute so that the traced pass's wrappers are seen.
    """
    import repro.runtime.sharded as sharded

    rep = Rep()
    setup_start = time.perf_counter()
    scenario, plan = workload.generate(seed)
    rep.setup_s = time.perf_counter() - setup_start
    rep.ops = len(scenario.tasks)
    rep.tuples = sum(len(s) for task in scenario.tasks for s in task.streams.values())
    start = _meters()
    fingerprint: Optional[Dict[str, Any]] = None
    stats = None
    try:
        if serial:
            fingerprint = sharded.run_serial(scenario, plan)
        else:
            fingerprint, stats = sharded.run_sharded(scenario, plan, processes=True)
    except Exception:  # the harness must keep running; record and count
        rep.notes.append(traceback.format_exc(limit=4))
    _read_meters(rep, start)
    if fingerprint is None:
        rep.failed = rep.ops
        return rep
    rep.fingerprint = fingerprint
    expected = _sharded_reference_digests(scenario)
    submitted, completed = [], []
    for index in range(len(scenario.tasks)):
        task = fingerprint["tasks"][index]
        if task["values_sha256"] != expected[index]:
            rep.failed += 1
            rep.notes.append(f"task {index}: result differs from reference_aggregate")
            continue
        submitted.append(task["stats"]["submitted_at_ns"])
        completed.append(task["stats"]["completed_at_ns"])
        rep.task_ns.append(completed[-1] - submitted[-1])
    if completed:
        rep.jct_ns = max(completed) - min(submitted)
    counters: Dict[str, Any] = {
        "tasks": len(scenario.tasks),
        "num_aas": scenario.config.num_aas,
    }
    _sum_task_stats([t["stats"] for t in fingerprint["tasks"].values()], counters)
    hosts = fingerprint["hosts"].values()
    counters["sender_packets"] = sum(host[0] for host in hosts)
    counters["recv_accepted"] = sum(host[1] for host in hosts)
    counters["recv_duplicates"] = sum(host[2] for host in hosts)
    links = fingerprint["links"].values()
    counters["link_packets"] = sum(link[0] for link in links)
    counters["link_bytes"] = sum(link[1] for link in links)
    counters["link_dropped"] = sum(link[2] for link in links)
    counters["link_duplicated"] = sum(link[3] for link in links)
    counters["events"] = fingerprint["events_processed"]
    if stats is not None:
        counters["windows"] = stats.windows
        counters["cross_shard_messages"] = stats.messages
    rep.counters = counters
    return rep


def run_rep(workload: Workload, seed: int, **options: Any) -> Rep:
    """One repetition of ``workload`` after a full garbage collection, so
    no repetition pays for its predecessor's garbage.  The collector is
    otherwise left as the program sets it."""
    gc.collect()
    if isinstance(workload, Fabric16Sharded):
        return run_sharded_rep(workload, seed, **options)
    assert isinstance(workload, ServiceWorkload)
    return run_service_rep(workload, seed, **options)


def peak_rss_mib() -> float:
    """Peak resident set of this process or of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0
