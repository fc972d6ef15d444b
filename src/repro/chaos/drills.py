"""Chaos drills as data, and the one runner that drives them.

A :class:`Drill` names a layout, per-backend config overrides, a
schedule rule, one task per tenant's streams into one receiver, and a
headline.  :func:`run_drill` runs any of :data:`DRILLS`: it verifies
every task bit-exact against the fault-free reference and prints the
:class:`~repro.chaos.report.DegradationReport`.  ``repro chaos``,
``repro demo --chaos``, the ``repro suite`` chaos matrix and CI all call
it.  Only the overload drill has hooks: ``setup`` builds its abusive
tenant and ``verdict`` holds it to tenant isolation.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.chaos.orchestrator import ChaosOrchestrator
from repro.chaos.report import DegradationReport
from repro.chaos.schedule import RECOVERY_OF, ChaosEvent, ChaosSchedule
from repro.core.config import AskConfig
from repro.core.results import reference_aggregate, values_sha256
from repro.core.service import SMALL_TREE, AskService, RackLayout
from repro.core.task import AggregationTask, TaskPhase
from repro.core.tenancy import DEFAULT_TENANT
from repro.net.fault import FaultModel

Stream = Tuple[Tuple[bytes, int], ...]
Verdict = Callable[[Any, Dict[int, AggregationTask], DegradationReport], List[str]]

#: Schedule timing and gray window strength per backend: wall-clock
#: asyncio needs windows that outlast Python scheduling jitter.
TIMING: Dict[str, Dict[str, int]] = {
    "sim": {"horizon_ns": 250_000, "min_down_ns": 40_000, "max_down_ns": 200_000},
    "asyncio": {"horizon_ns": 30_000_000, "min_down_ns": 5_000_000, "max_down_ns": 20_000_000},
}
WINDOWS: Dict[str, Dict[str, int]] = {
    "sim": {"straggle_delay_ns": 20_000, "flap_period_ns": 20_000},
    "asyncio": {"straggle_delay_ns": 2_000_000, "flap_period_ns": 2_000_000},
}

#: The config every drill starts from: failure detection on, with
#: heartbeats matched to the backend's clock, and on asyncio the demo's
#: 2 ms retransmission timeout.
CHAOS_CONFIG: Dict[str, Dict[str, Any]] = {
    "sim": {"failure_detection": True, "heartbeat_interval_us": 50.0},
    "asyncio": {
        "failure_detection": True,
        "heartbeat_interval_us": 2_000.0,
        "retransmit_timeout_us": 2000,
    },
}


@dataclass(frozen=True)
class Generate:
    """Sample :meth:`ChaosSchedule.generate` over the layout's nodes."""

    kinds: Tuple[str, ...] = ("crash", "partition")

    def build(
        self, seed: int, layout: RackLayout, timing: Mapping[str, int]
    ) -> ChaosSchedule:
        switches = [*layout.tor_of.values(), *layout.spines.values()]
        return ChaosSchedule.generate(
            seed, list(layout.rack_of), switches, kinds=self.kinds, **timing
        )


@dataclass(frozen=True)
class Window:
    """One ``kind`` window on a fixed ``target``: the seed draws its start
    in ``[horizon/5, horizon/2)`` and its length in ``[horizon/4, horizon/2)``."""

    kind: str
    target: str

    def build(
        self, seed: int, layout: RackLayout, timing: Mapping[str, int]
    ) -> ChaosSchedule:
        horizon = timing["horizon_ns"]
        rng = random.Random(seed)
        start = rng.randrange(horizon // 5, horizon // 2)
        end = start + rng.randrange(horizon // 4, horizon // 2)
        events = (
            ChaosEvent(start, self.kind, self.target),
            ChaosEvent(end, RECOVERY_OF[self.kind], self.target),
        )
        return ChaosSchedule(seed=seed, horizon_ns=horizon, events=events)


@dataclass(frozen=True)
class Drill:
    """One chaos drill.  ``headline`` is formatted with ``seed``,
    ``backend`` and ``keys`` (the verified result keys)."""

    #: :class:`AskService` layout kwargs.
    layout: Mapping[str, Any]
    rule: Union[Generate, Window]
    #: tenant -> its task's sender streams; every task goes to ``receiver``.
    streams: Mapping[int, Mapping[str, Stream]]
    receiver: str
    headline: str
    #: backend -> overrides of :data:`CHAOS_CONFIG`.
    config: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    region_size: Optional[int] = None
    #: ``setup(service)`` runs before arming; its result is the
    #: orchestrator's ``hooks`` and the verdict's ``self``.
    setup: Optional[Callable[[AskService], Any]] = None
    #: ``verdict(state, tasks, report)`` prints its account in place of the
    #: key sample and returns the violations it found; ``passed`` is
    #: printed last when there were none.
    verdict: Optional[Verdict] = None
    passed: str = ""

    def schedule(self, seed: int, backend: str) -> ChaosSchedule:
        schedule = self.rule.build(seed, RackLayout.of(**self.layout), TIMING[backend])
        return replace(schedule, **WINDOWS[backend])


_FLOOD: Stream = ((b"abuse", 1),) * 20


class _AbusiveTenant:
    """Tenant 9 hoards 24 of the switch's 32 per-copy aggregators through
    three idle streaming sessions.  ``overload`` floods six tasks past the
    queue bound of four; ``relent`` closes the hoard so reclaim wakes the
    admission queue."""

    def __init__(self, service: AskService) -> None:
        self.service = service
        service.register_tenant(1, name="analytics", weight=2)
        service.register_tenant(2, name="training", weight=2)
        service.register_tenant(9, name="abuser", weight=1, quota=24)
        self.hoards = [
            service.open_stream(["h0"], receiver="h4", region_size=8, tenant_id=9)
            for _ in range(3)
        ]
        self.flood: List[AggregationTask] = []

    def on_overload(self, target: str) -> None:
        for _ in range(6):
            self.flood.append(
                self.service.submit({target: list(_FLOOD)}, "h4", region_size=8, tenant_id=9)
            )

    def on_relent(self, _target: str) -> None:
        for session in self.hoards:
            session.close()

    def verdict(self, tasks: Dict[int, AggregationTask], report: DegradationReport) -> List[str]:
        """No well-behaved task degraded; every flood task completed exactly
        once or bounced off the queue bound; the admission ledger balances."""
        failures: List[str] = []
        for tenant, task in tasks.items():
            assert task.result is not None
            print(
                f"  tenant {tenant}: {len(task.result.values)} keys, "
                f"sha256 {values_sha256(task.result.values)[:16]}…, "
                f"admission wait {task.stats.admission_wait_ns:,}ns "
                f"({task.stats.admission_retries} retries), "
                f"degraded={task.stats.degraded_to_bypass}"
            )
            if task.stats.degraded_to_bypass:
                failures.append(f"well-behaved tenant {tenant} was degraded to bypass")
        expected = reference_aggregate({"flood": list(_FLOOD)}, self.service.config.value_mask)
        completed = degraded = rejected = 0
        for task in self.flood:
            if task.phase is TaskPhase.COMPLETE:
                completed += 1
                degraded += task.stats.degraded_to_bypass
                if task.result is None or task.result.values != expected:
                    failures.append(f"flood task {task.task_id} deviates from the reference")
            else:  # run_to_completion leaves every task settled
                rejected += 1
                if "queue full" not in (task.failure_reason or ""):
                    failures.append(f"flood task {task.task_id} failed: {task.failure_reason}")
        print(
            f"  abusive tenant: {completed} completed ({degraded} via bypass "
            f"degrade), {rejected} rejected at the queue bound — all exactly-once"
        )
        adm = report.admission
        settled = ("granted", "degraded", "rejected_deadline", "cancelled", "waiting")
        if sum(adm[key] for key in settled) != adm["queued"]:
            failures.append(f"admission ledger does not balance: {adm}")
        return [f"ISOLATION VIOLATED: {failure}" for failure in failures]


def _tail(count: int, value: Optional[int] = None, key: str = "key-{:04d}") -> Stream:
    """Distinct keys (value ``i`` for key ``i`` by default): a long tail
    keeps a stream in flight well past the fault window."""
    return tuple((key.format(i).encode(), i if value is None else value) for i in range(count))


_HOT: Stream = ((b"in-network", 1), (b"aggregation", 2)) * 50
_WARM: Stream = ((b"in-network", 3),) * 50
_RACK = {DEFAULT_TENANT: {"h0": _HOT + _tail(1500), "h1": _WARM + _tail(1000, 1)}}
_VERIFIED = "({keys} keys verified against the reference):"


def _per_backend(sim: Dict[str, Any], asyncio: Dict[str, Any], **both: Any) -> Dict[str, Any]:
    return {"sim": {**both, **sim}, "asyncio": {**both, **asyncio}}


DRILLS: Dict[str, Drill] = {
    # A sampled crash/partition schedule on one rack.
    "chaos": Drill(
        layout={"hosts": 3},
        rule=Generate(),
        streams=_RACK,
        receiver="h2",
        headline=f"exact aggregation under injected failures {_VERIFIED}",
    ),
    # A spine crash mid-task on a 2-pod tree (default placement "both":
    # leaf relays + spine combiners).  The supervisor must degrade exactly
    # that spine's subtree to bypass and replay its tasks.
    "chaos-tree": Drill(
        layout={"pods": SMALL_TREE},
        rule=Window("crash", "spine-s0"),
        streams={
            DEFAULT_TENANT: {
                "h0": _HOT + _tail(1200),
                "h2": _WARM + _tail(800, 1),
                "h4": _tail(800, 2),
            }
        },
        receiver="h7",
        headline=f"exact aggregation under a spine-s0 crash mid-task {_VERIFIED}",
        # Over UDP a cross-pod round trip takes 1-2 ms, at the demo's 2 ms
        # timeout, which then resends about every packet twice.
        config={"asyncio": {"retransmit_timeout_us": 20_000}},
    ),
    # Abusive-tenant isolation: the flood waits, degrades to bypass or is
    # rejected at the queue bound, while both well-behaved tenants are
    # granted memory and complete bit-exact.  Sim runs a tight deadline
    # so part of the flood visibly degrades; asyncio a generous one so
    # scheduling jitter never degrades an innocent tenant.
    "chaos-overload": Drill(
        layout={"hosts": 5},
        rule=Window("overload", "h1"),
        streams={
            1: {"h2": ((b"good-total", 1),) * 30 + _tail(60, key="t1-{:03d}")},
            2: {"h3": ((b"good-total", 2),) * 30 + _tail(60, 1, key="t2-{:03d}")},
        },
        receiver="h4",
        region_size=8,
        config=_per_backend(
            sim={"admission_retry_us": 20.0, "admission_backoff_cap_us": 160.0,
                 "admission_deadline_us": 120.0},
            asyncio={"admission_retry_us": 5_000.0, "admission_backoff_cap_us": 40_000.0,
                     "admission_deadline_us": 5_000_000.0},
            admission_control=True, admission_queue_limit=4, admission_backoff=2.0,
        ),
        headline="abusive-tenant overload drill (seed {seed}, backend {backend!r}):",
        setup=_AbusiveTenant,
        verdict=_AbusiveTenant.verdict,
        passed="isolation held: abusive tenant contained, fingerprints exact",
    ),
    # Slow is the new dead: slow links, straggling daemons and flapping
    # nodes with the adaptive RTO and gray detection on.  The RTO floor
    # sits below the fixed timeout; the cap absorbs 4x inflation plus
    # backoff.
    "chaos-gray": Drill(
        layout={"hosts": 3},
        rule=Generate(kinds=("slow", "straggle", "flap")),
        streams=_RACK,
        receiver="h2",
        headline=f"exact aggregation under gray (slow-but-alive) failures {_VERIFIED}",
        config=_per_backend(
            sim={"rto_min_us": 50.0, "rto_max_us": 10_000.0},
            asyncio={"rto_min_us": 1_000.0, "rto_max_us": 100_000.0},
            adaptive_rto=True, gray_detection=True,
        ),
    ),
}


def run_drill(
    name: str,
    backend: str,
    seed: int,
    report_path: Optional[str] = None,
    corrupt_rate: float = 0.0,
) -> int:
    """Run drill ``name`` and print its account; returns 1 when a task
    deviates from the reference or the verdict finds a violation.

    ``corrupt_rate`` > 0 also flips bits in that fraction of frames on
    every link: the integrity layer must turn each damaged frame into a
    counted drop, healed by retransmission.
    """
    drill = DRILLS[name]
    config = AskConfig.small(**{**CHAOS_CONFIG[backend], **drill.config.get(backend, {})})
    fault = FaultModel(corrupt_rate=corrupt_rate, seed=seed) if corrupt_rate > 0 else None
    service = AskService(config, fault=fault, backend=backend, **drill.layout)
    try:
        schedule = drill.schedule(seed, backend).check_windows()
        state = drill.setup(service) if drill.setup is not None else None
        orchestrator = ChaosOrchestrator(service.deployment, schedule, hooks=state)
        # Start the UDP fabric (sockets open, clock on the wall time)
        # before arming, so fault offsets count from a live rack.
        start = getattr(service.fabric, "start", None)
        if start is not None:
            start()
        orchestrator.arm()
        tasks = {
            tenant: service.submit(
                {host: list(stream) for host, stream in streams.items()},
                drill.receiver,
                region_size=drill.region_size,
                tenant_id=tenant,
            )
            for tenant, streams in drill.streams.items()
        }
        service.run_to_completion()
        report = orchestrator.report(tasks=service.tasks)
        failures = [
            f"task {task.task_id} deviates from the exact reference"
            for tenant, task in tasks.items()
            if task.result is None
            or task.result.values != reference_aggregate(
                {host: list(s) for host, s in drill.streams[tenant].items()}, config.value_mask
            )
        ]
        keys = sum(len(task.result.values) for task in tasks.values() if task.result)
        print(drill.headline.format(seed=seed, backend=backend, keys=keys))
        if drill.verdict is None:
            for task in tasks.values():
                assert task.result is not None
                for key, value in sorted(task.result.items())[:4]:
                    print(f"  {key.decode():>12}: {value}")
                print(f"  ... and {max(0, len(task.result.values) - 4)} more")
        else:
            failures += drill.verdict(state, tasks, report)
        print(report.summary())
        totals, gray = report.totals, report.gray
        if corrupt_rate > 0:
            print(
                f"corruption: {totals.get('corrupted_frames_injected', 0)} "
                f"frame(s) damaged, {totals.get('robustness_drops', 0)} refused "
                f"at ingress, {totals.get('frames_quarantined', 0)} quarantined"
            )
        if schedule.gray_fault_count and gray:
            print(
                f"gray balance: {gray['gray_faults_injected']} gray fault(s), "
                f"{gray['packets_slowed']} frame(s) slowed, "
                f"{gray['packets_straggled']} straggled, "
                f"{gray['flap_toggles']} flap toggle(s); "
                f"{gray['timeouts']} timeout(s) -> "
                f"{gray['retransmissions']} retransmit(s), "
                f"{gray['spurious_retransmissions']} proven spurious"
            )
        if report_path is not None:
            with open(report_path, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
            print(f"[degradation report written to {report_path}]")
        for failure in failures:
            print(failure, file=sys.stderr)
        if failures:
            return 1
        if drill.passed:
            print(drill.passed)
    finally:
        service.close()
    return 0
