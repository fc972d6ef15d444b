"""Command-line interface: regenerate paper results and inspect the system.

::

    python -m repro list                      # what can be regenerated
    python -m repro run fig09 table1          # regenerate specific results
    python -m repro run all                   # everything (a few minutes)
    python -m repro demo                      # a 5-second end-to-end demo
    python -m repro resources                 # switch resource report

The heavy lifting lives in :mod:`repro.experiments`; the CLI only selects,
runs and prints.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Sequence

from repro.experiments import (
    fig03_strawman,
    fig07_offload,
    fig08_multikey,
    fig09_prioritization,
    fig10_jct,
    fig11_tct,
    fig12_training,
    fig13_scalability,
    fig13_tree,
    table1_traffic,
)

#: name -> (description, zero-arg callable returning the report text)
EXPERIMENTS: dict[str, tuple[str, Callable[[], str]]] = {
    "fig03": (
        "single-machine AKV/s: Spark vs strawman vs ASK",
        lambda: fig03_strawman.format_report(fig03_strawman.run()),
    ),
    "fig07": (
        "computation offload: ASK vs PreAggr JCT and CPU",
        lambda: fig07_offload.format_report(fig07_offload.run()),
    ),
    "table1": (
        "traffic reduction on the four datasets (functional)",
        lambda: table1_traffic.format_report(table1_traffic.run()),
    ),
    "fig08": (
        "multi-key vectorization: goodput curve + packing CDF",
        lambda: fig08_multikey.format_report(fig08_multikey.run()),
    ),
    "fig09": (
        "hot-key agnostic prioritization sweep",
        lambda: fig09_prioritization.format_report(fig09_prioritization.run()),
    ),
    "fig10": (
        "WordCount JCT: ASK vs Spark variants",
        lambda: fig10_jct.format_report(fig10_jct.run()),
    ),
    "fig11": (
        "mapper/reducer task completion times",
        lambda: fig11_tct.format_report(fig11_tct.run()),
    ),
    "fig12": (
        "distributed-training throughput",
        lambda: fig12_training.format_report(fig12_training.run()),
    ),
    "fig13": (
        "bandwidth overhead and scalability",
        lambda: fig13_scalability.format_report(fig13_scalability.run()),
    ),
    "fig13_tree": (
        "hierarchical aggregation: goodput/JCT vs spine fan-in",
        lambda: fig13_tree.format_report(fig13_tree.run()),
    ),
}


def cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, (description, _runner) in EXPERIMENTS.items():
        print(f"  {name:<{width}}  {description}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    names = list(EXPERIMENTS) if "all" in args.names else args.names
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("use `python -m repro list`", file=sys.stderr)
        return 2
    for name in names:
        description, runner = EXPERIMENTS[name]
        print(f"\n### {name} — {description}")
        started = time.perf_counter()
        print(runner())
        print(f"[{name} regenerated in {time.perf_counter() - started:.1f}s]")
    return 0


def _demo_config(backend: str):
    """The demo's AskConfig, adapted to the backend's clock.

    The 100 µs retransmission timeout of the paper is measured against
    simulated link latency; under wall-clock asyncio even localhost UDP
    plus Python scheduling jitter exceeds it, so the real-time backends
    use a 2 ms timeout to keep spurious retransmissions rare.
    """
    import dataclasses

    from repro import AskConfig

    config = AskConfig.small()
    if backend == "asyncio":
        config = dataclasses.replace(config, retransmit_timeout_us=2000)
    return config


def _chaos_config(backend: str):
    """Chaos runs need failure detection on, and heartbeat/lease timing
    matched to the backend's clock (wall-clock asyncio cannot tick every
    50 simulated microseconds)."""
    import dataclasses

    config = _demo_config(backend)
    return dataclasses.replace(
        config,
        failure_detection=True,
        heartbeat_interval_us=50.0 if backend == "sim" else 2_000.0,
    )


def _run_chaos(
    backend: str,
    seed: int,
    report_path: str | None,
    corrupt_rate: float = 0.0,
) -> int:
    """Shared driver for ``repro chaos`` and ``repro demo --chaos``: run
    the demo workload under a seed-deterministic fault schedule, verify
    the result is bit-exact against the fault-free reference, and print
    the degradation report.

    ``corrupt_rate`` > 0 additionally flips bits in that fraction of
    frames on every link; the integrity layer must turn each damaged
    frame into a counted drop (healed by retransmission) for the result
    to stay bit-exact."""
    from repro import AskService, FaultModel
    from repro.chaos import ChaosOrchestrator, ChaosSchedule

    sim = backend == "sim"
    fault = None
    if corrupt_rate > 0:
        fault = FaultModel(corrupt_rate=corrupt_rate, seed=seed)
    service = AskService(
        _chaos_config(backend), hosts=3, fault=fault, backend=backend
    )
    try:
        schedule = ChaosSchedule.generate(
            seed,
            hosts=service.hosts,
            switches=[service.switch.name],
            horizon_ns=250_000 if sim else 30_000_000,
            min_down_ns=40_000 if sim else 5_000_000,
            max_down_ns=200_000 if sim else 20_000_000,
        )
        orchestrator = ChaosOrchestrator(service.deployment, schedule)
        # On the wall-clock backend, open the sockets before arming so the
        # fault offsets are measured from a live rack, not from interpreter
        # startup (overdue timers would all fire back-to-back).
        start = getattr(service.fabric, "start", None)
        if start is not None:
            start()
        orchestrator.arm()
        # A long tail of distinct keys keeps the stream in flight well past
        # the fault window (hot keys alone pack into a handful of frames).
        streams = {
            "h0": [(b"in-network", 1), (b"aggregation", 2)] * 50
            + [(f"key-{i:04d}".encode(), i) for i in range(1500)],
            "h1": [(b"in-network", 3)] * 50
            + [(f"key-{i:04d}".encode(), 1) for i in range(1000)],
        }
        result = service.aggregate(streams, receiver="h2", check=True)
        report = orchestrator.report(tasks=service.tasks)
        print(
            f"exact aggregation under injected failures "
            f"({len(result.values)} keys verified against the reference):"
        )
        for key, value in sorted(result.items())[:4]:
            print(f"  {key.decode():>12}: {value}")
        print(f"  ... and {max(0, len(result.values) - 4)} more")
        print(report.summary())
        if corrupt_rate > 0:
            totals = report.totals
            print(
                f"corruption: {totals.get('corrupted_frames_injected', 0)} "
                f"frame(s) damaged, "
                f"{totals.get('robustness_drops', 0)} refused at ingress, "
                f"{totals.get('frames_quarantined', 0)} quarantined"
            )
        if report_path is not None:
            with open(report_path, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
            print(f"[degradation report written to {report_path}]")
    finally:
        service.close()
    return 0


def _run_tree_chaos(backend: str, seed: int, report_path: str | None) -> int:
    """``repro chaos --tree``: the spine-crash drill.  Run a cross-pod
    workload on a 2-pod spine–leaf tree ("both" placement: leaf relays +
    spine combiners), crash one spine mid-task, and verify the result is
    still bit-exact against the fault-free reference — the supervisor must
    degrade exactly that spine's subtree to bypass and replay its tasks."""
    import random

    from repro.chaos import ChaosOrchestrator, ChaosSchedule
    from repro.chaos.schedule import ChaosEvent
    from repro.core.service import SMALL_TREE, AskService

    sim = backend == "sim"
    service = AskService(
        _chaos_config(backend), backend=backend, pods=SMALL_TREE, placement="both"
    )
    try:
        horizon = 250_000 if sim else 30_000_000
        # Seed-deterministic timing, but the *target* is always a spine:
        # this drill exists to exercise subtree-scoped failover, not to
        # re-sample the flat crash matrix.
        rng = random.Random(seed)
        start = rng.randrange(horizon // 5, horizon // 2)
        duration = rng.randrange(horizon // 4, horizon // 2)
        spine = service.spines["s0"].name
        schedule = ChaosSchedule(
            seed=seed,
            horizon_ns=horizon,
            events=(
                ChaosEvent(start, "crash", spine),
                ChaosEvent(start + duration, "restore", spine),
            ),
        )
        orchestrator = ChaosOrchestrator(service.deployment, schedule)
        fabric_start = getattr(service.fabric, "start", None)
        if fabric_start is not None:
            fabric_start()
        orchestrator.arm()
        # Senders in three racks across both pods; the long distinct-key
        # tail keeps pod s0's streams in flight through the crash window.
        streams = {
            "h0": [(b"in-network", 1), (b"aggregation", 2)] * 50
            + [(f"key-{i:04d}".encode(), i) for i in range(1200)],
            "h2": [(b"in-network", 3)] * 50
            + [(f"key-{i:04d}".encode(), 1) for i in range(800)],
            "h4": [(f"key-{i:04d}".encode(), 2) for i in range(800)],
        }
        result = service.aggregate(streams, receiver="h7", check=True)
        report = orchestrator.report(tasks=service.tasks)
        print(
            f"exact aggregation under a {spine} crash mid-task "
            f"({len(result.values)} keys verified against the reference):"
        )
        for key, value in sorted(result.items())[:4]:
            print(f"  {key.decode():>12}: {value}")
        print(f"  ... and {max(0, len(result.values) - 4)} more")
        print(report.summary())
        if report_path is not None:
            with open(report_path, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
            print(f"[degradation report written to {report_path}]")
    finally:
        service.close()
    return 0


def _run_overload_chaos(backend: str, seed: int, report_path: str | None) -> int:
    """``repro chaos --overload``: the abusive-tenant isolation drill.

    One tenant hoards three quarters of the switch's aggregator space
    through idle streaming sessions, then — at a seed-deterministic
    moment — floods a burst of tasks at the service (the ``overload``
    event; ``relent`` closes the hoard).  Two well-behaved tenants submit
    normal tasks into the squeeze.  The admission controller must keep
    the blast radius inside the abusive tenant: its flood waits, degrades
    to bypass, or is rejected at the queue bound, while every
    well-behaved task is granted memory (never degraded) and completes
    bit-exact against the flat-run reference fingerprint.
    """
    import dataclasses
    import random

    from repro import AskService
    from repro.chaos import ChaosOrchestrator, ChaosSchedule
    from repro.chaos.schedule import ChaosEvent
    from repro.core.results import reference_aggregate, values_sha256
    from repro.core.task import TaskPhase

    sim = backend == "sim"
    config = dataclasses.replace(
        _chaos_config(backend),
        admission_control=True,
        admission_queue_limit=4,
        admission_retry_us=20.0 if sim else 5_000.0,
        admission_backoff=2.0,
        admission_backoff_cap_us=160.0 if sim else 40_000.0,
        # Sim: tight deadline so part of the flood visibly degrades.
        # Asyncio: generous wall-clock deadline so well-behaved grants
        # (which arrive on region release) always beat it — scheduling
        # jitter must not degrade an innocent tenant.
        admission_deadline_us=120.0 if sim else 5_000_000.0,
    )
    service = AskService(config, hosts=5, backend=backend)
    try:
        horizon = 250_000 if sim else 30_000_000
        # Seed-deterministic timing; the target is always the abusive
        # tenant's flood host.
        rng = random.Random(seed)
        start = rng.randrange(horizon // 5, horizon // 2)
        duration = rng.randrange(horizon // 4, horizon // 2)
        flood_host = "h1"
        schedule = ChaosSchedule(
            seed=seed,
            horizon_ns=horizon,
            events=(
                ChaosEvent(start, "overload", flood_host),
                ChaosEvent(start + duration, "relent", flood_host),
            ),
        )
        # Tenants: two well-behaved (double fair share) and one abusive,
        # quota-capped at 24 of the 32 per-copy aggregators.
        service.register_tenant(1, name="analytics", weight=2)
        service.register_tenant(2, name="training", weight=2)
        service.register_tenant(9, name="abuser", weight=1, quota=24)
        # The hoard: three idle streaming sessions pin 24 aggregators
        # until the relent event closes them.
        hoards = [
            service.open_stream(
                ["h0"], receiver="h4", region_size=8, tenant_id=9
            )
            for _ in range(3)
        ]
        flood: list = []
        flood_stream = [(b"abuse", 1)] * 20

        def on_overload(target: str) -> None:
            # Queue limit is 4: the burst of 6 overflows it, so two tasks
            # must be rejected loudly and the rest wait their turn.
            for _ in range(6):
                flood.append(
                    service.submit(
                        {target: list(flood_stream)},
                        receiver="h4",
                        region_size=8,
                        tenant_id=9,
                    )
                )

        def on_relent(_target: str) -> None:
            for session in hoards:
                session.close()

        orchestrator = ChaosOrchestrator(
            service.deployment,
            schedule,
            on_overload=on_overload,
            on_relent=on_relent,
        )
        fabric_start = getattr(service.fabric, "start", None)
        if fabric_start is not None:
            fabric_start()
        orchestrator.arm()
        # Well-behaved tenants submit into the squeeze: 8 aggregators
        # remain, so one task is granted at once and the other waits in
        # admission until the first completes and releases its region.
        good_streams = {
            1: {
                "h2": [(b"good-total", 1)] * 30
                + [(f"t1-{i:03d}".encode(), i) for i in range(60)]
            },
            2: {
                "h3": [(b"good-total", 2)] * 30
                + [(f"t2-{i:03d}".encode(), 1) for i in range(60)]
            },
        }
        good = {
            tenant: service.submit(
                streams, receiver="h4", region_size=8, tenant_id=tenant
            )
            for tenant, streams in good_streams.items()
        }
        service.run_to_completion(timeout_s=60.0)
        report = orchestrator.report(tasks=service.tasks)

        failures: list[str] = []
        print(
            f"abusive-tenant overload drill (seed {seed}, backend {backend!r}):"
        )
        for tenant, task in good.items():
            expected = reference_aggregate(
                {h: list(s) for h, s in good_streams[tenant].items()},
                config.value_mask,
            )
            assert task.result is not None
            digest = values_sha256(task.result.values)
            print(
                f"  tenant {tenant}: {len(task.result.values)} keys, "
                f"sha256 {digest[:16]}…, "
                f"admission wait {task.stats.admission_wait_ns:,}ns "
                f"({task.stats.admission_retries} retries), "
                f"degraded={task.stats.degraded_to_bypass}"
            )
            if task.result.values != expected:
                failures.append(f"tenant {tenant} deviates from the reference")
            if values_sha256(expected) != digest:
                failures.append(f"tenant {tenant} fingerprint mismatch")
            if task.stats.degraded_to_bypass:
                failures.append(
                    f"well-behaved tenant {tenant} was degraded to bypass"
                )
        flood_expected = reference_aggregate(
            {flood_host: list(flood_stream)}, config.value_mask
        )
        completed = degraded = rejected = 0
        for task in flood:
            if task.phase is TaskPhase.COMPLETE:
                completed += 1
                degraded += int(task.stats.degraded_to_bypass)
                assert task.result is not None
                if task.result.values != flood_expected:
                    failures.append(
                        f"flood task {task.task_id} deviates from the reference"
                    )
            elif task.phase is TaskPhase.FAILED:
                rejected += 1
                if "queue full" not in (task.failure_reason or ""):
                    failures.append(
                        f"flood task {task.task_id} failed for the wrong "
                        f"reason: {task.failure_reason}"
                    )
            else:
                failures.append(
                    f"flood task {task.task_id} never settled "
                    f"({task.phase.value})"
                )
        print(
            f"  abusive tenant: {completed} completed "
            f"({degraded} via bypass degrade), {rejected} rejected at the "
            f"queue bound — all exactly-once"
        )
        adm = report.admission
        ledger = (
            adm["granted"] + adm["degraded"] + adm["rejected_deadline"]
            + adm["cancelled"] + adm["waiting"]
        )
        if ledger != adm["queued"]:
            failures.append(
                f"admission ledger does not balance: queued={adm['queued']} "
                f"!= granted+degraded+rejected_deadline+cancelled+waiting="
                f"{ledger}"
            )
        print(report.summary())
        if report_path is not None:
            with open(report_path, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
            print(f"[degradation report written to {report_path}]")
        if failures:
            for failure in failures:
                print(f"ISOLATION VIOLATED: {failure}", file=sys.stderr)
            return 1
        print("isolation held: abusive tenant contained, fingerprints exact")
    finally:
        service.close()
    return 0


def _run_gray_chaos(backend: str, seed: int, report_path: str | None) -> int:
    """``repro chaos --gray``: the slow-is-the-new-dead drill.

    Sample a gray schedule (slow links, straggling daemons, flapping
    nodes — everything degraded-but-alive, so no lease ever lapses) and
    run the demo workload through it with the adaptive RTO estimator and
    gray-failure detection on.  The result must stay bit-exact against
    the fault-free reference: slowness heals by waiting, flap darkness by
    retransmission, and any gray route-around by the same supervised
    replay that covers a crash."""
    import dataclasses

    from repro import AskService
    from repro.chaos import ChaosOrchestrator, ChaosSchedule

    sim = backend == "sim"
    config = dataclasses.replace(
        _chaos_config(backend),
        adaptive_rto=True,
        gray_detection=True,
        # Floor below the fixed timeout so the estimator may tighten on a
        # fast path; cap high enough to absorb 4x inflation plus backoff.
        rto_min_us=50.0 if sim else 1_000.0,
        rto_max_us=10_000.0 if sim else 100_000.0,
    )
    service = AskService(config, hosts=3, backend=backend)
    try:
        schedule = ChaosSchedule.generate(
            seed,
            hosts=service.hosts,
            switches=[service.switch.name],
            horizon_ns=250_000 if sim else 30_000_000,
            min_down_ns=40_000 if sim else 5_000_000,
            max_down_ns=200_000 if sim else 20_000_000,
            kinds=("slow", "straggle", "flap"),
        )
        orchestrator = ChaosOrchestrator(
            service.deployment,
            schedule,
            straggle_delay_ns=20_000 if sim else 2_000_000,
            flap_period_ns=20_000 if sim else 2_000_000,
        )
        start = getattr(service.fabric, "start", None)
        if start is not None:
            start()
        orchestrator.arm()
        streams = {
            "h0": [(b"in-network", 1), (b"aggregation", 2)] * 50
            + [(f"key-{i:04d}".encode(), i) for i in range(1500)],
            "h1": [(b"in-network", 3)] * 50
            + [(f"key-{i:04d}".encode(), 1) for i in range(1000)],
        }
        result = service.aggregate(streams, receiver="h2", check=True)
        report = orchestrator.report(tasks=service.tasks)
        gray = report.gray
        print(
            f"exact aggregation under gray (slow-but-alive) failures "
            f"({len(result.values)} keys verified against the reference):"
        )
        for key, value in sorted(result.items())[:4]:
            print(f"  {key.decode():>12}: {value}")
        print(f"  ... and {max(0, len(result.values) - 4)} more")
        print(report.summary())
        if gray:
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
    finally:
        service.close()
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    exclusive = sum(
        (
            bool(args.tree),
            bool(args.overload),
            bool(args.corrupt_rate),
            bool(args.gray),
        )
    )
    if exclusive > 1:
        print(
            "--tree, --overload, --corrupt-rate and --gray are separate "
            "drills",
            file=sys.stderr,
        )
        return 2
    if args.tree:
        return _run_tree_chaos(args.backend, args.seed, args.report)
    if args.overload:
        return _run_overload_chaos(args.backend, args.seed, args.report)
    if args.gray:
        return _run_gray_chaos(args.backend, args.seed, args.report)
    return _run_chaos(args.backend, args.seed, args.report, args.corrupt_rate)


def _run_sharded_demo(seed: int) -> int:
    """Demo the rack-sharded PDES backend: run the canonical 4-pod
    scenario serial and sharded (one forked worker per shard) and show
    the identity + window/message stats."""
    from repro.perf.parallel import default_workers
    from repro.runtime.sharded import demo_plan, demo_scenario, run_serial, run_sharded

    scenario = demo_scenario(seed)
    plan = demo_plan(scenario)
    serial = run_serial(scenario, plan)
    sharded, stats = run_sharded(
        scenario, plan, processes=default_workers() > 1
    )
    print(
        f"sharded PDES over {stats.shards} shards "
        f"(lookahead {stats.lookahead_ns} ns): "
        f"{stats.windows} windows, {stats.messages} cross-shard messages; "
        f"shard cpu {stats.worker_cpu_s:.3f} s, "
        f"critical path {stats.critical_path_cpu_s:.3f} s, "
        f"parallel bound {stats.parallel_bound:.2f}x"
    )
    for index, fingerprint in sorted(serial["tasks"].items()):
        digest = fingerprint["values_sha256"]
        print(
            f"  task {index}: {fingerprint['phase']:>9}  "
            f"values {digest[:16] if digest else '-'}"
        )
    if serial != sharded:
        print("FAILED: sharded fingerprint diverged from serial", file=sys.stderr)
        return 1
    print("serial and sharded fingerprints identical")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    from repro import AskService, FaultModel

    backend = getattr(args, "backend", "sim")
    if backend == "sim-sharded":
        return _run_sharded_demo(getattr(args, "seed", 1))
    if getattr(args, "chaos", False):
        return _run_chaos(backend, getattr(args, "seed", 1), None)
    service = AskService(
        _demo_config(backend),
        hosts=3,
        fault=FaultModel(loss_rate=0.05, duplicate_rate=0.03, seed=1),
        backend=backend,
    )
    streams = {
        "h0": [(b"in-network", 1), (b"aggregation", 2)] * 50,
        "h1": [(b"in-network", 3)] * 50,
    }
    try:
        result = service.aggregate(streams, receiver="h2", check=True)
        fabric = "simulated links" if backend == "sim" else "localhost UDP sockets"
        print(f"exact aggregation over a lossy fabric ({fabric}):")
        for key, value in sorted(result.items()):
            print(f"  {key.decode():>12}: {value}")
        stats = result.stats
        print(
            f"switch absorbed {stats.switch_aggregation_ratio:.0%} of tuples, "
            f"{stats.retransmissions} retransmissions healed"
        )
    finally:
        service.close()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Stand up one AsyncioFabric rack on localhost UDP and serve it.

    The rack — switch program plus ``--hosts`` daemons, each on its own
    UDP socket — runs until Ctrl-C (or ``--duration`` seconds, for
    scripted use).  A streaming session is kept open so the switch is
    visibly aggregating; its rolling result is printed on shutdown.
    """
    from repro import AskService, FaultModel

    fault = None
    if args.loss > 0:
        fault = FaultModel(loss_rate=args.loss, seed=args.seed)
    service = AskService(
        _demo_config("asyncio"),
        hosts=args.hosts,
        fault=fault,
        backend="asyncio",
    )
    try:
        senders = service.hosts[:-1]
        receiver = service.hosts[-1]
        session = service.open_stream(senders, receiver=receiver)
        service.fabric.start()
        print(f"ASK rack serving on {service.fabric.bind_host} (UDP):")
        for name in [service.switch.name, *service.hosts]:
            print(f"  {name:>8}: port {service.fabric.port_of(name)}")
        print(
            f"streaming {', '.join(senders)} -> {receiver}; "
            "Ctrl-C to stop"
            + (f" (auto-stop after {args.duration}s)" if args.duration else "")
        )
        deadline = (
            None if args.duration is None else time.monotonic() + args.duration
        )
        tick = 0
        try:
            while deadline is None or time.monotonic() < deadline:
                for host in senders:
                    session.feed(host, [(b"heartbeat", 1), (host.encode(), 1)])
                service.run(until=service.clock.now + 200_000_000)  # ~200 ms
                tick += 1
        except KeyboardInterrupt:
            print("\nshutting down...")
        session.close()
        service.run_to_completion(timeout_s=10.0)
        result = session.result
        assert result is not None
        print(f"served {tick} feed rounds; final aggregate:")
        for key, value in sorted(result.values.items()):
            print(f"  {key.decode():>12}: {value}")
        print(
            f"frames: {service.fabric.frames_sent} sent, "
            f"{service.fabric.frames_dropped} dropped by fault injection, "
            f"{result.stats.retransmissions} retransmissions healed"
        )
    finally:
        service.close()
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    """Run the whole experiment suite (figures + chaos matrix), fanned
    across cores by :mod:`repro.perf.parallel`, and print the merged
    report.  ``--verify`` re-runs serially and asserts byte-identity —
    the CI determinism check."""
    from repro.perf import parallel

    names = list(parallel.QUICK_EXPERIMENTS) if args.quick else None
    seeds: tuple[int, ...] = (
        ()
        if args.no_chaos
        else (parallel.QUICK_CHAOS_SEEDS if args.quick else parallel.CHAOS_SEEDS)
    )
    workers = 1 if args.serial else args.jobs
    run = parallel.run_suite(
        names, chaos_seeds=seeds, workers=workers, sharded=args.sharded
    )
    print(run.text(), end="")
    print(
        f"\n[suite: {len(run.results)} jobs, {run.workers} workers, "
        f"{run.wall_seconds:.1f}s]"
    )
    status = 0
    if not run.ok:
        for label, error in run.errors:
            print(f"FAILED {label}: {error}", file=sys.stderr)
        status = 1
    if args.verify:
        serial = parallel.run_suite(
            names, chaos_seeds=seeds, workers=1, sharded=args.sharded
        )
        if parallel.verify_identical(serial, run):
            print(
                f"[verify: serial ({serial.wall_seconds:.1f}s) and parallel "
                "reports identical]"
            )
        else:
            print("verify FAILED: serial and parallel reports differ", file=sys.stderr)
            status = 1
    return status


def cmd_resources(_args: argparse.Namespace) -> int:
    from repro import AskConfig
    from repro.net.simulator import Simulator
    from repro.switch.switch import AskSwitch

    switch = AskSwitch(AskConfig(), Simulator())
    print(switch.resource_summary())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ASK (ASPLOS'23) reproduction — regenerate paper results",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list regenerable tables/figures").set_defaults(
        func=cmd_list
    )
    run = sub.add_parser("run", help="regenerate one or more results")
    run.add_argument("names", nargs="+", help="experiment names, or 'all'")
    run.set_defaults(func=cmd_run)
    demo = sub.add_parser("demo", help="run a quick end-to-end demo")
    demo.add_argument(
        "--backend",
        choices=("sim", "asyncio", "sim-sharded"),
        default="sim",
        help="fabric backend: deterministic simulation (default), real "
        "localhost UDP sockets under asyncio, or the rack-sharded "
        "parallel simulator (runs serial + sharded and checks identity)",
    )
    demo.add_argument(
        "--chaos",
        action="store_true",
        help="inject a seed-deterministic crash/partition schedule while "
        "the demo runs and print the degradation report",
    )
    demo.add_argument("--seed", type=int, default=1, help="chaos schedule seed")
    demo.set_defaults(func=cmd_demo)
    chaos = sub.add_parser(
        "chaos",
        help="run the demo workload under injected failures and report "
        "degradation + recovery",
    )
    chaos.add_argument("--seed", type=int, default=1, help="chaos schedule seed")
    chaos.add_argument(
        "--backend",
        choices=("sim", "asyncio"),
        default="sim",
        help="fabric backend to inject faults into",
    )
    chaos.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the degradation report as JSON to PATH",
    )
    chaos.add_argument(
        "--corrupt-rate",
        type=float,
        default=0.0,
        metavar="RATE",
        help="also flip bits in this fraction of frames on every link "
        "[0, 1); the run still verifies bit-exact against the reference",
    )
    chaos.add_argument(
        "--tree",
        action="store_true",
        help="run the spine-crash drill on a 2-pod spine–leaf tree "
        "instead of the flat single-rack schedule",
    )
    chaos.add_argument(
        "--overload",
        action="store_true",
        help="run the abusive-tenant isolation drill: one tenant hoards "
        "switch memory and floods the admission queue; well-behaved "
        "tenants must still complete bit-exact and undegraded",
    )
    chaos.add_argument(
        "--gray",
        action="store_true",
        help="run the gray-failure drill: slow links, straggling daemons "
        "and flapping nodes (everything alive, nothing crashed) with the "
        "adaptive RTO and slow-vs-dead detection on; the result still "
        "verifies bit-exact against the reference",
    )
    chaos.set_defaults(func=cmd_chaos)
    serve = sub.add_parser(
        "serve",
        help="serve an AsyncioFabric rack on localhost UDP until Ctrl-C",
    )
    serve.add_argument("--hosts", type=int, default=3, help="hosts in the rack")
    serve.add_argument(
        "--loss", type=float, default=0.0, help="injected loss rate [0, 1)"
    )
    serve.add_argument("--seed", type=int, default=1, help="fault seed")
    serve.add_argument(
        "--duration",
        type=float,
        default=None,
        help="stop after this many seconds instead of waiting for Ctrl-C",
    )
    serve.set_defaults(func=cmd_serve)
    suite = sub.add_parser(
        "suite",
        help="run every figure + the chaos seed matrix, fanned across cores",
    )
    suite.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: CPUs schedulable by this "
        "process, per os.sched_getaffinity)",
    )
    suite.add_argument(
        "--serial", action="store_true", help="run in-process, one job at a time"
    )
    suite.add_argument(
        "--quick",
        action="store_true",
        help="sub-second subset (analytic figures + 2 chaos seeds), for CI",
    )
    suite.add_argument(
        "--no-chaos", action="store_true", help="skip the chaos seed matrix"
    )
    suite.add_argument(
        "--verify",
        action="store_true",
        help="re-run serially and fail unless the reports are byte-identical",
    )
    suite.add_argument(
        "--sharded",
        action="store_true",
        help="also run the sharded-simulator identity drills (serial vs "
        "rack-sharded fingerprints must match byte for byte)",
    )
    suite.set_defaults(func=cmd_suite)
    sub.add_parser(
        "resources", help="print the default switch's pipeline/SRAM layout"
    ).set_defaults(func=cmd_resources)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
