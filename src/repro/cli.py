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
    simulated link latency; on the wall clock even localhost UDP
    plus Python scheduling jitter exceeds it, so the real-time backends
    use a 2 ms timeout to keep spurious retransmissions rare.
    """
    import dataclasses

    from repro import AskConfig

    config = AskConfig.small()
    if backend == "asyncio":
        config = dataclasses.replace(config, retransmit_timeout_us=2000)
    return config


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
    from repro.chaos.drills import run_drill

    name = (
        "chaos-tree" if args.tree
        else "chaos-overload" if args.overload
        else "chaos-gray" if args.gray
        else "chaos"
    )
    return run_drill(name, args.backend, args.seed, args.report, args.corrupt_rate)


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
        from repro.chaos.drills import run_drill

        return run_drill("chaos", backend, getattr(args, "seed", 1))
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
        topology = service.topology
        print(
            f"frames: {topology.link_total('packets_sent')} sent, "
            f"{topology.link_total('packets_dropped')} dropped by fault injection, "
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
        "localhost UDP sockets (one selector loop), or the rack-sharded "
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
