#!/usr/bin/env python3
"""Advanced deployment: the §7 features plus the §6 Trio backend.

1. Multi-rack hierarchy: sender-side TOR switches aggregate, the receiver's
   TOR is bypassed, the core only carries residuals.
2. ECN congestion control: AIMD keeps queues shallow on a slow fabric.
3. Multi-tenancy: tenant-encoded task IDs with switch-enforced quotas.
4. Trio run-to-completion backend: long keys aggregate in-network.

Run:

    python examples/advanced_deployment.py
"""

from repro import AskConfig, AskService, TrioSwitch, tenant_of


def multirack_demo() -> None:
    print("== multi-rack hierarchy (§7) ==")
    cfg = AskConfig.small(trace=True)
    service = AskService(
        cfg, racks={"r0": ["a", "b"], "r1": ["c", "d"], "r2": ["e"]}
    )
    streams = {
        host: [(("word%02d" % (i % 15)).encode(), 1) for i in range(500)]
        for host in ("a", "c", "e")
    }
    result = service.aggregate(streams, receiver="b", check=True)
    print(f"  3 racks, 3 senders -> exact result over {len(result)} keys")
    for rack, switch in service.switches.items():
        print(
            f"  tor-{rack}: {switch.pipeline.passes} pipeline passes, "
            f"{switch.stats.packets_acked} packets absorbed"
        )
    core = service.trace.count(site="core:r1->r0") + service.trace.count(
        site="core:r2->r0"
    )
    print(f"  core crossings toward the receiver rack: {core} "
          f"(vs {result.stats.data_packets_sent} data packets sent)\n")


def congestion_demo() -> None:
    print("== ECN congestion control (§7) ==")
    results = {}
    for cc in (False, True):
        cfg = AskConfig.small(
            window_size=64,
            congestion_control=cc,
            ecn_threshold_bytes=2_000,
            link_bandwidth_gbps=1.0,
            retransmit_timeout_us=1000.0,
        )
        service = AskService(cfg, hosts=2)
        stream = [(("k%03d" % (i % 100)).encode(), 1) for i in range(3000)]
        service.aggregate({"h0": stream}, receiver="h1", check=True)
        results[cc] = service.topology.uplink("h0").max_backlog_bytes
    print(f"  max uplink backlog without CC: {results[False]:>7} B")
    print(f"  max uplink backlog with CC:    {results[True]:>7} B "
          "(AIMD keeps the queue near the ECN threshold)\n")


def tenancy_demo() -> None:
    print("== multi-tenancy (§7) ==")
    service = AskService(AskConfig.small(), hosts=3)
    service.switch.controller.tenant_quotas.set(2, 16)
    t1 = service.submit({"h0": [(b"x", 1)] * 60}, receiver="h2",
                        region_size=8, tenant_id=1)
    t2 = service.submit({"h1": [(b"x", 5)] * 60}, receiver="h2",
                        region_size=8, tenant_id=2)
    service.run_to_completion()
    print(f"  task {t1.task_id:#x} (tenant {tenant_of(t1.task_id)}): "
          f"x={t1.result[b'x']}")
    print(f"  task {t2.task_id:#x} (tenant {tenant_of(t2.task_id)}): "
          f"x={t2.result[b'x']} — same key, fully isolated; tenant 2 is "
          "quota-capped at 16 aggregators\n")


def trio_demo() -> None:
    print("== Trio run-to-completion backend (§6) ==")
    cfg = AskConfig.small(shadow_copy=False)
    stream = [(b"a-rather-long-key-%02d" % (i % 8), 1) for i in range(400)]
    pisa = AskService(cfg, hosts=2).aggregate({"h0": stream}, receiver="h1")
    trio = AskService(cfg, hosts=2, switch_factory=TrioSwitch).aggregate(
        {"h0": stream}, receiver="h1"
    )
    print(f"  long-key stream, PISA backend: "
          f"{pisa.stats.switch_aggregation_ratio:.0%} aggregated in-network "
          "(long keys bypass)")
    print(f"  long-key stream, Trio backend: "
          f"{trio.stats.switch_aggregation_ratio:.0%} aggregated in-network "
          "(DRAM table stores full keys)")


if __name__ == "__main__":
    multirack_demo()
    congestion_demo()
    tenancy_demo()
    trio_demo()
