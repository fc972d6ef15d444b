"""Benches for the §6/§7 extensions: multi-rack hierarchy, congestion
control, and the PISA-vs-Trio backend comparison."""

from repro.core.config import AskConfig
from repro.core.service import AskService
from repro.perf.metrics import format_table
from repro.switch.trio import TrioSwitch
from repro.workloads.datasets import get_dataset


def test_multirack_core_traffic_reduction(benchmark, report):
    """§7 hierarchy: sender-side TORs absorb traffic before the core."""

    def run():
        cfg = AskConfig.small(aggregators_per_aa=2048, trace=True)
        service = AskService(
            cfg, racks={"r0": ["a", "b"], "r1": ["c"], "r2": ["d"]}
        )
        streams = {
            host: [(("k%02d" % (i % 25)).encode(), 1) for i in range(1500)]
            for host in ("c", "d")
        }
        result = service.aggregate(streams, receiver="a", check=True)
        core = sum(
            service.trace.count(site=f"core:{src}->r0") for src in ("r1", "r2")
        )
        return result.stats.data_packets_sent, core

    sent, core = benchmark.pedantic(run, iterations=1, rounds=1)
    report(
        "ext_multirack",
        format_table(
            ["metric", "packets"],
            [["data packets sent", sent], ["core crossings to receiver rack", core]],
            title="multi-rack hierarchy — rack-local aggregation spares the core",
        ),
    )
    assert core < sent / 5


def test_congestion_control_queue_depth(benchmark, report):
    """§7 congestion control: AIMD bounds the bottleneck queue."""

    def run():
        depths = {}
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
            depths[cc] = service.topology.uplink("h0").max_backlog_bytes
        return depths

    depths = benchmark.pedantic(run, iterations=1, rounds=1)
    report(
        "ext_congestion",
        format_table(
            ["mode", "max uplink backlog (B)"],
            [["window-only (W=64)", depths[False]], ["ECN + AIMD", depths[True]]],
            title="congestion control — queue depth at a 1 Gbps bottleneck",
        ),
    )
    assert depths[True] < depths[False] / 3


def test_trio_vs_pisa_backends(benchmark, report):
    """§6: the run-to-completion backend aggregates the whole key space."""
    stream = get_dataset("NG", 2_000).stream(4_000, seed=3)

    def run():
        rows = {}
        for label, factory in (("PISA", None), ("Trio", TrioSwitch)):
            kwargs = {"switch_factory": factory} if factory else {}
            cfg = AskConfig.small(shadow_copy=False, aggregators_per_aa=4096)
            service = AskService(cfg, hosts=2, **kwargs)
            result = service.aggregate({"h0": list(stream)}, receiver="h1", check=True)
            rows[label] = (
                result.stats.switch_aggregation_ratio,
                result.stats.switch_ack_ratio,
            )
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    report(
        "ext_trio",
        format_table(
            ["backend", "tuples aggregated", "packets ACKed"],
            [
                [label, f"{agg * 100:.1f}%", f"{ack * 100:.1f}%"]
                for label, (agg, ack) in rows.items()
            ],
            title="PISA vs Trio backend on the NG corpus (long keys included)",
        ),
    )
    assert rows["Trio"][0] > rows["PISA"][0]
