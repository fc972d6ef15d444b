"""Run reports: one readable summary of everything a service run did.

``service_report`` condenses the switch counters, per-link statistics and
per-task outcomes of an :class:`~repro.core.service.AskService` run, on
any layout — the observability surface an operator of the real system
would want, and what the examples print after a run.
"""

from __future__ import annotations

from typing import Iterable

from repro.net.simulator import to_seconds
from repro.perf.metrics import format_table


def _task_rows(tasks: Iterable) -> list[list[object]]:
    rows = []
    for task in tasks:
        stats = task.stats
        elapsed = (
            f"{to_seconds(stats.completion_time_ns) * 1e3:.2f} ms"
            if stats.completion_time_ns is not None
            else "-"
        )
        rows.append(
            [
                f"{task.task_id:#x}" if task.task_id > 0xFFFF else task.task_id,
                task.phase.value,
                stats.input_tuples,
                f"{stats.switch_aggregation_ratio * 100:.1f}%",
                stats.retransmissions,
                stats.swaps,
                elapsed,
            ]
        )
    return rows


def _switch_block(name: str, switch) -> list[str]:
    stats = switch.stats
    lines = [
        f"switch {name}: {stats.data_packets} data packets, "
        f"{stats.packets_acked} absorbed, {stats.packets_forwarded} forwarded, "
        f"{stats.retransmissions_seen} retransmissions seen, "
        f"{stats.stale_drops} stale drops, {stats.swaps} swaps"
    ]
    dedup = switch.dedup
    lines.append(
        f"  reliability SRAM: {dedup.sram_bytes_per_channel():.0f} B/channel, "
        f"duplicates detected: {dedup.duplicates_detected}"
    )
    return lines


def _link_rows(topology) -> list[list[object]]:
    """Every host's uplink and downlink, then the switch interconnect."""
    return [
        [
            link.name,
            link.packets_sent,
            link.packets_dropped,
            link.packets_duplicated,
            link.packets_marked,
            f"{link.bytes_sent / 1024:.1f}",
        ]
        for _name, _src, _dst, link in topology.links()
    ]


def service_report(service) -> str:
    """A multi-section text report for one (finished or running) service."""
    lines: list[str] = [f"=== ASK run report (t = {to_seconds(service.sim.now) * 1e3:.2f} ms) ==="]

    # Tasks
    lines.append(
        format_table(
            ["task", "phase", "tuples", "switch agg", "retx", "swaps", "elapsed"],
            _task_rows(service.tasks.values()),
            title="tasks",
        )
    )

    # Switches (every TOR, and the spines of a tree)
    for name, switch in service.deployment.switches.items():
        lines.extend(_switch_block(name, switch))

    # Links, on every layout
    lines.append(
        format_table(
            ["link", "pkts", "dropped", "dup'd", "ECN-marked", "KiB"],
            _link_rows(service.topology),
            title="links",
        )
    )
    return "\n".join(lines)
