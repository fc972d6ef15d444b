"""Metric definitions: what each name means and how it is computed.

``BENCHMARK.json`` declares every name with its unit, direction and
bound; this module computes the values.  ``run.py`` refuses to print a
result whose names differ from the declared ones, and a test checks the
same, so the two cannot drift apart.

End-to-end metrics come from untraced repetitions only.  Per-layer
metrics come from the traced pass: ``<layer>.calls`` /
``.self_us_per_packet`` / ``.share`` from spans, the rest from the
program's own public counters.  A layer the workload does not cross
reports 0 for all of its metrics.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from bench.harness import Rep
from bench.trace import LAYERS, UNATTRIBUTED, Tracer

END_TO_END: Tuple[str, ...] = (
    "tuples_per_s",
    "cpu_us_per_tuple",
    "sim_jct_us",
    "sim_task_us_p50",
    "sim_task_us_p99",
    "peak_rss_mb",
    "setup_s",
)

SPAN_METRICS: Tuple[str, ...] = ("calls", "self_us_per_packet", "share")

COUNTER_METRICS: Tuple[str, ...] = (
    "core.packer.tuples_per_packet",
    "core.packer.blank_slot_share",
    "core.packer.long_packet_share",
    "core.sender.goodput_share",
    "transport.reliability.retx_share",
    "transport.reliability.timeouts",
    "transport.reliability.spurious_retx_share",
    "net.simulator.events_per_packet",
    "net.simulator.events_per_cpu_s",
    "net.link.hops_per_packet",
    "net.link.wire_bytes_per_tuple",
    "net.link.dropped_share",
    "net.link.duplicated_share",
    "switch.tuple_aggregated_share",
    "switch.packet_acked_share",
    "switch.dedup_drop_share",
    "switch.swaps",
    "switch.vectorized.cpu_ratio_vs_scalar",
    "core.receiver.packets_in_share",
    "core.receiver.window_dup_share",
    "core.receiver.tuples_merged_share",
    "core.receiver.tuples_fetched_share",
    "core.service.us_per_task",
    "core.service.admission_queued_share",
    "core.service.admission_degraded_share",
    "core.service.admission_wait_sim_us_p50",
    "runtime.codec.encode_us_per_frame",
    "runtime.codec.decode_us_per_frame",
    "runtime.codec.bytes_per_frame",
    "runtime.codec.rejected_share",
    "runtime.asyncio_fabric.datagrams_per_packet",
    "runtime.asyncio_fabric.idle_share",
    "net.sharded.windows",
    "net.sharded.cross_shard_msgs_per_hop",
    "net.sharded.coordinator_cpu_share",
    "net.sharded.worker_cpu_s",
    "net.sharded.speedup_vs_serial",
    "proc.gc_collections",
    "proc.trace_overhead_share",
    "proc.unattributed_share",
)

PER_LAYER: Tuple[str, ...] = (
    tuple(f"{layer}.{metric}" for layer in LAYERS for metric in SPAN_METRICS)
    + COUNTER_METRICS
)


# ----------------------------------------------------------------------
# Small statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    first, _median, third = statistics.quantiles(values, n=4)
    return first, third


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    first, third = quartiles(values)
    return {
        "value": statistics.median(values),
        "q1": first,
        "q3": third,
        "n": len(values),
        "raw": list(values),
    }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------
def rep_values(rep: Rep) -> Optional[Dict[str, float]]:
    """One repetition's end-to-end values, or None when no task of it
    finished correctly (such a repetition has no meaningful time)."""
    if not rep.task_ns or not rep.wall_s:
        return None
    return {
        "tuples_per_s": rep.tuples / rep.wall_s,
        "cpu_us_per_tuple": rep.cpu_s * 1e6 / rep.tuples,
        "sim_jct_us": rep.jct_ns / 1e3,
        "sim_task_us_p50": percentile(rep.task_ns, 50) / 1e3,
        "sim_task_us_p99": percentile(rep.task_ns, 99) / 1e3,
        "setup_s": rep.setup_s,
    }


def end_to_end_metrics(reps: Iterable[Rep], peak_rss_mib: float) -> Dict[str, Dict[str, Any]]:
    """Median over repetitions of every end-to-end metric, with quartiles,
    n and the raw per-repetition values beside it."""
    per_rep = [values for values in map(rep_values, reps) if values is not None]
    if not per_rep:
        return {}
    out = {
        name: summarize([values[name] for values in per_rep])
        for name in per_rep[0]
    }
    out["peak_rss_mb"] = summarize([peak_rss_mib])
    return {name: out[name] for name in END_TO_END}


# ----------------------------------------------------------------------
# Per layer
# ----------------------------------------------------------------------
def span_metrics(
    tracer: Tracer, traced: Sequence[Rep], layers: Iterable[str] = LAYERS
) -> Dict[str, float]:
    """``calls`` (per repetition), ``self_us_per_packet`` and ``share`` of
    ``layers`` over the traced repetitions ``traced``."""
    totals = tracer.layer_totals()
    packets = sum(rep.counters.get("sender_packets", 0) for rep in traced)
    wall = sum(rep.wall_s for rep in traced)
    out: Dict[str, float] = {}
    for layer in layers:
        calls, self_s = totals.get(layer, (0, 0.0))
        out[f"{layer}.calls"] = ratio(calls, len(traced))
        out[f"{layer}.self_us_per_packet"] = ratio(self_s * 1e6, packets)
        out[f"{layer}.share"] = ratio(self_s, wall)
    return out


def unattributed_share(tracer: Tracer, traced: Sequence[Rep]) -> float:
    """Share of the traced wall time no named layer accounts for: spans
    owned by an unmapped module plus time outside every span."""
    wall = sum(rep.wall_s for rep in traced)
    named = sum(
        self_s
        for layer, (_calls, self_s) in tracer.layer_totals().items()
        if layer != UNATTRIBUTED
    )
    return max(0.0, 1.0 - ratio(named, wall)) if wall else 0.0


def _span_total(tracer: Tracer, name: str) -> Tuple[int, float]:
    for _layer, span_name, calls, self_s in tracer.name_totals():
        if span_name == name:
            return calls, self_s
    return 0, 0.0


def counter_metrics(
    reference: Rep,
    tracer: Tracer,
    traced: Sequence[Rep],
) -> Dict[str, float]:
    """The counter-derived per-layer metrics.

    ``reference`` is an *untraced* repetition: its counters repeat exactly
    on a simulated fabric, and its CPU and wall time are free of wrapper
    cost.  ``tracer``/``traced`` supply what only spans can (codec time
    per frame, service time per task).
    """
    c = reference.counters
    if not c:
        return {}
    packets = c["sender_packets"]
    tuples = c["input_tuples"]
    first_tx = c["data_packets_sent"] + c["long_packets_sent"]
    pack_packets = c["pack_packets"] + c["pack_long_packets"]
    received = c["recv_accepted"] + c["recv_duplicates"]
    waits = [wait for wait in c["admission_wait_ns"] if wait]
    out = {
        "core.packer.tuples_per_packet": ratio(c["pack_tuples_in"], pack_packets),
        "core.packer.blank_slot_share": ratio(
            c["pack_blank_slots"], c["pack_packets"] * c["num_aas"]
        ),
        "core.packer.long_packet_share": ratio(c["pack_long_packets"], pack_packets),
        "core.sender.goodput_share": ratio(packets - c["retransmissions"], packets),
        "transport.reliability.retx_share": ratio(c["retransmissions"], packets),
        "transport.reliability.timeouts": float(c["timeouts"]),
        "transport.reliability.spurious_retx_share": ratio(
            c["spurious_retransmissions"], c["retransmissions"]
        ),
        "net.simulator.events_per_packet": ratio(c.get("events", 0), packets),
        "net.simulator.events_per_cpu_s": ratio(c.get("events", 0), reference.cpu_s),
        "net.link.hops_per_packet": ratio(c["link_packets"], packets),
        "net.link.wire_bytes_per_tuple": ratio(c["link_bytes"], tuples),
        "net.link.dropped_share": ratio(c["link_dropped"], c["link_packets"]),
        "net.link.duplicated_share": ratio(c["link_duplicated"], c["link_packets"]),
        "switch.tuple_aggregated_share": ratio(
            tuples - c["tuples_merged_at_receiver"], tuples
        ),
        "switch.packet_acked_share": ratio(c["acks_from_switch"], first_tx),
        "switch.dedup_drop_share": ratio(
            c.get("switch_seen_before", 0), c.get("switch_passes", 0)
        ),
        "switch.swaps": float(c["swaps"]),
        "core.receiver.packets_in_share": ratio(received, packets),
        "core.receiver.window_dup_share": ratio(c["recv_duplicates"], received),
        "core.receiver.tuples_merged_share": ratio(c["tuples_merged_at_receiver"], tuples),
        "core.receiver.tuples_fetched_share": ratio(
            c["tuples_fetched_from_switch"], tuples
        ),
        "core.service.admission_queued_share": ratio(
            c.get("admission_queued", 0), c["tasks"]
        ),
        "core.service.admission_degraded_share": ratio(c["degraded_tasks"], c["tasks"]),
        "core.service.admission_wait_sim_us_p50": (
            statistics.median(waits) / 1e3 if waits else 0.0
        ),
        "runtime.asyncio_fabric.datagrams_per_packet": ratio(
            c.get("frames_sent", 0), packets
        ),
        "runtime.asyncio_fabric.idle_share": (
            max(0.0, 1.0 - ratio(reference.cpu_s, reference.wall_s))
            if "frames_sent" in c
            else 0.0
        ),
        "net.sharded.windows": float(c.get("windows", 0)),
        "net.sharded.cross_shard_msgs_per_hop": ratio(
            c.get("cross_shard_messages", 0), c["link_packets"]
        ),
        "net.sharded.coordinator_cpu_share": (
            ratio(reference.cpu_s - reference.children_cpu_s, reference.cpu_s)
            if "windows" in c
            else 0.0
        ),
        "net.sharded.worker_cpu_s": reference.children_cpu_s if "windows" in c else 0.0,
        "proc.gc_collections": float(reference.gc_collections),
    }
    service_self = tracer.layer_totals().get("core.service", (0, 0.0))[1]
    traced_tasks = sum(rep.counters.get("tasks", 0) for rep in traced)
    out["core.service.us_per_task"] = ratio(service_self * 1e6, traced_tasks)
    encodes, encode_s = _span_total(tracer, "encode_packet")
    decodes, decode_s = _span_total(tracer, "decode_packet")
    rejected = sum(rep.counters.get("malformed_frames", 0) for rep in traced)
    out["runtime.codec.encode_us_per_frame"] = ratio(encode_s * 1e6, encodes)
    out["runtime.codec.decode_us_per_frame"] = ratio(decode_s * 1e6, decodes)
    out["runtime.codec.bytes_per_frame"] = ratio(
        tracer.counters.get("codec.encoded_bytes", 0), encodes
    )
    out["runtime.codec.rejected_share"] = ratio(rejected, decodes)
    return out
