"""The two passes over one workload.

The **untraced pass** gives the end-to-end metrics: one discarded warm-up
repetition, then timed repetitions of the identical scenario, each on a
fresh deployment, until ``seconds`` have been measured.  The **traced
pass** gives the per-layer metrics: untraced reference repetitions first
(their CPU and wall time are the tracing-overhead baseline), then the
same scenario under :mod:`bench.trace`'s wrappers.

Both passes double as the correctness and determinism guard.  Every task
of every repetition is checked against ``reference_aggregate``; every
repetition of a simulated workload must reproduce the first one's
fingerprint; a workload's own oracle (``BENCH_hotpath.json``'s recorded
fingerprint, ``run_serial``) must agree; traced and untraced repetitions
must agree.  A violation is counted as failed operations — the run goes
on and reports them.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from bench import metrics, trace
from bench.harness import Rep, peak_rss_mib, run_rep
from bench.workloads import Fabric16Sharded, Workload

#: Fewest timed repetitions a median is taken over, however slow the box.
MIN_REPS = 3
#: Untraced reference repetitions at the head of the traced pass.
REFERENCE_REPS = 2
#: Fewest traced repetitions.
MIN_TRACED_REPS = 2

#: ``BENCH_hotpath.json``'s ``optimized.fingerprint`` (seed 7), which
#: ``rack_lossy --seed 7`` must reproduce: four PRs of history hang on it.
HOTPATH_SEED = 7
HOTPATH_FINGERPRINT = {
    "events_processed": 139642,
    "final_now_ns": 3978662,
    "sender_packets": 23958,
    "values_sha256": [
        "1e27cd1c58c63b9b172f41f5f7154b98024fef066920a5deaa98e3d771899992"
    ],
}


@dataclass
class PassResult:
    """One pass over one workload, ready to print or store."""

    workload: str
    seed: int
    trace: int
    attempted: int = 0
    failed: int = 0
    #: metric name -> {"value": ...} (+ quartiles, n, raw values untraced)
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    fingerprint: Optional[Dict[str, Any]] = None
    reps: int = 0
    notes: List[str] = field(default_factory=list)
    #: (layer, span name, calls, self seconds) of the traced repetitions
    span_names: List[Any] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


class Guard:
    """Counts operations and checks every repetition against the first
    fingerprint seen (and against any oracle given up front)."""

    def __init__(self, result: PassResult, expected: Optional[Dict[str, Any]] = None):
        self.result = result
        self.reference: Optional[Dict[str, Any]] = None
        self.expected = expected

    def admit(self, rep: Rep, label: str) -> Rep:
        result = self.result
        failed = rep.failed
        if rep.fingerprint is not None:
            if self.expected is not None and any(
                rep.fingerprint.get(key) != value for key, value in self.expected.items()
            ):
                failed = rep.ops
                result.notes.append(f"{label}: fingerprint differs from the recorded oracle")
            if self.reference is None:
                self.reference = rep.fingerprint
            elif rep.fingerprint != self.reference:
                failed = rep.ops
                result.notes.append(f"{label}: fingerprint differs from the first repetition's")
        result.attempted += rep.ops
        result.failed += failed
        result.notes.extend(f"{label}: {note}" for note in rep.notes)
        return rep


def fingerprint_summary(fingerprint: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """A digest of the whole fingerprint plus its headline counts — small
    enough for a result file, enough for two files to be compared."""
    if fingerprint is None:
        return None
    canonical = json.dumps(fingerprint, sort_keys=True, default=str)
    return {
        "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "events_processed": fingerprint.get("events_processed"),
        "final_now_ns": fingerprint.get("final_now_ns"),
        "sender_packets": fingerprint.get("sender_packets"),
    }


def _expected_fingerprint(workload: Workload, seed: int) -> Optional[Dict[str, Any]]:
    if workload.name == "rack_lossy" and seed == HOTPATH_SEED:
        return HOTPATH_FINGERPRINT
    return None


def _serial_oracle(workload: Workload, seed: int, guard: Guard) -> Optional[Rep]:
    """``fabric16_sharded``'s identity oracle: one ``run_serial`` of the
    same scenario, whose fingerprint every sharded repetition must equal."""
    if not isinstance(workload, Fabric16Sharded):
        return None
    return guard.admit(run_rep(workload, seed, serial=True), "serial oracle")


def _repeat(
    workload: Workload,
    seed: int,
    guard: Guard,
    label: str,
    seconds: float,
    at_least: int,
    **options: Any,
) -> List[Rep]:
    reps: List[Rep] = []
    start = time.perf_counter()
    while len(reps) < at_least or time.perf_counter() - start < seconds:
        reps.append(guard.admit(run_rep(workload, seed, **options), f"{label} {len(reps)}"))
    return reps


# ----------------------------------------------------------------------
def untraced_pass(workload: Workload, seed: int, seconds: float) -> PassResult:
    result = PassResult(workload.name, seed, trace=0)
    guard = Guard(result, _expected_fingerprint(workload, seed))
    _serial_oracle(workload, seed, guard)
    guard.admit(run_rep(workload, seed), "warm-up")
    reps = _repeat(workload, seed, guard, "rep", seconds, MIN_REPS)
    result.reps = len(reps)
    result.metrics = metrics.end_to_end_metrics(reps, peak_rss_mib())
    result.fingerprint = fingerprint_summary(guard.reference)
    return result


# ----------------------------------------------------------------------
def _median_rep(reps: Sequence[Rep]) -> Rep:
    """The repetition whose wall time is the median one."""
    ordered = sorted(reps, key=lambda rep: rep.wall_s)
    return ordered[(len(ordered) - 1) // 2]


def _vectorized_ratio(
    workload: Workload, seed: int, guard: Guard, scalar: Sequence[Rep]
) -> float:
    """CPU of the same scenario on the vectorized switch data plane over
    CPU on the scalar one (both untraced); the fingerprints must match.
    0 when the workload has no such variant or the knob is gone."""
    from repro import AskConfig

    if not workload.supports_vectorized or "vectorized" not in AskConfig.__dataclass_fields__:
        return 0.0
    reps = [
        guard.admit(run_rep(workload, seed, vectorized=True), f"vectorized {index}")
        for index in range(REFERENCE_REPS)
    ]
    return metrics.ratio(
        statistics.median(rep.cpu_s for rep in reps),
        statistics.median(rep.cpu_s for rep in scalar),
    )


@dataclass
class _Traced:
    """What the traced repetitions of one workload yielded."""

    tracer: trace.Tracer  #: spans of every layer the main process ran
    reps: List[Rep]  #: the repetitions those spans cover
    values: Dict[str, float]  #: ``<layer>.calls/.self_us_per_packet/.share``
    unattributed: float
    span_names: List[Any]


def _trace(workload: Workload, seed: int, seconds: float, guard: Guard) -> _Traced:
    tracer = trace.Tracer()
    with trace.install(tracer):
        reps = _repeat(workload, seed, guard, "traced", seconds, MIN_TRACED_REPS)
    return _Traced(
        tracer,
        reps,
        metrics.span_metrics(tracer, reps),
        metrics.unattributed_share(tracer, reps),
        tracer.name_totals(),
    )


def _trace_sharded(workload: Workload, seed: int, seconds: float, guard: Guard) -> _Traced:
    """Forked workers cannot hand their spans back.  So the span-derived
    figures of eleven layers describe a traced ``run_serial`` of the same
    scenario, and ``net.sharded``'s own describe the coordinator during
    ``run_sharded``, traced with that layer's wrappers alone (anything
    installed on code the workers run would be inherited by them)."""
    tracer = trace.Tracer()
    with trace.install(tracer):
        reps = _repeat(
            workload, seed, guard, "traced serial", seconds / 2, MIN_TRACED_REPS, serial=True
        )
    others = [layer for layer in trace.LAYERS if layer != "net.sharded"]
    values = metrics.span_metrics(tracer, reps, others)
    coordinator = trace.Tracer()
    with trace.install(coordinator, layers=["net.sharded"]):
        sharded = _repeat(workload, seed, guard, "traced sharded", seconds / 2, MIN_TRACED_REPS)
    values.update(metrics.span_metrics(coordinator, sharded, ["net.sharded"]))
    unattributed = max(
        metrics.unattributed_share(tracer, reps),
        metrics.unattributed_share(coordinator, sharded),
    )
    return _Traced(
        tracer, reps, values, unattributed, tracer.name_totals() + coordinator.name_totals()
    )


def traced_pass(
    workload: Workload, seed: int, seconds: float, spans_path: Optional[str] = None
) -> PassResult:
    result = PassResult(workload.name, seed, trace=1)
    guard = Guard(result, _expected_fingerprint(workload, seed))
    serial = _serial_oracle(workload, seed, guard)
    guard.admit(run_rep(workload, seed), "warm-up")
    untraced = _repeat(workload, seed, guard, "untraced", 0.0, REFERENCE_REPS)
    reference = _median_rep(untraced)
    if serial is not None:
        # The oracle ran cold; time ``run_serial`` again now that it is warm.
        serial = guard.admit(run_rep(workload, seed, serial=True), "untraced serial")
    vectorized_ratio = _vectorized_ratio(workload, seed, guard, untraced)

    if serial is not None:
        traced = _trace_sharded(workload, seed, seconds, guard)
    else:
        traced = _trace(workload, seed, seconds, guard)
    # The traced repetitions' untraced twin: ``run_serial`` when that is
    # what was traced, else the reference repetition.
    twin = serial if serial is not None else reference

    values = traced.values
    values.update(metrics.counter_metrics(reference, traced.tracer, traced.reps))
    values["switch.vectorized.cpu_ratio_vs_scalar"] = vectorized_ratio
    values["net.sharded.speedup_vs_serial"] = (
        metrics.ratio(serial.wall_s, reference.wall_s) if serial is not None else 0.0
    )
    traced_wall = statistics.median(rep.wall_s for rep in traced.reps)
    values["proc.trace_overhead_share"] = max(0.0, 1.0 - metrics.ratio(twin.wall_s, traced_wall))
    values["proc.unattributed_share"] = traced.unattributed
    result.metrics = {name: {"value": values.get(name, 0.0)} for name in metrics.PER_LAYER}
    result.reps = len(traced.reps)
    result.span_names = traced.span_names
    result.fingerprint = fingerprint_summary(guard.reference)
    if spans_path is not None:
        traced.tracer.write_spans(spans_path)
    return result
