"""Parallel experiment runner: fan the paper suite across cores.

Regenerating every figure serially takes tens of seconds, dominated by a
handful of simulation-heavy figures (fig09's three stream-order sweeps,
table1's functional runs).  This module treats each experiment
(fig03–fig13, table1), each fig09 stream-order shard, and each chaos seed
of the CI matrix as one independent, picklable job, fans the jobs over a
``multiprocessing`` pool, and merges results in *plan order* — never
completion order — so a parallel run produces output byte-identical to a
serial one.

Determinism contract
--------------------
A job's payload must depend only on the job description: the experiments
are internally seeded and run on simulated time, and the chaos driver uses
the deterministic sim backend.  Wall-clock timings are carried outside the
payload (``JobResult.wall_seconds``) so they never enter the identity
check.  ``run_suite(workers=1)`` and ``run_suite(workers=N)`` therefore
render the exact same report text, which the CI determinism job asserts.

Sharding
--------
fig09 sweeps three independent stream orders (~one third of the whole
suite's wall-clock *each*); without sharding, the suite's critical path is
that single job and four cores buy less than 1.4x.  ``plan()`` expands
fig09 into one job per stream order and the merge step reassembles the
partial :class:`~repro.experiments.fig09_prioritization.Fig9Result` maps
before formatting — exact, because the per-kind sweeps share no state.
"""

from __future__ import annotations

import io
import multiprocessing as mp
import os
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import Optional, Sequence

#: Chaos schedule seeds, mirroring the CI chaos matrix
#: (``.github/workflows/ci.yml``).  Seed 31 is the known
#: switch-crash-before-streaming schedule.
CHAOS_SEEDS: tuple[int, ...] = (0, 7, 13, 23, 31)

#: Sub-second jobs for the CI determinism check (``repro suite --quick``):
#: the analytic figures, the smallest tree point (fig13_tree's functional
#: leg is a 2-pod sim run), plus two chaos seeds.  The simulation-heavy
#: figures (table1, fig08, fig09) are excluded on purpose — quick mode
#: exists to verify plumbing and serial/parallel identity, not coverage.
QUICK_EXPERIMENTS: tuple[str, ...] = (
    "fig03", "fig07", "fig10", "fig11", "fig12", "fig13", "fig13_tree",
)
QUICK_CHAOS_SEEDS: tuple[int, ...] = (0, 7)


@dataclass(frozen=True)
class Job:
    """One unit of work.  Must stay picklable (fork *and* spawn starts)."""

    kind: str  #: "experiment" | "fig09-shard" | "drill" | "sharded-identity"
    name: str  #: experiment name, drill name, or "sharded-identity"
    shard: Optional[str] = None  #: fig09 stream kind for shard jobs
    seed: Optional[int] = None  #: chaos schedule seed

    @property
    def label(self) -> str:
        if self.seed is not None:
            return f"{self.name}[seed={self.seed}]"
        if self.shard is not None:
            return f"{self.name}[{self.shard}]"
        return self.name


@dataclass
class JobResult:
    """Outcome of one job.  ``payload`` is the deterministic part: report
    text for experiment/chaos jobs, a partial ``Fig9Result`` for shards.
    ``wall_seconds`` is measurement-only and excluded from any identity
    comparison."""

    job: Job
    ok: bool
    payload: object
    error: str = ""
    wall_seconds: float = 0.0


def run_job(job: Job) -> JobResult:
    """Execute one job (this is the pool's worker entry point)."""
    started = time.perf_counter()
    try:
        if job.kind == "experiment":
            from repro.cli import EXPERIMENTS

            _description, runner = EXPERIMENTS[job.name]
            payload: object = runner()
        elif job.kind == "fig09-shard":
            from repro.experiments import fig09_prioritization

            assert job.shard is not None
            payload = fig09_prioritization.run(kinds=(job.shard,))
        elif job.kind == "drill":
            from repro.chaos.drills import run_drill

            assert job.seed is not None
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                status = run_drill(job.name, "sim", job.seed)
            if status != 0:
                raise RuntimeError(
                    f"{job.name} seed {job.seed} exited with {status}"
                )
            payload = buffer.getvalue()
        elif job.kind == "sharded-identity":
            assert job.seed is not None
            payload = run_sharded_identity(job.seed)
        else:
            raise ValueError(f"unknown job kind {job.kind!r}")
    except Exception as exc:  # noqa: BLE001 - one failed job must not kill the suite
        return JobResult(
            job=job,
            ok=False,
            payload="",
            error=f"{type(exc).__name__}: {exc}",
            wall_seconds=time.perf_counter() - started,
        )
    return JobResult(
        job=job, ok=True, payload=payload,
        wall_seconds=time.perf_counter() - started,
    )


def run_sharded_identity(seed: int) -> str:
    """Run the canonical sharded demo scenario serial AND sharded
    (in-process), assert byte-identical fingerprints, and render a
    deterministic report section.  Raises on any divergence so the suite
    surfaces it as a failed job."""
    from repro.runtime.sharded import demo_plan, demo_scenario, run_serial, run_sharded

    scenario = demo_scenario(seed)
    plan_ = demo_plan(scenario)
    serial = run_serial(scenario, plan_)
    sharded, stats = run_sharded(scenario, plan_)
    if serial != sharded:
        diverged = sorted(
            key for key in serial if serial[key] != sharded.get(key)
        )
        raise RuntimeError(
            f"sharded fingerprint diverged from serial (seed {seed}): "
            f"sections {diverged}"
        )
    lines = [
        f"seed {seed}: serial == sharded over {stats.shards} shards",
        f"  windows={stats.windows} messages={stats.messages} "
        f"lookahead_ns={stats.lookahead_ns}",
        f"  tasks={len(serial['tasks'])} events={serial['events_processed']}",
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
#: Seeds for the ``--sharded`` serial==sharded identity jobs.
SHARDED_SEEDS: tuple[int, ...] = (7, 23)


def plan(
    names: Optional[Sequence[str]] = None,
    chaos_seeds: Sequence[int] = CHAOS_SEEDS,
    shard: bool = True,
    sharded: bool = False,
) -> list[Job]:
    """Build the ordered job list for a suite run.

    ``names`` defaults to every experiment in CLI registration order;
    chaos seeds follow.  The returned order is the *merge* order — results
    are always reassembled against this list, so scheduling (serial,
    parallel, any completion order) cannot change the output.
    """
    from repro.chaos.drills import DRILLS
    from repro.cli import EXPERIMENTS
    from repro.experiments.fig09_prioritization import STREAM_KINDS

    if names is None:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiment(s): {', '.join(unknown)}")
    jobs: list[Job] = []
    for name in names:
        if shard and name == "fig09":
            jobs.extend(Job("fig09-shard", name, shard=kind) for kind in STREAM_KINDS)
        else:
            jobs.append(Job("experiment", name))
    # Every registered chaos drill rides the seed matrix, drill-major.
    jobs.extend(
        Job("drill", drill, seed=seed) for drill in DRILLS for seed in chaos_seeds
    )
    # Sharded-backend identity drills (``--sharded``): serial and
    # rack-sharded runs of the demo scenario must fingerprint identically.
    if sharded:
        jobs.extend(
            Job("sharded-identity", "sharded-identity", seed=seed)
            for seed in SHARDED_SEEDS
        )
    return jobs


def default_workers() -> int:
    """Worker count for ``repro suite -j`` with no explicit value.

    Uses the *scheduling affinity* of this process, not the machine's
    core count: in cgroup-limited CI runners and containers
    ``os.cpu_count()`` reports the host's cores and oversubscribes the
    pool 4–16x, serialising the suite behind the scheduler.  Affinity is
    a Linux-ism, so fall back to ``cpu_count`` where it is missing.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - macOS/Windows
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _pool_context() -> mp.context.BaseContext:
    # fork is markedly cheaper and the CLI is single-threaded at this
    # point; fall back to spawn where fork does not exist (Windows) —
    # every Job and payload is picklable either way.
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def execute(jobs: Sequence[Job], workers: int) -> list[JobResult]:
    """Run ``jobs`` and return their results in job order.

    ``workers <= 1`` runs in-process (the serial reference); otherwise a
    pool fans the jobs out with chunksize 1 so the long shards load-balance,
    and ``Pool.map``'s order guarantee performs the seed-stable merge.
    """
    jobs = list(jobs)
    if workers <= 1 or len(jobs) <= 1:
        return [run_job(job) for job in jobs]
    with _pool_context().Pool(processes=min(workers, len(jobs))) as pool:
        return pool.map(run_job, jobs, chunksize=1)


# ----------------------------------------------------------------------
# Merging
# ----------------------------------------------------------------------
def _merge_fig09(partials: list[JobResult]) -> str:
    from repro.experiments import fig09_prioritization

    base = partials[0].payload
    merged = fig09_prioritization.Fig9Result(
        base.num_keys, base.num_tuples, base.ratios  # type: ignore[union-attr]
    )
    for partial in partials:
        merged.without.update(partial.payload.without)  # type: ignore[union-attr]
        merged.with_prio.update(partial.payload.with_prio)  # type: ignore[union-attr]
    return fig09_prioritization.format_report(merged)


@dataclass
class SuiteRun:
    """A completed suite: per-section reports in plan order."""

    #: (section label, deterministic report text) pairs, plan-ordered.
    sections: list[tuple[str, str]] = field(default_factory=list)
    results: list[JobResult] = field(default_factory=list)
    workers: int = 1
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def errors(self) -> list[tuple[str, str]]:
        return [(r.job.label, r.error) for r in self.results if not r.ok]

    def text(self) -> str:
        """The whole suite as one report.  Contains no wall-clock values,
        so serial and parallel runs of the same plan compare equal."""
        chunks = [f"### {label}\n{body}" for label, body in self.sections]
        return "\n\n".join(chunks) + "\n"


def merge(jobs: Sequence[Job], results: Sequence[JobResult]) -> list[tuple[str, str]]:
    """Fold job results into plan-ordered report sections.

    fig09 shards collapse into one section; a failed job renders as an
    ERROR section (and keeps its slot, so failures cannot reorder output).
    """
    sections: list[tuple[str, str]] = []
    pending_fig09: list[JobResult] = []
    for job, result in zip(jobs, results):
        if job.kind == "fig09-shard":
            pending_fig09.append(result)
            if len(pending_fig09) < sum(1 for j in jobs if j.kind == "fig09-shard"):
                continue
            if all(r.ok for r in pending_fig09):
                sections.append(("fig09", _merge_fig09(pending_fig09)))
            else:
                errors = "; ".join(
                    f"{r.job.label}: {r.error}" for r in pending_fig09 if not r.ok
                )
                sections.append(("fig09", f"ERROR {errors}"))
            continue
        if not result.ok:
            sections.append((job.label, f"ERROR {result.error}"))
        else:
            sections.append((job.label, str(result.payload)))
    return sections


def run_suite(
    names: Optional[Sequence[str]] = None,
    chaos_seeds: Sequence[int] = CHAOS_SEEDS,
    workers: Optional[int] = None,
    shard: bool = True,
    sharded: bool = False,
) -> SuiteRun:
    """Plan, execute and merge the experiment suite."""
    jobs = plan(names, chaos_seeds=chaos_seeds, shard=shard, sharded=sharded)
    effective = default_workers() if workers is None else workers
    started = time.perf_counter()
    results = execute(jobs, effective)
    wall = time.perf_counter() - started
    return SuiteRun(
        sections=merge(jobs, results),
        results=list(results),
        workers=effective,
        wall_seconds=wall,
    )


def verify_identical(serial: SuiteRun, parallel: SuiteRun) -> bool:
    """True when two runs of the same plan rendered identical reports."""
    return serial.sections == parallel.sections
