#!/usr/bin/env python3
"""The repo benchmark: one command, every metric by name.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
    python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1] [--out FILE]

With ``--workload`` it runs one pass over one workload in this process
and prints every metric of that pass with its unit; the last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  ``--trace 0`` (default) is the untraced pass
and yields the end-to-end metrics; ``--trace 1`` is the traced pass and
yields the per-layer metrics.  Without ``--workload`` it runs that pass
over all seven workloads, each in a fresh subprocess, and ``--out``
gathers them into one result file for ``bench/compare.py``.

There is one size and one protocol: no smoke or quick switch.  The
process re-executes itself under ``MEASURING_ENV`` (fixed hash seed,
fixed C-allocator thresholds) so that identical runs behave identically.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "BENCHMARK.json"

#: The environment every measuring process runs under.
#:
#: ``PYTHONHASHSEED=0``: set iteration order, and with it the simulated
#: schedule of a multi-switch deployment, repeats from run to run.
#:
#: The two glibc malloc thresholds switch off the allocator's *dynamic*
#: mmap threshold.  asyncio asks for a 256 KiB buffer per ``recvfrom``;
#: depending on the heap's history glibc serves it from the heap or maps
#: and unmaps it afresh each time (two page faults per datagram), and
#: identical ``udp_rack`` repetitions flip between 0.85 s and 1.25 s.
#: Fixed thresholds keep every run on the heap.  Other allocators ignore
#: the variables.
MEASURING_ENV = {
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(512 << 20),
}

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench/run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
# The script's own directory comes first on sys.path; replace it, so that
# bench/trace.py cannot shadow the standard library's ``trace``.
sys.path[0] = str(ROOT / "src")
sys.path.insert(1, str(ROOT))

from bench import passes  # noqa: E402
from bench.workloads import BY_NAME, WORKLOADS  # noqa: E402


def load_manifest() -> Dict[str, Any]:
    return json.loads(MANIFEST.read_text())


def declared(manifest: Dict[str, Any], trace: int) -> Dict[str, Dict[str, Any]]:
    """name -> declaration for the metrics of one pass."""
    return {m["name"]: m for m in manifest["per_layer" if trace else "end_to_end"]}


# ----------------------------------------------------------------------
# Environment record
# ----------------------------------------------------------------------
def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int, seconds: float) -> Dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "measuring_env": {name: os.environ.get(name) for name in MEASURING_ENV},
        "commit": _commit(),
        "seed": seed,
        "seconds": seconds,
        "load_1min_start": os.getloadavg()[0],
    }


def close_environment(env: Dict[str, Any]) -> None:
    env["load_1min_end"] = os.getloadavg()[0]
    busiest = max(env["load_1min_start"], env["load_1min_end"])
    if env["nproc"] and busiest > env["nproc"]:
        print(
            f"warning: 1-min load average {busiest:.2f} exceeds nproc "
            f"{env['nproc']}; timings are contended",
            file=sys.stderr,
        )


# ----------------------------------------------------------------------
# One workload, one pass, this process
# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace, manifest: Dict[str, Any]) -> int:
    workload = BY_NAME[args.workload]
    env = environment(args.seed, args.seconds)
    spans_path = None
    if args.out and args.trace:
        spans_path = str(Path(args.out).with_suffix(".spans.jsonl"))
    if args.trace:
        result = passes.traced_pass(workload, args.seed, args.seconds, spans_path)
    else:
        result = passes.untraced_pass(workload, args.seed, args.seconds)
    close_environment(env)

    names = declared(manifest, args.trace)
    if set(result.metrics) != set(names):
        missing = sorted(set(names) - set(result.metrics))
        extra = sorted(set(result.metrics) - set(names))
        print(
            f"bench/run.py: {workload.name}: metrics differ from BENCHMARK.json "
            f"(missing {missing}, undeclared {extra}); notes: {result.notes}",
            file=sys.stderr,
        )
        return 1

    kind = "traced" if args.trace else "untraced"
    print(
        f"workload {workload.name}  seed {args.seed}  {kind} pass  "
        f"{result.reps} reps  ({workload.why})"
    )
    if workload.fabric == "udp":
        print("  note: loopback UDP, not a real link")
    for name, declaration in names.items():
        entry = result.metrics[name]
        line = f"  {name:<46} {entry['value']:>16.6g} {declaration['unit']}"
        if entry.get("n", 1) > 1:
            line += f"   q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  n {entry['n']}"
        print(line)
    if result.span_names:
        print("  largest spans by self time:")
        for layer, name, calls, self_s in result.span_names[:12]:
            print(f"    {layer:<24} {name:<40} {calls:>9} calls {self_s:>9.4f} s")
    failed_share = result.failed / result.attempted if result.attempted else 1.0
    print(
        f"  ops_attempted {result.attempted}  ops_failed {result.failed}  "
        f"failed_share {failed_share:.6g}"
    )
    for note in result.notes[:20]:
        print(f"  note: {note}")

    if args.out:
        record = {"env": env, "runs": [_run_record(result, names)]}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": result.metrics[name]["value"], "unit": names[name]["unit"]}
                    for name in names
                },
            }
        )
    )
    return 0


def _run_record(result: passes.PassResult, names: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    return {
        "workload": result.workload,
        "seed": result.seed,
        "trace": result.trace,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "reps": result.reps,
        "metrics": {
            name: dict(result.metrics[name], unit=names[name]["unit"]) for name in names
        },
        "fingerprint": result.fingerprint,
        "notes": result.notes,
    }


# ----------------------------------------------------------------------
# Every workload, each in a fresh subprocess
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace) -> int:
    env = environment(args.seed, args.seconds)
    runs: List[Dict[str, Any]] = []
    status = 0
    for workload in WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload.name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        part: Optional[Path] = None
        if args.out:
            part = Path(f"{args.out}.{workload.name}.part")
            command += ["--out", str(part)]
        child = subprocess.run(command, env=dict(os.environ, **MEASURING_ENV))
        if child.returncode != 0:
            print(f"bench/run.py: {workload.name} exited with {child.returncode}", file=sys.stderr)
            status = 1
        if part is not None and part.exists():
            record = json.loads(part.read_text())
            runs.extend(record["runs"])
            part.unlink()
    close_environment(env)
    if args.out:
        Path(args.out).write_text(json.dumps({"env": env, "runs": runs}, indent=1) + "\n")
        print(f"result file: {args.out}")
        for run in runs:
            share = run["failed"] / run["attempted"] if run["attempted"] else 1.0
            print(f"  {run['workload']:<18} reps {run['reps']:>3}  failed_share {share:.6g}")
            if not run["correct"]:
                status = 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    manifest = load_manifest()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME), help="one workload, in this process")
    parser.add_argument("--seed", type=int, default=7, help="input seed (default 7)")
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(manifest["run_seconds"]),
        help="how long one run measures (default: BENCHMARK.json's run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics",
    )
    parser.add_argument("--out", help="write a result file (and, traced, a *.spans.jsonl beside it)")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args, manifest)


if __name__ == "__main__":
    if any(os.environ.get(name) != value for name, value in MEASURING_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, **MEASURING_ENV))
    raise SystemExit(main())
