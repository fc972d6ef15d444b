#!/usr/bin/env python3
"""Compare two benchmark result files, row by row.

    python3 bench/compare.py A.json B.json
    python3 bench/compare.py A1.json,A2.json,... B1.json,B2.json,...

``A`` is the parent (or the first set of runs), ``B`` the change (or the
second set); either may be several files, comma-separated.  For every
end-to-end metric on every workload the bound declared in
``BENCHMARK.json`` is applied to the two medians and one verdict is
printed:

``improved``    B is better than A by more than the bound, and the two
                inter-quartile ranges do not overlap.
``regressed``   B is worse than A by more than the bound, and the two
                inter-quartile ranges do not overlap.
``unchanged``   the medians differ by no more than the bound, and neither
                side's inter-quartile range is wider than the bound.
``unresolved``  anything else: the run-to-run spread is wider than the
                bound, or the medians differ by more than the bound while
                the ranges still overlap.  Measure longer; do not read it
                as "unchanged".

A side's sample is the values of its runs of that workload (different
seeds, or repeats of one seed) when the file holds several, else the
per-repetition values of its single run.  Each workload's change in
``failed_share`` and, for equal seeds, whether the simulated schedule's
fingerprint changed are printed beside the rows; per-layer metrics, which
have no bound, are listed as ``same`` or ``changed``.

Exit status 1 when any row regressed or a ``failed_share`` rose.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

Runs = Dict[Tuple[str, int], List[Dict[str, Any]]]


def load_runs(paths: str) -> Runs:
    """(workload, trace) -> the runs of one side, in file order.  A side
    is one result file or several, comma-separated (ten seeds, say)."""
    grouped: Runs = {}
    for path in paths.split(","):
        for run in json.loads(Path(path).read_text())["runs"]:
            grouped.setdefault((run["workload"], run["trace"]), []).append(run)
    return grouped


def sample(runs: Sequence[Dict[str, Any]], metric: str) -> List[float]:
    """Run-level values when there are several runs, else the single run's
    per-repetition values."""
    entries = [run["metrics"][metric] for run in runs if metric in run["metrics"]]
    if len(entries) == 1:
        return list(entries[0].get("raw") or [entries[0]["value"]])
    return [entry["value"] for entry in entries]


def interquartile(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    first, _median, third = statistics.quantiles(values, n=4)
    return first, third


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """The row's verdict and B's signed worsening relative to A's median
    (positive: worse), as a share of A's median."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    if median_a == 0:
        worse = 0.0 if median_b == 0 else float("inf")
    else:
        worse = (median_b - median_a) / abs(median_a)
    if better == "higher":
        worse = -worse
    a_low, a_high = interquartile(a)
    b_low, b_high = interquartile(b)
    overlap = a_low <= b_high and b_low <= a_high
    scale = abs(median_a) or 1.0
    spread = max(a_high - a_low, b_high - b_low) / scale
    if abs(worse) <= bound:
        return ("unchanged" if spread <= bound else "unresolved"), worse
    if overlap:
        return "unresolved", worse
    return ("regressed" if worse > 0 else "improved"), worse


def _repeats_exactly(values: Sequence[float]) -> bool:
    return len(values) > 1 and min(values) == max(values)


def failed_share(runs: Sequence[Dict[str, Any]]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 1.0


def fingerprint_note(a: Sequence[Dict[str, Any]], b: Sequence[Dict[str, Any]]) -> Optional[str]:
    """For seeds both sides ran: did the simulated schedule change?"""
    by_seed_a = {run["seed"]: run.get("fingerprint") for run in a}
    shared = [run for run in b if run["seed"] in by_seed_a and run.get("fingerprint")]
    if not shared:
        return None
    changed = [
        run["seed"]
        for run in shared
        if by_seed_a[run["seed"]] and run["fingerprint"]["sha256"] != by_seed_a[run["seed"]]["sha256"]
    ]
    return f"fingerprint changed at seed {changed}" if changed else "fingerprint identical"


def compare(a: Runs, b: Runs, manifest: Dict[str, Any]) -> Tuple[List[str], bool]:
    lines: List[str] = []
    bad = False
    header = f"{'workload':<18} {'metric':<18} {'A':>13} {'B':>13} {'worse by':>9} {'bound':>6}  verdict"
    lines.append(header)
    for workload in [w["name"] for w in manifest["workloads"]]:
        runs_a, runs_b = a.get((workload, 0)), b.get((workload, 0))
        if not runs_a or not runs_b:
            continue
        for declared in manifest["end_to_end"]:
            name = declared["name"]
            values_a, values_b = sample(runs_a, name), sample(runs_b, name)
            if not values_a or not values_b:
                lines.append(f"{workload:<18} {name:<18} missing on one side")
                bad = True
                continue
            word, worse = verdict(values_a, values_b, declared["better"], declared["bound"])
            if worse and _repeats_exactly(values_a) and _repeats_exactly(values_b):
                word += " (exact-repeat value changed)"
            bad = bad or word.startswith("regressed")
            lines.append(
                f"{workload:<18} {name:<18} {statistics.median(values_a):>13.6g} "
                f"{statistics.median(values_b):>13.6g} {worse:>+9.2%} {declared['bound']:>6.0%}  {word}"
            )
        share_a, share_b = failed_share(runs_a), failed_share(runs_b)
        note = fingerprint_note(runs_a, runs_b)
        lines.append(
            f"{workload:<18} failed_share       {share_a:>13.6g} {share_b:>13.6g} "
            f"{share_b - share_a:>+9.6g}" + (f"         {note}" if note else "")
        )
        bad = bad or share_b > share_a
    layer_rows = _per_layer_rows(a, b, manifest)
    if layer_rows:
        lines.append("")
        lines.append("per-layer metrics (no bound; counts repeat exactly on a simulated fabric):")
        lines.extend(layer_rows)
    return lines, bad


def _per_layer_rows(a: Runs, b: Runs, manifest: Dict[str, Any]) -> List[str]:
    rows: List[str] = []
    for workload in [w["name"] for w in manifest["workloads"]]:
        runs_a, runs_b = a.get((workload, 1)), b.get((workload, 1))
        if not runs_a or not runs_b:
            continue
        for declared in manifest["per_layer"]:
            name = declared["name"]
            values_a, values_b = sample(runs_a, name), sample(runs_b, name)
            if not values_a or not values_b:
                continue
            median_a, median_b = statistics.median(values_a), statistics.median(values_b)
            if median_a == median_b == 0:
                continue
            change = (median_b - median_a) / abs(median_a) if median_a else float("inf")
            word = "same" if median_a == median_b else f"changed {change:+.2%}"
            rows.append(f"{workload:<18} {name:<46} {median_a:>13.6g} {median_b:>13.6g}  {word}")
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="result file(s) of the parent / first set")
    parser.add_argument("b", help="result file(s) of the change / second set")
    args = parser.parse_args(argv)
    manifest = json.loads(MANIFEST.read_text())
    lines, bad = compare(load_runs(args.a), load_runs(args.b), manifest)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
