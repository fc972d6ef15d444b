"""Pins the sim chaos drills as a golden output.

Five drills on the deterministic sim backend at seeds 0 and 7 — the
plain crash/partition drill, the same with 5 % per-link corruption, the
spine-crash tree drill, the abusive-tenant overload drill and the gray
drill — plus the serial == sharded identity section of the canonical
sharded scenario.  Every line of a drill's output (injections,
supervisor events, robustness counters, admission ledger, gray balance)
is a function of the seed, so any change to how a fault is described,
scheduled or applied shows up as a diff of
``benchmarks/results/chaos_drills.txt``.
"""

import contextlib
import io

from repro.chaos.drills import run_drill
from repro.perf.parallel import run_sharded_identity

SEEDS = (0, 7)

#: section label -> driver(seed) returning its exit status.
DRILLS = {
    "chaos": lambda seed: run_drill("chaos", "sim", seed),
    "chaos[corrupt_rate=0.05]": lambda seed: run_drill(
        "chaos", "sim", seed, corrupt_rate=0.05
    ),
    "chaos-tree": lambda seed: run_drill("chaos-tree", "sim", seed),
    "chaos-overload": lambda seed: run_drill("chaos-overload", "sim", seed),
    "chaos-gray": lambda seed: run_drill("chaos-gray", "sim", seed),
}


def _render() -> str:
    sections = []
    for label, drill in DRILLS.items():
        for seed in SEEDS:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                status = drill(seed)
            assert status == 0, f"{label} seed {seed} exited with {status}"
            sections.append(f"### {label} seed={seed}\n{buffer.getvalue()}")
    sections.append(f"### sharded-identity seed=7\n{run_sharded_identity(7)}\n")
    return "\n".join(sections).rstrip("\n")


def test_chaos_drills(benchmark, report):
    text = benchmark.pedantic(_render, iterations=1, rounds=1)
    report("chaos_drills", text)
    assert text.count("### ") == len(DRILLS) * len(SEEDS) + 1
