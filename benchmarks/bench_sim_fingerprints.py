"""Pins every simulated benchmark schedule as a golden output.

One repetition at seed 7 of each simulated workload of the repo
benchmark (``bench/``): ``rack_hot``, ``rack_spill``, ``rack_lossy``,
``tree_fanin`` and ``task_churn`` through ``bench.harness.run_rep``, plus
the ``run_serial`` oracle of ``fabric16_sharded``.  Each row is the
fingerprint digest (result values and per-link counters) with its
headline counts, so a change that adds, drops or reorders one simulated
event shows up as a diff of ``benchmarks/results/sim_fingerprints.txt``.
A sharded fingerprint carries no final clock, so that row reads
``final_now_ns=None``; ``sender_packets`` is the harness counter on every
row.

Every row runs in its own interpreter under ``PYTHONHASHSEED=0``:
multi-switch schedules still depend on set iteration order (ROADMAP
4(a)), and a fresh process also keeps one row's garbage out of the next.
This file only reads ``bench/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7

#: row label -> keyword options for ``run_rep``.
ROWS = {
    "rack_hot": {},
    "rack_spill": {},
    "rack_lossy": {},
    "tree_fanin": {},
    "task_churn": {},
    "fabric16_sharded[serial]": {"serial": True},
}

_CHILD = """
import json, sys
from bench.harness import run_rep
from bench.passes import fingerprint_summary
from bench.workloads import BY_NAME

name, seed, options = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
rep = run_rep(BY_NAME[name], seed, **options)
print(json.dumps({
    "failed": rep.failed,
    "summary": fingerprint_summary(rep.fingerprint),
    "sender_packets": rep.counters.get("sender_packets"),
}))
"""


def _row(label: str, options: dict) -> str:
    name = label.split("[")[0]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, name, str(SEED), json.dumps(options)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["failed"] == 0, f"{label}: {result['failed']} task(s) failed"
    summary = result["summary"]
    return (
        f"{label:<26} {summary['sha256']} events={summary['events_processed']} "
        f"final_now_ns={summary['final_now_ns']} "
        f"sender_packets={result['sender_packets']}"
    )


def _render() -> str:
    lines = [f"# seed={SEED} PYTHONHASHSEED=0: workload, fingerprint sha256, counts"]
    lines.extend(_row(label, options) for label, options in ROWS.items())
    return "\n".join(lines)


def test_sim_fingerprints(benchmark, report):
    text = benchmark.pedantic(_render, iterations=1, rounds=1)
    report("sim_fingerprints", text)
    assert len(text.splitlines()) == len(ROWS) + 1
