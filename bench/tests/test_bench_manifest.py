"""BENCHMARK.json against the benchmark's own code and against run.py."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import metrics, passes
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_manifest_has_exactly_the_contract_keys():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert MANIFEST["paths"] == ["bench"]
    assert MANIFEST["command"] == ["python3", "bench/run.py"]
    assert isinstance(MANIFEST["run_seconds"], int) and 1 <= MANIFEST["run_seconds"] <= 60


def test_workloads_match_the_code():
    assert [w["name"] for w in MANIFEST["workloads"]] == [w.name for w in WORKLOADS]
    for declared, workload in zip(MANIFEST["workloads"], WORKLOADS):
        assert set(declared) == {"name", "why"}
        assert declared["why"] == workload.why
        assert len(declared["why"]) <= 200 and "\n" not in declared["why"]


def test_declared_metrics_are_the_computed_ones():
    assert [m["name"] for m in MANIFEST["end_to_end"]] == list(metrics.END_TO_END)
    assert [m["name"] for m in MANIFEST["per_layer"]] == list(metrics.PER_LAYER)
    assert len(MANIFEST["per_layer"]) <= 128


def test_names_units_directions_and_bounds_are_well_formed():
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    names += [w["name"] for w in MANIFEST["workloads"]]
    assert len(names) == len(set(names))
    for metric in MANIFEST["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in MANIFEST["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def _run(trace: int):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "task_churn",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_name_and_no_other(trace, section):
    lines = _run(trace)
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in MANIFEST[section]}
    assert {name: m["unit"] for name, m in last["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in last["metrics"].values())
    printed = {line.split()[0] for line in lines[1:-1] if line.startswith("  ")}
    assert set(declared) <= printed
    if trace == 0:
        assert all(m["value"] > 0 for m in last["metrics"].values())


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rack_hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_recorded_hotpath_fingerprint_is_bench_hotpath_jsons():
    path = ROOT / "BENCH_hotpath.json"
    if not path.exists():
        pytest.skip("BENCH_hotpath.json is gone; the recorded copy stands alone")
    recorded = json.loads(path.read_text())["optimized"]["fingerprint"]
    expected = passes.HOTPATH_FINGERPRINT
    assert recorded["events_processed"] == expected["events_processed"]
    assert recorded["final_now_ns"] == expected["final_now_ns"]
    assert recorded["sender_packets_total"] == expected["sender_packets"]
    assert [recorded["values_sha256"]] == expected["values_sha256"]
    assert json.loads(path.read_text())["scenario"]["seed"] == passes.HOTPATH_SEED
