"""compare.py verdicts on synthetic result files."""

from __future__ import annotations

import json

from bench import compare

MANIFEST = {
    "workloads": [{"name": "w", "why": ""}],
    "end_to_end": [
        {"name": "tuples_per_s", "unit": "tuples/s", "better": "higher", "bound": 0.10},
        {"name": "sim_jct_us", "unit": "us", "better": "lower", "bound": 0.10},
    ],
    "per_layer": [{"name": "switch.swaps", "unit": "count", "better": "lower"}],
}


def test_unchanged_within_the_bound():
    word, worse = compare.verdict([100, 101, 99, 100], [97, 98, 96, 97], "higher", 0.10)
    assert word == "unchanged"
    assert 0.02 < worse < 0.04


def test_regressed_and_improved_need_separated_quartiles():
    assert compare.verdict([100, 101, 99, 100], [80, 81, 79, 80], "higher", 0.10)[0] == "regressed"
    assert compare.verdict([100, 101, 99, 100], [120, 121, 119, 120], "higher", 0.10)[0] == "improved"
    assert compare.verdict([100, 101, 99, 100], [80, 81, 79, 80], "lower", 0.10)[0] == "improved"


def test_unresolved_when_the_spread_is_wider_than_the_bound():
    # Medians agree, but one side swings by 40 %: not evidence of "unchanged".
    assert compare.verdict([100, 60, 140, 100], [100, 101, 99, 100], "higher", 0.10)[0] == "unresolved"
    # Medians differ by more than the bound while the ranges overlap.
    assert compare.verdict([100, 70, 130, 100], [85, 60, 120, 85], "higher", 0.10)[0] == "unresolved"


def test_direction_of_worse():
    assert compare.verdict([10.0], [12.0], "lower", 0.10) == ("regressed", 0.2)
    assert compare.verdict([10.0], [12.0], "higher", 0.10) == ("improved", -0.2)


def _run(workload, trace, seed, metrics, attempted=10, failed=0, sha="a"):
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "fingerprint": {"sha256": sha},
    }


def _file(tmp_path, name, runs):
    path = tmp_path / name
    path.write_text(json.dumps({"env": {}, "runs": runs}))
    return str(path)


def test_a_single_run_is_judged_on_its_repetitions(tmp_path):
    a = _file(tmp_path, "a.json", [_run("w", 0, 7, {
        "tuples_per_s": {"value": 100, "raw": [100, 101, 99, 100]},
        "sim_jct_us": {"value": 50, "raw": [50, 50, 50, 50]},
    })])
    b = _file(tmp_path, "b.json", [_run("w", 0, 7, {
        "tuples_per_s": {"value": 80, "raw": [80, 81, 79, 80]},
        "sim_jct_us": {"value": 51, "raw": [51, 51, 51, 51]},
    }, failed=1, sha="b")])
    lines, bad = compare.compare(compare.load_runs(a), compare.load_runs(b), MANIFEST)
    text = "\n".join(lines)
    assert bad
    assert "regressed" in text
    assert "unchanged (exact-repeat value changed)" in text
    assert "fingerprint changed at seed [7]" in text
    assert "+0.1" in text  # failed_share rose from 0 to 0.1


def test_several_files_per_side_pool_their_runs(tmp_path):
    side_a = ",".join(
        _file(tmp_path, f"a{seed}.json", [_run("w", 0, seed, {
            "tuples_per_s": {"value": 100 + seed, "raw": [1, 1000]},
            "sim_jct_us": {"value": 50 + seed, "raw": [50 + seed]},
        })])
        for seed in range(4)
    )
    runs = compare.load_runs(side_a)
    assert compare.sample(runs[("w", 0)], "tuples_per_s") == [100, 101, 102, 103]
    lines, bad = compare.compare(runs, runs, MANIFEST)
    assert not bad
    assert "fingerprint identical" in "\n".join(lines)


def test_per_layer_rows_say_same_or_changed(tmp_path):
    a = _file(tmp_path, "a.json", [_run("w", 1, 7, {"switch.swaps": {"value": 88.0}})])
    b = _file(tmp_path, "b.json", [_run("w", 1, 7, {"switch.swaps": {"value": 44.0}})])
    same, _ = compare.compare(compare.load_runs(a), compare.load_runs(a), MANIFEST)
    changed, _ = compare.compare(compare.load_runs(a), compare.load_runs(b), MANIFEST)
    assert any("switch.swaps" in line and "same" in line for line in same)
    assert any("switch.swaps" in line and "changed -50.00%" in line for line in changed)
