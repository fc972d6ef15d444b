"""Input generators: reproducible per seed, independent of repro.workloads."""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

from bench.workloads import BY_NAME, WORKLOADS, Fabric16Sharded, make_keys, make_stream

ROOT = Path(__file__).resolve().parent.parent.parent


def _inputs(workload, seed):
    if isinstance(workload, Fabric16Sharded):
        scenario, plan = workload.generate(seed)
        return [(dict(task.streams), task.receiver) for task in scenario.tasks], plan.shards
    return [(spec.streams, spec.receiver, dict(spec.options)) for spec in workload.generate(seed)]


def test_the_same_seed_gives_the_same_inputs_and_another_seed_others():
    for workload in WORKLOADS:
        assert _inputs(workload, 5) == _inputs(workload, 5), workload.name
        assert _inputs(workload, 5) != _inputs(workload, 6), workload.name


def test_keys_have_the_stated_width_and_are_distinct():
    keys = make_keys(8192, 7)
    assert len(set(keys)) == 8192
    assert {len(key) for key in keys} == {7}
    assert make_keys(512, 4)[:2] == [b"k000", b"k001"]


def test_streams_draw_only_from_the_given_generator():
    keys = make_keys(16, 4)
    first = make_stream(random.Random(9), keys, 50)
    assert first == make_stream(random.Random(9), keys, 50)
    assert all(key in keys and 1 <= value <= 99 for key, value in first)


def test_seven_workloads_with_distinct_names():
    assert len(WORKLOADS) == 7 == len(BY_NAME)
    assert {w.fabric for w in WORKLOADS} == {"sim", "udp", "sharded"}


def test_generating_inputs_never_imports_repro_workloads():
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT)!r}, {str(ROOT / 'src')!r}]\n"
        "from bench.workloads import WORKLOADS\n"
        "for workload in WORKLOADS:\n"
        "    workload.generate(1)\n"
        "assert not [m for m in sys.modules if m.startswith('repro.workloads')]\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True, timeout=120)
