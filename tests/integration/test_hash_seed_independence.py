"""A multi-switch schedule must depend only on (config, seed).

Set iteration order follows ``PYTHONHASHSEED``, so two processes that
differ only in their hash seed reveal any schedule decision taken in hash
order.  The scenario is a spine–leaf tree with combiner regions at both
levels: SWAP notifications fan out to every switch on the task's path.
"""

import os
import subprocess
import sys

import pytest

import repro

_SRC = os.path.dirname(os.path.dirname(repro.__file__))

_SCENARIO = """
import random

from repro import AskConfig
from repro.core.service import TreeAskService

service = TreeAskService(
    AskConfig.small(window_size=64),
    pods={
        "p0": {"r0": ["h0", "h1"], "r1": ["h2", "h3"]},
        "p1": {"r2": ["h4", "h5"], "r3": ["h6", "h7"]},
    },
    placement="both",
)
rng = random.Random(7)
keys = [b"k%03d" % i for i in range(512)]
streams = {
    host: [(rng.choice(keys), rng.randint(1, 99)) for _ in range(1500)]
    for host in ("h0", "h1", "h2", "h3")
}
task = service.submit(streams, "h4", region_size=16)
service.run_to_completion()
print(service.sim.events_processed, service.sim.now, task.stats.completed_at_ns)
"""


def _fingerprint(hash_seed: str) -> str:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": _SRC}
    proc = subprocess.run(
        [sys.executable, "-c", _SCENARIO], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.xfail(strict=True, reason="ROADMAP 4(a)")
def test_tree_schedule_does_not_depend_on_the_hash_seed():
    assert _fingerprint("0") == _fingerprint("1")
