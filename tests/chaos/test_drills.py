"""The drill registry: every drill's schedule is well formed on every
backend, without building a deployment."""

import pytest

from repro.chaos.drills import DRILLS, TIMING
from repro.core.service import RackLayout


@pytest.mark.parametrize("backend", sorted(TIMING))
@pytest.mark.parametrize("name", sorted(DRILLS))
def test_every_drill_schedule_is_well_formed(name, backend):
    drill = DRILLS[name]
    layout = RackLayout.of(**drill.layout)
    nodes = set(layout.rack_of) | set(layout.tor_of.values()) | set(
        layout.spines.values()
    )
    for seed in range(32):
        schedule = drill.schedule(seed, backend)
        assert schedule.check_windows() is schedule
        assert schedule.fault_count >= 1
        assert set(schedule.targets()) <= nodes, (name, backend, seed)
        assert all(0 <= e.at_ns <= schedule.horizon_ns for e in schedule.events)
