"""The drill registry: every drill's schedule is well formed and every
drill's config builds on every backend, without building a deployment."""

from dataclasses import replace

import pytest

from repro.chaos import drills
from repro.chaos.drills import CHAOS_CONFIG, DRILLS, TIMING
from repro.core.config import AskConfig
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


class _Built(Exception):
    """Raised by the stand-in service once ``run_drill`` has built its config."""


def _drill_config(monkeypatch, name, backend):
    built = []

    def capture(config, **kwargs):
        built.append(config)
        raise _Built

    monkeypatch.setattr(drills, "AskService", capture)
    with pytest.raises(_Built):
        drills.run_drill(name, backend, seed=0)
    return built[0]


@pytest.mark.parametrize("backend", sorted(TIMING))
def test_drill_overrides_replace_chaos_config_keys(monkeypatch, backend):
    """``Drill.config`` may override a key ``CHAOS_CONFIG`` already sets."""
    probe = replace(DRILLS["chaos"], config={backend: {"retransmit_timeout_us": 7_000.0}})
    monkeypatch.setitem(DRILLS, "probe", probe)
    config = _drill_config(monkeypatch, "probe", backend)
    assert config.retransmit_timeout_us == 7_000.0
    assert config.heartbeat_interval_us == CHAOS_CONFIG[backend]["heartbeat_interval_us"]


def test_only_the_udp_tree_drill_raises_its_retransmit_timeout(monkeypatch):
    timeouts = {
        (name, backend): _drill_config(monkeypatch, name, backend).retransmit_timeout_us
        for name in ("chaos", "chaos-tree", "chaos-gray")
        for backend in sorted(TIMING)
    }
    default = AskConfig.small().retransmit_timeout_us
    assert timeouts == {
        ("chaos", "asyncio"): 2_000,
        ("chaos", "sim"): default,
        ("chaos-tree", "asyncio"): 20_000,
        ("chaos-tree", "sim"): default,
        ("chaos-gray", "asyncio"): 2_000,
        ("chaos-gray", "sim"): default,
    }
