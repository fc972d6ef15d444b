"""Shared fixtures for the ASK reproduction test suite."""

from __future__ import annotations

import os
from typing import Iterable, Optional

import pytest
from hypothesis import HealthCheck, Phase, settings

from repro.core.config import AskConfig
from repro.core.packet import AskPacket
from repro.net.simulator import Simulator

# Every profile skips hypothesis's `explain` phase: it re-runs a failing
# example under a line tracer, which for a property that runs the whole
# service takes minutes before the example is printed.
_PHASES = tuple(phase for phase in Phase if phase is not Phase.explain)
settings.register_profile("tier1", phases=_PHASES)
# The CI fuzz job runs the property suites with a bigger example budget
# than the default profile; the job itself is time-boxed with `timeout`,
# and `derandomize=False` keeps each run exploring fresh inputs.
settings.register_profile(
    "ci-fuzz",
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    phases=_PHASES,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE") or "tier1")


def fuzz_budget(tier1_examples: int) -> int:
    """``max_examples`` for a property that pins a small tier-1 budget:
    that budget by default, the loaded profile's under ``ci-fuzz``."""
    if os.environ.get("HYPOTHESIS_PROFILE") == "ci-fuzz":
        return settings.default.max_examples
    return tier1_examples


def slot_columns(slots: Iterable[Optional[tuple[bytes, int]]]) -> dict:
    """The ``keys`` and ``values`` packet fields of a payload written as
    (key, value) pairs, ``None`` for a blank slot."""
    slots = tuple(slots)
    return dict(
        keys=tuple(None if slot is None else slot[0] for slot in slots),
        values=tuple(None if slot is None else slot[1] for slot in slots),
    )


def build_packet(slots: Iterable[Optional[tuple[bytes, int]]] = (), **fields) -> AskPacket:
    """An :class:`AskPacket` whose payload is written as (key, value)
    pairs, ``None`` for a blank slot."""
    return AskPacket(**fields, **slot_columns(slots))


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def small_config() -> AskConfig:
    """The scaled-down geometry used by most functional tests."""
    return AskConfig.small()


@pytest.fixture
def tiny_config() -> AskConfig:
    """A minimal geometry (4 short slots, 1 medium group) for unit tests
    that need to hand-compute layouts."""
    return AskConfig(
        num_aas=4,
        aggregators_per_aa=16,
        medium_key_groups=1,
        medium_group_width=2,
        window_size=8,
        data_channels_per_host=1,
        swap_threshold_packets=16,
    )
