"""Tests for AskConfig validation and derived geometry."""

import pytest

from repro.core import constants
from repro.core.config import AskConfig
from repro.core.errors import ConfigError


def test_defaults_match_the_paper():
    cfg = AskConfig()
    assert cfg.num_aas == 32
    assert cfg.aggregators_per_aa == 32768
    assert cfg.window_size == 256
    assert cfg.retransmit_timeout_us == 100.0
    assert cfg.medium_key_groups == 8
    assert cfg.medium_group_width == 2
    assert cfg.data_channels_per_host == 4


def test_derived_geometry():
    cfg = AskConfig()
    assert cfg.key_bytes == 4
    assert cfg.medium_slots == 16
    assert cfg.num_short_slots == 16
    assert cfg.medium_key_bytes == 8
    assert cfg.copy_size == 16384  # shadow copies split the AA
    assert cfg.payload_bytes == 32 * constants.TUPLE_BYTES == 256


def test_copy_size_without_shadow():
    cfg = AskConfig(shadow_copy=False)
    assert cfg.copy_size == cfg.aggregators_per_aa


def test_value_mask():
    assert AskConfig(value_bits=8).value_mask == 0xFF
    assert AskConfig().value_mask == 0xFFFFFFFF


def test_retransmit_timeout_ns():
    assert AskConfig(retransmit_timeout_us=100.0).retransmit_timeout_ns == 100_000


def test_small_config_is_valid_and_small():
    cfg = AskConfig.small()
    assert cfg.num_aas == 8
    assert cfg.num_short_slots == 4
    assert cfg.medium_slots == 4


def test_small_accepts_overrides():
    cfg = AskConfig.small(window_size=4)
    assert cfg.window_size == 4


def test_small_ignores_a_false_vectorized_override():
    # bench/workloads.py's rack_lossy still passes it.
    assert AskConfig.small(vectorized=False) == AskConfig.small()


def test_small_rejects_the_removed_vectorized_plane():
    with pytest.raises(ConfigError, match="removed"):
        AskConfig.small(vectorized=True)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_aas": 0},
        {"aggregators_per_aa": 1},
        {"aggregators_per_aa": 33, "shadow_copy": True},
        {"key_bits": 12},
        {"key_bits": 0},
        {"value_bits": 0},
        {"medium_group_width": 0},
        {"window_size": 0},
        {"retransmit_timeout_us": 0},
        {"data_channels_per_host": 0},
        {"swap_threshold_packets": 0},
        {"admission_queue_limit": 0},
        {"admission_retry_us": 0},
        {"admission_backoff": 0.5},
        {"admission_backoff_cap_us": 50.0},  # below the 100µs retry
        {"admission_deadline_us": 50.0},  # below the 100µs retry
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ConfigError):
        AskConfig(**kwargs)


def test_admission_knobs_convert_to_nanoseconds():
    config = AskConfig(
        admission_retry_us=20.0,
        admission_backoff_cap_us=160.0,
        admission_deadline_us=120.0,
    )
    assert config.admission_retry_ns == 20_000
    assert config.admission_backoff_cap_ns == 160_000
    assert config.admission_deadline_ns == 120_000
    assert AskConfig(admission_deadline_us=None).admission_deadline_ns is None


def test_medium_groups_cannot_exceed_aas():
    with pytest.raises(ConfigError):
        AskConfig(num_aas=8, medium_key_groups=5, medium_group_width=2)


def test_at_least_one_short_slot_required_with_medium_groups():
    with pytest.raises(ConfigError):
        AskConfig(num_aas=8, medium_key_groups=4, medium_group_width=2)


def test_no_medium_groups_is_valid():
    cfg = AskConfig(num_aas=8, medium_key_groups=0)
    assert cfg.num_short_slots == 8
    assert cfg.medium_slots == 0


def test_config_is_frozen():
    cfg = AskConfig()
    with pytest.raises(Exception):
        cfg.num_aas = 64  # type: ignore[misc]
