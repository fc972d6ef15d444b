"""The ASK service core — the paper's primary contribution (§3).

This package implements the host side of ASK (daemon, sender sliding window,
host receiver, packetization) and the user-facing :class:`AskService` facade
that wires hosts, links and the switch together and runs aggregation tasks
end-to-end.
"""

from repro.core.config import AskConfig
from repro.core.errors import (
    AskError,
    ConfigError,
    KeyTooLongError,
    RegionExhaustedError,
    TaskStateError,
)
from repro.core.keyspace import KeyClass, KeySpaceLayout, classify_key
from repro.core.packet import AskPacket, PacketFlag, ack_for
from repro.core.results import AggregationResult, TaskStats
from repro.core.service import AskService
from repro.core.task import AggregationTask, TaskPhase

__all__ = [
    "AggregationResult",
    "AggregationTask",
    "AskConfig",
    "AskError",
    "AskPacket",
    "AskService",
    "ConfigError",
    "KeyClass",
    "KeySpaceLayout",
    "KeyTooLongError",
    "PacketFlag",
    "RegionExhaustedError",
    "TaskPhase",
    "TaskStateError",
    "TaskStats",
    "ack_for",
    "classify_key",
]
