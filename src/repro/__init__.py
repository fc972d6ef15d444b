"""ASK — A Generic In-Network Aggregation Service for Key-Value Streams.

A faithful, simulation-based reproduction of the ASPLOS'23 paper
"A Generic Service to Provide In-Network Aggregation for Key-Value Streams"
(He, Wu, Le, Liu, Lao).

Quickstart::

    from repro import AskConfig, AskService

    service = AskService(AskConfig.small(), hosts=3)
    result = service.aggregate(
        {"h0": [(b"cat", 1), (b"dog", 2)], "h1": [(b"cat", 5)]},
        receiver="h2",
    )
    assert result[b"cat"] == 6

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.core.config import AskConfig
from repro.core.errors import (
    AskError,
    ConfigError,
    KeyTooLongError,
    TaskStateError,
    TopologyError,
)
from repro.core.packet import AskPacket, PacketFlag
from repro.core.results import AggregationResult, TaskStats, reference_aggregate
from repro.core.service import AskService, TreeAskService
from repro.core.task import AggregationTask, TaskPhase
from repro.core.tenancy import (
    AdmissionController,
    QuotaAccountingError,
    TenantQuotaError,
    encode_task_id,
    tenant_of,
)
from repro.net.fault import FaultModel
from repro.switch.trio import TrioSwitch

__version__ = "1.0.0"

__all__ = [
    "AdmissionController",
    "AggregationResult",
    "AggregationTask",
    "AskConfig",
    "AskError",
    "AskPacket",
    "AskService",
    "ConfigError",
    "FaultModel",
    "KeyTooLongError",
    "PacketFlag",
    "QuotaAccountingError",
    "TaskPhase",
    "TenantQuotaError",
    "TaskStateError",
    "TaskStats",
    "TopologyError",
    "TreeAskService",
    "TrioSwitch",
    "encode_task_id",
    "reference_aggregate",
    "tenant_of",
    "__version__",
]
