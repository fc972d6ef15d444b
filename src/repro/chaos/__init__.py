"""Failure-domain chaos harness: deterministic fault injection.

Drives seven fault kinds, each closed by its recovery, against a live
deployment on any backend — sim, asyncio/UDP or every replica of a
sharded run: crash/restore, partition/heal, corrupt/cleanse,
overload/relent, and the gray kinds slow/revive, straggle/unstraggle and
flap/steady.  A seed-deterministic :class:`ChaosSchedule` describes the
faults and their window parameters; the kind table
(:data:`~repro.chaos.schedule.KINDS`) says what each kind acts on; the
:class:`ChaosOrchestrator` arms the schedule on the deployment's clock,
applies each event through the runtime lifecycle hooks and records it;
the :class:`DegradationReport` summarizes what was injected, what each
fault cost (frames lost to down nodes and cut links), and how the
:class:`~repro.core.failover.FailureSupervisor` recovered.  The CLI
drills are data in :mod:`repro.chaos.drills`, run by one
:func:`~repro.chaos.drills.run_drill`.
"""

from repro.chaos.orchestrator import ChaosOrchestrator
from repro.chaos.report import DegradationReport
from repro.chaos.schedule import ChaosEvent, ChaosSchedule

__all__ = [
    "ChaosEvent",
    "ChaosOrchestrator",
    "ChaosSchedule",
    "DegradationReport",
]
