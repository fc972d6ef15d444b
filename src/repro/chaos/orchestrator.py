"""Applies a :class:`~repro.chaos.schedule.ChaosSchedule` to a deployment.

The orchestrator is backend-agnostic: it injects through the runtime
lifecycle hooks only — ``crash()``/``restore()`` on the node objects
(host daemons and switches), ``partition()``/``heal()`` and the other
window methods on the fabric's topology — so the same schedule runs
against the discrete-event simulator, the asyncio/UDP rack and every
replica of a sharded run.  Which hook an event calls is its kind's row of
:data:`~repro.chaos.schedule.KINDS`.  After every injection it pokes the
failure supervisor's heartbeat loop, since a restore while the
deployment is otherwise quiescent would not wake it by itself.
"""

from __future__ import annotations

from typing import Any, Callable, ClassVar, Dict, List, Optional

from repro.chaos.report import DegradationReport
from repro.chaos.schedule import KIND_OF, ChaosEvent, ChaosSchedule
from repro.core.task import AggregationTask
from repro.runtime.builder import Deployment


class ChaosOrchestrator:
    """Arms one schedule against one deployment and records the outcome.

    ``hooks`` carries the drill-defined side of ``"hook"`` kinds: an
    ``overload`` event calls ``hooks.on_overload(target)`` and its
    ``relent`` calls ``hooks.on_relent(target)``.
    """

    def __init__(
        self,
        deployment: Deployment,
        schedule: ChaosSchedule,
        require_supervisor: bool = True,
        hooks: Any = None,
    ) -> None:
        if require_supervisor and deployment.supervisor is None:
            raise ValueError(
                "chaos against an unsupervised deployment loses data by "
                "design; build with config.failure_detection=True or pass "
                "require_supervisor=False"
            )
        self._nodes = {**deployment.switches, **deployment.daemons}
        unknown = [t for t in schedule.targets() if t not in self._nodes]
        if unknown:
            raise KeyError(f"schedule targets unknown nodes: {unknown}")
        missing = sorted(
            {
                f"on_{e.kind}"
                for e in schedule.events
                if KIND_OF[e.kind].acts_on == "hook"
                and not callable(getattr(hooks, f"on_{e.kind}", None))
            }
        )
        if missing:
            raise ValueError(
                f"schedule contains drill-hook events; pass hooks with "
                f"{', '.join(missing)} (the drill defines what the abusive "
                "tenant does)"
            )
        bad_straggle = [
            e.target
            for e in schedule.events
            if KIND_OF[e.kind].acts_on == "daemon"
            and e.target not in deployment.daemons
        ]
        if bad_straggle:
            raise KeyError(
                f"straggle targets must be host daemons (a switch's gray "
                f"failure is its links — use 'slow'): {sorted(set(bad_straggle))}"
            )
        self.deployment = deployment
        self.schedule = schedule
        self.hooks = hooks
        #: Nodes currently inside a flap window -> that window's token, and
        #: the partition/heal toggles the duty cycle has applied so far.
        self._flapping: Dict[str, int] = {}
        self._flap_windows = 0
        self.flap_toggles = 0
        #: Chronological record of every injection actually applied.
        self.injected: List[Dict[str, Any]] = []
        self._armed = False

    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Push the schedule's window parameters to the fabric and schedule
        every event on the deployment's clock (offsets are relative to
        now).  Idempotent-hostile by design: arm once."""
        if self._armed:
            raise RuntimeError("schedule already armed")
        self._armed = True
        schedule = self.schedule
        topology = self.deployment.fabric.topology
        topology.corruption_rate = schedule.corruption_rate
        topology.slow_multiplier = schedule.slow_multiplier
        topology.slow_jitter_ns = schedule.slow_jitter_ns
        clock = self.deployment.clock
        for event in schedule.events:
            clock.schedule(event.at_ns, self._apply, event)

    # ------------------------------------------------------------------
    def _on_node(self, event: ChaosEvent) -> None:
        getattr(self._nodes[event.target], event.kind)()

    def _on_fabric(self, event: ChaosEvent) -> None:
        getattr(self.deployment.fabric.topology, event.kind)(event.target)

    def _on_daemon(self, event: ChaosEvent) -> None:
        daemon = self.deployment.daemons[event.target]
        if event.kind == "straggle":
            daemon.straggle(
                self.schedule.straggle_delay_ns, self.schedule.straggle_jitter_ns
            )
        else:
            daemon.unstraggle()

    def _on_hook(self, event: ChaosEvent) -> None:
        getattr(self.hooks, f"on_{event.kind}")(event.target)

    def _on_flap(self, event: ChaosEvent) -> None:
        # Duty-cycled dark windows: partition now, then toggle every
        # flap_period_ns until the paired "steady" closes the window.  The
        # token ties each toggle chain to its own window, so a pending
        # toggle of a closed window never acts on a later one.
        topology = self.deployment.fabric.topology
        if event.kind == "steady":
            self._flapping.pop(event.target, None)
            topology.heal(event.target)
            return
        self._flap_windows += 1
        self._flapping[event.target] = self._flap_windows
        topology.partition(event.target)
        self._schedule_toggle(event.target, self._flap_windows, False)

    _APPLY: ClassVar[Dict[str, Callable[["ChaosOrchestrator", ChaosEvent], None]]] = {
        "node": _on_node,
        "fabric": _on_fabric,
        "daemon": _on_daemon,
        "hook": _on_hook,
        "flap": _on_flap,
    }

    def _apply(self, event: ChaosEvent) -> None:
        self._APPLY[KIND_OF[event.kind].acts_on](self, event)
        self.injected.append(
            {
                "t_ns": self.deployment.clock.now,
                "kind": event.kind,
                "target": event.target,
            }
        )
        self._notice_activity()

    def _schedule_toggle(self, target: str, token: int, dark: bool) -> None:
        period = max(1, self.schedule.flap_period_ns)
        self.deployment.clock.schedule(period, self._flap_toggle, target, token, dark)

    def _flap_toggle(self, target: str, token: int, dark: bool) -> None:
        """One step of a flap window's duty cycle (self-rescheduling until
        the paired ``steady`` event closes the window)."""
        if self._flapping.get(target) != token:
            return
        topology = self.deployment.fabric.topology
        if dark:
            topology.partition(target)
        else:
            topology.heal(target)
        self.flap_toggles += 1
        self._schedule_toggle(target, token, not dark)
        self._notice_activity()

    def _notice_activity(self) -> None:
        supervisor = self.deployment.supervisor
        if supervisor is not None:
            supervisor.notice_activity()

    # ------------------------------------------------------------------
    def report(
        self, tasks: Optional[Dict[int, AggregationTask]] = None
    ) -> DegradationReport:
        """Snapshot the run's degradation report (call after the run)."""
        return DegradationReport.build(
            self.deployment,
            self.schedule,
            self.injected,
            tasks=tasks,
            flap_toggles=self.flap_toggles,
        )
