"""Per-run degradation report.

Answers, for one chaos run: what was injected, how many frames each
fault class cost, what the supervisor observed and did about it, and how
long each switch outage took to recover (crash → baselines re-installed,
aggregation re-enabled).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.chaos.schedule import FAIL_STOP_KINDS, GRAY_KINDS, ChaosSchedule
from repro.core.task import AggregationTask
from repro.runtime.builder import Deployment


@dataclass
class DegradationReport:
    seed: int
    backend: str
    #: Faults and recoveries actually applied, chronological.
    injected: List[Dict[str, Any]]
    #: Everything the failure supervisor observed/did, chronological.
    supervisor_events: List[Dict[str, Any]]
    #: target -> nanoseconds from reboot observed to baselines re-installed.
    recovery_latencies_ns: Dict[str, List[int]]
    #: Aggregate loss/recovery counters for the whole run.
    totals: Dict[str, int] = field(default_factory=dict)
    #: node -> {"counters": {reason: n}, "quarantine": {...}} for every
    #: node that dropped or quarantined at least one frame.
    robustness: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Admission-controller snapshot (queued/granted/retried/degraded/
    #: rejected counters, live waiters, per-tenant occupancy); empty when
    #: the deployment runs without admission control.
    admission: Dict[str, Any] = field(default_factory=dict)
    #: Gray-failure section: slow/straggle/flap injection counts, the
    #: retransmit-timer health of every sender channel (timeouts fired,
    #: retransmits proven spurious), the adaptive-RTO trajectory endpoint
    #: per channel, and the supervisor's suspicion scores / route-around
    #: transitions.  Empty when the run injected no gray faults and no
    #: channel timed out.
    gray: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        deployment: Deployment,
        schedule: ChaosSchedule,
        injected: List[Dict[str, Any]],
        tasks: Optional[Dict[int, AggregationTask]] = None,
        flap_toggles: int = 0,
    ) -> "DegradationReport":
        supervisor = deployment.supervisor
        sup_events = list(supervisor.events) if supervisor is not None else []

        # Pair each reboot observation with its re-install to get the
        # recovery latency per outage.
        latencies: Dict[str, List[int]] = {}
        observed_at: Dict[str, int] = {}
        for event in sup_events:
            if event["kind"] == "switch-reboot-observed":
                observed_at[event["target"]] = event["t_ns"]
            elif event["kind"] == "switch-reinstalled":
                started = observed_at.pop(event["target"], None)
                if started is not None:
                    latencies.setdefault(event["target"], []).append(
                        event["t_ns"] - started
                    )

        named_nodes: Dict[str, Any] = {}
        named_nodes.update(deployment.daemons)
        named_nodes.update(deployment.switches)
        nodes = list(named_nodes.values())

        # Integrity accounting: per-node drop/quarantine detail plus the
        # run-wide balance against the frames the fabric damaged.
        robustness: Dict[str, Dict[str, Any]] = {}
        drops = 0
        quarantined = 0
        for name, node in named_nodes.items():
            counters = getattr(node, "robustness", None)
            quarantine = getattr(node, "quarantine", None)
            entry: Dict[str, Any] = {}
            if counters is not None and counters:
                entry["counters"] = counters.as_dict()
                drops += counters.total
            if quarantine is not None and quarantine.admitted:
                entry["quarantine"] = quarantine.summary()
                quarantined += quarantine.admitted
            if entry:
                robustness[name] = entry

        topology = deployment.fabric.topology
        totals = {
            "faults_injected": sum(
                1 for e in injected if e["kind"] in FAIL_STOP_KINDS
            ),
            "frames_dropped_at_down_nodes": sum(
                getattr(n, "dropped_while_down", 0) for n in nodes
            ),
            "frames_dropped_by_partition": topology.partition_drops,
            "daemon_crashes": sum(
                getattr(d, "crashes", 0) for d in deployment.daemons.values()
            ),
            "switch_reboots": sum(
                getattr(s, "boot_count", 0) for s in deployment.switches.values()
            ),
            # Integrity balance sheet: frames the fabric damaged, frames
            # the nodes refused (checksum/validation drops — includes the
            # quarantine admissions, which are also counted drops), and
            # the dead-letter admissions on their own.
            "corrupted_frames_injected": topology.corruption_injected,
            "robustness_drops": drops,
            "frames_quarantined": quarantined,
        }
        if supervisor is not None:
            totals.update(
                task_restarts=supervisor.task_restarts,
                switch_reinstalls=supervisor.reinstalls,
                region_reclaims=supervisor.reclaims,
                give_up_failures=supervisor.give_up_failures,
            )
        if tasks:
            totals.update(
                bypass_packets_sent=sum(
                    t.stats.bypass_packets_sent for t in tasks.values()
                ),
                bypass_packets_received=sum(
                    t.stats.bypass_packets_received for t in tasks.values()
                ),
            )
        # Gray-failure accounting: what was slowed, how the retransmit
        # timers coped, and how the supervisor's suspicion moved.
        packets_slowed = topology.link_total("packets_slowed")
        packets_straggled = sum(
            getattr(d, "packets_straggled", 0)
            for d in deployment.daemons.values()
        )
        retransmissions = 0
        timeouts = 0
        spurious = 0
        rto_trajectory: Dict[str, Dict[str, Any]] = {}
        for name, daemon in deployment.daemons.items():
            for channel in getattr(daemon, "channels", ()):
                timers = channel.timers
                retransmissions += timers.retransmissions
                timeouts += timers.timeouts
                spurious += timers.spurious_retransmissions
                est = timers.estimator
                if est is not None and est.samples:
                    rto_trajectory[f"{name}:{channel.index}"] = {
                        "samples": est.samples,
                        "srtt_us": round(est.srtt_ns / 1_000, 3),
                        "rttvar_us": round(est.rttvar_ns / 1_000, 3),
                        "rto_us": round(est.rto_ns() / 1_000, 3),
                    }
        gray: Dict[str, Any] = {}
        gray_injected = sum(1 for e in injected if e["kind"] in GRAY_KINDS)
        if gray_injected or timeouts or packets_slowed or packets_straggled:
            gray = {
                "gray_faults_injected": gray_injected,
                "packets_slowed": packets_slowed,
                "packets_straggled": packets_straggled,
                "flap_toggles": flap_toggles,
                "retransmissions": retransmissions,
                "timeouts": timeouts,
                "spurious_retransmissions": spurious,
                "rto_trajectory": rto_trajectory,
            }
            if supervisor is not None:
                gray.update(
                    suspicion={
                        k: round(v, 3)
                        for k, v in supervisor.suspicion.items()
                        if v > 0.0
                    },
                    gray_routearounds=supervisor.gray_routearounds,
                    gray_readoptions=supervisor.gray_readoptions,
                )
            # Every gray count is also a run total; the per-channel and
            # per-switch detail stays in the gray section.
            totals.update(
                (k, v) for k, v in gray.items() if k not in ("rto_trajectory", "suspicion")
            )
        admission: Dict[str, Any] = {}
        controller = getattr(deployment, "admission", None)
        if controller is not None:
            admission = controller.snapshot()
            totals.update(
                overloads_injected=sum(
                    1 for e in injected if e["kind"] == "overload"
                ),
                admission_queued=admission["queued"],
                admission_granted=admission["granted"],
                admission_retried=admission["retried"],
                admission_degraded=admission["degraded"],
                admission_rejected=admission["rejected_full"]
                + admission["rejected_deadline"],
            )
        return cls(
            seed=schedule.seed,
            backend=deployment.backend,
            injected=injected,
            supervisor_events=sup_events,
            recovery_latencies_ns=latencies,
            totals=totals,
            robustness=robustness,
            admission=admission,
            gray=gray,
        )

    # ------------------------------------------------------------------
    def to_json(self, indent: int = 2) -> str:
        return json.dumps(asdict(self), indent=indent)

    def summary(self) -> str:
        """Human-readable digest, one line per fact."""
        lines = [
            f"chaos seed {self.seed} on backend {self.backend!r}: "
            f"{self.totals.get('faults_injected', 0)} fault(s) injected"
        ]
        for event in self.injected:
            lines.append(
                f"  t={event['t_ns']:>12,}ns  {event['kind']:<9} {event['target']}"
            )
        for event in self.supervisor_events:
            detail = {
                k: v for k, v in event.items() if k not in ("t_ns", "kind", "target")
            }
            suffix = f"  {detail}" if detail else ""
            lines.append(
                f"  t={event['t_ns']:>12,}ns  [supervisor] {event['kind']} "
                f"{event['target']}{suffix}"
            )
        for target, values in self.recovery_latencies_ns.items():
            pretty = ", ".join(f"{v:,}ns" for v in values)
            lines.append(f"  recovery latency {target}: {pretty}")
        for node, entry in self.robustness.items():
            counters = entry.get("counters", {})
            pretty = ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
            quarantine = entry.get("quarantine")
            if quarantine:
                pretty += (
                    f"  quarantine admitted={quarantine['admitted']} "
                    f"held={quarantine['held']} evicted={quarantine['evicted']}"
                )
            lines.append(f"  integrity {node}: {pretty}")
        if self.admission:
            adm = self.admission
            lines.append(
                "  admission: "
                f"queued={adm['queued']} granted={adm['granted']} "
                f"retried={adm['retried']} degraded={adm['degraded']} "
                f"rejected_full={adm['rejected_full']} "
                f"rejected_deadline={adm['rejected_deadline']} "
                f"cancelled={adm['cancelled']} waiting={adm['waiting']}"
            )
            if adm.get("occupancy"):
                pretty = ", ".join(
                    f"tenant {t}: {used}"
                    for t, used in adm["occupancy"].items()
                )
                lines.append(f"  occupancy: {pretty}")
        if self.gray:
            g = self.gray
            lines.append(
                "  gray: "
                f"injected={g['gray_faults_injected']} "
                f"slowed={g['packets_slowed']} "
                f"straggled={g['packets_straggled']} "
                f"flap_toggles={g['flap_toggles']} "
                f"timeouts={g['timeouts']} "
                f"retransmits={g['retransmissions']} "
                f"spurious={g['spurious_retransmissions']}"
            )
            if g.get("gray_routearounds") or g.get("gray_readoptions"):
                lines.append(
                    "  gray failover: "
                    f"routearounds={g.get('gray_routearounds', 0)} "
                    f"readoptions={g.get('gray_readoptions', 0)} "
                    f"suspicion={g.get('suspicion', {})}"
                )
            for channel, state in g.get("rto_trajectory", {}).items():
                lines.append(
                    f"  rto {channel}: srtt={state['srtt_us']}us "
                    f"rttvar={state['rttvar_us']}us rto={state['rto_us']}us "
                    f"({state['samples']} samples)"
                )
        for key, value in self.totals.items():
            lines.append(f"  {key} = {value:,}")
        return "\n".join(lines)
