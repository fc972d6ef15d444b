"""`AskService` — the user-facing facade that wires everything together.

A service is one ASK deployment over a :class:`RackLayout`: one rack
(``hosts=``), a flat mesh of racks (``racks=``, §7) or a spine–leaf tree
of pods (``pods=``), with host daemons and the fabric between them.
Applications submit aggregation tasks (a set of sender streams plus one
receiver) and run the deployment until completion::

    from repro import AskConfig, AskService

    service = AskService(AskConfig.small(), hosts=3)
    result = service.aggregate(
        {"h0": [(b"cat", 1), (b"dog", 2)], "h1": [(b"cat", 5)]},
        receiver="h2",
    )
    assert result[b"cat"] == 6

The full task workflow of Fig. 4 is followed: region allocation and sender
notification cost one control-plane latency each before streaming begins,
and teardown fetches the switch copies before the result is published.

The service is backend-agnostic: the default ``backend="sim"`` runs on the
deterministic discrete-event fabric, while ``backend="asyncio"`` frames
the same protocol onto real localhost UDP sockets under wall-clock time
(see :mod:`repro.runtime.asyncio_fabric`).  All wiring is delegated to
:class:`~repro.runtime.builder.DeploymentBuilder`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.core.config import AskConfig
from repro.core.constants import CONTROL_LATENCY_NS
from repro.core.daemon import HostDaemon
from repro.core.errors import (
    RegionExhaustedError,
    TaskFailedError,
    TaskStateError,
    TopologyError,
)
from repro.core.results import AggregationResult, reference_aggregate
from repro.core.task import AggregationTask, TaskPhase
from repro.core.tenancy import (
    DEFAULT_TENANT,
    AdmissionWaiter,
    TenantQuotaError,
    encode_task_id,
)
from repro.net.fault import FaultModel
from repro.runtime.builder import DeploymentBuilder
from repro.runtime.interfaces import Clock, TaskRunner
from repro.switch.controller import RegionSpec

Stream = Sequence[tuple[bytes, int]]

#: Per-task aggregation placement policies of a spine–leaf layout.
PLACEMENTS = ("leaf", "spine", "both")

#: The smallest spine–leaf tree with a cross-pod path: 2 pods x 2 racks x
#: 2 hosts.
SMALL_TREE: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "s0": {"r0": ("h0", "h1"), "r1": ("h2", "h3")},
    "s1": {"r2": ("h4", "h5"), "r3": ("h6", "h7")},
}

RegionPlan = Tuple[Tuple[str, ...], Optional[Dict[str, RegionSpec]]]


@dataclass(frozen=True)
class RackLayout:
    """Where a deployment's hosts, TORs and spines sit, in wiring order.

    :meth:`of` builds it from one of three shapes: one rack (``hosts``), a
    flat mesh (``racks``: rack → hosts) or a spine–leaf tree (``pods``:
    pod → rack → hosts).  A mesh or tree names rack ``r``'s TOR ``tor-r``
    and pod ``p``'s spine ``spine-p``; the one rack is ``r0`` under
    ``switch_name``.  One rack and the flat mesh are the spineless case.
    """

    #: rack -> its host names
    rack_hosts: Dict[str, Tuple[str, ...]]
    #: host -> its rack
    rack_of: Dict[str, str]
    #: rack -> its TOR switch name
    tor_of: Dict[str, str]
    #: pod -> its spine switch name (empty without spines)
    spines: Dict[str, str]
    #: rack -> the spine switch above it (empty without spines)
    spine_of: Dict[str, str]

    @classmethod
    def of(
        cls,
        hosts: Union[int, Iterable[str], None] = None,
        racks: Optional[Mapping[str, Iterable[str]]] = None,
        pods: Optional[Mapping[str, Mapping[str, Iterable[str]]]] = None,
        switch_name: str = "switch",
    ) -> "RackLayout":
        if sum(shape is not None for shape in (hosts, racks, pods)) > 1:
            raise ValueError(
                "give one layout: hosts= (one rack), racks= (flat mesh) "
                "or pods= (spine–leaf)"
            )
        spines: Dict[str, str] = {}
        spine_of: Dict[str, str] = {}
        if pods is not None:
            racks = {
                rack: names
                for pod_racks in pods.values()
                for rack, names in pod_racks.items()
            }
            for pod, pod_racks in pods.items():
                spines[pod] = f"spine-{pod}"
                spine_of.update(dict.fromkeys(pod_racks, spines[pod]))
        if racks is None:
            count_or_names = 2 if hosts is None else hosts
            names = (
                [f"h{i}" for i in range(count_or_names)]
                if isinstance(count_or_names, int)
                else count_or_names
            )
            rack_hosts = {"r0": tuple(names)}
            tor_of = {"r0": switch_name}
        else:
            rack_hosts = {rack: tuple(names) for rack, names in racks.items()}
            tor_of = {rack: f"tor-{rack}" for rack in rack_hosts}
        rack_of = {host: rack for rack, names in rack_hosts.items() for host in names}
        return cls(rack_hosts, rack_of, tor_of, spines, spine_of)

    def placement(self, placement: Optional[str]) -> str:
        """Check a placement policy against this layout.

        ``None`` picks the layout's default: ``"both"`` under spines, else
        ``"leaf"``.  An unknown name is a :class:`ValueError`; any explicit
        placement on a spineless layout is a :class:`TopologyError`, since
        there every region lives on the sender-side TORs.
        """
        if placement is None:
            return "both" if self.spines else "leaf"
        if placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {placement!r}; pick one of {PLACEMENTS}"
            )
        if not self.spines:
            raise TopologyError(
                f"placement {placement!r} needs a spine–leaf layout (pods=)",
                placement,
            )
        return placement

    def region_plan(self, senders: Sequence[str], placement: str) -> RegionPlan:
        """Where a task of ``senders`` keeps aggregation state: switch
        names plus per-switch :class:`RegionSpec` roles (``None``: plain
        regions).

        ``"leaf"``
            A plain region on every sender-side TOR.  This is the only
            placement of a spineless layout; spines stay pure transit.
        ``"spine"``
            A combiner region on every sender-side spine, admitting that
            pod's senders via its ``sources``; leaves run the program for
            dedup but hold no aggregation state for the task.
        ``"both"``
            Relay regions on the sender-side TORs (absorb, then forward
            even fully-absorbed packets up) plus those combiners — the
            hierarchical pre-aggregation of Flare / SwitchAgg.

        Sender-first-seen rack and spine orders keep allocation (and so
        the whole schedule) deterministic for a given stream dict.
        """
        rack_of = self.rack_of
        racks = list(dict.fromkeys(rack_of[sender] for sender in senders))
        tors = tuple(self.tor_of[rack] for rack in racks)
        if placement == "leaf":
            return tors, None
        rack_sources = {
            rack: frozenset(s for s in senders if rack_of[s] == rack) for rack in racks
        }
        spine_sources: Dict[str, frozenset[str]] = {}
        for rack in racks:
            spine = self.spine_of[rack]
            spine_sources[spine] = spine_sources.get(spine, frozenset()) | rack_sources[rack]
        combiners = {
            spine: RegionSpec(sources=sources) for spine, sources in spine_sources.items()
        }
        if placement == "spine":
            return tuple(combiners), combiners
        relays = {
            tor: RegionSpec(sources=rack_sources[rack], relay=True)
            for rack, tor in zip(racks, tors)
        }
        return tors + tuple(combiners), {**relays, **combiners}


class StreamingSession:
    """An open-ended aggregation task fed incrementally (§2.1.3 streaming).

    Obtained from :meth:`AskService.open_stream`.  Feeds may happen before
    the asynchronous task setup completes — they are buffered and flushed
    once the senders' channels are live.  ``close()`` releases every
    sender's FIN; the result appears on ``task.result`` after
    ``run_to_completion``::

        session = service.open_stream(["h0"], receiver="h1")
        session.feed("h0", [(b"cpu", 97)])
        service.run()                      # deliver what's in flight
        session.feed("h0", [(b"cpu", 3)])
        session.close()
        service.run_to_completion()
        assert session.task.result[b"cpu"] == 100
    """

    def __init__(self, task: AggregationTask, senders: tuple[str, ...]) -> None:
        self.task = task
        self.senders = senders
        self._handles: dict[str, object] = {}
        self._buffers: dict[str, list] = {host: [] for host in senders}
        self._closed = False

    # -- wiring (called by the service when setup completes) -----------
    def _attach(self, host: str, handle) -> None:
        self._handles[host] = handle
        buffered = self._buffers.pop(host, [])
        if buffered:
            handle.feed(buffered)
        if self._closed:
            handle.finish()

    @property
    def is_live(self) -> bool:
        """True once every sender's channel is attached."""
        return len(self._handles) == len(self.senders)

    # -- application API ------------------------------------------------
    def feed(self, host: str, tuples: Iterable[tuple[bytes, int]]) -> None:
        """Append tuples to one sender's stream."""
        if self._closed:
            raise TaskStateError("session is closed")
        if host not in self.senders:
            raise KeyError(f"{host!r} is not a sender of this session")
        handle = self._handles.get(host)
        if handle is None:
            # Counted into ``input_tuples`` when the handle feeds them.
            self._buffers[host].extend(tuples)
        else:
            handle.feed(tuples)

    def close(self) -> None:
        """End every sender's stream; FINs flow once data is ACKed."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles.values():
            handle.finish()

    @property
    def result(self):
        return self.task.result


#: What a task's senders start from once its regions are wired: the
#: whole streams of a batch task, or a streaming session's live feeds.
Feed = Union[Dict[str, Stream], StreamingSession]


class AskService:
    """One ASK deployment — switches, hosts and fabric — over a layout.

    Give at most one of ``hosts`` (one rack; a count or names, default
    2), ``racks`` (a flat mesh: rack → host names) or ``pods`` (a
    spine–leaf tree: pod → rack → host names); see :class:`RackLayout`
    for the switch names each gets.

    In a flat mesh every rack has its own TOR.  A task allocates a region
    on every *sender-side* TOR, cross-rack traffic bypasses the
    receiver's TOR (the routing rule in
    :meth:`repro.switch.switch.AskSwitch._should_run_program`), swap
    notifications broadcast to all involved TORs and teardown merges
    every TOR's copies.  In a tree, inter-rack traffic routes leaf →
    spine [→ spine] → leaf instead of over the core mesh, and the
    *placement policy* (:meth:`RackLayout.region_plan`) decides where a
    task's aggregation state lives.  ``placement`` sets the service-wide
    default (``"both"``); :meth:`submit` and :meth:`open_stream` take a
    per-task override.  Whatever the layout and policy, result values are
    bit-identical to a one-rack run of the same workload (aggregation is
    commutative mod 2^value_bits).

    ``switch_factory`` selects the switch's aggregation store: the
    default :class:`~repro.switch.switch.AskSwitch` keeps PISA register
    arrays, :class:`~repro.switch.trio.TrioSwitch` (§6) a DRAM table over
    full keys behind the same pipeline; the host side is identical.
    ``backend`` selects the fabric: ``"sim"`` (deterministic
    discrete-event, the default) or ``"asyncio"`` (real localhost UDP
    under wall-clock time).  ``core_latency_ns`` prices
    the switch-to-switch links; their bandwidth is
    :data:`~repro.net.multirack.CORE_BANDWIDTH_GBPS`.
    """

    def __init__(
        self,
        config: Optional[AskConfig] = None,
        hosts: Union[int, Iterable[str], None] = None,
        fault: Optional[FaultModel] = None,
        switch_name: str = "switch",
        max_tasks: int = 64,
        switch_factory: Optional[Any] = None,
        backend: str = "sim",
        bind_host: str = "127.0.0.1",
        *,
        racks: Optional[Mapping[str, Iterable[str]]] = None,
        pods: Optional[Mapping[str, Mapping[str, Iterable[str]]]] = None,
        placement: Optional[str] = None,
        core_latency_ns: int = 2_000,
    ) -> None:
        self.layout = layout = RackLayout.of(hosts, racks, pods, switch_name)
        self.placement = layout.placement(placement)
        builder = DeploymentBuilder(
            config,
            backend=backend,
            fault=fault,
            max_tasks=max_tasks,
            switch_factory=switch_factory,
            core_latency_ns=core_latency_ns,
            bind_host=bind_host,
        )
        for spine in layout.spines.values():
            builder.add_spine(spine)
        for rack, names in layout.rack_hosts.items():
            builder.add_rack(
                list(names),
                switch_name=layout.tor_of[rack],
                rack=rack,
                spine=layout.spine_of.get(rack),
            )
        self.deployment = deployment = builder.build(
            on_task_complete=self._on_task_complete
        )
        self.config: AskConfig = deployment.config
        self.backend: str = deployment.backend
        self.fabric = deployment.fabric
        self.runner: TaskRunner = deployment.runner
        self.control = deployment.control
        self.daemons: Dict[str, HostDaemon] = deployment.daemons
        self.trace = deployment.trace
        #: rack name -> that rack's TOR switch.
        self.switches = {
            rack: deployment.switches[tor] for rack, tor in layout.tor_of.items()
        }
        #: pod name -> that pod's spine switch (empty without spines).
        self.spines = {
            pod: deployment.switches[spine] for pod, spine in layout.spines.items()
        }
        self._task_ids = itertools.count(1)
        self.tasks: dict[int, AggregationTask] = {}
        #: Failed task ids already surfaced via TaskFailedError: a loud
        #: failure is raised exactly once, so later runs on a still-live
        #: service are not poisoned by history.
        self._failures_raised: set[int] = set()
        self.supervisor = deployment.supervisor
        if self.supervisor is not None:
            self.supervisor.bind(self.tasks)
        #: Present when ``config.admission_control`` is on: queued tasks
        #: waiting for switch memory instead of failing loudly.
        self.admission = deployment.admission

    # ------------------------------------------------------------------
    # Compatibility / convenience surfaces
    # ------------------------------------------------------------------
    @property
    def switch(self) -> Any:
        """The switch of a one-rack deployment."""
        return self.deployment.switch

    @property
    def clock(self) -> Clock:
        return self.fabric.clock

    @property
    def sim(self) -> Any:
        """The discrete-event simulator (sim backend only)."""
        sim = getattr(self.fabric, "sim", None)
        if sim is None:
            raise AttributeError(
                f"the {self.backend!r} backend has no simulator; use .clock"
            )
        return sim

    @property
    def topology(self) -> Any:
        """The network topology and its link registry (every backend)."""
        return self.fabric.topology

    def close(self) -> None:
        """Release backend resources (UDP sockets and selector; no-op sim)."""
        self.deployment.close()

    def __enter__(self) -> "AskService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _on_task_complete(self, task: AggregationTask) -> None:
        self.daemons[task.receiver].publish_result(task)
        # The task is settled; no supervised restart can need its job.
        for host in task.senders:
            self.daemons[host].release_job(task.task_id)

    def daemon(self, host: str) -> HostDaemon:
        return self.daemons[host]

    def register_tenant(
        self,
        tenant_id: int,
        name: Optional[str] = None,
        weight: int = 1,
        quota: Optional[int] = None,
    ) -> None:
        """Declare a tenant on the service plane.

        ``weight`` is the tenant's deficit-round-robin share of freed
        switch memory (admission control only); ``quota`` caps its
        aggregators on every switch.  Undeclared tenants run with weight
        1 and no quota.
        """
        if self.admission is not None:
            self.admission.registry.register(tenant_id, name=name, weight=weight)
        elif weight != 1:
            raise TaskStateError(
                "tenant fairness weights require admission control "
                "(config.admission_control=True)"
            )
        if quota is not None:
            for switch_name in sorted(self.control.switch_names):
                self.control.controller(switch_name).tenant_quotas.set(
                    tenant_id, quota
                )

    @property
    def hosts(self) -> list[str]:
        return list(self.daemons)

    # ------------------------------------------------------------------
    # Task submission (Fig. 4 steps ①–⑧)
    # ------------------------------------------------------------------
    def submit(
        self,
        streams: dict[str, Stream],
        receiver: str,
        region_size: Optional[int] = None,
        task_id: Optional[int] = None,
        tenant_id: int = DEFAULT_TENANT,
        placement: Optional[str] = None,
    ) -> AggregationTask:
        """Submit an aggregation task.

        ``streams`` maps sender host → its key-value stream; ``receiver`` is
        the destination host (it may also appear among the senders, like the
        co-located mappers of §5.5).  ``tenant_id`` is encoded into the task
        ID (§7 multi-tenancy) so regions, channels and shared memory are
        isolated per tenant, and switch-side quotas apply.  ``placement``
        overrides the service's placement policy for this task (spine–leaf
        layouts only).  Returns the task immediately; call :meth:`run` to
        drive it to completion.
        """
        task, placement = self._new_task(
            tuple(streams), receiver, region_size, task_id, tenant_id, placement
        )
        task.stats.input_tuples = sum(len(s) for s in streams.values())
        task.stats.input_bytes = sum(
            len(k) + 4 for s in streams.values() for k, _ in s
        )
        self._schedule_setup(task, placement, dict(streams))
        return task

    def open_stream(
        self,
        senders: Sequence[str],
        receiver: str,
        region_size: Optional[int] = None,
        tenant_id: int = DEFAULT_TENANT,
        placement: Optional[str] = None,
    ) -> StreamingSession:
        """Open an aggregation task whose streams are fed incrementally.

        Real-time sources (the paper's streaming-processing motivation)
        do not know their data up front; a streaming session keeps every
        sender's channel live until :meth:`StreamingSession.close`.
        """
        task, placement = self._new_task(
            tuple(senders), receiver, region_size, None, tenant_id, placement
        )
        session = StreamingSession(task, task.senders)
        self._schedule_setup(task, placement, session)
        return session

    def _new_task(
        self,
        senders: tuple[str, ...],
        receiver: str,
        region_size: Optional[int],
        task_id: Optional[int],
        tenant_id: int,
        placement: Optional[str],
    ) -> tuple[AggregationTask, str]:
        """Validate a submission; returns the task and its placement."""
        placement = self.placement if placement is None else self.layout.placement(placement)
        if receiver not in self.daemons:
            raise KeyError(f"unknown receiver host {receiver!r}")
        for host in senders:
            if host not in self.daemons:
                raise KeyError(f"unknown sender host {host!r}")
        if not senders:
            raise ValueError("a task needs at least one sender")
        if len(set(senders)) != len(senders):
            raise ValueError(f"a task's senders must be distinct, got {senders}")
        if task_id is None:
            # Skip ids an explicit submit already took.
            task_id = encode_task_id(tenant_id, next(self._task_ids))
            while task_id in self.tasks:
                task_id = encode_task_id(tenant_id, next(self._task_ids))
        elif task_id in self.tasks:
            raise TaskStateError(f"task id {task_id} already in use")
        task = AggregationTask(
            task_id=task_id,
            receiver=receiver,
            senders=senders,
            region_size=region_size,
        )
        task.stats.submitted_at_ns = self.clock.now
        return task, placement

    def _schedule_setup(self, task: AggregationTask, placement: str, feed: Feed) -> None:
        self.tasks[task.task_id] = task
        # Step ②③ after one control-plane latency: shared memory + region.
        self.clock.schedule(
            CONTROL_LATENCY_NS, self._setup_task, task, placement, feed
        )
        if self.supervisor is not None:
            self.supervisor.notice_activity()

    def _setup_task(self, task: AggregationTask, placement: str, feed: Feed) -> None:
        try:
            switches, specs = self.layout.region_plan(task.senders, placement)
            regions = self.control.allocate(
                task.task_id, switches, task.region_size, specs=specs
            )
        except (RegionExhaustedError, TenantQuotaError) as exc:
            # Memory contention, not a bug.  With admission control on,
            # the task waits its turn instead of dying; the waiter's
            # closures re-run the allocation and the sender kickoff when
            # memory frees up (or flip to bypass at the deadline).
            if self.admission is not None:
                self._queue_for_admission(task, switches, specs, feed)
                return
            self._fail_allocation(task, exc)
            raise
        except Exception as exc:
            # Anything else (bad region plan, controller invariant) is a
            # terminal error regardless of admission control.
            # ControlPlane.allocate already rolled back partial
            # reservations and nothing else was wired yet; fail the
            # handle, drop the task from the service's books so it stays
            # fully reusable, and let the error surface.
            self._fail_allocation(task, exc)
            raise
        self._wire(task, regions, feed, bypass=False)

    def _wire(self, task: AggregationTask, regions, feed: Feed, bypass: bool) -> None:
        self.daemons[task.receiver].open_receive_task(task, regions)
        task.advance(TaskPhase.SETUP)
        # Step ④⑤: notify every sender over the control channel.
        self.clock.schedule(
            CONTROL_LATENCY_NS, self._start_senders, task, feed, bypass
        )

    def _fail_allocation(self, task: AggregationTask, exc: Exception) -> None:
        task.failure_reason = f"region allocation failed: {exc}"
        task.advance(TaskPhase.FAILED)
        self.tasks.pop(task.task_id, None)

    def _queue_for_admission(
        self,
        task: AggregationTask,
        switches: tuple[str, ...],
        specs: Optional[Dict[str, RegionSpec]],
        feed: Feed,
    ) -> None:
        """Enqueue a task whose allocation failed on the admission
        controller.  The region plan is captured once — it is a pure
        function of the task's senders, so re-planning at grant time
        would only recompute the same placement."""

        def grant() -> bool:
            try:
                regions = self.control.allocate(
                    task.task_id, switches, task.region_size, specs=specs
                )
            except (RegionExhaustedError, TenantQuotaError):
                return False
            self._wire(task, regions, feed, bypass=False)
            return True

        def degrade() -> None:
            # No switch memory within the deadline: run the task entirely
            # host-side.  Every entry is sent BYPASS, the switch forwards
            # them untouched, and the receiver completes from its residual
            # alone — exactly-once and bit-exact, just without offload.
            task.stats.degraded_to_bypass = True
            self._wire(task, {}, feed, bypass=True)

        def reject(reason: str) -> None:
            task.failure_reason = reason
            task.advance(TaskPhase.FAILED)
            self.tasks.pop(task.task_id, None)

        waiter = AdmissionWaiter(
            task=task, grant=grant, degrade=degrade, reject=reject
        )
        if self.admission.admit(waiter):
            task.advance(TaskPhase.QUEUED)
        if self.supervisor is not None:
            # Queue residence extends the run; keep the heartbeat loop
            # (and with it lease-lapse reclaim, which frees memory for
            # this very waiter) alive while the task waits.
            self.supervisor.notice_activity()

    def _start_senders(self, task: AggregationTask, feed: Feed, bypass: bool) -> None:
        task.advance(TaskPhase.STREAMING)
        if isinstance(feed, StreamingSession):
            for host in feed.senders:
                feed._attach(
                    host, self.daemons[host].start_streaming(task, force_bypass=bypass)
                )
            return
        for host, stream in feed.items():
            self.daemons[host].start_sending(task, list(stream), force_bypass=bypass)

    # ------------------------------------------------------------------
    # Driving the deployment
    # ------------------------------------------------------------------
    def run(
        self, until: Optional[int] = None, max_events: Optional[int] = None
    ) -> None:
        """Advance the deployment (drain the sim heap / run a loop slice)."""
        self.runner.run(until=until, max_events=max_events)

    def _all_complete(self) -> bool:
        # FAILED counts as settled: a loudly-failed task will never
        # complete, and waiting for it would turn a crisp TaskFailedError
        # into a backend timeout.
        return all(t.is_settled for t in self.tasks.values())

    def run_to_completion(
        self, max_events: int = 20_000_000, timeout_s: Optional[float] = None
    ) -> None:
        """Run and then assert every submitted task completed.

        ``max_events`` bounds the sim backend, ``timeout_s`` (wall-clock)
        the asyncio backend; each backend ignores the other's budget.
        Raises :class:`TaskFailedError` if any task was failed loudly
        (give-up deadline, allocation failure) and :class:`TaskStateError`
        if tasks are merely unfinished when the budget runs out.
        """
        self.runner.run_until(
            self._all_complete, max_events=max_events, timeout_s=timeout_s
        )
        failed = [
            t
            for t in self.tasks.values()
            if t.phase is TaskPhase.FAILED
            and t.task_id not in self._failures_raised
        ]
        if failed:
            self._failures_raised.update(t.task_id for t in failed)
            raise TaskFailedError(
                f"{len(failed)} task(s) failed: "
                + ", ".join(f"{t.task_id}: {t.failure_reason}" for t in failed)
            )
        unfinished = [
            t for t in self.tasks.values() if not t.is_settled
        ]
        if unfinished:
            raise TaskStateError(
                f"{len(unfinished)} task(s) did not complete: "
                + ", ".join(f"{t.task_id}:{t.phase.value}" for t in unfinished)
            )

    # ------------------------------------------------------------------
    def aggregate(
        self,
        streams: dict[str, Stream],
        receiver: Optional[str] = None,
        region_size: Optional[int] = None,
        check: bool = False,
    ) -> AggregationResult:
        """One-shot convenience: submit, run to completion, return the result.

        ``check=True`` additionally verifies the result against the exact
        reference aggregation (useful in examples and tests).
        """
        if receiver is None:
            receiver = self.hosts[-1]
        task = self.submit(streams, receiver, region_size=region_size)
        self.run_to_completion()
        assert task.result is not None
        if check:
            expected = reference_aggregate(
                {h: list(s) for h, s in streams.items()}, self.config.value_mask
            )
            if task.result.values != expected:
                raise AssertionError(
                    "aggregation result deviates from the exact reference"
                )
        return task.result


def TreeAskService(
    config: Optional[AskConfig] = None,
    pods: Optional[Mapping[str, Mapping[str, Iterable[str]]]] = None,
    placement: str = "both",
    fault: Optional[FaultModel] = None,
    max_tasks: int = 64,
    core_latency_ns: int = 2_000,
    backend: str = "sim",
    bind_host: str = "127.0.0.1",
) -> AskService:
    """A spine–leaf :class:`AskService` under its historical name and
    argument order; ``pods`` defaults to :data:`SMALL_TREE`."""
    return AskService(
        config,
        fault=fault,
        max_tasks=max_tasks,
        backend=backend,
        bind_host=bind_host,
        pods=pods or SMALL_TREE,
        placement=placement,
        core_latency_ns=core_latency_ns,
    )
