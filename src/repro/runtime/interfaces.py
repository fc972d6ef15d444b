"""The narrow interfaces the ASK protocol stack needs from its runtime.

The host stack of the paper is ~4.5k lines of DPDK C moving real datagrams;
this reproduction keeps the protocol core (sender/receiver state machines,
reliability, switch programs) backend-agnostic by typing it against the
three protocols below instead of any concrete event loop or network:

``Clock``
    Scheduling: a monotonically advancing integer-nanosecond ``now`` plus
    relative (``schedule``) and absolute (``at``) one-shot timers whose
    handles can be cancelled.  The discrete-event
    :class:`~repro.net.simulator.Simulator` satisfies this structurally;
    :class:`~repro.runtime.asyncio_fabric.AsyncioClock` maps it onto a
    running asyncio loop's wall clock.

``Fabric``
    Wiring and host egress over a rack layout: install each rack's TOR
    (and any spines), attach hosts to their racks, and send a frame from
    a host toward its TOR.  Each switch gets a ``SwitchFabricView`` for
    its own egress.  Fault injection is a backend construction concern
    (the ``fault`` template each backend derives per-direction models
    from), not a per-send one.

``TaskRunner``
    Execution: drive the deployment either to completion of a predicate
    (batch aggregation) or open-endedly (a serving rack).

All three are :func:`typing.runtime_checkable` so backend objects can be
validated cheaply in tests; the stack itself relies only on structural
typing and never isinstance-checks its runtime.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol, runtime_checkable


@runtime_checkable
class TimerHandle(Protocol):
    """A cancellable scheduled callback.

    Both :class:`~repro.net.simulator.Event` and
    :class:`asyncio.TimerHandle` satisfy this.  ``cancel`` must be safe to
    call more than once and after the callback has fired.
    """

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        ...


@runtime_checkable
class Clock(Protocol):
    """Integer-nanosecond time plus one-shot timers."""

    @property
    def now(self) -> int:
        """Current time in nanoseconds; monotonically non-decreasing."""
        ...

    def schedule(
        self, delay_ns: int, callback: Callable[..., Any], *args: Any
    ) -> TimerHandle:
        """Run ``callback(*args)`` ``delay_ns`` nanoseconds from ``now``."""
        ...

    def at(self, time_ns: int, callback: Callable[..., Any], *args: Any) -> TimerHandle:
        """Run ``callback(*args)`` at absolute time ``time_ns``."""
        ...

    def call_later(self, delay_ns: int, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule` — no handle, not cancellable.

        The fast path for the never-cancelled majority of events (frame
        deliveries, pipeline latencies); backends may skip all cancellation
        bookkeeping for it.
        """
        ...

    def call_at(self, time_ns: int, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`at` — no handle, not cancellable."""
        ...


@runtime_checkable
class Node(Protocol):
    """Anything attachable to a fabric: a name plus a packet sink.

    Nodes expose a fail-stop lifecycle for fault injection: ``crash``
    stops the node (frames addressed to it are counted and dropped) and
    ``restore`` brings it back.  What survives a crash is the node's
    business — a host daemon keeps its shared-memory protocol state, a
    switch reboots with wiped registers.  Both must be idempotent.
    """

    name: str

    def receive(self, packet: Any) -> None:
        """Deliver one frame to this node."""
        ...

    def crash(self) -> None:
        """Fail-stop the node (idempotent while down)."""
        ...

    def restore(self) -> None:
        """Bring the node back up (idempotent while up)."""
        ...


@runtime_checkable
class Fabric(Protocol):
    """One deployment's racks: TORs, optional spines, and their hosts.

    One rack is the spineless one-rack case of the same wiring as a flat
    mesh or a spine–leaf tree; there is no separate single-switch mode.
    A fabric owns its clock; every component of one deployment schedules
    on ``fabric.clock`` so simulated and real time never mix.
    """

    @property
    def clock(self) -> Clock:
        """The clock every node of this fabric schedules on."""
        ...

    def install_switch(
        self, switch: Node, rack: str, spine: Optional[str] = None
    ) -> SwitchFabricView:
        """Create ``rack`` around its TOR ``switch`` and bind the switch to
        the returned view.  ``spine`` hangs the rack under a spine that
        :meth:`install_spine` already installed; without it the rack
        joins the flat mesh of spineless racks."""
        ...

    def install_spine(self, switch: Node) -> SwitchFabricView:
        """Install a spine switch (before its racks) and bind it to the
        returned view."""
        ...

    def attach_host(self, host: Node, rack: str) -> None:
        """Wire a host node to its rack's TOR (uplink + downlink)."""
        ...

    def send_to_switch(self, host: str, packet: Any, size_bytes: int) -> None:
        """Transmit a frame from ``host`` toward its own TOR."""
        ...

    def partition(self, name: str) -> None:
        """Cut the named node (host or switch) off the fabric: frames to
        and from it are dropped (and counted) until :meth:`heal`.  The
        node itself keeps running — a partition is pure loss, which the
        reliability layer recovers by retransmission."""
        ...

    def heal(self, name: str) -> None:
        """Reconnect a node previously cut off by :meth:`partition`."""
        ...


@runtime_checkable
class SwitchFabricView(Protocol):
    """What a switch program sees of its fabric.

    :meth:`Fabric.install_switch` and :meth:`Fabric.install_spine` hand
    each switch its own view, on either backend: a per-rack
    :class:`~repro.net.multirack.RackView` or per-spine
    :class:`~repro.net.multirack.SpineView`.  The §7 bypass rule keys on ``host_names`` (the
    switch's own rack; empty for a spine); egress — aggregation results,
    ACKs, routed transit traffic — goes through ``send_to_host``, which
    routes toward any host or switch of the fabric.
    """

    @property
    def host_names(self) -> list[str]:
        """Hosts of this switch's rack."""
        ...

    def send_to_host(self, host: str, packet: Any, size_bytes: int) -> None:
        """Route a frame leaving this switch toward ``host`` (or toward
        another switch, by name)."""
        ...


@runtime_checkable
class TaskRunner(Protocol):
    """Drives a deployment: run-to-completion vs run-forever."""

    def run(
        self, until: Optional[int] = None, max_events: Optional[int] = None
    ) -> None:
        """Advance the deployment.

        For a discrete-event backend this drains the event heap (bounded
        by ``until`` / ``max_events``); for a real-time backend it runs
        the event loop for a bounded wall-clock slice (``until`` is an
        absolute fabric-clock nanosecond deadline).
        """
        ...

    def run_until(
        self,
        done: Callable[[], bool],
        max_events: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        """Advance until ``done()`` holds, or the backend's work/time
        budget (``max_events`` for simulation, ``timeout_s`` wall-clock
        for real time) is exhausted.  A simulation backend returns without
        raising (callers re-check ``done()`` and report unfinished work);
        a real-time backend raises
        :class:`~repro.core.errors.FabricTimeoutError` — carrying each
        node's in-flight/unacked counts — when the deadline passes first.
        """
        ...

    def run_forever(self) -> None:
        """Serve until externally interrupted (KeyboardInterrupt/stop)."""
        ...
