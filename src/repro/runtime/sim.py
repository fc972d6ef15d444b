"""Discrete-event backend: the simulator stack behind the
:class:`~repro.runtime.interfaces.Fabric` / ``TaskRunner`` interfaces.

One fabric, :class:`SimFabric`, over one
:class:`~repro.net.multirack.MultiRackTopology`: one rack is its
spineless one-rack case, beside the flat mesh and the spine–leaf tree.
The wrapper adds **no** event hops and **no** extra scheduling — every
``send`` delegates straight into the topology's :class:`Link` for that
cable direction, so a fixed seed produces exactly the schedule, stats and
retransmission counts it always did (``bench/run.py`` checks this on
every repetition: ``rack_lossy`` at seed 7 must reproduce its recorded
fingerprint).

:class:`~repro.net.simulator.Simulator` itself satisfies the
:class:`~repro.runtime.interfaces.Clock` protocol, so ``fabric.clock`` is
the simulator object and simulated components keep scheduling on it
directly.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.net.fault import FaultModel
from repro.net.link import Link
from repro.net.multirack import MultiRackTopology
from repro.net.simulator import Simulator, paused_gc
from repro.net.trace import PacketTrace
from repro.runtime.fabric import TopologyFabric


class SimRunner:
    """Run-to-completion driver over one :class:`Simulator`.

    Both drains run under :func:`~repro.net.simulator.paused_gc`, as
    ``run_serial``, ``run_sharded`` and the shard workers do: a run's
    garbage is reclaimed by reference counting, and the cycle collector's
    passes over the live input streams and aggregator cells find nothing
    (``tests/runtime/test_sim_gc_pause.py`` holds that to
    ``gc.collect() == 0`` on three scenarios).
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim

    def run(
        self, until: Optional[int] = None, max_events: Optional[int] = None
    ) -> None:
        with paused_gc():
            self.sim.run(until=until, max_events=max_events)

    def run_until(
        self,
        done: Callable[[], bool],
        max_events: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        # A drained heap is the simulator's quiescent point: either every
        # task completed (done() now holds) or progress is impossible and
        # the caller reports the stall.  ``timeout_s`` is wall-clock and
        # meaningless under simulated time.
        with paused_gc():
            self.sim.run(max_events=max_events)

    def run_forever(self) -> None:
        self.sim.run()


class SimFabric(TopologyFabric):
    """An ASK deployment's racks on the deterministic simulator.

    Construction order matters for seed-for-seed reproducibility: the
    simulator exists first, then (in the builder's order) every spine,
    then per rack its switch and its hosts, each host deriving its two
    per-link fault models.  Switches route through the
    :class:`~repro.net.multirack.RackView` or
    :class:`~repro.net.multirack.SpineView` they bind to; hosts send
    through :meth:`send_to_switch`.  Every link is a
    :class:`~repro.net.link.Link`: a slowdown window adds ``latency *
    (slow_multiplier - 1)`` plus jitter, and a corruption window delivers
    a :class:`~repro.net.fault.CorruptedFrame`.
    """

    backend = "sim"

    def __init__(
        self,
        bandwidth_gbps: Optional[float] = 100.0,
        latency_ns: int = 1_000,
        core_latency_ns: int = 2_000,
        host_max_pps: Optional[float] = None,
        fault: Optional[FaultModel] = None,
        trace: Optional[PacketTrace] = None,
        ecn_threshold_bytes: Optional[int] = None,
        sim: Optional[Simulator] = None,
    ) -> None:
        self.sim = sim if sim is not None else Simulator()
        self.topology = MultiRackTopology(
            self.sim,
            bandwidth_gbps=bandwidth_gbps,
            latency_ns=latency_ns,
            core_latency_ns=core_latency_ns,
            host_max_pps=host_max_pps,
            fault=fault,
            trace=trace,
            ecn_threshold_bytes=ecn_threshold_bytes,
        )

    @property
    def clock(self) -> Simulator:
        return self.sim

    def runner(self) -> SimRunner:
        return SimRunner(self.sim)

    def send_to_switch(self, host: str, packet: object, size_bytes: int) -> None:
        """Host uplink: ``host``'s frame toward its own TOR."""
        self.topology.send_to_switch(host, packet, size_bytes)

    def _links(self) -> Iterator[Link]:
        """Every link: each host's uplink and downlink, then the
        interconnect (``bench/harness.py`` fingerprints through this)."""
        for _name, _src, _dst, link in self.topology.links():
            yield link
