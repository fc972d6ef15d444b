"""Point-to-point FIFO links with bandwidth, latency and fault injection.

A link models one direction of a cable: packets are serialized one after
another at ``bandwidth_bits_per_ns`` and then propagate for ``latency_ns``.
Faults are applied *after* serialization, so a dropped packet still consumed
transmit time — matching how real NIC/switch queues behave.

A link is bound to its far end at construction (``deliver``), and a host
uplink also carries the sending NIC's packets-per-second cap: the paper
observes that ASK's single-host throughput is bounded by the host's packet
rate when packets are small (Fig. 8a); the analytic counterpart lives in
:mod:`repro.perf.goodput`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.net.fault import CorruptedFrame, FaultModel, LinkSlowdown
from repro.net.simulator import NS_PER_S, Simulator
from repro.net.trace import PacketTrace

DeliverFn = Callable[[Any], None]

GBPS_TO_BITS_PER_NS = 1.0  # 1 Gbps == 1 bit/ns, a convenient identity.


def gbps_to_bits_per_ns(gbps: float) -> float:
    """100 Gbps == 100 bits/ns; the unit identity keeps the math readable."""
    return gbps * GBPS_TO_BITS_PER_NS


def _unbound(packet: Any) -> None:
    raise RuntimeError("link has no far end: pass deliver= at construction")


class Link:
    """One direction of a cable between two nodes.

    Parameters
    ----------
    sim:
        The owning simulator.
    bandwidth_gbps:
        Serialization rate.  ``None`` means infinitely fast (useful for
        control-plane links in functional tests).
    latency_ns:
        Propagation delay added after serialization completes.
    fault:
        Optional fault model; defaults to a perfectly reliable link.
    name:
        The link's stable name: its trace site, and the key its topology
        files it under.
    deliver:
        The far end: called with each packet on arrival.
    max_pps:
        Packets-per-second cap of the sending port (DPDK TX ring + PCIe
        doorbell cost); launches are spaced ``gap_ns`` apart.  ``None``
        disables the cap.
    trace:
        Records a ``"tx"`` entry per packet handed to :meth:`send`.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_gbps: Optional[float] = None,
        latency_ns: int = 1_000,
        fault: Optional[FaultModel] = None,
        name: str = "link",
        ecn_threshold_bytes: Optional[int] = None,
        deliver: DeliverFn = _unbound,
        max_pps: Optional[float] = None,
        trace: Optional[PacketTrace] = None,
    ) -> None:
        self.sim = sim
        self.bandwidth_gbps = bandwidth_gbps
        self.latency_ns = int(latency_ns)
        self.fault = fault if fault is not None else FaultModel.reliable()
        self.name = name
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self.deliver = deliver
        self.max_pps = max_pps
        self.trace = trace
        #: Minimum launch spacing under ``max_pps`` (0 = uncapped), fixed
        #: for the link's lifetime so the send path does no division.
        self.gap_ns = 0 if max_pps is None else max(1, int(round(NS_PER_S / max_pps)))
        self._next_slot = 0
        self._tx_free_at = 0  # serialization is FIFO: next byte may start here
        # Packet sizes repeat (ACKs, full data frames), so serialization
        # times are memoized; the cache stays tiny and keeps the hot send
        # path free of float division per packet.
        self._ser_cache: dict[int, int] = {}
        self.packets_sent = 0
        self.packets_dropped = 0
        self.packets_duplicated = 0
        self.packets_corrupted = 0
        self.packets_marked = 0
        self.packets_slowed = 0
        self.bytes_sent = 0
        self.max_backlog_bytes = 0
        #: Optional gray-failure latency window (chaos ``slow`` events);
        #: ``None`` on the hot path of every un-slowed link.
        self.slowdown: Optional[LinkSlowdown] = None

    # ------------------------------------------------------------------
    def serialization_ns(self, size_bytes: int) -> int:
        """Time to push ``size_bytes`` onto the wire at link bandwidth."""
        cached = self._ser_cache.get(size_bytes)
        if cached is not None:
            return cached
        if self.bandwidth_gbps is None:
            ns = 0
        else:
            bits = size_bytes * 8
            ns = max(1, int(round(bits / gbps_to_bits_per_ns(self.bandwidth_gbps))))
        self._ser_cache[size_bytes] = ns
        return ns

    def send(self, packet: Any, size_bytes: int) -> None:
        """Transmit ``packet``; the far end receives it on arrival.

        Under a packets-per-second cap the packet launches at the later of
        "now" and the next free launch slot; serialization is FIFO after
        that: a packet handed over while the transmitter is busy waits its
        turn.  Fault decisions (drop/duplicate/reorder) are drawn per
        packet from the link's :class:`FaultModel`.
        """
        if self.trace is not None:
            self.trace.record(self.sim.now, self.name, "tx", packet)
        gap = self.gap_ns
        if gap:
            now = self.sim.now
            launch = self._next_slot
            if now < launch:
                self._next_slot = launch + gap
                # Launches are never cancelled: allocation-free scheduling.
                self.sim.call_at(launch, self._launch, packet, size_bytes)
                return
            self._next_slot = now + gap
        self._launch(packet, size_bytes)

    def _launch(self, packet: Any, size_bytes: int) -> None:
        """Put ``packet`` on the wire now (ECN and backlog are read here)."""
        self.packets_sent += 1
        self.bytes_sent += size_bytes
        now = self.sim.now
        if self.bandwidth_gbps is not None and self._tx_free_at > now:
            # Inlined backlog_bytes(): this runs per packet.
            backlog = int(
                (self._tx_free_at - now)
                * gbps_to_bits_per_ns(self.bandwidth_gbps)
                / 8
            )
            if backlog > self.max_backlog_bytes:
                self.max_backlog_bytes = backlog
            if (
                self.ecn_threshold_bytes is not None
                and backlog > self.ecn_threshold_bytes
                and hasattr(packet, "with_ecn")
            ):
                packet = packet.with_ecn()
                self.packets_marked += 1
        start = self._tx_free_at
        if now > start:
            start = now
        tx_done = start + self.serialization_ns(size_bytes)
        self._tx_free_at = tx_done

        decision = self.fault.decide()
        if decision.drop:
            self.packets_dropped += 1
            return
        if decision.corrupt:
            # Deliver a field-mutated copy behind the checksum-failed
            # marker; the sender's original is untouched (it still holds
            # it for retransmission).  Corruption applies after ECN
            # marking, like real wire damage.  A frame already damaged
            # upstream (chaos window) stays damaged — one marker is enough.
            self.packets_corrupted += 1
            if type(packet) is not CorruptedFrame:
                packet = CorruptedFrame(self.fault.corrupt_fields(packet))
        # Deliveries are never cancelled: use the allocation-free fast path.
        arrival = tx_done + self.latency_ns + decision.extra_delay_ns
        if self.slowdown is not None and self.slowdown.active:
            # Gray failure: the link got slower, not lossy.  Duplicates
            # travel the same degraded wire, so they pay their own draw.
            arrival += self.slowdown.extra_ns(self.latency_ns)
            self.packets_slowed += 1
        self.sim.call_at(arrival, self.deliver, packet)
        if decision.duplicate:
            self.packets_duplicated += 1
            dup_arrival = tx_done + self.latency_ns + decision.duplicate_delay_ns
            if self.slowdown is not None and self.slowdown.active:
                dup_arrival += self.slowdown.extra_ns(self.latency_ns)
                self.packets_slowed += 1
            self.sim.call_at(dup_arrival, self.deliver, packet)

    # ------------------------------------------------------------------
    def backlog_bytes(self) -> int:
        """Bytes currently queued for serialization (the ECN signal)."""
        if self.bandwidth_gbps is None:
            return 0
        pending_ns = max(0, self._tx_free_at - self.sim.now)
        return int(pending_ns * gbps_to_bits_per_ns(self.bandwidth_gbps) / 8)

    @property
    def utilization_window_end(self) -> int:
        """Simulation time at which the transmitter becomes idle."""
        return self._tx_free_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bw = "inf" if self.bandwidth_gbps is None else f"{self.bandwidth_gbps}Gbps"
        return f"Link({self.name}, {bw}, lat={self.latency_ns}ns)"
