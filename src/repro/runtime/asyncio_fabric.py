"""Real-time backend: ASK frames on localhost UDP, one selector loop.

The paper's host stack is a DPDK daemon that polls an rx burst and runs
each packet to completion; this backend is the Python equivalent at
reduced ambition.  Every node of a rack — each host daemon and the
switch program — gets its own non-blocking UDP socket on 127.0.0.1,
registered with one selector, so frames really cross the kernel between
sockets and arrive asynchronously.  A readable socket is drained
:data:`RX_BURST` datagrams at a time into one preallocated buffer; each
goes decode → ``node.receive`` → whatever that sends, so nothing is
queued between the kernel and the node.  The clock is a private
:class:`~repro.net.simulator.Simulator`, the event queue every simulated
layer uses, kept on the wall clock by :meth:`AsyncioRunner._round`; the
same sender/receiver state machines run against it and recover real or
injected loss exactly as they do simulated.

The wiring is the simulator's: one
:class:`~repro.net.multirack.MultiRackTopology` names the nodes and
links, routes, and runs the partition/corrupt/slow windows.  Only the
wire filed under each link name differs — here a :class:`_Datagram`,
which encodes the frame, draws its fault from the link's own
:class:`~repro.net.fault.FaultModel` stream before the kernel sees it
(the streams the simulated links draw, under the same names), and calls
``sendto``.  A lossy UDP rack therefore exercises the reliability
layer with a reproducible *decision* sequence even though wall-clock
arrival times vary run to run.

The runner's entry points are synchronous, so `AskService` keeps its
blocking API on both backends; what a node's ``receive`` or a timer
raises propagates straight out of them.
"""

from __future__ import annotations

import random
import selectors
import socket
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.errors import FabricTimeoutError
from repro.core.packet import AskPacket
from repro.net.fault import FaultModel, LinkSlowdown, corrupt_bytes
from repro.net.multirack import Endpoint, MultiRackTopology
from repro.net.simulator import NS_PER_S, Simulator
from repro.net.trace import PacketTrace
from repro.runtime.codec import VERSION, CodecError, decode_packet, encode_packet, name_prefix
from repro.runtime.fabric import TopologyFabric
from repro.runtime.interfaces import Node

#: Datagrams one drain takes from its socket before it hands the round
#: back to the other sockets and the due timers (DPDK's rx burst).
RX_BURST = 32
#: How long a slowdown window holds each datagram before the kernel gets
#: it, plus the window's jitter draw (the simulator multiplies its link
#: latency instead).
SLOW_HOLD_NS = 2_000_000
#: No UDP payload is larger.  One receive buffer serves every socket: a
#: datagram is decoded out of it before the next one is read.
_MAX_DATAGRAM = 65536


class _NodeEndpoint:
    """One node's UDP socket, bound and read from construction on, and
    the callback that drains it."""

    def __init__(self, fabric: "AsyncioFabric", node: Node) -> None:
        self.fabric = fabric
        self.node = node
        info = socket.getaddrinfo(fabric.bind_host, 0, type=socket.SOCK_DGRAM)[0]
        sock = socket.socket(*info[:3])
        try:
            sock.setblocking(False)
            sock.bind(info[4])
        except OSError:
            sock.close()
            raise
        self.sock = sock
        self.address: Tuple[Any, ...] = sock.getsockname()
        fabric._selector.register(sock, selectors.EVENT_READ, self.drain)

    def close(self) -> None:
        self.fabric._selector.unregister(self.sock)
        self.sock.close()

    def drain(self, sock: socket.socket) -> None:
        """Run up to :data:`RX_BURST` waiting datagrams to completion; the
        selector is level-triggered, so what a flooded socket has left is
        picked up on the loop's next round, after everyone else.  Each
        ``receive`` sees the wall time on the clock."""
        fabric, node, view = self.fabric, self.node, self.fabric._rx_view
        clock, wall_ns = fabric._clock, fabric._wall_ns
        for _ in range(RX_BURST):
            try:
                size = sock.recv_into(view)
            except (BlockingIOError, InterruptedError):
                return  # drained
            except OSError:
                fabric.socket_errors += 1
                return
            try:
                packet = decode_packet(view[:size])
            except CodecError as exc:
                # Counted per node and per reason (the CRC32 trailer makes
                # wire corruption a drop here) and in the fabric-wide total.
                fabric.malformed_frames += 1
                robustness = getattr(node, "robustness", None)
                if robustness is not None:
                    robustness.bump(exc.reason)
                continue
            now = wall_ns()
            if now > clock.now:
                clock.now = now
            if fabric.trace is not None:
                fabric.trace.record(clock.now, node.name, "rx", packet)
            # What ``receive`` raises ends the burst and the round, and
            # propagates out of the runner.
            node.receive(packet)


class _Datagram:
    """One link direction on localhost UDP: what the topology files under
    a link name on this backend, where the simulator files a
    :class:`~repro.net.link.Link`, with the same counters.

    A frame sent before :meth:`AsyncioFabric.start` is held until the
    sockets open.  Each frame is encoded, its fault drawn from the link's
    own stream before the kernel sees it, and handed from the sending
    node's socket to the far end's address — now, or after the fault's
    reorder/duplicate delay and an open slowdown's hold.
    """

    def __init__(
        self, fabric: "AsyncioFabric", name: str, fault: Optional[FaultModel]
    ) -> None:
        self.fabric = fabric
        self.name = name
        self.fault = fault
        self.slowdown: Optional[LinkSlowdown] = None
        #: Frames sent before :meth:`open`; None once open.
        self._held: Optional[list[Tuple[Any, int]]] = []
        self.packets_sent = 0
        self.bytes_sent = 0
        self.packets_dropped = 0
        self.packets_duplicated = 0
        self.packets_corrupted = 0
        self.packets_slowed = 0

    def open(self, source: _NodeEndpoint, target: _NodeEndpoint) -> None:
        """Bind both ends' sockets and send what was held."""
        self._source, self._target = source, target
        held, self._held = self._held or [], None
        for packet, size_bytes in held:
            self.send(packet, size_bytes)

    def _encode(self, packet: AskPacket) -> bytes:
        fabric = self.fabric
        return encode_packet(packet, fabric.frame_version, fabric._name_prefixes)

    def damage(self, packet: AskPacket, rng: random.Random) -> bytes:
        """A corruption window's damage on this wire: the encoded datagram
        with bits flipped, which the codec's CRC32 trailer rejects."""
        return corrupt_bytes(self._encode(packet), rng)

    def send(self, packet: Any, size_bytes: int) -> None:
        """``packet`` is an :class:`AskPacket`, or the bytes
        :meth:`damage` returned."""
        if self.fabric._closed:
            return  # late timers during shutdown; the rack is gone
        held = self._held
        if held is not None:
            held.append((packet, size_bytes))
            return
        self.packets_sent += 1
        self.bytes_sent += size_bytes
        trace = self.fabric.trace
        if trace is not None:
            trace.record(self.fabric.clock.now, self.name, "tx", packet)
        damaged = type(packet) is bytes
        data = packet if damaged else self._encode(packet)
        fault = self.fault
        if fault is None:
            self._launch(data, 0)
            return
        decision = fault.decide()
        if decision.drop:
            self.packets_dropped += 1
            return
        if decision.corrupt:
            # Real bit flips; the far end's CRC check turns them into a
            # counted drop, which retransmission recovers.
            self.packets_corrupted += 1
            if not damaged:
                data = fault.corrupt_payload(data)
        self._launch(data, decision.extra_delay_ns)
        if decision.duplicate:
            self.packets_duplicated += 1
            self._launch(data, max(1, decision.duplicate_delay_ns))

    def _launch(self, data: bytes, delay_ns: int) -> None:
        slowdown = self.slowdown
        if slowdown is not None and slowdown.active:
            # Wall clock has no fixed link latency to multiply: a slowed
            # datagram is held SLOW_HOLD_NS plus its jitter draw.
            delay_ns += SLOW_HOLD_NS + slowdown.extra_ns(0)
            self.packets_slowed += 1
        if delay_ns:
            self.fabric.clock.call_later(delay_ns, self._sendto, data)
        else:
            self._sendto(data)

    def _sendto(self, data: bytes) -> None:
        """Hand one datagram to the kernel, unless the rack shut down."""
        if self.fabric._closed:
            return
        try:
            self._source.sock.sendto(data, self._target.address)
        except OSError:
            # ``BlockingIOError`` is a full socket buffer; nothing waits
            # for it.  A counted drop, healed by §3.3 retransmission.
            self.fabric.socket_errors += 1


class AsyncioFabric(TopologyFabric):
    """One ASK deployment on localhost UDP sockets.

    The wiring, names, routing, link registry and chaos windows are the
    fabric's :class:`~repro.net.multirack.MultiRackTopology`, exactly as
    on the simulator; every link name holds a :class:`_Datagram`, so
    each hop is a real kernel datagram with its own fault stream.  Every
    node gets its own socket when the fabric starts, registered with the
    fabric's one selector; its clock is a private
    :class:`~repro.net.simulator.Simulator` that the runner keeps on the
    wall clock.
    """

    backend = "asyncio"

    def __init__(
        self,
        fault: Optional[FaultModel] = None,
        bind_host: str = "127.0.0.1",
        trace: Optional[PacketTrace] = None,
        frame_version: int = VERSION,
    ) -> None:
        self._clock = Simulator()
        #: ``time.monotonic_ns()`` at clock zero.
        self._origin_ns = time.monotonic_ns()
        #: Every node's socket, each with its drain as the key's data.
        self._selector = selectors.DefaultSelector()
        self._rx_view = memoryview(bytearray(_MAX_DATAGRAM))
        self.bind_host = bind_host
        self.trace = trace
        #: Wire frame version for every encode.  The default carries the
        #: CRC32 integrity trailer; the builder passes the legacy version
        #: when ``AskConfig.integrity_checks`` is disabled.
        self.frame_version = frame_version
        self.topology = MultiRackTopology(None, fault=fault, wire=self._datagram)
        #: Every node's socket, by node name (opened by :meth:`start`).
        self._endpoints: Dict[str, _NodeEndpoint] = {}
        #: Wire form of every node's name, for ``encode_packet``.
        self._name_prefixes: Dict[str, bytes] = {}
        self._started = False
        self._closed = False
        self.malformed_frames = 0
        self.socket_errors = 0

    def _datagram(
        self, name: str, src: Endpoint, dst: Endpoint, fault: Optional[FaultModel]
    ) -> _Datagram:
        """The wire constructor this fabric hands its topology."""
        return _Datagram(self, name, fault)

    # ------------------------------------------------------------------
    @property
    def clock(self) -> Simulator:
        return self._clock

    def _wall_ns(self) -> int:
        """Wall-clock nanoseconds since the fabric was built: where the
        runner moves the clock to."""
        return time.monotonic_ns() - self._origin_ns

    def runner(self) -> "AsyncioRunner":
        return AsyncioRunner(self)

    def _place(self, node: Node) -> None:
        if self._started:
            raise RuntimeError("cannot attach nodes after the fabric started")

    def port_of(self, name: str) -> Optional[int]:
        """UDP port bound by ``name`` (None before :meth:`start`)."""
        endpoint = self._endpoints.get(name)
        if endpoint is None:
            return None
        port: int = endpoint.address[1]
        return port

    @property
    def frames_sent(self) -> int:
        """Datagrams handed to the fault hook, over every link."""
        return self.topology.link_total("packets_sent")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Advance the clock to the wall time (so what is scheduled next
        counts from a live rack); the first call then opens every node's
        socket and sends what the links held."""
        if self._closed:
            raise RuntimeError("fabric already closed")
        self._clock.advance_to(self._wall_ns())
        if self._started:
            return
        topology = self.topology
        for node in topology.nodes():
            self._name_prefixes[node.name] = name_prefix(node.name)
            self._endpoints[node.name] = _NodeEndpoint(self, node)
        self._started = True
        endpoints = self._endpoints
        for _name, src, dst, wire in topology.links():
            wire.open(
                endpoints[topology.node_at(src).name], endpoints[topology.node_at(dst).name]
            )

    def close(self) -> None:
        """Close the sockets and the selector; timers still queued never run."""
        if self._closed:
            return
        self._closed = True
        for endpoint in self._endpoints.values():
            endpoint.close()
        self._selector.close()

    def send_to_switch(self, host: str, packet: AskPacket, size_bytes: int) -> None:
        """Host uplink: ``host``'s frame toward its own TOR."""
        self.topology.send_to_switch(host, packet, size_bytes)

    # ------------------------------------------------------------------
    def pending_snapshot(self) -> Dict[str, int]:
        """Per-node count of unacked sender window entries (diagnostics
        for :class:`~repro.core.errors.FabricTimeoutError`).  Datagrams
        still waiting in a kernel socket buffer are invisible to the
        fabric, so this is all there is."""
        snapshot: Dict[str, int] = {}
        for node in self.topology.nodes():
            channels = getattr(node, "channels", ())
            pending = sum(channel.window.in_flight for channel in channels)
            if pending:
                snapshot[node.name] = pending
        return snapshot


class AsyncioRunner:
    """Synchronous driver over an :class:`AsyncioFabric`: each entry
    starts the fabric, which advances its clock, then loops over rounds."""

    #: Default wall-clock slice for a bare ``run()`` call, generous enough
    #: for several retransmission timeouts on localhost.
    DEFAULT_SLICE_S = 0.05
    #: Default bound for :meth:`run_until` — a safety net, not a target.
    DEFAULT_TIMEOUT_S = 60.0

    def __init__(self, fabric: AsyncioFabric) -> None:
        self.fabric = fabric

    def run(
        self, until: Optional[int] = None, max_events: Optional[int] = None
    ) -> None:
        """Run the loop for a bounded wall-clock slice.

        ``until`` is an absolute fabric-clock nanosecond deadline (the
        same meaning it has under simulation); ``None`` runs one default
        slice.  ``max_events`` has no real-time equivalent and is ignored.
        """
        fabric = self.fabric
        fabric.start()
        if until is None:
            until = fabric.clock.now + int(self.DEFAULT_SLICE_S * NS_PER_S)
        while fabric.clock.now < until:
            self._round(until)

    def run_until(
        self,
        done: Callable[[], bool],
        max_events: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        """Drive the loop until ``done()`` holds.

        Raises :class:`~repro.core.errors.FabricTimeoutError` if
        ``timeout_s`` (default :attr:`DEFAULT_TIMEOUT_S`) expires first;
        the error carries each node's unacked window entries so a hung
        run says *where* the work stalled.
        """
        fabric = self.fabric
        fabric.start()
        budget = self.DEFAULT_TIMEOUT_S if timeout_s is None else timeout_s
        deadline = fabric.clock.now + int(budget * NS_PER_S)
        while not done():
            if fabric.clock.now >= deadline:
                pending = fabric.pending_snapshot()
                raise FabricTimeoutError(
                    f"asyncio fabric still busy after {budget:.1f}s (unacked window entries "
                    f"per node: {pending or 'none'}; kernel socket buffers are not visible)",
                    pending=pending,
                )
            self._round(deadline)

    def run_forever(self) -> None:
        """Serve until KeyboardInterrupt (the `repro serve` loop) or
        until a socket drain or a timer raises."""
        self.fabric.start()
        try:
            while True:
                self._round(None)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass

    def _round(self, deadline: Optional[int]) -> None:
        """One turn of the loop: wait until a socket is readable, the next
        event falls due or ``deadline`` (clock ns) passes; drain every
        ready socket; then run what was due when ``select`` returned.  A
        timer that falls due during the drains waits for the next round,
        so an RTO never fires over an ACK already in hand."""
        fabric = self.fabric
        clock = fabric.clock
        wake = clock.next_event_time()
        if deadline is not None and (wake is None or deadline < wake):
            wake = deadline
        timeout = None if wake is None else max(0, wake - fabric._wall_ns()) / NS_PER_S
        ready = fabric._selector.select(timeout)
        now = fabric._wall_ns()
        for key, _events in ready:
            key.data(key.fileobj)
        clock.advance_to(now)
