"""Real-time backend: ASK frames on localhost UDP under asyncio.

The paper's host stack is a DPDK daemon that polls an rx burst and runs
each packet to completion; this backend is the Python equivalent at
reduced ambition.  Every node of a rack — each host daemon and the
switch program — gets its own non-blocking UDP socket on 127.0.0.1,
registered with the loop's selector, so frames really cross the kernel
between sockets and arrive asynchronously.  A readable socket is drained
:data:`RX_BURST` datagrams at a time into one preallocated buffer; each
goes decode → ``node.receive`` → whatever that sends in that one
callback, so nothing is queued between the kernel and the node.  The
protocol stack is unchanged: the same sender/receiver state machines run
against :class:`AsyncioClock` (wall-clock nanoseconds, ``loop.call_later``
timers) and recover real or injected loss exactly as they do simulated.

The wiring is the simulator's: one
:class:`~repro.net.multirack.MultiRackTopology` names the nodes and
links, routes, and runs the partition/corrupt/slow windows.  Only the
wire filed under each link name differs — here a :class:`_Datagram`,
which encodes the frame, draws its fault from the link's own
:class:`~repro.net.fault.FaultModel` stream before the kernel sees it
(the streams the simulated links draw, under the same names), and calls
``sendto``.  A lossy asyncio rack therefore exercises the reliability
layer with a reproducible *decision* sequence even though wall-clock
arrival times vary run to run.

One fabric owns one private event loop.  The public entry points
(:meth:`AsyncioRunner.run_until`, :meth:`AsyncioRunner.run_forever`) are
synchronous and drive that loop, so `AskService` keeps its blocking API
on both backends; they re-raise what any loop callback raises (a node's
``receive``, a timer).
"""

from __future__ import annotations

import asyncio
import random
import socket
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.errors import FabricTimeoutError
from repro.core.packet import AskPacket
from repro.net.fault import FaultModel, LinkSlowdown, corrupt_bytes
from repro.net.multirack import Endpoint, MultiRackTopology
from repro.net.trace import PacketTrace
from repro.runtime.codec import VERSION, CodecError, decode_packet, encode_packet, name_prefix
from repro.runtime.fabric import TopologyFabric
from repro.runtime.interfaces import Node, TimerHandle

NS_PER_S = 1_000_000_000
#: Datagrams one readable callback takes from its socket before it hands
#: the loop back to the other sockets and the due timers (DPDK's rx burst).
RX_BURST = 32
#: How long a slowdown window holds each datagram before the kernel gets
#: it, plus the window's jitter draw (the simulator multiplies its link
#: latency instead).
SLOW_HOLD_NS = 2_000_000
#: No UDP payload is larger.  One receive buffer serves every socket: a
#: datagram is decoded out of it before the next one is read.
_MAX_DATAGRAM = 65536


class AsyncioClock:
    """Wall-clock :class:`~repro.runtime.interfaces.Clock` over one loop.

    ``now`` is nanoseconds since the clock's creation (monotonic, from
    ``loop.time()``), so timestamps look like simulator time to the stats
    code: small integers starting near zero.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._origin = loop.time()

    @property
    def now(self) -> int:
        return int((self._loop.time() - self._origin) * NS_PER_S)

    def schedule(
        self, delay_ns: int, callback: Callable[..., Any], *args: Any
    ) -> TimerHandle:
        if delay_ns < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay_ns})")
        return self._loop.call_later(delay_ns / NS_PER_S, callback, *args)

    def at(self, time_ns: int, callback: Callable[..., Any], *args: Any) -> TimerHandle:
        return self._loop.call_at(self._origin + time_ns / NS_PER_S, callback, *args)

    def call_later(self, delay_ns: int, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget scheduling (the asyncio loop keeps the handle)."""
        if delay_ns < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay_ns})")
        self._loop.call_later(delay_ns / NS_PER_S, callback, *args)

    def call_at(self, time_ns: int, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget absolute-time scheduling."""
        self._loop.call_at(self._origin + time_ns / NS_PER_S, callback, *args)


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
        fabric.loop.add_reader(sock, self.drain, sock)

    def close(self) -> None:
        self.fabric.loop.remove_reader(self.sock)
        self.sock.close()

    def drain(self, sock: socket.socket) -> None:
        """Run up to :data:`RX_BURST` waiting datagrams to completion; the
        selector is level-triggered, so what a flooded socket has left is
        picked up on the loop's next iteration, after everyone else."""
        fabric, node, view = self.fabric, self.node, self.fabric._rx_view
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
            if fabric.trace is not None:
                fabric.trace.record(fabric.clock.now, node.name, "rx", packet)
            # What ``receive`` raises ends the burst and reaches the
            # fabric's loop exception handler, which fails the run.
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
    node gets its own socket when the fabric starts.
    """

    backend = "asyncio"

    def __init__(
        self,
        fault: Optional[FaultModel] = None,
        bind_host: str = "127.0.0.1",
        trace: Optional[PacketTrace] = None,
        frame_version: int = VERSION,
    ) -> None:
        # A selector loop by name: the datagram path needs ``add_reader``.
        self.loop = asyncio.SelectorEventLoop()
        self._clock = AsyncioClock(self.loop)
        self._rx_view = memoryview(bytearray(_MAX_DATAGRAM))
        #: Resolved with the first exception a loop callback raises.
        self._failed: asyncio.Future[None] = self.loop.create_future()
        self.loop.set_exception_handler(self._on_loop_exception)
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
    def clock(self) -> AsyncioClock:
        return self._clock

    def runner(self) -> "AsyncioRunner":
        return AsyncioRunner(self)

    def _on_loop_exception(
        self, loop: asyncio.AbstractEventLoop, context: Dict[str, Any]
    ) -> None:
        """The loop's one failure path.  A callback that raises — a node's
        ``receive`` inside a socket drain, a timer — would only be logged,
        leaving the run to spin on work that can no longer finish; instead
        its exception resolves ``_failed``, which the runner re-raises."""
        exc = context.get("exception")
        if exc is not None and not self._failed.done():
            self._failed.set_exception(exc)
        else:
            loop.default_exception_handler(context)

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
        """Open every node's socket, then send what the links held."""
        if self._started:
            return
        if self._closed:
            raise RuntimeError("fabric already closed")
        topology = self.topology
        if not topology.racks:
            raise RuntimeError("install_switch() must run before start()")
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
        """Close the sockets and the private loop."""
        if self._closed:
            return
        self._closed = True
        for endpoint in self._endpoints.values():
            endpoint.close()
        self.loop.close()

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
    """Synchronous driver over an :class:`AsyncioFabric`'s private loop."""

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
        self.fabric.start()
        if until is None:
            delay_s = self.DEFAULT_SLICE_S
        else:
            delay_s = max(0.0, (until - self.fabric.clock.now) / NS_PER_S)
        self._drive(lambda: False, delay_s)

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
        self.fabric.start()
        budget = self.DEFAULT_TIMEOUT_S if timeout_s is None else timeout_s
        self._drive(done, budget)
        if not done():
            pending = self.fabric.pending_snapshot()
            raise FabricTimeoutError(
                f"asyncio fabric still busy after {budget:.1f}s (unacked window entries "
                f"per node: {pending or 'none'}; kernel socket buffers are not visible)",
                pending=pending,
            )

    def _drive(self, done: Callable[[], bool], budget_s: float) -> None:
        """Poll ``done()`` for ``budget_s``; re-raise what a callback raised."""
        fabric = self.fabric
        fabric.loop.run_until_complete(self._poll(done, budget_s))
        if fabric._failed.done():
            failed, fabric._failed = fabric._failed, fabric.loop.create_future()
            failed.result()  # raises it, original traceback and all

    async def _poll(self, done: Callable[[], bool], budget_s: float) -> None:
        fabric = self.fabric
        deadline = fabric.loop.time() + budget_s
        while not (fabric._failed.done() or done()) and fabric.loop.time() < deadline:
            await asyncio.sleep(0.001)

    def run_forever(self) -> None:
        """Serve until KeyboardInterrupt (the `repro serve` loop) or
        until a loop callback raises."""
        self.fabric.start()
        try:
            self.fabric.loop.run_until_complete(self.fabric._failed)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
