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

Fault injection happens at the fabric's transmit hook, before the
datagram is handed to the kernel, with a per-direction
:class:`~repro.net.fault.FaultModel` derived from the template — the same
derivation the simulated links use, so a lossy asyncio rack exercises the
reliability layer with a reproducible *decision* sequence even though
wall-clock arrival times vary run to run.

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

from repro.core.errors import FabricTimeoutError, TopologyError
from repro.core.packet import AskPacket
from repro.net.fault import FaultModel, corrupt_bytes
from repro.net.trace import PacketTrace
from repro.runtime.codec import VERSION, CodecError, decode_packet, encode_packet, name_prefix
from repro.runtime.interfaces import Node, TimerHandle

NS_PER_S = 1_000_000_000
#: Datagrams one readable callback takes from its socket before it hands
#: the loop back to the other sockets and the due timers (DPDK's rx burst).
RX_BURST = 32
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
    """One node's UDP socket and the callback that drains it."""

    def __init__(self, fabric: "AsyncioFabric", node: Node) -> None:
        self.fabric = fabric
        self.node = node
        self.sock: Optional[socket.socket] = None
        self.address: Optional[Tuple[Any, ...]] = None

    def open(self) -> None:
        info = socket.getaddrinfo(self.fabric.bind_host, 0, type=socket.SOCK_DGRAM)[0]
        self.sock = sock = socket.socket(*info[:3])  # close() owns it from here
        sock.setblocking(False)
        sock.bind(info[4])
        self.address = sock.getsockname()
        self.fabric.loop.add_reader(sock, self.drain, sock)

    def close(self) -> None:
        if self.sock is not None:
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


class _AsyncioRackView:
    """A TOR (leaf) switch's fabric view: its rack's ``host_names`` plus
    next-hop routing, within the rack or across the mesh or tree, for
    everything egressing."""

    def __init__(self, fabric: "AsyncioFabric", rack: str) -> None:
        self._fabric = fabric
        self.rack = rack

    @property
    def host_names(self) -> list[str]:
        return self._fabric.hosts_of(self.rack)

    def send_to_host(self, destination: str, packet: AskPacket, size_bytes: int) -> None:
        self._fabric.route_from_switch(self.rack, destination, packet)


class _AsyncioSpineView:
    """A spine switch's fabric view: no local hosts (the combiner rule
    admits packets by region ``sources``), next-hop routing down/across."""

    def __init__(self, fabric: "AsyncioFabric", spine: str) -> None:
        self._fabric = fabric
        self.spine = spine

    @property
    def host_names(self) -> list[str]:
        return []

    def send_to_host(self, destination: str, packet: AskPacket, size_bytes: int) -> None:
        self._fabric.route_from_spine(self.spine, destination, packet)


class AsyncioFabric:
    """One ASK deployment on localhost UDP sockets.

    ``install_switch(switch, rack, spine=...)`` (after any
    ``install_spine``) gives every switch its own
    :class:`_AsyncioRackView`/:class:`_AsyncioSpineView`, and frames hop
    name-to-name along the same host→TOR→[spine→]TOR→host paths the
    simulated :class:`~repro.net.multirack.MultiRackTopology` takes; one
    rack is the spineless case where every frame is host↔TOR.  Each hop
    is a real kernel datagram with its own per-direction fault stream
    (``fault.derive("src->dst")``), so per-hop loss falls out for free.
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
        self.fault = fault
        self.bind_host = bind_host
        self.trace = trace
        #: Wire frame version for every encode.  The default carries the
        #: CRC32 integrity trailer; the builder passes the legacy version
        #: when ``AskConfig.integrity_checks`` is disabled.
        self.frame_version = frame_version
        self._endpoints: Dict[str, _NodeEndpoint] = {}
        #: Wire form of every registered node's name, for ``encode_packet``.
        self._name_prefixes: Dict[str, bytes] = {}
        self._faults: Dict[Tuple[str, str], FaultModel] = {}
        self._rack_switch: Dict[str, str] = {}  # rack -> TOR switch name
        self._switch_rack: Dict[str, str] = {}  # TOR switch name -> rack
        self._rack_spine: Dict[str, str] = {}  # rack -> spine (trees only)
        self._spines: set[str] = set()
        self._host_rack: Dict[str, str] = {}
        self._host_tor: Dict[str, str] = {}  # host -> its TOR's name
        self._rack_hosts: Dict[str, list[str]] = {}
        self._started = False
        self._closed = False
        # Frames sent before the sockets are open (a task submitted before
        # the first run) are buffered and flushed the moment the endpoints
        # are live — the protocol stack never sees a "not started" error.
        self._pending: list[Tuple[str, str, AskPacket]] = []
        self._partitioned: set[str] = set()
        self.partition_drops = 0
        self.malformed_frames = 0
        self.socket_errors = 0
        self.frames_sent = 0
        self.frames_dropped = 0
        self.frames_duplicated = 0
        self.frames_corrupted = 0
        # Chaos corruption windows ("corrupt"/"cleanse" events): while a
        # node is in the window, datagrams it sends or receives get bit
        # flips with probability ``corruption_rate``.  A dedicated RNG
        # keeps the per-direction FaultModel streams untouched.
        self._corrupting: set[str] = set()
        self.corruption_rate = 0.5
        seed = fault.seed if fault is not None else 0
        self._chaos_rng = random.Random(f"{seed}:chaos-corrupt")
        # Chaos slowdown windows ("slow"/"revive"): while a node is in the
        # window, datagrams it sends or receives are held back pre-kernel
        # by slow_delay_ns plus a jitter draw from a per-direction named
        # stream — the UDP analogue of the sim backend's per-link latency
        # multiplier (wall-clock has no fixed link latency to multiply).
        self._slowed: set[str] = set()
        self.slow_delay_ns = 2_000_000
        self.slow_jitter_ns = 0
        self.frames_slowed = 0
        self._slow_seed = seed
        self._slow_rngs: Dict[Tuple[str, str], random.Random] = {}

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

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def install_switch(
        self, switch: Node, rack: str, spine: Optional[str] = None
    ) -> "_AsyncioRackView":
        """Install ``rack``'s TOR ``switch`` and bind it to its view,
        optionally hanging the rack under an already-installed ``spine``."""
        if rack in self._rack_switch:
            raise TopologyError(f"rack {rack!r} already exists", rack)
        if spine is None and self._rack_spine:
            raise TopologyError(
                f"rack {rack!r} needs a spine: this fabric is spine–leaf", rack
            )
        if spine is not None and spine not in self._spines:
            raise TopologyError(f"unknown spine {spine!r}", spine)
        self._register(switch)
        self._rack_switch[rack] = switch.name
        self._switch_rack[switch.name] = rack
        self._rack_hosts[rack] = []
        if spine is not None:
            self._rack_spine[rack] = spine
        view = _AsyncioRackView(self, rack)
        bind = getattr(switch, "bind", None)
        if bind is not None:
            bind(view)
        return view

    def install_spine(self, switch: Node) -> "_AsyncioSpineView":
        """Declare a spine switch (trees; before its racks) and bind its view."""
        if self._rack_switch and len(self._rack_spine) != len(self._rack_switch):
            raise TopologyError(
                "cannot add a spine to a flat multi-rack fabric", switch.name
            )
        self._register(switch)
        self._spines.add(switch.name)
        view = _AsyncioSpineView(self, switch.name)
        bind = getattr(switch, "bind", None)
        if bind is not None:
            bind(view)
        return view

    def attach_host(self, host: Node, rack: str) -> None:
        if rack not in self._rack_switch:
            raise TopologyError(f"unknown rack {rack!r}", rack)
        self._register(host)
        self._host_rack[host.name] = rack
        self._host_tor[host.name] = self._rack_switch[rack]
        self._rack_hosts[rack].append(host.name)

    def _register(self, node: Node) -> None:
        if self._started:
            raise RuntimeError("cannot attach nodes after the fabric started")
        if node.name in self._endpoints:
            raise ValueError(f"node {node.name!r} already attached")
        self._name_prefixes[node.name] = name_prefix(node.name)
        self._endpoints[node.name] = _NodeEndpoint(self, node)

    @property
    def host_names(self) -> list[str]:
        return list(self._host_rack)

    def hosts_of(self, rack: str) -> list[str]:
        return list(self._rack_hosts[rack])

    def rack_of_host(self, host: str) -> str:
        try:
            return self._host_rack[host]
        except KeyError:
            raise TopologyError(f"unknown host {host!r}", host) from None

    def port_of(self, name: str) -> Optional[int]:
        """UDP port bound by ``name`` (None before :meth:`start`)."""
        address = self._endpoints[name].address
        return None if address is None else address[1]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open every node's socket and start draining it."""
        if self._started:
            return
        if self._closed:
            raise RuntimeError("fabric already closed")
        if not self._rack_switch:
            raise RuntimeError("install_switch() must run before start()")
        for endpoint in self._endpoints.values():
            endpoint.open()
        self._started = True
        pending, self._pending = self._pending, []
        for src, dst, packet in pending:
            self._transmit(src, dst, packet)

    def close(self) -> None:
        """Close the sockets and the private loop."""
        if self._closed:
            return
        self._closed = True
        for endpoint in self._endpoints.values():
            endpoint.close()
        self.loop.close()

    # ------------------------------------------------------------------
    # Frame movement (the fault hook lives here, pre-kernel)
    # ------------------------------------------------------------------
    def _direction_fault(self, src: str, dst: str) -> Optional[FaultModel]:
        if self.fault is None:
            return None
        key = (src, dst)
        model = self._faults.get(key)
        if model is None:
            model = self.fault.derive(f"{src}->{dst}")
            self._faults[key] = model
        return model

    def _transmit(self, src: str, dst: str, packet: AskPacket) -> None:
        if self._closed:
            return  # late timers during shutdown; the rack is gone
        if not self._started:
            self._pending.append((src, dst, packet))
            return
        if src in self._partitioned or dst in self._partitioned:
            self.partition_drops += 1
            return
        try:
            sock, address = self._endpoints[src].sock, self._endpoints[dst].address
        except KeyError as exc:
            raise KeyError(f"unknown fabric node {exc.args[0]!r}") from None
        if sock is None or address is None:
            raise RuntimeError("fabric endpoints are not open")
        self.frames_sent += 1
        if self.trace is not None:
            self.trace.record(self._clock.now, f"{src}->{dst}", "tx", packet)
        data = encode_packet(packet, self.frame_version, self._name_prefixes)
        corrupted = False
        if self._corrupting and (src in self._corrupting or dst in self._corrupting):
            if self._chaos_rng.random() < self.corruption_rate:
                data = corrupt_bytes(data, self._chaos_rng)
                corrupted = True
                self.frames_corrupted += 1
        slow_extra = self._slow_extra(src, dst)
        fault = self._direction_fault(src, dst)
        if fault is None:
            self._send(sock, data, address, slow_extra)
            return
        decision = fault.decide()
        if decision.drop:
            self.frames_dropped += 1
            return
        if decision.corrupt and not corrupted:
            # Real bit flips on the encoded datagram; the codec's CRC32
            # trailer rejects it at the destination, so corruption is
            # observed as loss and retransmission recovers it.
            data = fault.corrupt_payload(data)
            self.frames_corrupted += 1
        self._send(sock, data, address, decision.extra_delay_ns + slow_extra)
        if decision.duplicate:
            self.frames_duplicated += 1
            self._send(sock, data, address, max(1, decision.duplicate_delay_ns) + slow_extra)

    def _send(
        self, sock: socket.socket, data: bytes, address: Tuple[Any, ...], delay_ns: int = 0
    ) -> None:
        """Hand one datagram to the kernel, now or ``delay_ns`` from now —
        unless the rack shut down in between."""
        if delay_ns:
            self._clock.schedule(delay_ns, self._send, sock, data, address)
        elif not self._closed:
            try:
                sock.sendto(data, address)
            except OSError:
                # ``BlockingIOError`` is a full socket buffer; nothing waits
                # for it.  A counted drop, healed by §3.3 retransmission.
                self.socket_errors += 1

    def send_to_switch(self, host: str, packet: AskPacket, size_bytes: int) -> None:
        self._transmit(host, self._host_tor[host], packet)

    # ------------------------------------------------------------------
    # Switch egress: name-level next hops over _transmit (the views)
    # ------------------------------------------------------------------
    def route_from_switch(self, rack: str, destination: str, packet: AskPacket) -> None:
        """Next hop for a packet leaving ``rack``'s leaf switch."""
        me = self._rack_switch[rack]
        if destination in self._switch_rack:
            target_rack = self._switch_rack[destination]
            if target_rack == rack:
                self._transmit(me, me, packet)  # self-addressed loopback
            elif rack in self._rack_spine:
                self._transmit(me, self._rack_spine[rack], packet)
            else:
                self._transmit(me, destination, packet)
            return
        if destination in self._spines:
            self._transmit(me, self._rack_spine[rack], packet)
            return
        if destination not in self._host_rack:
            raise TopologyError(f"unknown destination {destination!r}", destination)
        target_rack = self._host_rack[destination]
        if target_rack == rack:
            self._transmit(me, destination, packet)
        elif rack in self._rack_spine:
            self._transmit(me, self._rack_spine[rack], packet)
        else:
            self._transmit(me, self._rack_switch[target_rack], packet)

    def route_from_spine(self, spine: str, destination: str, packet: AskPacket) -> None:
        """Next hop for a packet leaving ``spine``."""
        if destination == spine:
            self._transmit(spine, spine, packet)
            return
        if destination in self._spines:
            self._transmit(spine, destination, packet)
            return
        if destination in self._switch_rack:
            rack = self._switch_rack[destination]
        else:
            if destination not in self._host_rack:
                raise TopologyError(f"unknown destination {destination!r}", destination)
            rack = self._host_rack[destination]
        target_spine = self._rack_spine[rack]
        if target_spine == spine:
            self._transmit(spine, self._rack_switch[rack], packet)
        else:
            self._transmit(spine, target_spine, packet)

    # ------------------------------------------------------------------
    # Fault injection: network partitions (pure loss, pre-kernel)
    # ------------------------------------------------------------------
    def partition(self, name: str) -> None:
        """Cut ``name`` off the fabric: every datagram to or from it is
        dropped at the transmit hook (counted in :attr:`partition_drops`)
        until :meth:`heal`.  The node itself keeps running."""
        self._partitioned.add(name)

    def heal(self, name: str) -> None:
        self._partitioned.discard(name)

    # ------------------------------------------------------------------
    # Fault injection: gray slowdown windows (chaos "slow"/"revive")
    # ------------------------------------------------------------------
    def _slow_extra(self, src: str, dst: str) -> int:
        """Extra pre-kernel delay for one datagram (0 outside windows).

        Jitter draws come from lazily-created per-direction streams named
        ``{seed}:chaos-slow:{src}->{dst}``, so the draw sequence depends
        only on the chaos seed and that direction's own traffic order —
        the same stable-naming rule the per-direction fault models use.
        """
        if not self._slowed or (
            src not in self._slowed and dst not in self._slowed
        ):
            return 0
        self.frames_slowed += 1
        extra = self.slow_delay_ns
        if self.slow_jitter_ns:
            key = (src, dst)
            rng = self._slow_rngs.get(key)
            if rng is None:
                rng = self._slow_rngs[key] = random.Random(
                    f"{self._slow_seed}:chaos-slow:{src}->{dst}"
                )
            extra += rng.randint(0, self.slow_jitter_ns)
        return extra

    def slow(self, name: str) -> None:
        """Gray failure: datagrams ``name`` sends or receives are delayed
        by :attr:`slow_delay_ns` (plus jitter) until :meth:`revive` — the
        node stays alive, its traffic just arrives late."""
        self._slowed.add(name)

    def revive(self, name: str) -> None:
        self._slowed.discard(name)

    # ------------------------------------------------------------------
    # Fault injection: corruption windows (chaos "corrupt"/"cleanse")
    # ------------------------------------------------------------------
    def corrupt(self, name: str) -> None:
        """Open a corruption window on ``name``: datagrams it sends or
        receives get wire bit flips (with probability
        :attr:`corruption_rate`) until :meth:`cleanse`."""
        self._corrupting.add(name)

    def cleanse(self, name: str) -> None:
        self._corrupting.discard(name)

    @property
    def corruption_injected(self) -> int:
        """Corrupted datagrams handed to the kernel (fault-model draws
        plus chaos windows)."""
        return self.frames_corrupted

    # ------------------------------------------------------------------
    def pending_snapshot(self) -> Dict[str, int]:
        """Per-node count of unacked sender window entries (diagnostics
        for :class:`~repro.core.errors.FabricTimeoutError`).  The fabric
        holds no frames itself, and datagrams still waiting in a kernel
        socket buffer are invisible to it, so this is all there is."""
        snapshot: Dict[str, int] = {}
        for name, endpoint in self._endpoints.items():
            channels = getattr(endpoint.node, "channels", ())
            pending = sum(channel.window.in_flight for channel in channels)
            if pending:
                snapshot[name] = pending
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
