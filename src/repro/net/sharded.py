"""Conservative parallel discrete-event simulation over rack shards.

A sharded run cuts a :class:`~repro.net.multirack.MultiRackTopology` along
rack boundaries (:class:`~repro.net.multirack.ShardPlan`) and executes one
:class:`~repro.net.simulator.Simulator` per shard — each in its own forked
process, or in-process for tests — synchronized with the classic
conservative-window barrier of parallel DES:

lookahead
    ``L`` = the minimum latency over all links whose endpoints live in
    different shards (:func:`cross_shard_lookahead`).  A cross-shard
    packet pushed at simulated time ``p`` arrives no earlier than
    ``p + L``; a zero-latency cross-shard link would collapse the window
    to nothing and is rejected up front.

safe horizon
    Each round the coordinator collects every shard's earliest pending
    event time and the arrival times of not-yet-delivered cross-shard
    messages; with global minimum ``m``, every message any shard can emit
    this round arrives at ``>= m + L``, so all events strictly below
    ``H = m + L`` are safe to execute without hearing from other shards.
    Shards drain to the *exclusive* horizon (``drain_until``), leaving
    ``now == H - 1`` — strictly below every future arrival, which keeps
    the heap-merge injection legal at the next barrier.

determinism
    The whole point of the exercise is that sharded output is
    **byte-identical** to serial, not merely statistically equivalent.
    Three mechanisms carry that guarantee:

    * every shard builds the *full* deployment replica in the same
      construction order, so node/link names — and therefore the
      name-derived per-link fault RNG streams — are identical everywhere;
    * order tickets become shard-composite
      (:meth:`~repro.net.simulator.Simulator.enable_shard_order`), so an
      injected remote delivery lands in the destination heap exactly
      where the serial run's ``call_at`` push would have put it — and the
      serial oracle itself runs the *canonical* schedule
      (:meth:`~repro.net.simulator.Simulator.enable_serial_shard_order`
      plus :func:`attach_serial_boundaries`), so the ``(time, rank,
      seq)`` ticket defines same-instant order on both sides instead of
      the plain counter's causal-path order, which no shard can know;
    * a boundary link keeps *all* of its state (FIFO serialization, ECN,
      fault draws, counters) on the owning source shard — only the final
      "deliver packet at t" edge crosses the cut, as a frame stamped with
      the sender-claimed ticket (:class:`_OutboxSim`).  Packets are never
      mutated after construction, so in-process shards hand the object
      itself over and forked ones its pickle.

the cut is crossed once
    The boundary proxy appends into the outbox of its link's
    *destination* shard, so a window's output is one :class:`Batch` per
    destination.  The coordinator reads the batch header only
    (destination, earliest arrival, count) and forwards the payload
    unopened: the message list itself between in-process shards, or that
    list pickled once by the forked worker that emitted it and unpickled
    once by the one that injects it.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
import traceback
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple
from typing import Optional, Protocol, Sequence, Tuple, Union, cast

from repro.core.errors import TopologyError
from repro.net.link import Link
from repro.net.multirack import MultiRackTopology, ShardPlan
from repro.net.simulator import (
    ShardContextCall,
    SimulationError,
    Simulator,
    paused_gc,
)

#: One cross-shard delivery: (arrival_ns, order_ticket, link_name, packet).
#: The ticket was claimed on the sending shard; the link name resolves to
#: the link's far end on the destination shard's replica.
Message = Tuple[int, int, str, Any]

#: What a batch carries: the message list (in-process shards) or its
#: pickle (forked workers).  Only the destination shard looks inside.
Payload = Union[bytes, Sequence[Message]]


class Batch(NamedTuple):
    """One window's messages from one shard to one destination shard;
    the coordinator reads the three header fields only."""

    dest_rank: int
    min_arrival_ns: int
    count: int
    payload: Payload


#: One shard's barrier reply: its batches, its earliest pending event
#: time, and the CPU seconds the window cost it (unpack + run + pack).
WindowReply = Tuple[List[Batch], Optional[int], float]

#: Hard cap on synchronization rounds — a runaway-loop backstop far above
#: any real scenario (every round advances the global clock by >= 1 ns).
MAX_WINDOWS = 50_000_000


class ShardContext(Protocol):
    """What a shard factory returns: one fully-built deployment replica.

    ``sim`` is the shard's simulator (shard ordering already enabled),
    ``inbound`` maps cross-shard link names to local delivery callbacks,
    ``outbox`` accumulates this window's outgoing messages per
    destination shard rank, and ``finish()`` renders the shard's
    deterministic result payload once the run is complete.
    """

    sim: Simulator
    inbound: Dict[str, Callable[[Any], None]]
    outbox: Dict[int, List[Message]]

    def finish(self) -> Any: ...


class _OutboxSim:
    """Scheduling proxy installed as a boundary link's ``sim``.

    A boundary :class:`~repro.net.link.Link` touches its simulator in
    exactly two ways — ``sim.now`` (serialization/ECN bookkeeping) and
    ``sim.call_at(arrival, deliver, packet)`` (the delivery push); it has
    no packets-per-second cap, which only host uplinks carry.  The proxy
    delegates ``now`` to the real shard simulator and converts the
    delivery push into a message in the destination shard's outbox,
    stamped with an order ticket claimed from the real simulator (the
    same ticket the serial run's ``call_at`` would have consumed).  The
    ``deliver`` callback is dropped on purpose: it points at this shard's
    replica of the destination node; the destination *shard* re-resolves
    the link name to its own replica's far end.
    """

    __slots__ = ("_sim", "_link_name", "_outbox")

    def __init__(self, sim: Simulator, link_name: str, outbox: List[Message]) -> None:
        self._sim = sim
        self._link_name = link_name
        self._outbox = outbox

    @property
    def now(self) -> int:
        return self._sim.now

    def call_at(
        self, time_ns: int, deliver: Callable[..., Any], packet: Any
    ) -> None:
        ticket = self._sim.claim_shard_ticket()
        self._outbox.append((int(time_ns), ticket, self._link_name, packet))


class _SerialBoundarySim:
    """Boundary-link ``sim`` stand-in for the canonical serial oracle.

    The serial run keeps every delivery local (no outbox), but re-homes
    it across the cut: the push claims its ticket under the *source*
    shard's context — exactly the ticket :class:`_OutboxSim` stamps on a
    real cross-shard message — while the callback runs under the
    *destination* shard's context, mirroring the replica handoff of a
    sharded run.  Requires
    :meth:`~repro.net.simulator.Simulator.enable_serial_shard_order`.
    """

    __slots__ = ("_sim", "_dest_rank")

    def __init__(self, sim: Simulator, dest_rank: int) -> None:
        self._sim = sim
        self._dest_rank = dest_rank

    @property
    def now(self) -> int:
        return self._sim.now

    def call_at(
        self, time_ns: int, deliver: Callable[..., Any], packet: Any
    ) -> None:
        self._sim.call_at(
            time_ns, ShardContextCall(self._sim, self._dest_rank, deliver), packet
        )


def _cut_links(
    topology: MultiRackTopology, plan: ShardPlan
) -> Iterator[Tuple[str, int, int, Link]]:
    """Every link crossing the shard cut as ``(name, src_rank, dst_rank,
    link)``, in the registry's interconnect order."""
    for name, src, dst, link in topology.interconnect_links():
        src_rank, dst_rank = plan.rank_of(src), plan.rank_of(dst)
        if src_rank != dst_rank:
            yield name, src_rank, dst_rank, link


def attach_serial_boundaries(
    topology: MultiRackTopology, plan: ShardPlan, sim: Simulator
) -> None:
    """Wire the serial oracle's cross-shard links for canonical ordering.

    Call after :meth:`Simulator.enable_serial_shard_order`: every link
    crossing the shard cut then schedules its deliveries with
    source-context tickets and destination-context execution, keeping the
    serial schedule aligned with the sharded replicas' handoff points.
    """
    plan.validate(topology)
    for _name, _src_rank, dst_rank, link in _cut_links(topology, plan):
        link.sim = _SerialBoundarySim(topology.sim, dst_rank)


def cross_shard_lookahead(
    topology: MultiRackTopology, plan: ShardPlan
) -> Optional[int]:
    """Minimum latency over links crossing the shard cut, or ``None`` when
    no link crosses (single shard / disjoint islands).

    Raises a tagged :class:`TopologyError` for a zero-latency cross-shard
    link — conservative windows need at least 1 ns of lookahead.
    """
    lookahead: Optional[int] = None
    for name, _src_rank, _dst_rank, link in _cut_links(topology, plan):
        latency = int(link.latency_ns)
        if latency < 1:
            raise TopologyError(
                f"cross-shard link {name!r} has zero latency; conservative "
                "windows need lookahead >= 1 ns",
                name,
            )
        lookahead = latency if lookahead is None else min(lookahead, latency)
    return lookahead


def cross_shard_routes(topology: MultiRackTopology, plan: ShardPlan) -> Dict[str, int]:
    """Map each cross-shard link name to its destination shard rank."""
    return {name: dst_rank for name, _src_rank, dst_rank, _link in _cut_links(topology, plan)}


def attach_boundaries(
    topology: MultiRackTopology,
    plan: ShardPlan,
    rank: int,
    outbox: Dict[int, List[Message]],
) -> Dict[str, Callable[[Any], None]]:
    """Wire shard ``rank``'s replica for cross-shard traffic.

    Every cross-shard link whose *source* endpoint this shard owns gets
    the :class:`_OutboxSim` proxy (the link itself — serialization state,
    fault stream, counters — stays local), appending into ``outbox``'s
    list for the link's destination rank.  Returns the inbound map for
    links whose *destination* is local: link name → the link's far end
    on this replica.
    """
    plan.validate(topology)
    inbound: Dict[str, Callable[[Any], None]] = {}
    for name, src_rank, dst_rank, link in _cut_links(topology, plan):
        if src_rank == rank:
            link.sim = _OutboxSim(topology.sim, name, outbox.setdefault(dst_rank, []))
        if dst_rank == rank:
            inbound[name] = link.deliver
    return inbound


def run_window(
    ctx: ShardContext, horizon_ns: Optional[int], inbound: Iterable[Sequence[Message]]
) -> Tuple[List[Batch], Optional[int]]:
    """One conservative window on one shard: inject, drain, report.

    Injects this window's inbound cross-shard messages (each strictly
    beyond ``now`` by the horizon invariant), drains to the exclusive
    horizon (or fully, when ``horizon_ns`` is None — the no-cross-links
    case), and returns ``(batches, next_event_time)``: the outboxes as
    :func:`attach_boundaries` grouped them, one batch per destination.
    """
    sim = ctx.sim
    receivers = ctx.inbound
    for messages in inbound:
        for arrival, ticket, link_name, frame in messages:
            sim.inject(arrival, ticket, receivers[link_name], frame)
    if horizon_ns is None:
        sim.run()
    else:
        sim.drain_until(horizon_ns)
    batches: List[Batch] = []
    for dest_rank, outbox in ctx.outbox.items():
        if outbox:
            earliest = min(message[0] for message in outbox)
            batches.append(Batch(dest_rank, earliest, len(outbox), list(outbox)))
            outbox.clear()  # in place: the boundary proxies hold this list
    return batches, sim.next_event_time()


# ----------------------------------------------------------------------
# Shard handles: one replica each, in-process or forked
# ----------------------------------------------------------------------
class InProcessShard:
    """A shard living in the coordinator's process.

    The reference execution mode: no fork, no pipes, fully steppable
    under a debugger, and what the hypothesis property drives (thousands
    of examples would be far too slow with per-example process spawns).
    Speaks the same batch protocol as :class:`ProcessShard`; its payloads
    are the message lists themselves.
    """

    def __init__(self, factory: Callable[[int], ShardContext], rank: int) -> None:
        self._ctx = factory(rank)
        self._reply: Optional[WindowReply] = None

    def next_time(self) -> Optional[int]:
        return self._ctx.sim.next_event_time()

    def send_window(self, horizon_ns: Optional[int], payloads: Sequence[Payload]) -> None:
        start = time.process_time()
        messages = cast(Sequence[Sequence[Message]], payloads)
        batches, next_time = run_window(self._ctx, horizon_ns, messages)
        self._reply = (batches, next_time, time.process_time() - start)

    def recv_window(self) -> WindowReply:
        assert self._reply is not None
        reply, self._reply = self._reply, None
        return reply

    def finish(self) -> Any:
        return self._ctx.finish()

    def close(self) -> None:
        pass


def _shard_worker(
    conn: Any, factory: Callable[[int], ShardContext], rank: int
) -> None:
    """Child-process loop: build the replica, then serve barrier commands
    — the one place a cross-shard message is pickled or unpickled.

    Runs with the cyclic GC paused (:func:`~repro.net.simulator.paused_gc`)
    — the child exists only to serve this loop, so the deferred collection
    simply never happens before exit."""
    try:
        with paused_gc():
            ctx = factory(rank)
            conn.send(("ready", ctx.sim.next_event_time()))
            while True:
                cmd, payload = conn.recv()
                if cmd == "window":
                    start = time.process_time()
                    horizon_ns, blobs = payload
                    batches, next_time = run_window(
                        ctx, horizon_ns, map(pickle.loads, blobs)
                    )
                    packed = [
                        b._replace(payload=pickle.dumps(b.payload, pickle.HIGHEST_PROTOCOL))
                        for b in batches
                    ]
                    conn.send(("window", (packed, next_time, time.process_time() - start)))
                elif cmd == "finish":
                    conn.send(("finish", ctx.finish()))
                elif cmd == "exit":
                    return
                else:  # pragma: no cover - protocol bug guard
                    raise SimulationError(f"unknown shard command {cmd!r}")
    except BaseException as exc:  # noqa: BLE001 - ship the error to the parent
        try:
            conn.send(
                ("error", f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")
            )
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()


class ProcessShard:
    """A shard in its own forked process, spoken to over a pipe.

    Fork is required (and available on every platform the simulator
    targets): the shard factory is a closure over live topology-building
    code and rides into the child by inheritance, never pickling.  Only
    :class:`Batch` headers with ``bytes`` payloads and the shard's
    ``finish()`` payload cross the pipe.  :meth:`start_all` is the one
    way to start a set of them.
    """

    def __init__(self, factory: Callable[[int], ShardContext], rank: int) -> None:
        """Fork the worker; it is not ready until :meth:`start_all` has
        collected its ``ready`` reply."""
        ctx = mp.get_context("fork")
        parent, child = ctx.Pipe()
        self._rank = rank
        self._conn = parent
        self._next: Optional[int] = None
        self._proc = ctx.Process(
            target=_shard_worker, args=(child, factory, rank), daemon=True
        )
        self._proc.start()
        child.close()

    @classmethod
    def start_all(
        cls, factory: Callable[[int], ShardContext], count: int
    ) -> List["ProcessShard"]:
        """Fork ``count`` workers, then wait for each to report ready, so
        the replicas build side by side instead of one after another.  If
        any worker fails to come up, every worker already forked is reaped
        before the error propagates."""
        shards: List[ProcessShard] = []
        try:
            for rank in range(count):
                shards.append(cls(factory, rank))
            for shard in shards:
                shard._next = shard._expect("ready")
        except BaseException:
            for shard in shards:
                shard.close()
            raise
        return shards

    def _exited(self, want: str) -> SimulationError:
        """Reap a worker that is gone; the tagged error to raise for it."""
        self._proc.join(timeout=10)
        return SimulationError(
            f"shard {self._rank} worker exited with code "
            f"{self._proc.exitcode} before replying to {want!r}"
        )

    def _send(self, cmd: str, payload: Any) -> None:
        """Send one command; ``cmd`` is also the reply tag it expects."""
        try:
            self._conn.send((cmd, payload))
            return
        except (BrokenPipeError, ConnectionResetError):
            # Raised below, outside the handler: a chained pipe error would
            # keep the pickled frame's buffer export alive in its traceback.
            pass
        raise self._exited(cmd)

    def _expect(self, want: str) -> Any:
        try:
            tag, payload = self._conn.recv()
        except (EOFError, ConnectionResetError):
            raise self._exited(want) from None
        if tag == "error":
            raise SimulationError(f"shard {self._rank} process failed:\n{payload}")
        if tag != want:  # pragma: no cover - protocol bug guard
            raise SimulationError(f"expected {want!r} from shard, got {tag!r}")
        return payload

    def next_time(self) -> Optional[int]:
        return self._next

    def send_window(self, horizon_ns: Optional[int], payloads: Sequence[Payload]) -> None:
        self._send("window", (horizon_ns, payloads))

    def recv_window(self) -> WindowReply:
        reply: WindowReply = self._expect("window")
        self._next = reply[1]
        return reply

    def finish(self) -> Any:
        self._send("finish", None)
        return self._expect("finish")

    def close(self) -> None:
        try:
            self._conn.send(("exit", None))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
        self._proc.join(timeout=10)
        if self._proc.is_alive():  # pragma: no cover - hung child guard
            self._proc.terminate()
            self._proc.join(timeout=10)
        self._conn.close()


class ShardedSimulator:
    """The conservative-window coordinator.

    Drives N shard handles through synchronization rounds until every
    shard is drained and no cross-shard message remains undelivered, then
    collects each shard's ``finish()`` payload.  It routes :class:`Batch`
    payloads by header and never opens one.

    All pending batches are delivered at every barrier (not only those
    below the new horizon): a message emitted during a window bounded by
    horizon ``H`` carries arrival ``>= H`` by the lookahead argument,
    while every shard sits at ``now == H - 1`` — so arrivals are always
    strictly in each receiver's future and injection never back-dates.
    ``routes`` only feeds the "cross-shard links need a lookahead" guard;
    batches carry their own destination.
    """

    def __init__(
        self,
        handles: Sequence[Any],
        routes: Dict[str, int],
        lookahead_ns: Optional[int],
        max_windows: int = MAX_WINDOWS,
    ) -> None:
        if lookahead_ns is None and len(handles) > 1 and routes:
            raise SimulationError(
                "multi-shard run with cross-shard links needs a lookahead"
            )
        self.handles = list(handles)
        self.lookahead_ns = lookahead_ns
        self.max_windows = max_windows
        self.windows = 0  #: synchronization rounds executed
        self.messages = 0  #: cross-shard messages delivered
        self.worker_cpu_s = 0.0  #: shard CPU over all windows, summed
        self.critical_path_cpu_s = 0.0  #: per-window slowest shard, summed

    def run(self) -> List[Any]:
        with paused_gc():
            return self._run()

    def _run(self) -> List[Any]:
        handles = self.handles
        pending: List[List[Payload]] = [[] for _ in handles]
        arrivals: List[int] = []  # earliest arrival of each pending batch
        nexts: List[Optional[int]] = [h.next_time() for h in handles]
        while True:
            candidates = [t for t in nexts if t is not None]
            candidates.extend(arrivals)
            if not candidates:
                break
            if self.windows >= self.max_windows:
                raise SimulationError(
                    f"sharded run exceeded {self.max_windows} windows"
                )
            self.windows += 1
            horizon: Optional[int] = None
            if self.lookahead_ns is not None:
                horizon = min(candidates) + self.lookahead_ns
            for handle, payloads in zip(handles, pending):
                handle.send_window(horizon, payloads)
            pending = [[] for _ in handles]
            arrivals = []
            slowest = 0.0
            for index, handle in enumerate(handles):
                batches, nexts[index], cpu_s = handle.recv_window()
                self.worker_cpu_s += cpu_s
                slowest = max(slowest, cpu_s)
                for dest_rank, min_arrival_ns, count, payload in batches:
                    pending[dest_rank].append(payload)
                    arrivals.append(min_arrival_ns)
                    # Delivered at the next barrier, which always runs:
                    # a pending arrival keeps the loop alive.
                    self.messages += count
            self.critical_path_cpu_s += slowest
        return [handle.finish() for handle in handles]

    def close(self) -> None:
        for handle in self.handles:
            handle.close()
