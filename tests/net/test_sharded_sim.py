"""Contract tests for the sharded-PDES building blocks.

These pin the *mechanism* contracts the coordinator depends on —
exclusive drain horizons, past-time injection rejection, shard-order
tickets, plan validation, lookahead computation — independently of any
deployment.  The serial==sharded end-to-end identity lives in
``tests/runtime/test_sharded_identity.py``.
"""

import gc
import multiprocessing
import os
import signal

import pytest

from repro.core.errors import TopologyError
from repro.net.multirack import MultiRackTopology, ShardPlan, plan_rack_shards
from repro.net.sharded import (
    Batch,
    InProcessShard,
    ProcessShard,
    ShardedSimulator,
    cross_shard_lookahead,
    cross_shard_routes,
)
from repro.net.simulator import (
    ShardContextCall,
    SimulationError,
    Simulator,
    paused_gc,
)
from repro.net.topology import NetworkNode


class Sink(NetworkNode):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


# ----------------------------------------------------------------------
# drain_until: the exclusive safe-horizon bound
# ----------------------------------------------------------------------
def test_drain_until_excludes_event_exactly_at_horizon():
    sim = Simulator()
    fired = []
    sim.call_at(999, fired.append, "below")
    sim.call_at(1000, fired.append, "at-horizon")
    sim.drain_until(1000)
    # The event exactly at the horizon belongs to the NEXT window: a
    # cross-shard message may still arrive at t == horizon.
    assert fired == ["below"]
    assert sim.now == 999
    sim.drain_until(2000)
    assert fired == ["below", "at-horizon"]


def test_drain_until_advances_clock_even_when_idle():
    sim = Simulator()
    sim.drain_until(500)
    assert sim.now == 499
    with pytest.raises(SimulationError):
        sim.drain_until(499)  # horizon must be strictly ahead


# ----------------------------------------------------------------------
# inject: cross-shard message application
# ----------------------------------------------------------------------
def test_inject_rejects_past_and_present_times():
    sim = Simulator()
    sim.call_at(100, lambda: None)
    sim.run()
    assert sim.now == 100
    with pytest.raises(SimulationError):
        sim.inject(100, 0, lambda: None)
    with pytest.raises(SimulationError):
        sim.inject(50, 0, lambda: None)


def test_inject_preserves_sender_ticket_order():
    sim = Simulator()
    fired = []
    # Same arrival instant, tickets in reverse submission order: the
    # heap must replay ticket order, not injection order.
    sim.inject(10, 2, fired.append, "second")
    sim.inject(10, 1, fired.append, "first")
    sim.run()
    assert fired == ["first", "second"]


def test_injected_message_at_exact_horizon_runs_next_window():
    # The coordinator invariant: after drain_until(H) every shard sits at
    # now == H-1, so a message with arrival == H is still injectable and
    # runs in the following window.
    sim = Simulator()
    fired = []
    sim.drain_until(1000)
    sim.inject(1000, 0, fired.append, "boundary")
    sim.drain_until(1001)
    assert fired == ["boundary"]


def test_next_event_time_sees_heap_and_injected_events():
    sim = Simulator()
    assert sim.next_event_time() is None
    sim.call_at(500, lambda: None)
    assert sim.next_event_time() == 500
    sim.inject(300, 0, lambda: None)
    assert sim.next_event_time() == 300


# ----------------------------------------------------------------------
# Shard-order tickets
# ----------------------------------------------------------------------
def test_shard_tickets_order_by_time_then_rank_then_seq():
    def ticket(rank):
        sim = Simulator()
        sim.enable_shard_order(rank)
        return sim.claim_shard_ticket()

    t_rank0, t_rank1 = ticket(0), ticket(1)
    assert t_rank0 < t_rank1  # same time, same seq: rank breaks the tie

    sim = Simulator()
    sim.enable_shard_order(3)
    first = sim.claim_shard_ticket()
    second = sim.claim_shard_ticket()
    assert first < second  # same time and rank: sequence breaks the tie

    late = Simulator()
    late.enable_shard_order(0)
    late.call_at(1000, lambda: None)
    late.run()
    assert late.claim_shard_ticket() > t_rank1  # time dominates rank


def test_enable_shard_order_rejects_oversized_rank():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.enable_shard_order(1 << 16)


def test_serial_shard_order_context_follows_event_ownership():
    # The canonical serial schedule: a callback scheduled under context R
    # claims context-R tickets for everything *it* schedules, however
    # deep the chain — mirroring which shard replica would own the event.
    sim = Simulator()
    sim.enable_serial_shard_order()
    claimed = []

    def leaf():
        claimed.append(sim.claim_shard_ticket())

    def from_rank(rank):
        sim.set_shard_context(rank)
        sim.call_at(10, leaf)

    from_rank(2)
    from_rank(1)
    sim.run()

    def rank_of(ticket):
        return (ticket >> 48) & 0xFFFF

    # Both leaves fired at time 10; each inherited its scheduler's rank.
    assert [rank_of(t) for t in sorted(claimed)] == [1, 2]


def test_serial_shard_context_rejects_oversized_rank():
    sim = Simulator()
    sim.enable_serial_shard_order()
    with pytest.raises(SimulationError):
        sim.set_shard_context(1 << 16)


def test_shard_context_call_restores_its_rank():
    sim = Simulator()
    sim.enable_serial_shard_order()
    seen = []
    call = ShardContextCall(sim, 7, lambda: seen.append(sim.claim_shard_ticket()))
    sim.set_shard_context(3)
    call()
    assert (seen[0] >> 48) & 0xFFFF == 7


def test_paused_gc_restores_collector_state():
    assert gc.isenabled()
    with paused_gc():
        assert not gc.isenabled()
        with paused_gc():  # nested: inner exit must not re-enable early
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()

    gc.disable()
    try:
        with paused_gc():
            assert not gc.isenabled()
        assert not gc.isenabled()  # disabled-on-entry stays disabled
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# ShardPlan validation
# ----------------------------------------------------------------------
def test_shard_plan_rejects_duplicate_shard_names():
    with pytest.raises(TopologyError) as excinfo:
        ShardPlan([("s0", ["r0"], []), ("s0", ["r1"], [])])
    assert excinfo.value.name == "s0"


def test_shard_plan_rejects_doubly_assigned_rack():
    with pytest.raises(TopologyError) as excinfo:
        ShardPlan([("s0", ["r0"], []), ("s1", ["r0"], [])])
    assert excinfo.value.name == "r0"


def test_shard_plan_validate_requires_exact_rack_coverage():
    sim = Simulator()
    topo = MultiRackTopology(sim, bandwidth_gbps=None)
    topo.add_rack("r0", Sink("tor-r0"))
    topo.add_rack("r1", Sink("tor-r1"))
    ShardPlan([("s0", ["r0"], []), ("s1", ["r1"], [])]).validate(topo)
    with pytest.raises(TopologyError):
        ShardPlan([("s0", ["r0"], [])]).validate(topo)  # r1 uncovered
    with pytest.raises(TopologyError):
        ShardPlan(
            [("s0", ["r0"], []), ("s1", ["r1", "r2"], [])]
        ).validate(topo)  # r2 unknown


def test_plan_rack_shards_balanced_contiguous_cut():
    plan = plan_rack_shards([f"r{i}" for i in range(5)], 2)
    assert plan.names == ["shard0", "shard1"]
    assert [plan.rank_of_rack(f"r{i}") for i in range(5)] == [0, 0, 0, 1, 1]
    with pytest.raises(TopologyError):
        plan_rack_shards(["r0"], 2)  # more shards than racks


def test_plan_rack_shards_spreads_spines_round_robin():
    racks = [f"r{i}" for i in range(4)]
    spine_of = {rack: f"spine-p{i}" for i, rack in enumerate(racks)}
    follow = plan_rack_shards(racks, 2, spine_of=spine_of)
    assert [follow.rank_of_spine(f"spine-p{i}") for i in range(4)] == [0, 0, 1, 1]
    spread = plan_rack_shards(racks, 2, spine_of=spine_of, spread_spines=True)
    assert [spread.rank_of_spine(f"spine-p{i}") for i in range(4)] == [0, 1, 0, 1]


# ----------------------------------------------------------------------
# Lookahead and routes
# ----------------------------------------------------------------------
def _two_rack_mesh(core_latency_ns):
    topo = MultiRackTopology(
        Simulator(), bandwidth_gbps=None, core_latency_ns=core_latency_ns
    )
    topo.add_rack("r0", Sink("tor-r0"))
    topo.add_rack("r1", Sink("tor-r1"))
    return topo


def test_cross_shard_lookahead_is_min_cross_link_latency():
    plan = ShardPlan([("s0", ["r0"], []), ("s1", ["r1"], [])])
    assert cross_shard_lookahead(_two_rack_mesh(7_500), plan) == 7_500


def test_zero_latency_cross_shard_link_is_rejected():
    plan = ShardPlan([("s0", ["r0"], []), ("s1", ["r1"], [])])
    with pytest.raises(TopologyError) as excinfo:
        cross_shard_lookahead(_two_rack_mesh(0), plan)
    assert "lookahead" in str(excinfo.value)


def test_intra_shard_links_yield_no_lookahead_constraint():
    # Both racks in one shard: no cross link, so no window bound at all.
    plan = ShardPlan([("s0", ["r0", "r1"], [])])
    assert cross_shard_lookahead(_two_rack_mesh(2_000), plan) is None
    assert cross_shard_routes(_two_rack_mesh(2_000), plan) == {}


def test_cross_shard_routes_map_links_to_destination_rank():
    plan = ShardPlan([("s0", ["r0"], []), ("s1", ["r1"], [])])
    routes = cross_shard_routes(_two_rack_mesh(2_000), plan)
    assert routes == {"core:r0->r1": 1, "core:r1->r0": 0}


# ----------------------------------------------------------------------
# Coordinator loop over bare simulators
# ----------------------------------------------------------------------
class _BareShard:
    """Minimal ShardContext: one simulator, no deployment."""

    def __init__(self, sim):
        self.sim = sim
        self.inbound = {}
        self.outbox = {}

    def finish(self):
        return self.sim.events_processed


def test_coordinator_drains_independent_shards_to_quiescence():
    def factory(rank):
        sim = Simulator()
        sim.enable_shard_order(rank)
        for t in (100, 250, 400 + rank):
            sim.call_at(t, lambda: None)
        return _BareShard(sim)

    handles = [InProcessShard(factory, rank) for rank in range(2)]
    coordinator = ShardedSimulator(handles, routes={}, lookahead_ns=50)
    try:
        payloads = coordinator.run()
    finally:
        coordinator.close()
    assert payloads == [3, 3]
    assert coordinator.windows >= 1
    assert coordinator.messages == 0


def test_coordinator_requires_lookahead_when_routes_exist():
    handles = [
        InProcessShard(lambda rank: _BareShard(Simulator()), rank)
        for rank in range(2)
    ]
    with pytest.raises(SimulationError):
        ShardedSimulator(handles, routes={"core:r0->r1": 1}, lookahead_ns=None)
    for handle in handles:
        handle.close()


# ----------------------------------------------------------------------
# The coordinator routes batches by header and never opens a payload
# ----------------------------------------------------------------------
class _Sealed:
    """A payload that fails the test if anything looks inside it."""

    __slots__ = ()

    def _opened(self, *args):
        raise AssertionError("the coordinator opened a batch payload")

    __iter__ = __len__ = __getattr__ = __reduce__ = __reduce_ex__ = _opened


class _ScriptedShard:
    """A handle that replays canned window replies and records what the
    coordinator sent it."""

    def __init__(self, first_event, replies):
        self._next = first_event
        self._replies = list(replies)
        self.sent = []

    def next_time(self):
        return self._next

    def send_window(self, horizon_ns, payloads):
        self.sent.append((horizon_ns, list(payloads)))

    def recv_window(self):
        return self._replies.pop(0)

    def finish(self):
        return len(self.sent)

    def close(self):
        pass


def test_coordinator_routes_sealed_payloads_by_header_alone():
    a, b, c, d = _Sealed(), _Sealed(), _Sealed(), _Sealed()
    handles = [
        # Window 1 emits to two different destinations at once.
        _ScriptedShard(1_000, [
            ([Batch(1, 1_500, 3, a), Batch(2, 1_300, 2, b)], None, 0.25),
            ([], None, 0.0),
            ([], None, 0.0),
        ]),
        _ScriptedShard(None, [
            ([], None, 0.5),
            ([Batch(2, 1_450, 1, c)], None, 0.25),
            ([], None, 0.125),
        ]),
        _ScriptedShard(None, [
            ([], 5_000, 0.125),
            ([Batch(1, 1_600, 4, d)], 5_000, 0.75),
            ([], None, 0.5),
        ]),
    ]
    coordinator = ShardedSimulator(
        handles, routes={"core:r0->r1": 1}, lookahead_ns=100
    )
    assert coordinator.run() == [3, 3, 3]
    # Horizons: first event, then the earliest pending batch arrival
    # (1300 beats shard 2's own 5000), then 1450 — each plus lookahead.
    assert [h for h, _ in handles[0].sent] == [1_100, 1_400, 1_550]
    sent = [[payloads for _, payloads in handle.sent] for handle in handles]
    assert sent[0] == [[], [], []]
    assert sent[1] == [[], [a], [d]] and sent[1][1][0] is a
    assert sent[2] == [[], [b], [c]] and sent[2][1][0] is b
    assert coordinator.windows == 3
    assert coordinator.messages == 3 + 2 + 1 + 4
    assert coordinator.worker_cpu_s == 0.875 + 1.0 + 0.625
    assert coordinator.critical_path_cpu_s == 0.5 + 0.75 + 0.5


# ----------------------------------------------------------------------
# A worker that dies without a word
# ----------------------------------------------------------------------
def _die(code):
    os._exit(code)  # no "error" reply, no cleanup: what a kill/OOM looks like


def test_worker_dying_before_ready_is_a_tagged_error_and_is_reaped():
    with pytest.raises(SimulationError) as excinfo:
        ProcessShard.start_all(lambda rank: _die(3), 1)
    assert str(excinfo.value) == (
        "shard 0 worker exited with code 3 before replying to 'ready'"
    )
    assert multiprocessing.active_children() == []


def test_start_all_forks_every_worker_before_waiting_for_ready():
    # Shard 0 can only finish building once shard 1 exists: a start that
    # waited for each ready before forking the next would time out here.
    forked = multiprocessing.get_context("fork").Event()

    def factory(rank):
        if rank == 1:
            forked.set()
        elif not forked.wait(timeout=10):
            raise RuntimeError("shard 0 was built before shard 1 was forked")
        sim = Simulator()
        sim.enable_shard_order(rank)
        sim.call_at(100 + rank, lambda: None)
        return _BareShard(sim)

    handles = ProcessShard.start_all(factory, 2)
    try:
        assert [handle.next_time() for handle in handles] == [100, 101]
    finally:
        for handle in handles:
            handle.close()
    assert multiprocessing.active_children() == []


def test_start_all_reaps_every_started_worker_when_one_fails_to_come_up():
    def factory(rank):
        if rank == 1:
            _die(3)
        return _BareShard(Simulator())

    with pytest.raises(SimulationError) as excinfo:
        ProcessShard.start_all(factory, 3)
    assert str(excinfo.value) == (
        "shard 1 worker exited with code 3 before replying to 'ready'"
    )
    assert multiprocessing.active_children() == []


def test_worker_dying_mid_window_is_a_tagged_error_and_is_reaped():
    def factory(rank):
        sim = Simulator()
        sim.enable_shard_order(rank)
        sim.call_at(100, (lambda: _die(4)) if rank == 1 else (lambda: None))
        return _BareShard(sim)

    handles = ProcessShard.start_all(factory, 2)
    coordinator = ShardedSimulator(handles, routes={}, lookahead_ns=50)
    try:
        with pytest.raises(SimulationError) as excinfo:
            coordinator.run()
    finally:
        coordinator.close()
    assert str(excinfo.value) == (
        "shard 1 worker exited with code 4 before replying to 'window'"
    )
    assert multiprocessing.active_children() == []


def test_worker_killed_between_windows_is_a_tagged_error_and_is_reaped():
    """A worker killed after answering one window is found dead by the
    next command the coordinator sends it, not by a later reply."""

    def factory(rank):
        sim = Simulator()
        sim.enable_shard_order(rank)
        for t in (100, 300):
            sim.call_at(t, lambda: None)
        return _BareShard(sim)

    handles = ProcessShard.start_all(factory, 2)
    victim = handles[1]
    recv_window = victim.recv_window

    def recv_then_killed():
        reply = recv_window()
        os.kill(victim._proc.pid, signal.SIGKILL)
        victim._proc.join(timeout=10)  # gone before the next send
        assert not victim._proc.is_alive()
        return reply

    victim.recv_window = recv_then_killed
    coordinator = ShardedSimulator(handles, routes={}, lookahead_ns=50)
    try:
        with pytest.raises(SimulationError) as excinfo:
            coordinator.run()
    finally:
        coordinator.close()
    assert str(excinfo.value) == (
        f"shard 1 worker exited with code {-signal.SIGKILL} before replying to 'window'"
    )
    assert coordinator.windows == 2
    assert multiprocessing.active_children() == []
