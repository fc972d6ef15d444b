"""The asyncio backend: real localhost UDP under the unchanged protocol.

These tests move actual datagrams between sockets, so they use the
2 ms retransmission timeout (the paper's 100 µs is calibrated against
simulated links, not Python wall-clock scheduling).
"""

import dataclasses
import socket
import time
import traceback

import pytest

from repro.core.config import AskConfig
from repro.core.packet import AskPacket, PacketFlag
from repro.core.results import reference_aggregate
from repro.core.robustness import RobustnessCounters
from repro.core.service import AskService
from repro.net.fault import FaultModel
from repro.runtime import AsyncioFabric
from repro.runtime.asyncio_fabric import RX_BURST, SLOW_HOLD_NS
from repro.runtime.codec import encode_packet


def realtime_config(**overrides):
    return dataclasses.replace(
        AskConfig.small(), retransmit_timeout_us=2000, **overrides
    )


class RecordingNode:
    """A fabric node that only remembers what reached ``receive``."""

    def __init__(self, name, log=None):
        self.name = name
        self.received = []
        self.robustness = RobustnessCounters()
        self._log = log if log is not None else []

    def receive(self, packet):
        self.received.append(packet)
        self._log.append(self.name)


def stub_rack(*hosts):
    """A started one-rack fabric over stub nodes: ``(fabric, {name: node})``.
    The switch stub keeps the view it was bound to as ``.view``."""
    fabric = AsyncioFabric()
    nodes = {"switch": RecordingNode("switch")}
    nodes["switch"].view = fabric.install_switch(nodes["switch"], "r0")
    for host in hosts:
        nodes[host.name] = host
        fabric.attach_host(host, "r0")
    fabric.start()
    return fabric, nodes


def dropped(fabric):
    """Frames the links' fault streams dropped, over the registry."""
    return fabric.topology.link_total("packets_dropped")


def frame_for(dst, seq=0):
    return encode_packet(AskPacket(PacketFlag.ACK, 1, "switch", dst, 0, seq))


def test_exactly_once_over_real_udp_with_loss():
    """The acceptance bar: end-to-end exact aggregation across real
    localhost UDP sockets while the fabric injects loss and duplication —
    the reliability layer heals everything, no tuple lost or doubled."""
    service = AskService(
        realtime_config(),
        hosts=3,
        fault=FaultModel(loss_rate=0.08, duplicate_rate=0.05, seed=11),
        backend="asyncio",
    )
    try:
        streams = {
            "h0": [(b"key%d" % (i % 9), i + 1) for i in range(300)],
            "h1": [(b"key%d" % (i % 6), 2 * i) for i in range(300)],
        }
        result = service.aggregate(streams, receiver="h2")
        expected = reference_aggregate(
            {h: list(s) for h, s in streams.items()}, service.config.value_mask
        )
        assert result.values == expected
        # What must hold on any schedule (how many drops a retransmission
        # happens to cover depends on the order timers and datagrams wake).
        fabric, stats = service.fabric, result.stats
        assert dropped(fabric) > 0  # loss actually happened ...
        assert stats.retransmissions > 0  # ... and was healed by resending
        assert fabric.malformed_frames == 0 and fabric.socket_errors == 0
        # Every sender transmission is one frame handed to the fabric
        # (first sends, FINs, resends); every data packet was also ACKed
        # by at least one frame that was not dropped.
        sender_frames = sum(d.sender_packets() for d in service.daemons.values())
        assert sender_frames > stats.data_packets_sent + stats.retransmissions
        assert fabric.frames_sent >= sender_frames + stats.data_packets_sent
        assert dropped(fabric) < fabric.frames_sent
    finally:
        service.close()


def test_clean_fabric_runs_without_retransmissions_mattering():
    service = AskService(realtime_config(), hosts=2, backend="asyncio")
    try:
        result = service.aggregate({"h0": [(b"cat", 1), (b"cat", 2)]}, receiver="h1")
        assert result.values == {b"cat": 3}
        assert dropped(service.fabric) == 0
    finally:
        service.close()


def test_streaming_session_on_udp():
    service = AskService(realtime_config(), hosts=2, backend="asyncio")
    try:
        session = service.open_stream(["h0"], receiver="h1")
        session.feed("h0", [(b"cpu", 97)])
        service.run()  # one wall-clock slice delivers what's in flight
        session.feed("h0", [(b"cpu", 3)])
        session.close()
        service.run_to_completion(timeout_s=20.0)
        assert session.result is not None
        assert session.result[b"cpu"] == 100
    finally:
        service.close()


def test_ports_are_distinct_and_real():
    service = AskService(realtime_config(), hosts=3, backend="asyncio")
    try:
        service.fabric.start()
        names = [service.switch.name, *service.hosts]
        ports = [service.fabric.port_of(n) for n in names]
        assert all(isinstance(p, int) and p > 0 for p in ports)
        assert len(set(ports)) == len(ports)  # one socket per node
    finally:
        service.close()


def test_sim_only_surfaces_raise_on_asyncio():
    service = AskService(realtime_config(), hosts=2, backend="asyncio")
    try:
        with pytest.raises(AttributeError, match="simulator"):
            service.sim
        # The topology and its link registry are the same on both backends.
        assert service.topology is service.fabric.topology
        assert [name for name, *_ in service.topology.links()] == [
            "h0->switch", "switch->h0", "h1->switch", "switch->h1",
        ]
    finally:
        service.close()


def test_stray_datagrams_are_counted_not_fatal():
    """A foreign UDP sender cannot crash a serving rack (§3.3 robustness:
    malformed frames are counted and dropped at the codec)."""
    import socket

    service = AskService(realtime_config(), hosts=2, backend="asyncio")
    try:
        service.fabric.start()
        port = service.fabric.port_of("h0")
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.sendto(b"not an ask frame", ("127.0.0.1", port))
            sock.sendto(b"", ("127.0.0.1", port))
        service.run()  # drain one slice
        assert service.fabric.malformed_frames == 2
        result = service.aggregate({"h0": [(b"ok", 1)]}, receiver="h1")
        assert result.values == {b"ok": 1}
    finally:
        service.close()


def test_empty_and_truncated_datagrams_count_per_reason_drops():
    """An empty datagram, a truncated header, a corrupt trailer and a
    foreign magic must each be counted under their codec reason at the
    receiving node — and none of them may reach it or stop the drain."""
    host = RecordingNode("h0")
    fabric, _ = stub_rack(host)
    try:
        address = ("127.0.0.1", fabric.port_of("h0"))
        frame = frame_for("h0")
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.sendto(b"", address)  # empty: shorter than the header
            sock.sendto(frame[:5], address)  # truncated mid-header
            sock.sendto(frame[:-1] + bytes([frame[-1] ^ 0xFF]), address)  # bad CRC
            sock.sendto(b"\x00" + frame[1:], address)  # wrong magic
            fabric.runner().run()
            assert host.robustness.get("truncated") == 2
            assert host.robustness.get("checksum") == 1
            assert host.robustness.get("magic") == 1
            assert fabric.malformed_frames == 4
            assert host.received == []  # nothing reached the node
            sock.sendto(frame, address)  # a good frame still decodes
            fabric.runner().run()
        assert [packet.seq for packet in host.received] == [0]
        assert fabric.malformed_frames == 4
    finally:
        fabric.close()


def test_raising_node_fails_the_run_instead_of_hanging_it():
    """An exception out of ``node.receive`` must end ``run_until`` with
    that exception, at once — not leave the run spinning until
    ``FabricTimeoutError`` with the cause thrown away."""

    class ThirdFrameRaises(RecordingNode):
        def receive(self, packet):
            super().receive(packet)
            if len(self.received) == 3:
                raise LookupError("no handler for the third frame")

    host = ThirdFrameRaises("h0")
    fabric, nodes = stub_rack(host)
    try:
        for seq in range(5):
            nodes["switch"].view.send_to_host(
                "h0", AskPacket(PacketFlag.ACK, 1, "switch", "h0", 0, seq), 0
            )
        started = time.monotonic()
        with pytest.raises(LookupError, match="third frame") as excinfo:
            fabric.runner().run_until(lambda: len(host.received) == 5, timeout_s=30.0)
        assert time.monotonic() - started < 5.0
        # The original traceback rides along, behind the re-raise site.
        frames = [entry.name for entry in traceback.extract_tb(excinfo.value.__traceback__)]
        assert "run_until" in frames and frames[-2:] == ["drain", "receive"]
        # Raised once; the fabric itself is still usable and the frames
        # behind the bad one are delivered by the next slice.
        fabric.runner().run_until(lambda: len(host.received) == 5, timeout_s=30.0)
        assert [packet.seq for packet in host.received] == [0, 1, 2, 3, 4]
    finally:
        fabric.close()


def test_raising_node_fails_a_plain_run_slice_too():
    class AlwaysRaises(RecordingNode):
        def receive(self, packet):
            raise LookupError("boom")

    fabric, nodes = stub_rack(AlwaysRaises("h0"))
    try:
        nodes["switch"].view.send_to_host(
            "h0", AskPacket(PacketFlag.ACK, 1, "switch", "h0", 0, 0), 0
        )
        started = time.monotonic()
        with pytest.raises(LookupError, match="boom"):
            fabric.runner().run(until=fabric.clock.now + 30_000_000_000)
        assert time.monotonic() - started < 5.0
    finally:
        fabric.close()


def test_raising_timer_fails_the_run_instead_of_hanging_it():
    """A timer callback that raises goes down the same failure path as a
    raising ``receive``: ``run_until`` re-raises it at once instead of
    waiting out its whole budget for ``FabricTimeoutError``."""

    def expire():
        raise RuntimeError("timer callback failed")

    service = AskService(realtime_config(), hosts=2, backend="asyncio")
    try:
        service.clock.call_later(1_000_000, expire)
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="timer callback failed") as excinfo:
            service.runner.run_until(lambda: False, timeout_s=2.0)
        assert time.monotonic() - started < 1.0
        frames = [entry.name for entry in traceback.extract_tb(excinfo.value.__traceback__)]
        assert "run_until" in frames and frames[-1] == "expire"
    finally:
        service.close()


def test_drain_is_bounded_so_a_flooded_socket_shares_the_loop():
    """Several bursts' worth of datagrams wait on one socket while another
    socket has one frame and a timer is due: both are served after at
    most one burst of the flood, not after all of it."""
    log = []
    flooded, quiet = RecordingNode("h0", log), RecordingNode("h1", log)
    fabric, _ = stub_rack(flooded, quiet)
    try:
        flood = 3 * RX_BURST + 5
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            for seq in range(flood):
                sock.sendto(frame_for("h0", seq), ("127.0.0.1", fabric.port_of("h0")))
            sock.sendto(frame_for("h1"), ("127.0.0.1", fabric.port_of("h1")))
        fabric.clock.schedule(0, log.append, "timer")
        fabric.runner().run_until(
            lambda: len(flooded.received) == flood and "timer" in log, timeout_s=30.0
        )
        # Loopback delivery is synchronous, so everything was waiting in
        # the kernel before the loop's first iteration.
        assert [packet.seq for packet in flooded.received] == list(range(flood))
        assert len(quiet.received) == 1
        assert log[: log.index("h1")].count("h0") <= RX_BURST
        assert log[: log.index("timer")].count("h0") <= RX_BURST
    finally:
        fabric.close()


def test_full_send_buffer_is_a_counted_drop_that_retransmission_heals():
    """``sendto`` raising ``BlockingIOError`` (a full socket buffer) drops
    the frame and bumps ``socket_errors``; nothing blocks or raises, and
    the task still completes exactly."""

    class EverySeventhSendBlocks:
        def __init__(self, sock):
            self._sock = sock
            self.calls = 0

        def sendto(self, data, address):
            self.calls += 1
            if self.calls % 7 == 0:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return self._sock.sendto(data, address)

        def __getattr__(self, name):
            return getattr(self._sock, name)

    service = AskService(realtime_config(), hosts=3, backend="asyncio")
    try:
        service.fabric.start()
        for endpoint in service.fabric._endpoints.values():
            endpoint.sock = EverySeventhSendBlocks(endpoint.sock)
        streams = {
            "h0": [(b"key%d" % (i % 9), i + 1) for i in range(300)],
            "h1": [(b"key%d" % (i % 6), 2 * i) for i in range(300)],
        }
        result = service.aggregate(streams, receiver="h2")
        expected = reference_aggregate(
            {h: list(s) for h, s in streams.items()}, service.config.value_mask
        )
        assert result.values == expected
        blocked = sum(e.sock.calls // 7 for e in service.fabric._endpoints.values())
        assert service.fabric.socket_errors == blocked > 0
        assert result.stats.retransmissions > 0
        assert dropped(service.fabric) == 0  # not an injected fault
    finally:
        service.close()


def test_attach_after_start_rejected():
    fabric = AsyncioFabric()

    class Node:
        def __init__(self, name):
            self.name = name

        def receive(self, packet):
            pass

    try:
        fabric.install_switch(Node("switch"), "r0")
        fabric.attach_host(Node("h0"), "r0")
        fabric.start()
        with pytest.raises(RuntimeError, match="started"):
            fabric.attach_host(Node("h1"), "r0")
    finally:
        fabric.close()


def test_duplicate_names_rejected():
    fabric = AsyncioFabric()

    class Node:
        def __init__(self, name):
            self.name = name

        def receive(self, packet):
            pass

    try:
        fabric.install_switch(Node("switch"), "r0")
        fabric.attach_host(Node("h0"), "r0")
        with pytest.raises(ValueError, match="already"):
            fabric.attach_host(Node("h0"), "r0")
        with pytest.raises(ValueError, match="already"):
            fabric.attach_host(Node("switch"), "r0")
    finally:
        fabric.close()


def test_close_is_idempotent():
    service = AskService(realtime_config(), hosts=2, backend="asyncio")
    service.aggregate({"h0": [(b"x", 1)]}, receiver="h1")
    service.close()
    service.close()


def test_context_manager_closes():
    with AskService(realtime_config(), hosts=2, backend="asyncio") as service:
        result = service.aggregate({"h0": [(b"x", 5)]}, receiver="h1")
        assert result.values == {b"x": 5}
    assert service.fabric._closed


def test_chaos_windows_act_through_the_udp_wire():
    """The topology's windows, with the damage the datagram wire does: a
    corruption window flips bits after encoding, so the switch's codec
    refuses the frame; a slowdown holds each datagram before the kernel
    for at least SLOW_HOLD_NS."""
    host = RecordingNode("h0")
    fabric, nodes = stub_rack(host)
    switch, topology = nodes["switch"], fabric.topology

    def send(seq):
        packet = AskPacket(PacketFlag.DATA, 1, "h0", "switch", 0, seq)
        fabric.send_to_switch("h0", packet, packet.wire_bytes())

    try:
        topology.corruption_rate = 1.0
        topology.corrupt("h0")
        for seq in range(3):
            send(seq)
        fabric.runner().run_until(lambda: fabric.malformed_frames == 3, timeout_s=30.0)
        assert switch.received == []
        assert topology.window_corruptions == topology.corruption_injected == 3
        topology.cleanse("h0")
        topology.slow("h0")
        sent_at = fabric.clock.now
        send(3)
        fabric.runner().run_until(lambda: len(switch.received) == 1, timeout_s=30.0)
        assert fabric.clock.now - sent_at >= SLOW_HOLD_NS
        assert topology.uplink("h0").packets_slowed == 1
        topology.revive("h0")
        send(4)
        fabric.runner().run_until(lambda: len(switch.received) == 2, timeout_s=30.0)
        assert [packet.seq for packet in switch.received] == [3, 4]
        assert topology.link_total("packets_slowed") == 1
        assert fabric.frames_sent == 5
    finally:
        fabric.close()


def test_run_until_timeout_raises_with_pending_counts():
    """A wedged run must fail loudly, not hang: run_until raises
    FabricTimeoutError naming the budget and carrying each node's unacked
    window entries, so the operator can see who is stuck."""
    from repro.runtime import FabricTimeoutError  # lazy re-export

    service = AskService(realtime_config(), hosts=3, backend="asyncio")
    try:
        # Cut the switch off: h0's first window goes out and is dropped at
        # the switch's ingress, so it is never ACKed.
        service.fabric.partition(service.switch.name)
        service.submit({"h0": [(b"k%d" % i, 1) for i in range(400)]}, receiver="h2")
        with pytest.raises(FabricTimeoutError) as excinfo:
            service.runner.run_until(lambda: False, timeout_s=0.05)
        message = str(excinfo.value)
        assert "still busy after 0.1s" in message
        assert "unacked window entries per node" in message
        assert "kernel" in message  # says what it cannot see
        pending = excinfo.value.pending
        assert set(pending) == {"h0"}  # only the sender holds a window
        window = service.config.window_size
        channels = len(service.daemons["h0"].channels)
        assert 0 < pending["h0"] <= window * channels
        assert pending == service.fabric.pending_snapshot()
        # Every unacked entry was dropped somewhere a partition drops:
        # at a partitioned host's egress or a partitioned node's ingress.
        dropped_at_switch = service.switch.dropped_while_down
        assert service.topology.partition_drops + dropped_at_switch >= pending["h0"]
    finally:
        service.close()


def test_run_until_timeout_on_an_idle_fabric_reports_nothing_pending():
    from repro.runtime import FabricTimeoutError

    service = AskService(realtime_config(), hosts=2, backend="asyncio")
    try:
        with pytest.raises(FabricTimeoutError) as excinfo:
            service.runner.run_until(lambda: False, timeout_s=0.02)
        assert excinfo.value.pending == {}
        assert "none" in str(excinfo.value)
    finally:
        service.close()
