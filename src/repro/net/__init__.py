"""Discrete-event network substrate for the ASK reproduction.

The paper evaluates ASK on a physical 100 Gbps testbed; this package stands in
for that fabric.  It provides:

- :class:`~repro.net.simulator.Simulator` — a deterministic event loop with
  integer-nanosecond time,
- :class:`~repro.net.link.Link` — one direction of one cable: FIFO
  serialization at a bandwidth, propagation latency, an optional
  packets-per-second cap on a host's uplink, and its far end,
- :class:`~repro.net.fault.FaultModel` — seedable loss / duplication /
  reordering / extra-delay injection,
- :class:`~repro.net.multirack.MultiRackTopology` — racks of hosts
  behind per-rack TOR switches: one rack (the deployment the paper
  recommends, §7), a flat mesh or a spine–leaf tree, with every link in
  one registry keyed by its stable name,
- :class:`~repro.net.trace.PacketTrace` — event recording for tests.

Nothing in this package knows about ASK semantics: it moves opaque payloads
between :class:`~repro.net.topology.NetworkNode` endpoints.
"""

from repro.net.fault import FaultModel
from repro.net.link import Link
from repro.net.simulator import Event, Simulator
from repro.net.topology import NetworkNode
from repro.net.trace import PacketTrace, TraceRecord

__all__ = [
    "Event",
    "FaultModel",
    "Link",
    "NetworkNode",
    "PacketTrace",
    "Simulator",
    "TraceRecord",
]
