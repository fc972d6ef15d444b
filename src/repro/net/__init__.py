"""Discrete-event network substrate for the ASK reproduction.

The paper evaluates ASK on a physical 100 Gbps testbed; this package stands in
for that fabric.  It provides:

- :class:`~repro.net.simulator.Simulator` — a deterministic event loop with
  integer-nanosecond time,
- :class:`~repro.net.link.Link` — FIFO links with bandwidth, propagation
  latency and serialization delay,
- :class:`~repro.net.fault.FaultModel` — seedable loss / duplication /
  reordering / extra-delay injection,
- :class:`~repro.net.nic.Nic` — per-port packets-per-second and bandwidth
  caps,
- :class:`~repro.net.multirack.MultiRackTopology` — racks of hosts
  behind per-rack TOR switches: one rack (the deployment the paper
  recommends, §7), a flat mesh or a spine–leaf tree; each rack is a
  :class:`~repro.net.topology.StarTopology` of hosts around its TOR,
- :class:`~repro.net.trace.PacketTrace` — event recording for tests.

Nothing in this package knows about ASK semantics: it moves opaque payloads
between :class:`~repro.net.topology.NetworkNode` endpoints.
"""

from repro.net.fault import FaultModel
from repro.net.link import Link
from repro.net.nic import Nic
from repro.net.simulator import Event, Simulator
from repro.net.topology import NetworkNode, StarTopology
from repro.net.trace import PacketTrace, TraceRecord

__all__ = [
    "Event",
    "FaultModel",
    "Link",
    "NetworkNode",
    "Nic",
    "PacketTrace",
    "Simulator",
    "StarTopology",
    "TraceRecord",
]
