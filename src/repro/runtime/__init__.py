"""`repro.runtime` — the pluggable fabric/runtime layer.

The protocol stack (daemons, sender/receiver channels, switch programs)
never talks to a concrete network or event loop.  It talks to three narrow
interfaces defined here:

- :class:`~repro.runtime.interfaces.Clock` — ``now`` / ``schedule`` /
  ``at`` / cancellation, the only time surface the stack uses;
- :class:`~repro.runtime.interfaces.Fabric` — install each rack's TOR
  (and any spines), attach hosts to their racks, send frames host→TOR,
  fault hooks; each switch egresses through its own
  :class:`~repro.runtime.interfaces.SwitchFabricView`;
- :class:`~repro.runtime.interfaces.TaskRunner` — run-to-completion vs
  run-forever execution of a deployment.

Two backends ship, one fabric each.  Both wire every rack layout — one
rack, a flat mesh, a spine–leaf tree — through the same
:class:`~repro.net.multirack.MultiRackTopology` (one rack is the
spineless one-rack case), which names, routes and faults every link;
they differ only in the wire filed under each link name:

- :class:`~repro.runtime.sim.SimFabric` — a wrapper over the
  deterministic discrete-event stack (`Simulator`, `MultiRackTopology`,
  one `Link` per cable direction).  The same seed produces the same
  schedule, stats and retransmission counts.
- :class:`~repro.runtime.asyncio_fabric.AsyncioFabric` — a real-time
  backend whose links each send a :class:`~repro.core.packet.AskPacket`
  as one UDP datagram between sockets (one per node, polled by one
  selector loop), with timers on a `Simulator` kept on the wall clock and
  real packet loss tolerated by the unchanged reliability layer.

:class:`~repro.runtime.builder.DeploymentBuilder` assembles either
backend into a ready deployment (switches + control plane + daemons) and
is the single place rack wiring happens — `AskService` (on every rack
layout) and backend-comparison harnesses all build through it.
"""

from typing import Any

from repro.runtime.interfaces import (
    Clock,
    Fabric,
    Node,
    SwitchFabricView,
    TaskRunner,
    TimerHandle,
)

# The fabric backends and the builder import the protocol stack
# (`repro.core`, `repro.net`), whose modules in turn type against the
# interfaces above — so everything beyond the interfaces is loaded
# lazily (PEP 562) to keep `repro.runtime.interfaces` importable from
# anywhere in the stack without a cycle.
_LAZY = {
    "AsyncioFabric": "repro.runtime.asyncio_fabric",
    "AsyncioRunner": "repro.runtime.asyncio_fabric",
    "CodecError": "repro.runtime.codec",
    "decode_packet": "repro.runtime.codec",
    "encode_packet": "repro.runtime.codec",
    "Deployment": "repro.runtime.builder",
    "DeploymentBuilder": "repro.runtime.builder",
    # Raised by real-time TaskRunner.run_until; defined in core so the
    # protocol stack can reference it without importing a backend.
    "FabricTimeoutError": "repro.core.errors",
    "SimFabric": "repro.runtime.sim",
    "SimRunner": "repro.runtime.sim",
}


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))

__all__ = [
    "AsyncioFabric",
    "AsyncioRunner",
    "Clock",
    "CodecError",
    "Deployment",
    "DeploymentBuilder",
    "Fabric",
    "FabricTimeoutError",
    "Node",
    "SimFabric",
    "SimRunner",
    "SwitchFabricView",
    "TaskRunner",
    "TimerHandle",
    "decode_packet",
    "encode_packet",
]
