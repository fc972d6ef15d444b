"""What the network connects: :class:`NetworkNode`.

The paper deploys ASK on a TOR switch serving the hosts of one rack (§7,
"Deployment in Multi-rack networks").  Hosts and switches are nodes;
:class:`~repro.net.multirack.MultiRackTopology` wires them with
:class:`~repro.net.link.Link` objects, one per cable direction, on every
simulated layout — one rack included.
"""

from __future__ import annotations

from typing import Any


class NetworkNode:
    """Base class for anything attached to the network.

    Subclasses override :meth:`receive`, which every link into the node
    is bound to.  Sending goes through the topology.

    Failure-domain lifecycle: :meth:`crash`/:meth:`restore` model a
    fail-stop process, :meth:`set_partitioned` a severed network
    attachment.  Both fold into the single ``_offline`` flag that
    receive paths test (one branch per packet); subclasses that override
    ``crash``/``restore`` must call ``super()`` to keep it coherent.
    Frames arriving while offline are counted in ``dropped_while_down``
    by the subclass receive path — the chaos report reads the counter.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._crashed = False
        self._partitioned = False
        self._offline = False
        self.dropped_while_down = 0

    @property
    def is_up(self) -> bool:
        return not self._crashed

    def crash(self) -> None:
        """Fail-stop: the node goes dark until :meth:`restore`."""
        self._crashed = True
        self._offline = True

    def restore(self) -> None:
        """Bring a crashed node back (subclasses add state recovery)."""
        self._crashed = False
        self._offline = self._partitioned

    def set_partitioned(self, partitioned: bool) -> None:
        self._partitioned = partitioned
        self._offline = self._crashed or partitioned

    def receive(self, packet: Any) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
