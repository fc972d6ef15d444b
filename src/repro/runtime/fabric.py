"""What both backends' fabrics share: one topology and its fault windows.

A fabric is a clock, a runner and a wire.  Everything else — wiring and
its validation, node and link names, next-hop routing, the link
registry, fault-stream naming, the partition/corrupt/slow windows and the
per-link counters — is its :class:`~repro.net.multirack.MultiRackTopology`,
which files the backend's wire under every link name.
"""

from __future__ import annotations

from typing import Optional, TypeVar

from repro.net.multirack import MultiRackTopology, RackView, SpineView
from repro.runtime.interfaces import Node

_View = TypeVar("_View", RackView, SpineView)


def _bind(switch: Node, view: _View) -> _View:
    bind = getattr(switch, "bind", None)
    if bind is not None:
        bind(view)
    return view


class TopologyFabric:
    """The :class:`~repro.runtime.interfaces.Fabric` surface both
    backends get from their topology: wiring and partitions."""

    topology: MultiRackTopology

    def _place(self, node: Node) -> None:
        """Runs before the topology takes ``node``."""

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def install_switch(
        self, switch: Node, rack: str, spine: Optional[str] = None
    ) -> RackView:
        """Create ``rack`` around ``switch``, wire links, bind.  With
        ``spine`` the rack hangs under that (already installed) spine
        instead of joining the flat pairwise core mesh."""
        self._place(switch)
        return _bind(switch, self.topology.add_rack(rack, switch, spine=spine))

    def install_spine(self, switch: Node) -> SpineView:
        """Declare a spine switch (tree deployments) and bind its view."""
        self._place(switch)
        return _bind(switch, self.topology.add_spine(switch))

    def attach_host(self, host: Node, rack: str) -> None:
        self._place(host)
        self.topology.attach_host(rack, host)

    @property
    def host_names(self) -> list[str]:
        return self.topology.host_names

    # ------------------------------------------------------------------
    # Partitions (the other chaos windows are the topology's own methods)
    # ------------------------------------------------------------------
    def partition(self, name: str) -> None:
        self.topology.partition(name)

    def heal(self, name: str) -> None:
        self.topology.heal(name)
