"""Shared-memory handoff between applications and the ASK daemon.

On real hosts the daemon and the application exchange key-value data through
a shared-memory region to avoid copies (Fig. 4, steps ②⑥⑪).  In the
simulation the region is a plain container; what matters for fidelity is the
*protocol* — the application writes, then hands the daemon a (task id,
region) message, and reads the result back from the same region at
completion — which the daemon and service reproduce exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class SharedMemoryRegion:
    """One task's shared-memory region on one host."""

    task_id: int
    host: str
    #: sender side: outgoing tuples; receiver side: final aggregated result
    tuples: list[tuple[bytes, int]] = field(default_factory=list)
    result: Optional[dict[bytes, int]] = None
    sealed: bool = False

    def write(self, tuples: list[tuple[bytes, int]]) -> None:
        """Application writes its key-value data (step ⑥).

        An empty region adopts the list it is handed instead of copying
        it: the list *is* the shared buffer, as the application's pages
        are on a real host.  The writer hands it over and keeps no use of
        it.  A later write appends."""
        if self.sealed:
            raise RuntimeError("region already sealed")
        if self.tuples:
            self.tuples.extend(tuples)
        else:
            self.tuples = tuples

    def seal(self) -> None:
        """Application signals the data is complete (step ⑦)."""
        self.sealed = True

    def publish_result(self, result: dict[bytes, int]) -> None:
        """Daemon writes the final result for the application (step ⑩)."""
        self.result = result

    @property
    def bytes_used(self) -> int:
        return sum(len(k) + 4 for k, _ in self.tuples)


class SharedMemoryAllocator:
    """Per-host shared-memory bookkeeping.

    Regions are keyed by (task id, role) because a host can be both a
    sender and the receiver of the same task (the co-located mappers of
    §5.5), and each role owns its own region.
    """

    def __init__(self, host: str) -> None:
        self.host = host
        self._regions: dict[tuple[int, str], SharedMemoryRegion] = {}

    def allocate(self, task_id: int, role: str = "send") -> SharedMemoryRegion:
        key = (task_id, role)
        if key in self._regions:
            raise RuntimeError(
                f"task {task_id} already has a {role} region on {self.host}"
            )
        region = SharedMemoryRegion(task_id, self.host)
        self._regions[key] = region
        return region

    def get(self, task_id: int, role: str = "send") -> SharedMemoryRegion:
        return self._regions[(task_id, role)]

    def release(self, task_id: int, role: str = "send") -> None:
        self._regions.pop((task_id, role), None)

    def __len__(self) -> int:
        return len(self._regions)
