"""Shadow-copy directory: hot-key agnostic prioritization state (§3.4, Alg. 1).

Each task's AA region is split into two physical copies.  A one-bit *copy
indicator* per task directs data packets to the write copy; the host
receiver periodically sends a swap notification, flips the indicator, then
fetches and resets the (now idle) read copy, giving hot keys a fresh chance
to claim aggregators.

The swap notification carries the *desired* indicator value (the epoch's
parity) rather than "flip", so a duplicated or retransmitted swap packet is
idempotent — the data-plane equivalent of an at-most-once toggle.
"""

from __future__ import annotations

from repro.core.config import AskConfig
from repro.switch.registers import PassContext, RegisterArray


class ShadowDirectory:
    """Per-task copy indicators plus the copy-offset arithmetic."""

    def __init__(self, config: AskConfig, max_tasks: int) -> None:
        self.enabled = config.shadow_copy
        self.copy_size = config.copy_size
        self.max_tasks = max_tasks
        self.indicator: RegisterArray[int] = RegisterArray(
            "copy_indicator", max_tasks, width_bits=1, initial=0
        )
        self.swaps_applied = 0

    # ------------------------------------------------------------------
    def write_part(self, ctx: PassContext, task_slot: int) -> int:
        """The copy data packets must write this pass (Alg. 1, ``Write()``).

        With the shadow mechanism disabled there is a single copy (part 0).
        PISA processes one packet per stage at a time, so this single read
        is atomic with respect to a concurrent swap notification.
        """
        if not self.enabled:
            return 0
        return self.indicator.read(ctx, task_slot)

    def read_part_of(self, write_part: int) -> int:
        """The copy the receiver may fetch while ``write_part`` is active."""
        if not self.enabled:
            return 0
        return 1 - write_part

    def apply_swap(self, ctx: PassContext, task_slot: int, desired: int) -> None:
        """Process a swap notification (Alg. 1, ``Switch()``) idempotently."""
        if not self.enabled:
            return
        self.indicator.write(ctx, task_slot, desired & 1)
        self.swaps_applied += 1

    # ------------------------------------------------------------------
    # Control-plane helpers (used by the controller's fetch path).
    # ------------------------------------------------------------------
    def part_offset(self, part: int) -> int:
        """Aggregator-index offset of copy ``part`` (Alg. 1 line 5/9)."""
        if part not in (0, 1):
            raise ValueError(f"part must be 0 or 1, got {part}")
        if not self.enabled and part == 1:
            raise ValueError("part 1 does not exist when shadow copies are disabled")
        return part * self.copy_size

    def clear(self, task_slot: int) -> None:
        """Reset a task's indicator at teardown so the slot can be reused."""
        self.indicator.control_write(task_slot, 0)
