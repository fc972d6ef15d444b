"""The dense register array, frozen as the oracle of
:class:`repro.switch.registers.RegisterArray`.

Every declared cell is one slot of a Python list, allocated up front; the
product keeps the same cells in fixed-size copy-on-write pages that share
one blank page until a write changes them.  The pass discipline (one
access per array per pass, stage order, bounds, ``accesses``) is the
product's, verbatim; the control-plane accessors are the unchecked list
operations the product replaced.  ``tests/switch/test_register_oracle.py``
runs both over random op sequences and requires the same results, the
same exceptions and the same cells after every step.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, Optional, TypeVar

from repro.switch.registers import PassContext, RegisterAccessError

T = TypeVar("T")


class DenseRegisterArray(Generic[T]):
    """A stage-local register array, one list slot per declared cell.

    Parameters
    ----------
    name:
        Identifier for diagnostics.
    size:
        Number of cells.
    width_bits:
        Bits per cell; drives the SRAM budget accounting in
        :class:`~repro.switch.pisa.Stage`.
    initial:
        Initial cell value (shared immutable default, e.g. ``0`` or ``None``).
    relax_access_limit:
        Disable the one-access-per-pass check.  Only the conceptual 2W-bit
        ``seen`` baseline uses this; the real ASK program never does.
    """

    def __init__(
        self,
        name: str,
        size: int,
        width_bits: int,
        initial: T = 0,  # type: ignore[assignment]
        relax_access_limit: bool = False,
    ) -> None:
        if size < 1:
            raise ValueError(f"register array {name!r} needs size >= 1")
        if width_bits < 1:
            raise ValueError(f"register array {name!r} needs width >= 1 bit")
        self.name = name
        self.size = size
        self.width_bits = width_bits
        self.relax_access_limit = relax_access_limit
        self._initial = initial
        self._cells: list[T] = [initial] * size
        self.stage_index: Optional[int] = None  # assigned when placed in a Stage
        self.accesses = 0
        # Access stamp: the last (context, pass id) that touched this array.
        self._last_ctx: Optional[PassContext] = None
        self._last_pass = -1

    # ------------------------------------------------------------------
    @property
    def sram_bytes(self) -> int:
        """SRAM the array occupies, rounded up to whole bytes."""
        return (self.size * self.width_bits + 7) // 8

    # ------------------------------------------------------------------
    # Every specialized op repeats this prologue inline; kept as a comment
    # template rather than a helper because the extra call frame is what
    # the fast path exists to avoid:
    #
    #   1. duplicate-access stamp check (skipped for relaxed arrays)
    #   2. stage-order check + stage advance
    #   3. bounds check, access count
    # ------------------------------------------------------------------
    def execute(self, ctx: PassContext, index: int, alu: Callable[[T], tuple[T, Any]]) -> Any:
        """The one read-modify-write this pass may perform.

        ``alu(old) -> (new, result)`` runs atomically on the cell; ``result``
        is what the pass carries forward in packet metadata (PHV).
        """
        if not self.relax_access_limit:
            if self._last_ctx is ctx and self._last_pass == ctx._pass_id:
                raise RegisterAccessError(
                    f"register array {self.name!r} accessed twice in one pass"
                    f"{' (' + ctx.label + ')' if ctx.label else ''}"
                )
            self._last_ctx = ctx
            self._last_pass = ctx._pass_id
        stage = self.stage_index
        if stage is not None:
            if stage < ctx._current_stage:
                raise RegisterAccessError(
                    f"pass moved backwards: array {self.name!r} lives in stage "
                    f"{stage} but stage {ctx._current_stage} was "
                    "already visited"
                )
            ctx._current_stage = stage
        if not 0 <= index < self.size:
            raise IndexError(f"{self.name}[{index}] out of range (size {self.size})")
        self.accesses += 1
        old = self._cells[index]
        new, result = alu(old)
        self._cells[index] = new
        return result

    def read(self, ctx: PassContext, index: int) -> T:
        """Read-only access (still consumes the pass's single access)."""
        if not self.relax_access_limit:
            if self._last_ctx is ctx and self._last_pass == ctx._pass_id:
                raise RegisterAccessError(
                    f"register array {self.name!r} accessed twice in one pass"
                    f"{' (' + ctx.label + ')' if ctx.label else ''}"
                )
            self._last_ctx = ctx
            self._last_pass = ctx._pass_id
        stage = self.stage_index
        if stage is not None:
            if stage < ctx._current_stage:
                raise RegisterAccessError(
                    f"pass moved backwards: array {self.name!r} lives in stage "
                    f"{stage} but stage {ctx._current_stage} was "
                    "already visited"
                )
            ctx._current_stage = stage
        if not 0 <= index < self.size:
            raise IndexError(f"{self.name}[{index}] out of range (size {self.size})")
        self.accesses += 1
        return self._cells[index]

    def write(self, ctx: PassContext, index: int, value: T) -> None:
        """Write-only access (still consumes the pass's single access)."""
        if not self.relax_access_limit:
            if self._last_ctx is ctx and self._last_pass == ctx._pass_id:
                raise RegisterAccessError(
                    f"register array {self.name!r} accessed twice in one pass"
                    f"{' (' + ctx.label + ')' if ctx.label else ''}"
                )
            self._last_ctx = ctx
            self._last_pass = ctx._pass_id
        stage = self.stage_index
        if stage is not None:
            if stage < ctx._current_stage:
                raise RegisterAccessError(
                    f"pass moved backwards: array {self.name!r} lives in stage "
                    f"{stage} but stage {ctx._current_stage} was "
                    "already visited"
                )
            ctx._current_stage = stage
        if not 0 <= index < self.size:
            raise IndexError(f"{self.name}[{index}] out of range (size {self.size})")
        self.accesses += 1
        self._cells[index] = value

    def rmw_max(self, ctx: PassContext, index: int, value: int) -> int:
        """Atomic ``cell = max(cell, value)``; returns the new cell value.

        The dedup stage's ``max_seq`` bump — the single hottest register
        operation in the pipeline.
        """
        if not self.relax_access_limit:
            if self._last_ctx is ctx and self._last_pass == ctx._pass_id:
                raise RegisterAccessError(
                    f"register array {self.name!r} accessed twice in one pass"
                    f"{' (' + ctx.label + ')' if ctx.label else ''}"
                )
            self._last_ctx = ctx
            self._last_pass = ctx._pass_id
        stage = self.stage_index
        if stage is not None:
            if stage < ctx._current_stage:
                raise RegisterAccessError(
                    f"pass moved backwards: array {self.name!r} lives in stage "
                    f"{stage} but stage {ctx._current_stage} was "
                    "already visited"
                )
            ctx._current_stage = stage
        if not 0 <= index < self.size:
            raise IndexError(f"{self.name}[{index}] out of range (size {self.size})")
        self.accesses += 1
        cells = self._cells
        old = cells[index]
        if value > old:  # type: ignore[operator]
            cells[index] = value  # type: ignore[assignment]
            return value
        return old  # type: ignore[return-value]

    # --- atomic bit instructions (footnotes 4 and 5 of the paper) -------
    def set_bit(self, ctx: PassContext, index: int) -> int:
        """Atomically set the bit and return its previous value."""
        if not self.relax_access_limit:
            if self._last_ctx is ctx and self._last_pass == ctx._pass_id:
                raise RegisterAccessError(
                    f"register array {self.name!r} accessed twice in one pass"
                    f"{' (' + ctx.label + ')' if ctx.label else ''}"
                )
            self._last_ctx = ctx
            self._last_pass = ctx._pass_id
        stage = self.stage_index
        if stage is not None:
            if stage < ctx._current_stage:
                raise RegisterAccessError(
                    f"pass moved backwards: array {self.name!r} lives in stage "
                    f"{stage} but stage {ctx._current_stage} was "
                    "already visited"
                )
            ctx._current_stage = stage
        if not 0 <= index < self.size:
            raise IndexError(f"{self.name}[{index}] out of range (size {self.size})")
        self.accesses += 1
        cells = self._cells
        old = cells[index]
        cells[index] = 1  # type: ignore[assignment]
        return old  # type: ignore[return-value]

    def clr_bitc(self, ctx: PassContext, index: int) -> int:
        """Atomically clear the bit and return the complement of its
        previous value."""
        if not self.relax_access_limit:
            if self._last_ctx is ctx and self._last_pass == ctx._pass_id:
                raise RegisterAccessError(
                    f"register array {self.name!r} accessed twice in one pass"
                    f"{' (' + ctx.label + ')' if ctx.label else ''}"
                )
            self._last_ctx = ctx
            self._last_pass = ctx._pass_id
        stage = self.stage_index
        if stage is not None:
            if stage < ctx._current_stage:
                raise RegisterAccessError(
                    f"pass moved backwards: array {self.name!r} lives in stage "
                    f"{stage} but stage {ctx._current_stage} was "
                    "already visited"
                )
            ctx._current_stage = stage
        if not 0 <= index < self.size:
            raise IndexError(f"{self.name}[{index}] out of range (size {self.size})")
        self.accesses += 1
        cells = self._cells
        old = cells[index]
        cells[index] = 0  # type: ignore[assignment]
        return 1 - old  # type: ignore[operator, return-value]

    # ------------------------------------------------------------------
    # Control-plane access.  The switch CPU reads/writes registers out of
    # band (PCIe), not through the match-action pipeline, so no PassContext
    # is involved.  ASK's controller uses this for fetch-and-reset (§3.4).
    # ------------------------------------------------------------------
    def control_read(self, index: int) -> T:
        return self._cells[index]

    def control_write(self, index: int, value: T) -> None:
        self._cells[index] = value

    def control_read_range(self, start: int, stop: int) -> list[T]:
        """Bulk read of cells ``[start, stop)`` — one out-of-band transfer."""
        return self._cells[start:stop]

    def control_reset(self, start: int = 0, end: Optional[int] = None) -> None:
        """Reset a range of cells to the initial value, *in place*:
        compiled channel programs and ``aggregate_fast`` hold ``_cells``."""
        stop = self.size if end is None else end
        if start < 0 or stop > self.size:  # a longer slice would grow the list
            raise IndexError(f"{self.name}[{start}:{stop}] out of range (size {self.size})")
        self._cells[start:stop] = [self._initial] * (stop - start)
