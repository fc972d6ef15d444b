"""Register arrays with the PISA access restriction.

The restriction that shaped ASK's whole memory layout (§2.2.1, §3.2.1):

    "each register array can only perform one read and one write in one pass"

is enforced here.  Every packet pass opens a :class:`PassContext`; a
:class:`RegisterArray` raises :class:`RegisterAccessError` on its second
access within the same context.  The single permitted access is a
read-modify-write executed atomically (that is what a stage ALU does), which
is also how the atomic ``set_bit`` / ``clr_bitc`` instructions of the compact
``seen`` design are expressed.

A deliberately *relaxed* array (``relax_access_limit=True``) is available for
the paper's conceptual 2W-bit ``seen`` baseline, which needs three accesses
per pass and therefore is not implementable on real hardware — the ablation
test suite demonstrates exactly that.

Epoch-counter access tracking
-----------------------------
The access discipline is enforced without per-pass allocation: instead of a
set of visited arrays inside the context, each *array* remembers the last
``(context, pass id)`` that touched it.  A context is reusable — calling
:meth:`PassContext.reset` bumps its pass id, which instantly invalidates
every array's "already accessed" stamp without walking or clearing anything.
Fresh one-shot ``PassContext()`` instances (the test suites build them
liberally) work unchanged: the identity half of the stamp can never match a
context the array has not seen.

The specialized operations (``read``/``write``/``set_bit``/``clr_bitc``/
``rmw_max``) inline both the access check and their ALU, so the per-packet
hot path allocates no closures.  The generic :meth:`RegisterArray.execute`
takes an arbitrary ALU; only the tests and their closure-ALU oracle call it.

Paged copy-on-write storage
---------------------------
An array declares its full SRAM (``sram_bytes`` and the stage budgets count
every cell), but the host only pays for the cells a run changes.  Cells
live in pages of :data:`PAGE_CELLS`; every page-table entry starts out
pointing at one shared, read-only blank page (a tuple of the initial
value, shared by every array with the same initial object).  A write that
changes a cell first materializes its page as a private list; a write of
the initial value into a blank page leaves it shared.  ``control_reset``
points every fully covered page back at the blank page, so a reboot wipe
costs O(pages), and the control-plane walks visit materialized pages only.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, Optional, TypeVar

from repro.core.errors import AskError

T = TypeVar("T")

#: Cells per storage page: one page holds one channel's ``seen`` or
#: ``PktState`` window at the paper's W = 256.  Cell ``i`` lives at
#: ``pages[i >> PAGE_SHIFT][i & PAGE_MASK]``.
PAGE_SHIFT = 8
PAGE_CELLS = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_CELLS - 1

#: One read-only blank page per initial *object* (``id`` keyed; the page
#: holds the object, so the id is never reused while the entry exists).
_BLANK_PAGES: dict[int, tuple[Any, ...]] = {}


def _blank_page(initial: Any) -> tuple[Any, ...]:
    page = _BLANK_PAGES.get(id(initial))
    if page is None:
        page = _BLANK_PAGES[id(initial)] = (initial,) * PAGE_CELLS
    return page


class RegisterAccessError(AskError, RuntimeError):
    """A register array was accessed more than once in one packet pass, or
    accessed against the pipeline's stage order."""


class PassContext:
    """One packet's traversal of the pipeline.

    Tracks the index of the stage last visited (a pass may never move to an
    earlier stage — a packet cannot flow backwards through the pipeline) and
    carries the pass id that arrays stamp themselves with on access.

    Reusable: :meth:`reset` re-opens the context for the next packet in
    O(1).  The pipeline's compiled fast path keeps a single instance alive
    for the lifetime of the switch.
    """

    __slots__ = ("_pass_id", "_current_stage", "label")

    def __init__(self, label: str = "") -> None:
        self._pass_id = 0
        self._current_stage = -1
        self.label = label

    def reset(self, label: str = "") -> "PassContext":
        """Re-open this context for a new pass (O(1) — no state to clear:
        bumping the pass id invalidates every array's access stamp)."""
        self._pass_id += 1
        self._current_stage = -1
        self.label = label
        return self


class RegisterArray(Generic[T]):
    """A stage-local register array.

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
        # The page table.  Compiled channel programs and the switch
        # program's aggregation loop read it through the array, and every
        # reset rewrites it in place.
        self._blank: tuple[T, ...] = _blank_page(initial)
        self._pages: list[Any] = [self._blank] * ((size + PAGE_MASK) >> PAGE_SHIFT)
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

    @property
    def resident_cells(self) -> int:
        """Cells the host holds in materialized pages (never more than
        ``size``); every other cell reads from the shared blank page."""
        blank = self._blank
        return sum(len(page) for page in self._pages if page is not blank)

    def _put(self, index: int, value: T) -> None:
        """Store ``value`` in cell ``index`` (already bounds-checked): the
        cold half of every write.  A blank page is materialized first,
        unless ``value`` is the initial object itself."""
        number = index >> PAGE_SHIFT
        page = self._pages[number]
        if page is self._blank:
            if value is self._initial:
                return
            page = [self._initial] * min(PAGE_CELLS, self.size - (number << PAGE_SHIFT))
            self._pages[number] = page
        page[index & PAGE_MASK] = value

    # ------------------------------------------------------------------
    # Every specialized op repeats this prologue inline; kept as a comment
    # template rather than a helper because the extra call frame is what
    # the fast path exists to avoid:
    #
    #   1. duplicate-access stamp check (skipped for relaxed arrays)
    #   2. stage-order check + stage advance
    #   3. bounds check, access count
    #
    # and writes a cell in place only when its page is materialized,
    # leaving the blank-page case to ``_put``.
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
        old = self._pages[index >> PAGE_SHIFT][index & PAGE_MASK]
        new, result = alu(old)
        self._put(index, new)
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
        return self._pages[index >> PAGE_SHIFT][index & PAGE_MASK]

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
        page = self._pages[index >> PAGE_SHIFT]
        if page is not self._blank:
            page[index & PAGE_MASK] = value
        elif value is not self._initial:
            self._put(index, value)

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
        page = self._pages[index >> PAGE_SHIFT]
        offset = index & PAGE_MASK
        old = page[offset]
        if value > old:
            if page is self._blank:
                self._put(index, value)  # type: ignore[arg-type]
            else:
                page[offset] = value
            return value
        return old

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
        page = self._pages[index >> PAGE_SHIFT]
        offset = index & PAGE_MASK
        old = page[offset]
        if page is self._blank:
            self._put(index, 1)  # type: ignore[arg-type]
        else:
            page[offset] = 1
        return old

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
        page = self._pages[index >> PAGE_SHIFT]
        offset = index & PAGE_MASK
        old = page[offset]
        if page is self._blank:
            self._put(index, 0)  # type: ignore[arg-type]
        else:
            page[offset] = 0
        return 1 - old

    # ------------------------------------------------------------------
    # Control-plane access.  The switch CPU reads/writes registers out of
    # band (PCIe), not through the match-action pipeline, so no PassContext
    # is involved.  ASK's controller uses this for fetch-and-reset (§3.4).
    # ------------------------------------------------------------------
    def control_read(self, index: int) -> T:
        if not 0 <= index < self.size:
            raise IndexError(f"{self.name}[{index}] out of range (size {self.size})")
        return self._pages[index >> PAGE_SHIFT][index & PAGE_MASK]

    def control_write(self, index: int, value: T) -> None:
        if not 0 <= index < self.size:
            raise IndexError(f"{self.name}[{index}] out of range (size {self.size})")
        self._put(index, value)

    def control_read_range(self, start: int, stop: int) -> list[T]:
        """Bulk read of cells ``[start, stop)`` — one out-of-band transfer."""
        if not 0 <= start <= stop <= self.size:
            raise IndexError(f"{self.name}[{start}:{stop}] out of range (size {self.size})")
        pages = self._pages
        cells: list[T] = []
        while start < stop:
            offset = start & PAGE_MASK
            take = min(PAGE_CELLS - offset, stop - start)
            cells.extend(pages[start >> PAGE_SHIFT][offset : offset + take])
            start += take
        return cells

    def control_read_resident(self, start: int, stop: int) -> list[tuple[int, list[T]]]:
        """Bulk read of the *materialized* part of ``[start, stop)``:
        ``(first index, cells)`` runs, ascending, one per materialized
        page.  Every cell outside the runs holds the initial value, so a
        walk over them costs O(touched pages), not O(range)."""
        if not 0 <= start <= stop <= self.size:
            raise IndexError(f"{self.name}[{start}:{stop}] out of range (size {self.size})")
        if start == stop:
            return []
        blank = self._blank
        first = start >> PAGE_SHIFT
        return [
            (max(start, base), page[max(start - base, 0) : stop - base])
            for base, page in zip(
                range(first << PAGE_SHIFT, stop, PAGE_CELLS),
                self._pages[first : ((stop - 1) >> PAGE_SHIFT) + 1],
            )
            if page is not blank
        ]

    def control_reset(self, start: int = 0, end: Optional[int] = None) -> None:
        """Reset a range of cells to the initial value by rewriting the page
        table *in place* (compiled channel programs and ``aggregate_fast``
        read it through the array): pages the range covers whole point back
        at the blank page, the partly covered end pages are blanked
        cell-wise."""
        stop = self.size if end is None else end
        if not 0 <= start <= stop <= self.size:
            raise IndexError(f"{self.name}[{start}:{stop}] out of range (size {self.size})")
        if start == stop:
            return
        first, last = start >> PAGE_SHIFT, (stop - 1) >> PAGE_SHIFT
        if first != last:
            self._pages[first + 1 : last] = [self._blank] * (last - first - 1)
            self._reset_span(last, last << PAGE_SHIFT, stop)
            stop = (first + 1) << PAGE_SHIFT
        self._reset_span(first, start, stop)

    def _reset_span(self, number: int, start: int, stop: int) -> None:
        """Blank cells ``[start, stop)``, all on page ``number``."""
        page = self._pages[number]
        if page is not self._blank:
            if stop - start == len(page):
                self._pages[number] = self._blank
            else:
                base = number << PAGE_SHIFT
                page[start - base : stop - base] = [self._initial] * (stop - start)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RegisterArray({self.name!r}, size={self.size}, "
            f"width={self.width_bits}b, stage={self.stage_index})"
        )
