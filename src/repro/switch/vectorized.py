"""Vectorized structure-of-arrays switch data plane.

The compiled scalar path (:mod:`repro.switch.program`) still walks every
packet — and every live tuple — through per-object Python dispatch.  This
module treats the switch as a wide parallel compute unit instead: packets
arriving at the same simulated instant are coalesced into one batch
(:meth:`repro.net.simulator.Simulator.call_at_batch`), and the pipeline —
dedup ``rmw_max``/``seen``, aggregation claim/match/add, window accounting
— runs over numpy arrays of channel slots, sequence numbers, key lanes and
value lanes in one sweep.

**The scalar compiled path is the equivalence oracle.**  Every decision,
counter and register value this engine produces must be bit-identical to
running the same packets one at a time through
:class:`~repro.switch.program.AskSwitchProgram`; the property tests in
``tests/switch/test_vectorized_engine.py`` and
``tests/integration/test_vectorized_equivalence.py`` pin that, and the
benchmark harness compares full end-to-end fingerprints
(``values_sha256``, drop/dedup counters) on the figure scenarios.

Why equivalence holds
---------------------

- *Batching point.*  Packets are batched at the **switch**, not at the
  links: per-packet link deliveries keep their heap order, ``receive``
  enqueues each gated packet into the simulator's single open bucket,
  and the bucket only absorbs across *consecutive* events that share the
  delivering callback.  The simulator flushes it — a direct call, not a
  scheduled event — the instant any other event runs, the clock
  advances, or the queues drain.  Buffered deliveries push nothing into
  the heap themselves, so every emission the flush schedules lands in
  the heap exactly where per-packet processing would have pushed it:
  same-timestamp FIFO tie-breaks, downstream schedules and every
  per-link fault RNG stream are bit-identical to the scalar run.
- *Control-plane collisions.*  Control-plane work that could interleave
  with same-instant deliveries (fetch-and-reset, region allocation,
  occupancy reads, crash) flushes the pending batch first — the scalar
  switch would have processed those deliveries before the later-ordered
  control event.
- *Conflict lanes.*  Lanes that would interact inside one sweep are
  processed with a statement-exact scalar mirror (`_process_one`) instead:
  two lanes on the same data channel (dedup state races), two lanes
  touching the same aggregator cell (claim order decides the winner), and
  lanes that would raise ``ProtocolError`` mid-pass (the scalar path
  mutates state up to the raising statement).  Their channels and cells
  are disjoint from the vector lanes', so running them after the sweep is
  order-equivalent.

Representation envelope
-----------------------

kParts are packed into signed 64-bit lanes (``key_bits <= 56``), vParts
are accumulated pre-masked in signed 64-bit lanes (``value_bits <= 60``),
and slot bitmaps sweep as one int64 word (``num_aas <= 62``) — enforced by
``AskConfig.vectorized`` validation.  Hostile inputs outside the envelope
(key segments that are not exactly ``key_bytes`` long, LONG-frame bitmaps
wider than 62 bits) fall back to the scalar mirror per lane, with oversize
``PktState`` bitmaps spilled to a side table.  Sequence numbers fit int64
by construction: the wire codec frames ``seq`` as ``!q``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.config import AskConfig
from repro.core.errors import ConfigError, ProtocolError, RegionExhaustedError
from repro.core.hashing import address_hash
from repro.core.keyspace import KeySpaceLayout
from repro.core.packet import AskPacket, ack_for
from repro.core.robustness import validate_switch_ingress
from repro.net.fault import CorruptedFrame
from repro.net.topology import NetworkNode
from repro.runtime.interfaces import Clock
from repro.net.trace import PacketTrace
from repro.switch.controller import Region, SwitchController
from repro.switch.program import ProgramStats, SwitchAction, SwitchDecision
from repro.switch.shadow import ShadowDirectory
from repro.switch.switch import AskSwitch

#: Blank-cell sentinel in the key lanes (a packed key is always >= 0).
_BLANK = -1
#: A stored key whose byte length differs from ``key_bytes`` (hostile
#: frames only); the actual bytes live in :attr:`SoAPool.exotic`.
_EXOTIC = -2
#: Values at or above this spill out of int64 lanes (oversize LONG-frame
#: bitmaps); such lanes run on the scalar mirror.
_BIG_LIMIT = 1 << 62
#: Runs shorter than this skip array setup and use the scalar mirror.
VEC_MIN = 8

#: Engine outcome for one packet: a decision, or a quarantine reason.
Outcome = Union[SwitchDecision, str]


def _validate_geometry(config: AskConfig) -> None:
    """The representation envelope (same checks as ``vectorized=True``)."""
    if not config.use_compact_seen:
        raise ConfigError(
            "the vectorized switch implements the W-bit compact seen design "
            "only; set use_compact_seen=True"
        )
    if config.key_bits > 56:
        raise ConfigError("the vectorized switch requires key_bits <= 56")
    if config.value_bits > 60:
        raise ConfigError("the vectorized switch requires value_bits <= 60")
    if config.num_aas > 62:
        raise ConfigError("the vectorized switch requires num_aas <= 62")


class SoAAggregatorView:
    """Control-plane view of one AA row of the SoA pool.

    Presents the same surface as :class:`~repro.switch.aggregator.
    AggregatorArray` to the controller (fetch-and-reset, region clears,
    occupancy) so :class:`~repro.switch.controller.SwitchController` works
    unchanged over the numpy state.
    """

    __slots__ = ("pool", "index", "name")

    def __init__(self, pool: "SoAPool", index: int) -> None:
        self.pool = pool
        self.index = index
        self.name = f"AA{index}"

    @property
    def size(self) -> int:
        return self.pool.keys.shape[1]

    def control_cell(self, index: int) -> Tuple[Optional[bytes], int]:
        pool = self.pool
        k = int(pool.keys[self.index, index])
        if k == _BLANK:
            return (None, 0)
        value = int(pool.values[self.index, index])
        if k == _EXOTIC:
            return (pool.exotic[(self.index, index)], value)
        return (k.to_bytes(pool.key_bytes, "big"), value)

    def control_clear(self, index: int) -> None:
        pool = self.pool
        pool.keys[self.index, index] = _BLANK
        pool.values[self.index, index] = 0
        if pool.exotic:
            pool.exotic.pop((self.index, index), None)

    def control_occupied(self, start: int, stop: int) -> List[Tuple[int, bytes, int]]:
        """Bulk read: occupied cells of ``[start, stop)`` as ``(index,
        kPart, vPart)``, ascending — one vector compare on the key lane."""
        pool, aa = self.pool, self.index
        hits = np.flatnonzero(pool.keys[aa, start:stop] != _BLANK) + start
        keys, values = pool.keys[aa, hits].tolist(), pool.values[aa, hits].tolist()
        return [
            (i, pool.exotic[(aa, i)] if k == _EXOTIC else k.to_bytes(pool.key_bytes, "big"), v)
            for i, k, v in zip(hits.tolist(), keys, values)
        ]

    def control_clear_range(self, start: int, stop: int) -> None:
        """Blank ``[start, stop)`` in place (lane-slice fill)."""
        pool = self.pool
        pool.keys[self.index, start:stop] = _BLANK
        pool.values[self.index, start:stop] = 0
        for cell in [c for c in pool.exotic if c[0] == self.index and start <= c[1] < stop]:
            del pool.exotic[cell]


class SoAPool:
    """The aggregator pool as two dense int64 matrices.

    ``keys[aa, idx]`` holds the big-endian packing of the stored kPart
    (:data:`_BLANK` when empty, :data:`_EXOTIC` for byte strings that are
    not exactly ``key_bytes`` long); ``values[aa, idx]`` holds the vPart,
    always pre-masked to ``value_bits``.  Counter names match
    :class:`~repro.switch.aggregator.AggregatorPool` so Table 1 and the
    figure pipelines read them unchanged.
    """

    def __init__(self, config: AskConfig) -> None:
        self.config = config
        self.key_bytes = config.key_bytes
        self.value_mask = config.value_mask
        shape = (config.num_aas, config.aggregators_per_aa)
        self.keys = np.full(shape, _BLANK, dtype=np.int64)
        self.values = np.zeros(shape, dtype=np.int64)
        self.exotic: Dict[Tuple[int, int], bytes] = {}
        self.arrays: List[SoAAggregatorView] = [
            SoAAggregatorView(self, i) for i in range(config.num_aas)
        ]
        self.tuples_aggregated = 0
        self.tuples_failed = 0
        self.aggregators_reserved = 0

    def __getitem__(self, slot: int) -> SoAAggregatorView:
        return self.arrays[slot]

    def __len__(self) -> int:
        return len(self.arrays)

    def occupancy(self, start: int, stop: int) -> float:
        total = (stop - start) * len(self.arrays)
        if total == 0:
            return 0.0
        occupied = int(np.count_nonzero(self.keys[:, start:stop] != _BLANK))
        return occupied / total

    def wipe(self) -> None:
        """Power-cycle reset: every cell back to blank."""
        self.keys.fill(_BLANK)
        self.values.fill(0)
        self.exotic.clear()


class SoADedupState:
    """Reliability state (§3.3) as flat numpy arrays.

    Exposes the :class:`~repro.switch.dedup.DedupUnit` surface the rest of
    the stack consumes — counters, SRAM accounting, and
    :meth:`reinstall_channel` for supervised failover — over ``max_seq``,
    compact ``seen`` and ``PktState`` arrays indexed exactly like the
    register originals (``channel_slot * W + offset``).
    """

    def __init__(self, config: AskConfig, max_channels: int) -> None:
        self.window = config.window_size
        self.compact = True
        self.max_channels = max_channels
        self.num_aas = config.num_aas
        self.max_seq = np.full(max_channels, -1, dtype=np.int64)
        self.seen = np.zeros(max_channels * self.window, dtype=np.uint8)
        self.pkt_state = np.zeros(max_channels * self.window, dtype=np.int64)
        #: Oversize bitmaps (>= 2**62, hostile LONG frames) spill here;
        #: the array cell holds -1 as the spill marker.
        self._big: Dict[int, int] = {}
        self.stale_drops = 0
        self.duplicates_detected = 0

    # -- DedupUnit-compatible SRAM accounting (paper's 1056 B/channel) --
    @property
    def sram_bytes(self) -> int:
        n, w = self.max_channels, self.window
        return (
            (n * 32 + 7) // 8  # max_seq, 32-bit
            + (n * w + 7) // 8  # compact seen, 1-bit
            + (n * w * self.num_aas + 7) // 8  # PktState, num_aas-bit
        )

    def sram_bytes_per_channel(self) -> float:
        return self.sram_bytes / self.max_channels

    # -- PktState with the oversize spill table --
    def state_store(self, index: int, bitmap: int) -> None:
        if bitmap < _BIG_LIMIT:
            self.pkt_state[index] = bitmap
            if self._big:
                self._big.pop(index, None)
        else:
            self.pkt_state[index] = -1
            self._big[index] = bitmap

    def state_load(self, index: int) -> int:
        value = int(self.pkt_state[index])
        if value == -1:
            return self._big[index]
        return value

    # -- lifecycle --
    def wipe(self) -> None:
        """Power-cycle reset: registers back to power-on values."""
        self.max_seq.fill(-1)
        self.seen.fill(0)
        self.pkt_state.fill(0)
        self._big.clear()

    def reinstall_channel(self, channel_slot: int, next_seq: int) -> None:
        """Re-baseline one channel after a reboot wipe — same state the
        scalar :meth:`~repro.switch.dedup.DedupUnit.reinstall_channel`
        writes (Eq. 8's first-appearance invariant)."""
        if not 0 <= channel_slot < self.max_channels:
            raise IndexError(f"channel slot {channel_slot} out of range")
        self.max_seq[channel_slot] = next_seq - 1
        window = self.window
        base = channel_slot * window
        for residue in range(window):
            first = next_seq + ((residue - next_seq) % window)
            segment = (first // window) % 2
            self.seen[base + residue] = 1 if segment else 0
        self.pkt_state[base : base + window] = 0
        for offset in range(window):
            self._big.pop(base + offset, None)


class _FlushingController(SwitchController):
    """Controller that forces pending batches through before any
    control-plane operation that reads or rewrites data-plane state.

    A scalar switch processes a packet delivered at ``T`` before a
    later-ordered control event at ``T``; flushing first reproduces that
    interleaving for batched packets.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._flush: Any = lambda: None

    def fetch_and_reset(self, task_id: int, part: int) -> dict[bytes, int]:
        self._flush()
        return super().fetch_and_reset(task_id, part)

    def allocate_region(self, task_id: int, *args: Any, **kwargs: Any) -> Region:
        self._flush()
        return super().allocate_region(task_id, *args, **kwargs)

    def deallocate(self, task_id: int) -> None:
        self._flush()
        super().deallocate(task_id)

    def reset_task(self, task_id: int) -> None:
        self._flush()
        super().reset_task(task_id)

    def region_occupancy(self, task_id: int, part: int) -> float:
        self._flush()
        return super().region_occupancy(task_id, part)


class VectorizedProgram:
    """The batch pipeline: scalar-exact decisions over SoA state.

    :meth:`process_batch` takes same-instant packets in delivery order and
    returns one :data:`Outcome` per packet — a
    :class:`~repro.switch.program.SwitchDecision`, or the quarantine
    reason string the facade should record (the scalar facade catches
    ``ProtocolError``/``RegionExhaustedError`` at the same boundary).
    """

    def __init__(
        self,
        config: AskConfig,
        controller: SwitchController,
        pool: SoAPool,
        dedup: SoADedupState,
        shadow: ShadowDirectory,
        switch_name: str = "switch",
    ) -> None:
        self.config = config
        self.controller = controller
        self.pool = pool
        self.dedup = dedup
        self.shadow = shadow
        self.layout = KeySpaceLayout(config)
        self.switch_name = switch_name
        self.stats = ProgramStats()
        self._key_bytes = config.key_bytes
        self._value_mask = config.value_mask
        # How many lanes may pile onto one occupied cell before the sweep's
        # pre-mask int64 accumulator could overflow: (n + 1) values below
        # 2**value_bits must stay under 2**62.
        self._max_shared = max(1, (1 << 62) // (self._value_mask + 1) - 1)
        self._short_mask = (1 << self.layout.num_short_slots) - 1
        self._group_info: List[Tuple[Tuple[int, ...], int]] = []
        for group in range(self.layout.num_groups):
            slots = self.layout.group_slots(group)
            gmask = 0
            for s in slots:
                gmask |= 1 << s
            self._group_info.append((slots, gmask))
        self._medium_mask = 0
        for _, gmask in self._group_info:
            self._medium_mask |= gmask
        #: channel_key -> dedup slot (channel slots are never recycled).
        self._channels: Dict[Tuple[str, int], int] = {}

    def invalidate_compiled(self) -> None:
        """Drop the channel-slot cache (called on switch reboot)."""
        self._channels.clear()

    # ------------------------------------------------------------------
    # Batch entry point
    # ------------------------------------------------------------------
    def process_batch(self, packets: List[AskPacket]) -> List[Outcome]:
        """Process one same-instant batch; outcomes align with ``packets``."""
        out: List[Optional[Outcome]] = [None] * len(packets)
        run: List[AskPacket] = []
        run_pos: List[int] = []
        for pos, pkt in enumerate(packets):
            if pkt.flags & 0xA:  # ACK or SWAP: a run barrier (SWAP flips
                # the copy indicator that aggregation lanes read).
                self._drain_run(run, run_pos, out)
                run = []
                run_pos = []
                out[pos] = self._safe_one(pkt)
            else:
                run.append(pkt)
                run_pos.append(pos)
        self._drain_run(run, run_pos, out)
        return out  # type: ignore[return-value]

    def _drain_run(
        self,
        run: List[AskPacket],
        run_pos: List[int],
        out: List[Optional[Outcome]],
    ) -> None:
        if not run:
            return
        if len(run) < VEC_MIN:
            for pkt, pos in zip(run, run_pos):
                out[pos] = self._safe_one(pkt)
            return
        self._run_vectorized(run, run_pos, out)

    def _safe_one(self, pkt: AskPacket) -> Outcome:
        try:
            return self._process_one(pkt)
        except ProtocolError:
            return "protocol-invariant"
        except RegionExhaustedError:
            return "region-exhausted"

    # ------------------------------------------------------------------
    # The vector sweep
    # ------------------------------------------------------------------
    def _lane_ops(
        self,
        lane: int,
        pkt: AskPacket,
        base: int,
        size: int,
        shorts: Tuple[List[int], ...],
        g_rows: List[Tuple[Tuple[int, ...], int, Tuple[int, ...], int, int, int]],
        extra_cells: List[Tuple[int, int, int]],
    ) -> bool:
        """Pre-compute one aggregatable lane's cell operations.

        Appends the lane's short-slot operations straight into the run's
        flat column lists (``shorts`` = lane/aa/index/key/value/bit) and
        its medium-group rows into ``g_rows``.  Cells touched by ops that
        cannot ride the sweep (exotic key widths) go to ``extra_cells`` as
        ``(lane, aa, index)`` so cross-lane conflict detection still sees
        them.  Returns ``scalar_only`` — a lane the sweep must not run: a
        live bit on a blank slot or a partial medium group (the scalar
        path raises mid-pass, after partial mutations) or key segments
        outside the packed-int64 envelope.
        """
        s_lane, s_aa, s_ix, s_kk, s_vv, s_bit = shorts
        kb = self._key_bytes
        mask = self._value_mask
        bitmap = pkt.bitmap
        slots_tup = pkt.slots
        scalar_only = False
        sb = bitmap & self._short_mask
        while sb:
            slot = (sb & -sb).bit_length() - 1
            sb &= sb - 1
            tup = slots_tup[slot]
            if tup is None:
                scalar_only = True  # scalar raises when this bit is reached
                continue
            key = tup.key
            index = base + address_hash(key) % size
            if len(key) != kb:
                scalar_only = True  # exotic segment: per-cell byte compare
                extra_cells.append((lane, slot, index))
                continue
            s_lane.append(lane)
            s_aa.append(slot)
            s_ix.append(index)
            s_kk.append(int.from_bytes(key, "big"))
            s_vv.append(tup.value & mask)
            s_bit.append(1 << slot)
        if bitmap & self._medium_mask:
            for slots, gmask in self._group_info:
                hit = bitmap & gmask
                if not hit:
                    continue
                if hit != gmask:
                    scalar_only = True  # scalar raises on the partial group
                    continue
                segments: List[bytes] = []
                value = 0
                complete = True
                for s in slots:
                    tup = slots_tup[s]
                    if tup is None:
                        scalar_only = True
                        complete = False
                        break
                    segments.append(tup.key)
                    value = tup.value  # the value rides in the last slot
                if not complete:
                    continue
                padded = b"".join(segments)
                index = base + address_hash(padded) % size
                if any(len(seg) != kb for seg in segments):
                    scalar_only = True
                    for s in slots:
                        extra_cells.append((lane, s, index))
                    continue
                kints = tuple(int.from_bytes(seg, "big") for seg in segments)
                g_rows.append((slots, index, kints, value & mask, gmask, lane))
        return scalar_only

    def _run_vectorized(
        self,
        run: List[AskPacket],
        run_pos: List[int],
        out: List[Optional[Outcome]],
    ) -> None:
        n = len(run)
        controller = self.controller
        channels = self._channels

        l_slot = [0] * n
        l_seq = [0] * n
        l_flags = [0] * n
        l_bitmap = [0] * n
        l_unknown = [False] * n
        l_agg = [False] * n
        handled: List[Optional[str]] = [None] * n
        scalar = [False] * n
        chan_lanes: Dict[Tuple[str, int], List[int]] = {}
        extra_cells: List[Tuple[int, int, int]] = []
        shorts: Tuple[List[int], ...] = ([], [], [], [], [], [])
        g_rows: List[Tuple[Tuple[int, ...], int, Tuple[int, ...], int, int, int]] = []
        #: task_id -> (base, size); the shadow write part is stable within
        #: a run (swaps are run barriers, control flushes precede batches).
        region_geom: Dict[int, Tuple[int, int]] = {}
        shadow = self.shadow

        # Pre-pass: resolve channels (in delivery order — slot assignment
        # is order-sensitive), classify lanes, pre-compute cell ops.
        for i, pkt in enumerate(run):
            ck = pkt.channel_key
            chan_lanes.setdefault(ck, []).append(i)
            slot = channels.get(ck)
            if slot is None:
                try:
                    slot = controller.channel_slot(ck)
                except RegionExhaustedError:
                    handled[i] = "region-exhausted"
                    continue
                channels[ck] = slot
            l_slot[i] = slot
            seq = pkt.seq
            flags = int(pkt.flags)
            bitmap = pkt.bitmap
            l_seq[i] = seq
            l_flags[i] = flags
            l_bitmap[i] = bitmap
            region = controller.lookup_region(pkt.task_id)
            data_no_fin_long = flags & 0x15 == 0x1
            l_unknown[i] = region is None and bool(bitmap) and data_no_fin_long
            if bitmap and region is not None and data_no_fin_long:
                l_agg[i] = True
                geom = region_geom.get(pkt.task_id)
                if geom is None:
                    part = shadow.control_write_part(region.task_slot)
                    geom = (shadow.part_offset(part) + region.offset, region.size)
                    region_geom[pkt.task_id] = geom
                if self._lane_ops(
                    i, pkt, geom[0], geom[1], shorts, g_rows, extra_cells
                ):
                    scalar[i] = True
            if bitmap >= _BIG_LIMIT or seq >= _BIG_LIMIT:
                scalar[i] = True  # outside the int64 lane envelope

        # Conflict marking.  Same channel in two lanes means the dedup
        # verdicts are order-dependent — every involved lane runs on the
        # scalar mirror, in delivery order.  A shared aggregator cell is
        # order-dependent only while the claim is in play: once the cell
        # holds a real packed key, every further touch is a masked add
        # (mod-2^value_bits, commutative) or a keyless fail (no mutation),
        # so those lanes can share the sweep via scatter-add.  Blank or
        # exotic shared cells — and pile-ups deep enough to overflow the
        # int64 accumulator before the mask — still go scalar.
        for lanes in chan_lanes.values():
            if len(lanes) > 1:
                for i in lanes:
                    scalar[i] = True
        cl_lane = np.array(shorts[0], dtype=np.int64)
        cl_aa = np.array(shorts[1], dtype=np.int64)
        cl_ix = np.array(shorts[2], dtype=np.int64)
        if g_rows or extra_cells:
            x_lane: List[int] = []
            x_aa: List[int] = []
            x_ix: List[int] = []
            for slots, index, _kints, _val, _gmask, lane in g_rows:
                for s in slots:
                    x_lane.append(lane)
                    x_aa.append(s)
                    x_ix.append(index)
            for lane, aa, index in extra_cells:
                x_lane.append(lane)
                x_aa.append(aa)
                x_ix.append(index)
            cl_lane = np.concatenate([cl_lane, np.array(x_lane, dtype=np.int64)])
            cl_aa = np.concatenate([cl_aa, np.array(x_aa, dtype=np.int64)])
            cl_ix = np.concatenate([cl_ix, np.array(x_ix, dtype=np.int64)])
        if cl_lane.size:
            keys_now = self.pool.keys
            cid = cl_aa * keys_now.shape[1] + cl_ix
            _uniq, inv, counts = np.unique(
                cid, return_inverse=True, return_counts=True
            )
            mult = counts[inv]
            shared = mult > 1
            if shared.any():
                stored = keys_now.ravel()[cid]
                bad = shared & ((stored < 0) | (mult > self._max_shared))
                for lane in cl_lane[bad]:
                    scalar[int(lane)] = True

        vec = [i for i in range(n) if handled[i] is None and not scalar[i]]
        if vec:
            self._sweep(run, run_pos, out, vec, l_slot, l_seq, l_flags, l_bitmap,
                        l_unknown, l_agg, shorts, g_rows)

        # Conflict/hostile lanes: the statement-exact scalar mirror, in
        # delivery order.  Their channels are disjoint from the vector
        # lanes' and any cell they share with the sweep is occupied (only
        # commutative adds/fails land there), so sweeping first is
        # order-equivalent.
        for i in range(n):
            if handled[i] is not None:
                out[run_pos[i]] = handled[i]
            elif scalar[i]:
                out[run_pos[i]] = self._safe_one(run[i])

    def _sweep(
        self,
        run: List[AskPacket],
        run_pos: List[int],
        out: List[Optional[Outcome]],
        vec: List[int],
        l_slot: List[int],
        l_seq: List[int],
        l_flags: List[int],
        l_bitmap: List[int],
        l_unknown: List[bool],
        l_agg: List[bool],
        shorts: Tuple[List[int], ...],
        g_rows: List[Tuple[Tuple[int, ...], int, Tuple[int, ...], int, int, int]],
    ) -> None:
        m = len(vec)
        d = self.dedup
        W = d.window
        stats = self.stats
        pool = self.pool

        vec_arr = np.fromiter(vec, dtype=np.int64, count=m)
        pos_by_lane = np.full(len(run), -1, dtype=np.int64)
        pos_by_lane[vec_arr] = np.arange(m, dtype=np.int64)
        ch = np.fromiter((l_slot[i] for i in vec), dtype=np.int64, count=m)
        sq = np.fromiter((l_seq[i] for i in vec), dtype=np.int64, count=m)

        # Dedup front (one access per array, exactly the scalar schedule):
        # rmw_max for every lane — including stale ones — then the compact
        # seen record (Eq. 8) for live lanes only.
        new_max = np.maximum(d.max_seq[ch], sq)
        d.max_seq[ch] = new_max  # channels are unique among vector lanes
        stale = sq <= new_max - W
        code = np.zeros(m, dtype=np.int64)
        code[stale] = 2
        live_pos = np.nonzero(~stale)[0]
        if live_pos.size:
            lch = ch[live_pos]
            lsq = sq[live_pos]
            idx = lch * W + lsq % W
            odd = ((lsq // W) & 1) == 1
            cur = d.seen[idx].astype(np.int64)
            observed = np.where(odd, 1 - cur, cur)
            d.seen[idx] = np.where(odd, 0, 1).astype(np.uint8)
            obs = observed == 1
            code[live_pos[obs]] = 1
            n_obs = int(obs.sum())
        else:
            n_obs = 0
        n_stale = int(stale.sum())
        d.stale_drops += n_stale
        stats.stale_drops += n_stale
        d.duplicates_detected += n_obs
        stats.data_packets += m - n_stale
        stats.retransmissions_seen += n_obs

        # Aggregation sweep over fresh aggregatable lanes.  Blank (claim)
        # cells are unique across the whole sweep — shared cells only made
        # it here when already occupied, where every touch is a commutative
        # masked add or a mutation-free fail — so shorts-then-groups over
        # flat arrays commutes with the scalar lane-by-lane order.  The
        # flat columns cover every pre-passed lane; ops from lanes that
        # went scalar (pos -1) or were deduplicated away are masked out.
        clear = np.zeros(m, dtype=np.int64)
        K = pool.keys
        V = pool.values
        mask = self._value_mask
        s_lane, s_aa, s_ix, s_kk, s_vv, s_bit = shorts
        if s_lane:
            sp_all = pos_by_lane[np.array(s_lane, dtype=np.int64)]
            sel = sp_all >= 0
            sel &= code[np.where(sel, sp_all, 0)] == 0
            if sel.any():
                aa = np.array(s_aa, dtype=np.int64)[sel]
                ix = np.array(s_ix, dtype=np.int64)[sel]
                kk = np.array(s_kk, dtype=np.int64)[sel]
                vv = np.array(s_vv, dtype=np.int64)[sel]
                op_pos = sp_all[sel]
                stored = K[aa, ix]
                blank = stored == _BLANK
                match = stored == kk
                succ = blank | match
                if blank.any():
                    K[aa[blank], ix[blank]] = kk[blank]
                    V[aa[blank], ix[blank]] = vv[blank]
                if match.any():
                    ma, mi = aa[match], ix[match]
                    np.add.at(V, (ma, mi), vv[match])  # cells may repeat
                    V[ma, mi] &= mask
                pool.tuples_aggregated += int(succ.sum())
                pool.tuples_failed += int((~succ).sum())
                pool.aggregators_reserved += int(blank.sum())
                if succ.any():
                    np.bitwise_or.at(
                        clear,
                        op_pos[succ],
                        np.array(s_bit, dtype=np.int64)[sel][succ],
                    )

        live_rows = []
        for row in g_rows:
            pos = int(pos_by_lane[row[5]])
            if pos >= 0 and code[pos] == 0:
                live_rows.append((row[0], row[1], row[2], row[3], row[4], pos))
        if live_rows:
            g_rows = live_rows
            width = len(g_rows[0][0])
            g_aa = np.array([row[0] for row in g_rows], dtype=np.int64)
            g_ix = np.array([row[1] for row in g_rows], dtype=np.int64)
            g_kk = np.array([row[2] for row in g_rows], dtype=np.int64)
            g_val = np.array([row[3] for row in g_rows], dtype=np.int64)
            g_gmask = np.array([row[4] for row in g_rows], dtype=np.int64)
            g_pos = np.array([row[5] for row in g_rows], dtype=np.int64)
            stored = K[g_aa, g_ix[:, None]]
            blank_cells = stored == _BLANK
            all_blank = blank_cells.all(axis=1)
            all_match = (stored == g_kk).all(axis=1)
            # Rows outside the uniform all-blank/all-occupied invariant
            # (possible only via hostile exotic traffic) replay the exact
            # sequential predicated schedule per row.
            fallback = (stored == _EXOTIC).any(axis=1) | (
                blank_cells.any(axis=1) & ~all_blank
            )
            fail = ~(all_blank | all_match | fallback)
            if all_blank.any():
                ca = g_aa[all_blank]
                ci = g_ix[all_blank]
                K[ca, ci[:, None]] = g_kk[all_blank]
                vals = np.zeros(ca.shape, dtype=np.int64)
                vals[:, -1] = g_val[all_blank]
                V[ca, ci[:, None]] = vals
                n_claim = int(all_blank.sum())
                pool.aggregators_reserved += n_claim * width
                pool.tuples_aggregated += n_claim
            if all_match.any():
                la = g_aa[all_match][:, -1]
                li = g_ix[all_match]
                np.add.at(V, (la, li), g_val[all_match])  # rows may repeat
                V[la, li] &= mask
                pool.tuples_aggregated += int(all_match.sum())
            pool.tuples_failed += int(fail.sum())
            succ_rows = all_blank | all_match
            if succ_rows.any():
                np.bitwise_or.at(clear, g_pos[succ_rows], g_gmask[succ_rows])
            if fallback.any():
                for row_idx in np.nonzero(fallback)[0]:
                    slots, index, kints, val, gmask, pos = g_rows[int(row_idx)]
                    segments = tuple(
                        kint.to_bytes(self._key_bytes, "big") for kint in kints
                    )
                    if self._agg_group(slots, index, segments, val):
                        clear[pos] |= gmask

        # Final bitmaps: fresh lanes carry the post-aggregation bitmap
        # into PktState (Eq. 9); observed lanes restore it (Eq. 10).
        bm0 = np.fromiter((l_bitmap[i] for i in vec), dtype=np.int64, count=m)
        final = bm0 & ~clear
        fresh = code == 0
        if fresh.any():
            d.pkt_state[ch[fresh] * W + sq[fresh] % W] = final[fresh]
        big_override: Dict[int, int] = {}
        observed_rows = code == 1
        if observed_rows.any():
            opos = np.nonzero(observed_rows)[0]
            oidx = ch[opos] * W + sq[opos] % W
            loaded = d.pkt_state[oidx]
            spill = loaded == -1
            if spill.any():
                # Oversize spill entries may exceed int64; carry them as
                # Python ints straight to the verdict loop.
                loaded = loaded.copy()
                for k in np.nonzero(spill)[0]:
                    big_override[int(opos[k])] = d._big[int(oidx[k])]
                    loaded[k] = 0
            final[opos] = loaded

        # Verdicts, in delivery order.
        for pos in range(m):
            i = vec[pos]
            pkt = run[i]
            c = int(code[pos])
            if c == 2:
                out[run_pos[i]] = SwitchDecision(SwitchAction.DROP)
                continue
            if l_unknown[i]:
                stats.unknown_task_packets += 1
            bm = big_override[pos] if pos in big_override else int(final[pos])
            if c == 0 and l_agg[i]:
                orig = l_bitmap[i]
                stats.tuples_seen += orig.bit_count()
                stats.tuples_aggregated += orig.bit_count() - bm.bit_count()
            flags = l_flags[i]
            if flags & 0x4:  # FIN
                stats.fins += 1
                out[run_pos[i]] = SwitchDecision(
                    SwitchAction.FORWARD, [pkt.with_bitmap(bm)]
                )
            elif flags & 0x10:  # LONG
                stats.long_packets += 1
                out[run_pos[i]] = SwitchDecision(
                    SwitchAction.FORWARD, [pkt.with_bitmap(bm)]
                )
            elif bm == 0:
                stats.packets_acked += 1
                out[run_pos[i]] = SwitchDecision(
                    SwitchAction.ACK, [ack_for(pkt, self.switch_name)]
                )
            else:
                stats.packets_forwarded += 1
                out[run_pos[i]] = SwitchDecision(
                    SwitchAction.FORWARD, [pkt.with_bitmap(bm)]
                )

    # ------------------------------------------------------------------
    # The scalar mirror: statement-exact replication of
    # AskSwitchProgram.process over the SoA state, including the partial
    # mutations a mid-pass ProtocolError leaves behind.
    # ------------------------------------------------------------------
    def _process_one(self, pkt: AskPacket) -> SwitchDecision:
        flags = pkt.flags
        if flags & 0x2:  # ACK (defensive: the facade routes these)
            return SwitchDecision(SwitchAction.FORWARD, [pkt])
        if flags & 0x8:  # SWAP
            return self._process_swap_one(pkt)
        return self._process_data_one(pkt)

    def _process_swap_one(self, pkt: AskPacket) -> SwitchDecision:
        region = self.controller.lookup_region(pkt.task_id)
        if region is not None:
            shadow = self.shadow
            if shadow.enabled:  # apply_swap's gating, control interface
                shadow.indicator.control_write(region.task_slot, pkt.seq & 1)
                shadow.swaps_applied += 1
            self.stats.swaps += 1
        return SwitchDecision(SwitchAction.ACK, [ack_for(pkt, self.switch_name)])

    def _process_data_one(self, pkt: AskPacket) -> SwitchDecision:
        ck = pkt.channel_key
        slot = self._channels.get(ck)
        if slot is None:
            slot = self.controller.channel_slot(ck)  # may raise
            self._channels[ck] = slot
        d = self.dedup
        W = d.window
        seq = pkt.seq
        stats = self.stats
        old_max = int(d.max_seq[slot])
        new_max = seq if seq > old_max else old_max
        d.max_seq[slot] = new_max
        if seq <= new_max - W:
            d.stale_drops += 1
            stats.stale_drops += 1
            return SwitchDecision(SwitchAction.DROP)
        sidx = slot * W + seq % W
        if (seq // W) & 1:  # Eq. 8: odd segments record appearance as 0
            observed = 1 - int(d.seen[sidx])
            d.seen[sidx] = 0
        else:
            observed = int(d.seen[sidx])
            d.seen[sidx] = 1
        if observed:
            d.duplicates_detected += 1
        stats.data_packets += 1
        flags = int(pkt.flags)
        region = self.controller.lookup_region(pkt.task_id)
        if region is None and pkt.bitmap and flags & 0x15 == 0x1:
            stats.unknown_task_packets += 1
        if not observed:
            bitmap = pkt.bitmap
            if bitmap and region is not None and flags & 0x15 == 0x1:
                stats.tuples_seen += bitmap.bit_count()
                bitmap = self._aggregate_one(pkt, region)
                stats.tuples_aggregated += pkt.bitmap.bit_count() - bitmap.bit_count()
            d.state_store(sidx, bitmap)
        else:
            stats.retransmissions_seen += 1
            bitmap = d.state_load(sidx)
        if flags & 0x4:  # FIN
            stats.fins += 1
            return SwitchDecision(SwitchAction.FORWARD, [pkt.with_bitmap(bitmap)])
        if flags & 0x10:  # LONG
            stats.long_packets += 1
            return SwitchDecision(SwitchAction.FORWARD, [pkt.with_bitmap(bitmap)])
        if bitmap == 0:
            stats.packets_acked += 1
            return SwitchDecision(SwitchAction.ACK, [ack_for(pkt, self.switch_name)])
        stats.packets_forwarded += 1
        return SwitchDecision(SwitchAction.FORWARD, [pkt.with_bitmap(bitmap)])

    def _aggregate_one(self, pkt: AskPacket, region: Region) -> int:
        shadow = self.shadow
        part = shadow.control_write_part(region.task_slot)
        base = shadow.part_offset(part) + region.offset
        size = region.size
        pool = self.pool
        bitmap = pkt.bitmap
        short_bits = bitmap & self._short_mask
        while short_bits:
            slot = (short_bits & -short_bits).bit_length() - 1
            short_bits &= short_bits - 1
            tup = pkt.slots[slot]
            if tup is None:
                raise ProtocolError(f"bitmap bit {slot} set on a blank slot")
            index = base + address_hash(tup.key) % size
            code = self._cell_rmw(slot, index, tup.key, tup.value)
            if code:
                pool.tuples_aggregated += 1
                if code == 2:
                    pool.aggregators_reserved += 1
                bitmap &= ~(1 << slot)
            else:
                pool.tuples_failed += 1
        if bitmap & self._medium_mask:
            for group, (slots, gmask) in enumerate(self._group_info):
                hit = bitmap & gmask
                if not hit:
                    continue
                if hit != gmask:
                    raise ProtocolError(
                        f"medium group {group} has a partially-set bitmap; "
                        "group tuples must be aggregated all-or-nothing"
                    )
                segments: List[bytes] = []
                value = 0
                for s in slots:
                    tup = pkt.slots[s]
                    if tup is None:
                        raise ProtocolError(f"bitmap bit {s} set on a blank slot")
                    segments.append(tup.key)
                    value = tup.value  # the value rides in the last slot
                padded = b"".join(segments)
                index = base + address_hash(padded) % size
                if self._agg_group(slots, index, tuple(segments), value):
                    for s in slots:
                        bitmap &= ~(1 << s)
        return bitmap

    def _agg_group(
        self,
        slots: Tuple[int, ...],
        index: int,
        segments: Tuple[bytes, ...],
        value: int,
    ) -> bool:
        """Sequential predicated group aggregation — the exact counter and
        mutation schedule of ``AggregatorPool.aggregate_group``."""
        pool = self.pool
        ok = True
        last = len(slots) - 1
        for pos, (slot, segment) in enumerate(zip(slots, segments)):
            add = value if pos == last else None
            cell_code = self._cell_rmw(slot, index, segment, add, enabled=ok)
            if ok and cell_code == 0:
                ok = False
            if cell_code == 2:
                pool.aggregators_reserved += 1
        if ok:
            pool.tuples_aggregated += 1
        else:
            pool.tuples_failed += 1
        return ok

    def _cell_rmw(
        self,
        aa: int,
        index: int,
        segment: bytes,
        add_value: Optional[int],
        enabled: bool = True,
    ) -> int:
        """One aggregator RMW over the SoA lanes — decision-identical to
        ``AggregatorArray.aggregate_fast`` (0 FAIL / 1 MATCHED / 2 RESERVED)."""
        if not enabled:
            return 0
        pool = self.pool
        keys = pool.keys
        k = int(keys[aa, index])
        if k == _BLANK:
            if len(segment) == self._key_bytes:
                keys[aa, index] = int.from_bytes(segment, "big")
            else:
                keys[aa, index] = _EXOTIC
                pool.exotic[(aa, index)] = segment
            pool.values[aa, index] = (
                0 if add_value is None else add_value & self._value_mask
            )
            return 2
        if k == _EXOTIC:
            matched = pool.exotic[(aa, index)] == segment
        else:
            matched = len(segment) == self._key_bytes and k == int.from_bytes(
                segment, "big"
            )
        if matched:
            if add_value is not None:
                pool.values[aa, index] = (
                    int(pool.values[aa, index]) + add_value
                ) & self._value_mask
            return 1
        return 0


class VectorizedAskSwitch(AskSwitch):
    """The SoA batch data plane behind the :class:`AskSwitch` facade.

    Drop-in ``switch_factory`` for :class:`~repro.runtime.builder.
    DeploymentBuilder` (selected by ``config.vectorized=True``).  The SoA
    arrays are the single source of truth; the scalar register pipeline
    built by the base constructor is kept only for the resource summary.
    On clocks that expose :meth:`~repro.net.simulator.Simulator.
    call_at_batch` (the sim backend), consecutive same-link deliveries at
    one instant coalesce into one batch — the simulator flushes the open
    bucket the moment any other event runs, so push order stays exact;
    other clocks (asyncio) process each packet as a batch of one.
    """

    def __init__(
        self,
        config: AskConfig,
        clock: Clock,
        name: str = "switch",
        max_tasks: int = 64,
        max_channels: int = 256,
        trace: Optional[PacketTrace] = None,
        max_stages: int = 64,
    ) -> None:
        _validate_geometry(config)
        super().__init__(
            config,
            clock,
            name=name,
            max_tasks=max_tasks,
            max_channels=max_channels,
            trace=trace,
            max_stages=max_stages,
        )
        self.pool = SoAPool(config)  # type: ignore[assignment]
        self.dedup = SoADedupState(config, max_channels)  # type: ignore[assignment]
        controller = _FlushingController(
            config,
            self.pool,
            self.shadow,
            max_tasks=max_tasks,
            max_channels=max_channels,
        )
        controller._flush = self._flush_pending
        self.controller = controller
        self.program = VectorizedProgram(  # type: ignore[assignment]
            config, controller, self.pool, self.dedup, self.shadow, switch_name=name
        )
        self._flush_cb = self._process_batch
        self._call_at_batch = getattr(clock, "call_at_batch", None)
        self._flush_batches = getattr(clock, "flush_batches", None)

    # ------------------------------------------------------------------
    def receive(self, packet: AskPacket) -> None:
        """Ingress: identical gating to the scalar facade, but gated data
        packets join the current instant's batch instead of running
        immediately."""
        if self._offline:
            self.dropped_while_down += 1
            return
        if type(packet) is CorruptedFrame:
            if self.config.integrity_checks:
                self.robustness.bump("checksum")
                if self.trace is not None:
                    self.trace.record(
                        self.clock.now, self.name, "integrity-drop", packet
                    )
                return
            packet = packet.packet
        if self.trace is not None:
            self.trace.record(self.clock.now, self.name, "ingress", packet)
        if not self._should_run_program(packet):
            self.clock.call_later(
                self.config.switch_pipeline_latency_ns, self._route, packet
            )
            return
        reason = validate_switch_ingress(
            packet, self.config.num_aas, self.config.data_channels_per_host
        )
        if reason is not None:
            self._quarantine(reason, packet)
            return
        batcher = self._call_at_batch
        if batcher is None:
            self._process_batch([packet])
        else:
            batcher(self.clock.now, self._flush_cb, packet)

    def _process_batch(self, packets: List[AskPacket]) -> None:
        outcomes = self.program.process_batch(packets)  # type: ignore[attr-defined]
        latency = self.config.switch_pipeline_latency_ns
        clock = self.clock
        trace = self.trace
        for pkt, outcome in zip(packets, outcomes):
            if isinstance(outcome, str):
                self._quarantine(outcome, pkt)
            elif outcome.emit:
                clock.call_later(latency, self._emit, outcome)
            elif trace is not None:
                trace.record(clock.now, self.name, "drop", pkt)

    def _flush_pending(self) -> None:
        """Force queued same-instant packets through the pipeline now."""
        flush = self._flush_batches
        if flush is not None:
            flush(self._flush_cb)

    # ------------------------------------------------------------------
    # Failure domain
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop: packets already delivered this instant were
        processed by a scalar switch before the crash event — flush them
        first, then go dark."""
        self._flush_pending()
        super().crash()

    def restore(self) -> None:
        """Reboot with every SoA array at its power-on value.

        Bypasses :meth:`AskSwitch.restore`, which walks the scalar
        register arrays this data plane does not use.
        """
        if self.is_up:
            return
        NetworkNode.restore(self)
        self.dedup.wipe()  # type: ignore[attr-defined]
        self.pool.wipe()  # type: ignore[attr-defined]
        self.shadow.indicator.control_reset()
        self.boot_count += 1
        self._needs_install = True
        self.program.invalidate_compiled()
        self._local_hosts_cache = None
