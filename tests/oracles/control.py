"""The seed per-cell register walk, frozen as the oracle of
:meth:`repro.switch.controller.SwitchController.fetch_and_reset`.

The product reads and clears register slices (``control_occupied`` /
``control_clear_range``); ``tests/switch/test_bulk_control_access.py``
requires the same result dict in the same insertion order, the same
registers afterwards and the same ``fetches`` counter.
"""

from __future__ import annotations

from typing import Any

from repro.core.keyspace import unpad_key


def reference_fetch_and_reset(controller: Any, task_id: int, part: int) -> dict[bytes, int]:
    """Seed ``SwitchController.fetch_and_reset``: one ``control_cell`` per
    aggregator of the region.  Oracle for the bulk register walk."""
    region = controller._regions[task_id]
    controller.fetches += 1
    base = controller.shadow.part_offset(part)
    pool, layout, mask = controller.pool, controller.layout, controller.config.value_mask
    result: dict[bytes, int] = {}
    for slot in range(layout.num_short_slots):
        for idx in range(base + region.offset, base + region.end):
            key, value = pool[slot].control_cell(idx)
            if key is None:
                continue
            plain = unpad_key(key)
            result[plain] = (result.get(plain, 0) + value) & mask
            pool[slot].control_clear(idx)
    for group in range(layout.num_groups):
        slots = layout.group_slots(group)
        for idx in range(base + region.offset, base + region.end):
            cells = [pool[s].control_cell(idx) for s in slots]
            if any(cell[0] is None for cell in cells):
                continue
            plain = unpad_key(b"".join(cell[0] for cell in cells))
            result[plain] = (result.get(plain, 0) + cells[-1][1]) & mask
            for s in slots:
                pool[s].control_clear(idx)
    return result
