"""The retention gate and the zone-mask update, lanewise.

Operands are plain ints treated as bit vectors of an explicit width; a value
needing more bits than the declared width is a shape violation. Complements
are taken within the width, so every result stays inside the declared lane
count.
"""

from __future__ import annotations

from .errors import ShapeError


def mask(width: int) -> int:
    if width < 1:
        raise ShapeError(f"width must be >= 1, got {width}")
    return (1 << width) - 1


def _check(width: int, *operands: int) -> int:
    m = mask(width)
    for value in operands:
        if value < 0 or value > m:
            raise ShapeError(f"operand {value:#x} does not fit in {width} bit(s)")
    return m


def eval_liveness_gate(state: int, zone_mask: int, pending: int, width: int = 1) -> int:
    """Retention decision (state AND zone) OR (NOT state AND pending), lanewise.

    A set output lane means the lane's object is retained; a clear lane means
    it evaluates dead and may be acted on by the sweep.
    """
    m = _check(width, state, zone_mask, pending)
    return (state & zone_mask) | (m & ~state & pending)


def zone_mask_update(r: int, g: int, b: int, width: int = 1) -> tuple[int, int, int]:
    """One update step of the three zone activation masks, lanewise.

    r' = (r and not b) or (r and g)
    g' = (g or r) and not b
    b' = b and not g

    The cross terms keep a lane from being claimed by two zones at once.
    """
    m = _check(width, r, g, b)
    not_b = m & ~b
    r_next = (r & not_b) | (r & g)
    g_next = (g | r) & not_b
    b_next = b & (m & ~g)
    return r_next, g_next, b_next

