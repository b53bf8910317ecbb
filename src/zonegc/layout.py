"""Index geometry of the checkpoint table: zone regions and generations.

The table is a single flat index space split into three contiguous regions,
red then green then blue. ZoneLayout computes the region edges once, as
`bounds`; every other module reads a slot's zone from them. Each region is
subdivided positionally into three generations at the fixed GENERATION_CUTS.
All of this is pure arithmetic on indices; nothing here touches object
state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import IndexRangeError

SLOT_BYTES = 16  # address granularity; one table index per 16-byte slot
MAX_ZONE_SLOTS = 1 << 24  # per zone; bounds the table a config can ask for


class ZoneId(enum.Enum):
    RED = ("R", 0)
    GREEN = ("G", 1)
    BLUE = ("B", 2)

    # ordinal gives hot paths an attribute read instead of Enum.__hash__,
    # which is a Python-level call on 3.10.
    def __new__(cls, letter: str, ordinal: int):
        member = object.__new__(cls)
        member._value_ = letter
        member.ordinal = ordinal
        return member

    def __str__(self) -> str:
        return self.value


# Region order inside the table is fixed: [red | green | blue].
ZONE_ORDER = (ZoneId.RED, ZoneId.GREEN, ZoneId.BLUE)


# Cumulative cut points of the generations inside a zone, its quartiles:
# generation 0 covers the first quarter, generation 1 up to three quarters,
# generation 2 the rest. Cut points are floored to whole indices.
GENERATION_CUTS = (0.25, 0.75)


@dataclass(frozen=True)
class ZoneLayout:
    """Sizes of the three table regions, each holding 1 to MAX_ZONE_SLOTS
    entries.

    bounds holds the region edges, indexed by ZoneId.ordinal: zone z spans
    [bounds[z], bounds[z + 1]), and bounds[3] is the table size.
    """

    n_red: int
    n_green: int
    n_blue: int
    bounds: tuple[int, int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        green = self.n_red
        blue = green + self.n_green
        object.__setattr__(self, "bounds", (0, green, blue, blue + self.n_blue))
        for zone in ZONE_ORDER:
            n = self.size(zone)
            if n < 1:
                raise ValueError(f"zone {zone} needs at least one entry")
            if n > MAX_ZONE_SLOTS:
                raise ValueError(
                    f"zone {zone} has {n} entries, more than {MAX_ZONE_SLOTS}"
                )

    @property
    def total(self) -> int:
        return self.bounds[3]

    def size(self, zone: ZoneId) -> int:
        lo, hi = self.span(zone)
        return hi - lo

    def span(self, zone: ZoneId) -> tuple[int, int]:
        """Half-open [start, stop) index range of a zone."""
        z = zone.ordinal
        return self.bounds[z], self.bounds[z + 1]

    def check_index(self, i: int) -> int:
        """i, if the table has an entry i; else IndexRangeError."""
        total = self.bounds[3]
        if not 0 <= i < total:
            raise IndexRangeError(f"index {i} outside table of {total} entries")
        return i

    def zone_of_index(self, i: int) -> ZoneId:
        _, green, blue, total = self.bounds
        if not 0 <= i < total:
            self.check_index(i)  # raises, with the range message
        return ZONE_ORDER[0 if i < green else 1 if i < blue else 2]

    def generation_of(self, i: int) -> int:
        lo, hi = self.span(self.zone_of_index(i))  # also range-checks i
        offset = i - lo
        cut0, cut1 = GENERATION_CUTS
        if offset < int(cut0 * (hi - lo)):
            return 0
        if offset < int(cut1 * (hi - lo)):
            return 1
        return 2
