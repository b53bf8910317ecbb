"""Index geometry of the checkpoint table: zone regions and generations.

The table is a single flat index space split into three contiguous regions,
red then green then blue. Each region is subdivided positionally into three
generations. All of this is pure arithmetic on indices; nothing here touches
object state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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


class Generation(enum.IntEnum):
    GEN0 = 0
    GEN1 = 1
    GEN2 = 2


# Region order inside the table is fixed: [red | green | blue].
ZONE_ORDER = (ZoneId.RED, ZoneId.GREEN, ZoneId.BLUE)


@dataclass(frozen=True)
class ZoneLayout:
    """Sizes and subdivisions of the three table regions.

    gen0_fraction and gen1_fraction are cumulative cut points: generation 0
    covers the first gen0_fraction of a zone, generation 1 up to gen1_fraction,
    generation 2 the rest. Cut points are floored to whole indices. Each zone
    holds 1 to MAX_ZONE_SLOTS entries.
    """

    n_red: int
    n_green: int
    n_blue: int
    gen0_fraction: float = 0.25
    gen1_fraction: float = 0.75

    def __post_init__(self) -> None:
        if not (0.0 < self.gen0_fraction < self.gen1_fraction < 1.0):
            raise ValueError(
                "generation fractions must satisfy 0 < gen0 < gen1 < 1, got "
                f"{self.gen0_fraction} and {self.gen1_fraction}"
            )
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
        return self.n_red + self.n_green + self.n_blue

    def size(self, zone: ZoneId) -> int:
        if zone is ZoneId.RED:
            return self.n_red
        if zone is ZoneId.GREEN:
            return self.n_green
        return self.n_blue

    def start(self, zone: ZoneId) -> int:
        if zone is ZoneId.RED:
            return 0
        if zone is ZoneId.GREEN:
            return self.n_red
        return self.n_red + self.n_green

    def span(self, zone: ZoneId) -> tuple[int, int]:
        """Half-open [start, stop) index range of a zone."""
        lo = self.start(zone)
        return lo, lo + self.size(zone)

    def zone_of_index(self, i: int) -> ZoneId:
        if not 0 <= i < self.total:
            raise IndexRangeError(f"index {i} outside table of {self.total} entries")
        if i < self.n_red:
            return ZoneId.RED
        if i < self.n_red + self.n_green:
            return ZoneId.GREEN
        return ZoneId.BLUE

    def generation_of(self, i: int) -> Generation:
        zone = self.zone_of_index(i)  # also range-checks i
        lo = self.start(zone)
        n = self.size(zone)
        offset = i - lo
        if offset < int(self.gen0_fraction * n):
            return Generation.GEN0
        if offset < int(self.gen1_fraction * n):
            return Generation.GEN1
        return Generation.GEN2
