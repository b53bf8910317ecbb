"""3-bit checkpoint table and its sweep.

Every tracked object owns one 3-bit entry in a global table laid out as
[red | green | blue] regions, one byte per entry. Entry state encodes the
lifecycle phase as a StateCode, the one type for a 3-bit code. The slot's
owner writes the codes (the arena on allocation, free and sweep requests,
and a yield scope's code on promotion); nothing derives a code from observed
signals.
The sweep scans the bytes with numpy and decides from the state bits alone,
so per-entry work is constant and no object graph is traversed. The table
maps a slot's index to its 16-byte-aligned address above the table's base
and back. zero_column makes every capacity-sized array of an arena: these
state bytes and the SlotTable's rows and flag columns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import AlignmentError, IndexRangeError
from .gates import eval_liveness_gate  # noqa: F401  perfbench's tracer wraps checkpoint.eval_liveness_gate
from .layout import SLOT_BYTES, ZoneLayout


# numpy advises huge pages for an array of this many bytes or more, and a
# zone's claimed prefix of it then commits in 2 MiB steps.
HUGE_PAGE_BYTES = 1 << 22


def zero_column(n: int, dtype: type[np.generic]) -> memoryview:
    """n zero entries of dtype, as a memoryview whose pages the OS commits
    at their first write. Below HUGE_PAGE_BYTES it is a calloc'd numpy
    array's .data; at or above, a cast of an anonymous mapping, advised
    against huge pages, so that resident memory grows in 4 KiB pages. A
    mapping the OS refuses raises MemoryError, naming its size."""
    dtype = np.dtype(dtype)
    nbytes = n * dtype.itemsize
    if nbytes < HUGE_PAGE_BYTES:
        return np.zeros(n, dtype).data
    import mmap  # here: imported at the top, it adds ~0.2 MB to every process

    try:
        pages = mmap.mmap(-1, nbytes)
    except OSError:
        raise MemoryError(f"Unable to allocate {nbytes / 2**20:.0f} MiB for "
                          f"{n} entries of {dtype}") from None
    if hasattr(mmap, "MADV_NOHUGEPAGE"):  # Linux; it matters where THP is "always"
        pages.madvise(mmap.MADV_NOHUGEPAGE)
    return memoryview(pages).cast(dtype.char)


class StateCode(enum.IntEnum):
    """The eight 3-bit lifecycle states; each comment is the action the
    paper's runtime takes on an entry in that state."""

    IDLE = 0b000  # wait/sleep
    ACTIVE = 0b001  # keep alive
    PROMOTE_CANDIDATE = 0b010  # evaluate
    DEMOTE_CANDIDATE = 0b011  # evaluate
    PERSISTENT = 0b100  # keep, stay in zone
    DEFERRED = 0b101  # defer to a later sweep
    MARKED = 0b110  # prepare for deletion
    EXPIRED = 0b111  # reclaim immediately


@dataclass
class SweepReport:
    evaluated: int
    reclaimed: list[int]
    candidates: list[int] = field(default_factory=list)


class CheckpointTable:
    """One byte per entry, each holding a 3-bit state, over all three zones.

    The bytes are a zero_column, so an entry's page is committed at the
    first write to it, and each zone's resident bytes follow its claimed
    prefix, as the SlotTable's columns do."""

    def __init__(self, layout: ZoneLayout, base: int = 0) -> None:
        self.base = base
        self.capacity = layout.total
        self.epoch = 0
        self._states = zero_column(self.capacity, np.uint8)
        self._check_index = layout.check_index

    def get_state(self, i: int) -> StateCode:
        self._check_index(i)
        return StateCode(self._states[i])

    def set_state(self, i: int, code: int) -> None:
        """Write code, an int of 3 bits (a StateCode, a bool or a plain
        int), into entry i. An index outside the table raises
        IndexRangeError, and any other code ValueError, before the write."""
        if not 0 <= i < self.capacity:
            self._check_index(i)  # raises, with the range message
        if not (isinstance(code, int) and 0 <= code <= 0b111):
            raise ValueError(f"state code {code!r} is not an int of 3 bits")
        self._states[i] = code

    def states(self) -> Iterator[StateCode]:
        return map(StateCode, self._states)

    def index_of(self, address: int) -> int:
        """Table index of a slot address: (address - base) / 16."""
        offset = address - self.base
        if offset < 0:
            raise IndexRangeError(f"address {address:#x} below base {self.base:#x}")
        if offset % SLOT_BYTES:
            raise AlignmentError(
                f"address offset {offset} not aligned to {SLOT_BYTES} bytes"
            )
        index = offset // SLOT_BYTES
        self._check_index(index)
        return index

    def address_of(self, index: int) -> int:
        """Inverse of index_of."""
        self._check_index(index)
        return self.base + SLOT_BYTES * index

    def epoch_sweep(self) -> SweepReport:
        """Report reclaimable entries and candidates, without mutating.

        The decision reads only the state bits: an expired entry (111) is
        reclaimable, and promotion and demotion candidates (010, 011) are
        reported for re-classification. Reclamation itself is the slot
        owner's job, so pool accounting stays in one place.
        """
        s = np.asarray(self._states)
        reclaimed = np.flatnonzero(s == 0b111).tolist()
        candidates = np.flatnonzero((s & 0b110) == 0b010).tolist()
        self.epoch += 1
        return SweepReport(self.capacity, reclaimed, candidates)

