"""3-bit checkpoint table and its state machine.

Every tracked object owns one 3-bit entry in a global table laid out as
[red | green | blue] regions, one byte per entry. Entry state encodes the
lifecycle phase; the sweep scans the bytes with numpy and decides from the
state bits alone, so per-entry work is constant and no object graph is
traversed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import AlignmentError, IndexRangeError, SignalConflictError
from .gates import eval_liveness_gate  # noqa: F401  (perfbench/tracer.py wraps this name)
from .layout import SLOT_BYTES, ZoneLayout


class StateCode(enum.IntEnum):
    """The eight 3-bit lifecycle states."""

    IDLE = 0b000
    ACTIVE = 0b001
    PROMOTE_CANDIDATE = 0b010
    DEMOTE_CANDIDATE = 0b011
    PERSISTENT = 0b100
    DEFERRED = 0b101
    MARKED = 0b110
    EXPIRED = 0b111


class Action(enum.Enum):
    WAIT_SLEEP = "wait/sleep"
    KEEP_ALIVE = "keep alive"
    EVALUATE = "evaluate"
    KEEP_STAY = "keep stay"
    DEFER_SWEEP = "defer sweep"
    PREPARE_DELETE = "prepare for deletion"
    RECLAIM_IMMEDIATELY = "reclaim immediately"


# Total mapping from state to the action the runtime takes on it.
ACTION_FOR_STATE: dict[StateCode, Action] = {
    StateCode.IDLE: Action.WAIT_SLEEP,
    StateCode.ACTIVE: Action.KEEP_ALIVE,
    StateCode.PROMOTE_CANDIDATE: Action.EVALUATE,
    StateCode.DEMOTE_CANDIDATE: Action.EVALUATE,
    StateCode.PERSISTENT: Action.KEEP_STAY,
    StateCode.DEFERRED: Action.DEFER_SWEEP,
    StateCode.MARKED: Action.PREPARE_DELETE,
    StateCode.EXPIRED: Action.RECLAIM_IMMEDIATELY,
}


@dataclass(frozen=True)
class Signals:
    """Lifecycle signals observed for one object since the last step."""

    accessed: bool = False
    persistent: bool = False
    sweep_scheduled: bool = False
    expired: bool = False


def step_state(current: StateCode, signals: Signals) -> tuple[StateCode, Action]:
    """Advance one entry's state by the observed signals.

    Signal priority is expired, then sweep_scheduled, then persistent, then
    accessed. With no signal the entry falls back to idle, except a deferred
    entry, which holds its state until confirmation.
    """
    if signals.expired and signals.accessed:
        raise SignalConflictError("object signalled both expired and accessed")
    if signals.expired:
        nxt = StateCode.EXPIRED
    elif signals.sweep_scheduled:
        nxt = StateCode.MARKED
    elif signals.persistent:
        nxt = StateCode.PERSISTENT
    elif signals.accessed:
        nxt = StateCode.ACTIVE
    elif current is StateCode.DEFERRED:
        nxt = StateCode.DEFERRED
    else:
        nxt = StateCode.IDLE
    return nxt, ACTION_FOR_STATE[nxt]


def index_of(address: int, base: int, capacity: int | None = None) -> int:
    """Table index of a slot address: (address - base) / 16."""
    offset = address - base
    if offset < 0:
        raise IndexRangeError(f"address {address:#x} below base {base:#x}")
    if offset % SLOT_BYTES:
        raise AlignmentError(
            f"address offset {offset} not aligned to {SLOT_BYTES} bytes"
        )
    index = offset // SLOT_BYTES
    if capacity is not None and index >= capacity:
        raise IndexRangeError(f"index {index} beyond capacity {capacity}")
    return index


def address_of(index: int, base: int) -> int:
    """Inverse of index_of for non-negative indices."""
    if index < 0:
        raise IndexRangeError(f"negative index {index}")
    return base + SLOT_BYTES * index


@dataclass
class SweepReport:
    evaluated: int
    reclaimed: list[int]
    candidates: list[int] = field(default_factory=list)


class CheckpointTable:
    """One byte per entry, each holding a 3-bit state, over all three zones."""

    def __init__(self, layout: ZoneLayout, base: int = 0) -> None:
        self.base = base
        self.capacity = layout.total
        self.epoch = 0
        self._states = bytearray(self.capacity)

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.capacity:
            raise IndexRangeError(f"index {i} outside table of {self.capacity} entries")

    def get_state(self, i: int) -> StateCode:
        self._check_index(i)
        return StateCode(self._states[i])

    def set_state(self, i: int, code: int) -> None:
        self._check_index(i)
        if not 0 <= code <= 0b111:
            raise ValueError(f"state code {code} outside 3 bits")
        self._states[i] = code

    def states(self) -> Iterator[StateCode]:
        return map(StateCode, self._states)

    def index_of(self, address: int) -> int:
        return index_of(address, self.base, self.capacity)

    def address_of(self, index: int) -> int:
        self._check_index(index)
        return address_of(index, self.base)

    def epoch_sweep(self) -> SweepReport:
        """Report reclaimable entries and candidates, without mutating.

        The decision reads only the state bits: an expired entry (111) is
        reclaimable, and promotion and demotion candidates (010, 011) are
        reported for re-classification. Reclamation itself is the slot
        owner's job, so pool accounting stays in one place.
        """
        s = np.frombuffer(self._states, np.uint8)
        reclaimed = np.flatnonzero(s == 0b111).tolist()
        candidates = np.flatnonzero((s & 0b110) == 0b010).tolist()
        self.epoch += 1
        return SweepReport(self.capacity, reclaimed, candidates)

