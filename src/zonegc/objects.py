"""Simulated object metadata: side tables, rate metrics, EMA smoothing.

Objects here are bookkeeping records, not real heap storage. Their metadata
lives in a SlotTable indexed by checkpoint-table slot, in the way the
checkpoint table keeps one byte of state per slot. A slot's allocation and
last-event times, static features (size, fan-out, complexity weight) and
windowed access and mutation rates are one row of eight-byte entries, so a
request on the slot writes one place; its liveness flag and the allocation
site tag's id are columns of their own. A claim writes the whole row, its
rate windows included, which open at the claim with no events. A slot's one
Python object is its ObjectHandle, which reads those entries.
Rates are counted over a fixed logical-time window and smoothed with an
exponential moving average; the smoothed view is what classification
consumes, as columns (feature_columns) or as the one-row case of them
(feature_snapshot).
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .checkpoint import zero_column
from .errors import LifecycleError
from .layout import ZoneId, ZoneLayout

NAN = float("nan")  # an EMA no window has closed into yet

RATE_WINDOW = 1.0  # default rate window, in logical seconds

# A roll over more windows than this advances the window start in one
# multiplication; up to it, one addition per window, which puts the window
# boundaries exactly where closing windows one at a time puts them.
STEPPED_WINDOWS = 256


class EventKind(enum.IntEnum):
    """An event's kind; its value indexes a SlotTable's per-kind rate
    entries."""

    ACCESS = 0
    MUTATION = 1


# record_event tells the two members apart by identity, the cheapest test.
_ACCESS, _MUTATION = EventKind


@dataclass(frozen=True)
class EmaConfig:
    """Smoothing weight for the moving average, open interval (0, 1)."""

    weight: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.weight < 1.0:
            raise ValueError(f"EMA weight must be in (0, 1), got {self.weight}")


def ema_update(prev: float, sample: float, cfg: EmaConfig) -> float:
    """One smoothing step: weight * sample + (1 - weight) * prev."""
    return cfg.weight * sample + (1.0 - cfg.weight) * prev


def _check_window(window: float) -> float:
    """The one rule for a rate window: finite and > 0."""
    if not 0.0 < window < math.inf:
        raise ValueError(f"rate window must be finite and > 0, got {window}")
    return window


def roll(ema: float, start: float, count: int, now: float, window: float,
         cfg: EmaConfig) -> tuple[float, float]:
    """Close every window that ended at or before `now`.

    Callers call this only when now >= start + window, and then reset the
    open count. The first closed window holds `count` events; its rate seeds
    a NaN ema and is smoothed into any other. The windows after it saw no
    events, and k zero samples compose to ema * (1 - weight) ** k, so the
    cost does not grow with the idle run; a decay that underflows leaves 0.0,
    also from an infinite rate. The window restarts at `now` when it is
    below the float spacing of its start, and when the count of closed
    windows overflows a float, which also leaves an ema of 0.0. Returns the
    new ema and window start.
    """
    closed = 0
    if now - start > STEPPED_WINDOWS * window:
        windows = (now - start) // window
        if windows == math.inf:
            return 0.0, now
        closed = int(windows) - 1
        start += closed * window
    while now >= (stop := start + window):
        if stop == start:
            start = now
            break
        start = stop
        closed += 1
    sample = count / window
    ema = sample if ema != ema else ema_update(ema, sample, cfg)
    if closed > 1:
        decay = (1.0 - cfg.weight) ** (closed - 1)
        ema = ema * decay if decay else 0.0
    return ema, start


@dataclass(frozen=True, slots=True, init=False)
class FeatureVector:
    """Per-object metrics consumed by classification and the cost model.

    Every field is non-negative and defaults to 0.0. The __init__ is written
    out: it checks the values first, then stores them through the slot
    descriptors, which skips the generated __init__'s object.__setattr__
    calls and a __post_init__ frame.
    """

    lifetime: float  # seconds since allocation
    mutation_rate: float  # writes/second
    access_rate: float  # reads/second
    size: float  # bytes
    fan_out: float  # inbound reference count
    complexity_weight: float  # dimensionless workload factor

    def __init__(self, lifetime: float = 0.0, mutation_rate: float = 0.0,
                 access_rate: float = 0.0, size: float = 0.0, fan_out: float = 0.0,
                 complexity_weight: float = 0.0) -> None:
        # One chained test and one store per field: a loop over the fields
        # costs more than the rest of the construction. min() would not do,
        # as min(nan, -1.0) is nan.
        if (lifetime < 0 or mutation_rate < 0 or access_rate < 0
                or size < 0 or fan_out < 0 or complexity_weight < 0):
            values = (lifetime, mutation_rate, access_rate, size, fan_out, complexity_weight)
            name = next(n for n, v in zip(self.__dataclass_fields__, values) if v < 0)
            raise ValueError(f"{name} must be non-negative")
        s0, s1, s2, s3, s4, s5 = _STORE_FEATURE
        s0(self, lifetime)
        s1(self, mutation_rate)
        s2(self, access_rate)
        s3(self, size)
        s4(self, fan_out)
        s5(self, complexity_weight)


# FeatureVector's slot setters, in field order.
_STORE_FEATURE = tuple(FeatureVector.__dict__[f.name].__set__ for f in fields(FeatureVector))


class RateTracker:
    """Events-per-second over a rolling logical-time window, EMA smoothed.

    Every completed window contributes exactly one sample (possibly zero) to
    the EMA chain. The first completed window seeds the EMA directly; before
    any window completes (ema is NaN), the smoothed view falls back to the
    rate observed in the current partial window so a cold stream is not
    misread as idle. The arena does not use it: a slot's rates are SlotTable
    entries that record_event closes with the same roll(). It stays as the
    reference the one-step roll is tested against, and for perfbench's
    tracer, which wraps record.
    """

    __slots__ = ("window", "cfg", "window_start", "count", "ema")

    def __init__(self, window: float = RATE_WINDOW, cfg: EmaConfig | None = None,
                 start: float = 0.0) -> None:
        self.window = _check_window(window)
        self.cfg = cfg or EmaConfig()
        self.reset(start)

    def reset(self, start: float) -> None:
        self.window_start = start
        self.count = 0
        self.ema = NAN

    def record(self, now: float) -> None:
        if now >= self.window_start + self.window:
            self.ema, self.window_start = roll(
                self.ema, self.window_start, self.count, now, self.window, self.cfg
            )
            self.count = 0
        self.count += 1

    @property
    def raw_rate(self) -> float:
        """Rate observed in the current (possibly partial) window."""
        return self.count / self.window

    @property
    def smoothed(self) -> float:
        ema = self.ema
        return ema if ema == ema else self.raw_rate


# A slot's row in a SlotTable: ROW eight-byte entries, packed by _ROW in this
# order: allocated_at, last_event_at, size, fan_out, complexity_weight, then,
# for each EventKind in order, its window start, open count (int64) and EMA.
_ROW = struct.Struct("5d dqd dqd")
_pack_row = _ROW.pack_into
ROW = _ROW.size // 8
SIZE, RATES = 2, 5  # the first static feature's entry, the first rate entry's


class SlotTable:
    """Metadata of every slot's occupant: one row per table slot, and the
    liveness flag and site tag id of each slot in columns of their own.

    The rows are one zero_column of capacity * ROW float64 entries, and each
    row entry is a strided memoryview of it: allocated_at, last_event_at,
    size, fan_out and complexity_weight, and per EventKind, indexed by the
    kind, window_start, count (int64) and ema. A request on a slot writes
    its row and its flags, not one page per entry. The flags stay apart, and
    so do the checkpoint table's state bytes, which a sweep scans.
    Every array is sized at table capacity and is a zero_column: a
    memoryview, whose item stores skip array argument parsing, over zero
    pages that the OS commits at their first write, 4 KiB at a time. A zone
    claims fresh slots in order, so resident memory follows each zone's
    claimed prefix, not capacity. A slot's entries describe its current
    object while alive[i] is set, its last one after release, and read all
    zero before its first claim. A rate window's EMA is NaN from the claim
    until a window closes. The zone is not stored: it is the slot's region
    in `layout`. A site tag is stored as a uint16 id into `tags`, the
    table's one list of the tags its objects were claimed for, in the order
    first claimed; id 0 is None.
    """

    def __init__(self, layout: ZoneLayout, window: float, cfg: EmaConfig) -> None:
        self.window = _check_window(window)
        n = layout.total
        self.rows = rows = zero_column(n * ROW, np.float64)
        counts = rows.cast("B").cast("q")
        (self.allocated_at, self.last_event_at, self.size, self.fan_out,
         self.complexity_weight) = (rows[k::ROW] for k in range(RATES))
        firsts = [RATES + 3 * kind for kind in EventKind]
        self.window_start = tuple(rows[k::ROW] for k in firsts)
        self.count = tuple(counts[k + 1::ROW] for k in firsts)
        self.ema = tuple(rows[k + 2::ROW] for k in firsts)
        self.alive = zero_column(n, np.uint8)
        self.site_tag = zero_column(n, np.uint16)
        self.tags: list[str | None] = [None]
        self.tag_ids: dict[str | None, int] = {None: 0}
        self.cfg = cfg
        self.layout = layout

    def tag_id(self, site_tag: str | None) -> int:
        """The id of site_tag, which is added to `tags` the first time. A tag
        past the 65,535 that a uint16 id names beside None raises ValueError
        and changes nothing."""
        tag = self.tag_ids.get(site_tag)
        if tag is None:
            tag = len(self.tags)
            if tag > 0xFFFF:
                raise ValueError(f"a slot table holds at most {0xFFFF} site tags; "
                                 f"{site_tag!r} is one more")
            self.tags.append(site_tag)
            self.tag_ids[site_tag] = tag
        return tag

    def live(self, i: int) -> int:
        """i, if slot i is in the table and holds a live object; else LifecycleError."""
        alive = self.alive
        if not (0 <= i < len(alive) and alive[i]):
            raise LifecycleError(f"slot {i} holds no live object")
        return i

    def claim(self, i: int, tag: int, now: float, size: float,
              fan_out: float, complexity_weight: float) -> None:
        """Bind slot i to a new object made at `now` for the site tag of id
        `tag`, whose rate windows open at `now` with no events and a NaN
        EMA: two flag stores and one packed row. Its first claim is the
        first write to the slot's entries, which commits their pages."""
        self.alive[i] = 1
        self.site_tag[i] = tag
        _pack_row(self.rows, _ROW.size * i, now, now, size, fan_out, complexity_weight,
                  now, 0, NAN, now, 0, NAN)

    def move(self, src: np.ndarray, dst: np.ndarray, now: np.ndarray) -> None:
        """End the object of each slot in src and claim slot dst[k] at
        now[k] for a copy of src[k]'s site and static features. The ends
        come before the claims, as a slot that one move frees another may
        claim."""
        alive = np.asarray(self.alive)
        alive[src] = 0
        alive[dst] = 1
        site_tag = np.asarray(self.site_tag)
        site_tag[dst] = site_tag[src]
        rows = np.asarray(self.rows).reshape(-1, ROW)
        rows[dst, SIZE:RATES] = rows[src, SIZE:RATES]
        np.asarray(self.allocated_at)[dst] = now
        np.asarray(self.last_event_at)[dst] = now
        for start, count, ema in zip(self.window_start, self.count, self.ema):
            np.asarray(start)[dst] = now
            np.asarray(count)[dst] = 0
            np.asarray(ema)[dst] = NAN

    def rates(self, kind: EventKind, idx: np.ndarray) -> np.ndarray:
        """Smoothed rate of events of `kind` on each slot in idx: the EMA,
        or the open window's rate before a window closes."""
        r = np.asarray(self.ema[kind])[idx]
        cold = r != r
        r[cold] = np.asarray(self.count[kind])[idx[cold]] / self.window
        return r


def _column(name: str) -> property:
    return property(lambda handle: getattr(handle.slots, name)[handle._index],
                    doc=f"The slot's {name} entry.")


@dataclass(frozen=True, slots=True)
class ObjectHandle:
    """A slot's object: read-only properties over its SlotTable entries,
    which describe the slot's current object, or its last one once freed.

    The arena makes one per slot, on the slot's first claim, through the
    class's slot descriptors rather than __init__, and hands out that same
    object for every later claim. Handles compare by slot index.
    """

    slot_index: int
    slots: SlotTable = field(compare=False, repr=False)

    _index = property(lambda handle: handle.slots.layout.check_index(handle.slot_index),
                      doc="slot_index; IndexRangeError outside the table, for every read.")
    site_tag = property(
        lambda handle: handle.slots.tags[handle.slots.site_tag[handle._index]],
        doc="The slot's site tag: the entry of its table's tags that its id names.")
    allocated_at = _column("allocated_at")
    last_event_at = _column("last_event_at")
    size = _column("size")
    fan_out = _column("fan_out")
    complexity_weight = _column("complexity_weight")

    @property
    def alive(self) -> bool:
        return bool(self.slots.alive[self._index])

    @property
    def zone(self) -> ZoneId:
        return self.slots.layout.zone_of_index(self.slot_index)


def record_event(header: ObjectHandle, kind: EventKind, now: float) -> ObjectHandle:
    """Count one event on a live object; its lifetime now ends at `now`. A
    slot with no live object, or outside the table, raises LifecycleError;
    a kind that is not an int equal to ACCESS or MUTATION (a member, a bool
    or a plain int), or a time before the last event, or NaN, ValueError.
    None of them changes anything."""
    slots = header.slots
    i = header.slot_index
    alive = slots.alive
    if not (0 <= i < len(alive) and alive[i]):
        slots.live(i)  # raises, with the lifecycle message
    if kind is not _ACCESS and kind is not _MUTATION and not (
            isinstance(kind, int) and 0 <= kind <= 1):  # the members' values
        raise ValueError(f"event kind {kind!r} is neither ACCESS nor MUTATION")
    last = slots.last_event_at
    if not now >= last[i]:
        raise ValueError(f"event time {now} is not >= the last event's {last[i]}")
    start = slots.window_start[kind]
    count = slots.count[kind]
    if now >= start[i] + slots.window:
        ema = slots.ema[kind]
        ema[i], start[i] = roll(ema[i], start[i], count[i], now, slots.window, slots.cfg)
        count[i] = 1
    else:
        count[i] += 1
    last[i] = now
    return header


def feature_snapshot(header: ObjectHandle) -> FeatureVector:
    """feature_columns of one object, as a FeatureVector. Pure read."""
    f = feature_columns(header.slots, np.array([header._index], dtype=np.intp))
    return FeatureVector(**{name: float(values[0]) for name, values in f._asdict().items()})


# The features the policies read, for many objects at once: one float64
# array per FeatureVector field, in its order.
FeatureColumns = NamedTuple(
    "FeatureColumns", [(f.name, np.ndarray) for f in fields(FeatureVector)])


def feature_columns(slots: SlotTable, idx: np.ndarray) -> FeatureColumns:
    """The features of every slot in idx, one fancy index per column. Pure
    read. Every entry is non-negative: allocate refuses a negative static
    feature, and lifetimes and rates are non-negative by construction."""

    def column(name: str) -> np.ndarray:
        return np.asarray(getattr(slots, name))[idx]

    return FeatureColumns(
        lifetime=column("last_event_at") - column("allocated_at"),
        mutation_rate=slots.rates(EventKind.MUTATION, idx),
        access_rate=slots.rates(EventKind.ACCESS, idx),
        size=column("size"),
        fan_out=column("fan_out"),
        complexity_weight=column("complexity_weight"),
    )


@dataclass
class LogicalClock:
    """Deterministic operation-count clock; one op advances a fixed number of
    simulated seconds. Wall time never feeds feature metrics."""

    seconds_per_op: float = 1e-6
    ops: int = 0

    @property
    def now(self) -> float:
        return self.ops * self.seconds_per_op
