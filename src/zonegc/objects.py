"""Simulated object metadata: side tables, rate metrics, EMA smoothing.

Objects here are bookkeeping records, not real heap storage. Their metadata
lives in a SlotTable, parallel arrays indexed by checkpoint-table slot, in
the way the checkpoint table keeps one byte of state per slot: liveness,
allocation and last-event times, static features (size, fan-out, complexity
weight), the allocation site tag and windowed mutation and access rates.
A slot's one Python object is its ObjectHandle, which reads those arrays.
Rates are counted over a fixed logical-time window and smoothed with an
exponential moving average; the smoothed view is what classification
consumes, as columns (feature_columns) or as the one-row case of them
(feature_snapshot).
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import LifecycleError
from .layout import ZONE_ORDER, ZoneId, ZoneLayout

NAN = float("nan")  # an EMA no window has closed into yet

# A roll over more windows than this advances the window start in one
# multiplication; up to it, one addition per window, which puts the window
# boundaries exactly where closing windows one at a time puts them.
STEPPED_WINDOWS = 256


class EventKind(enum.Enum):
    ACCESS = ("access", 0)
    MUTATION = ("mutation", 1)

    # ordinal gives hot paths an attribute read instead of Enum.__hash__, as
    # on ZoneId. It is also the offset of the kind's entry in a slot's pair
    # of rate-tracker entries.
    def __new__(cls, value: str, ordinal: int):
        member = object.__new__(cls)
        member._value_ = value
        member.ordinal = ordinal
        return member


_ACCESS = EventKind.ACCESS.ordinal
_MUTATION = EventKind.MUTATION.ordinal


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


def roll(ema: float, start: float, count: int, now: float, window: float,
         cfg: EmaConfig) -> tuple[float, float]:
    """Close every window that ended at or before `now`.

    Callers call this only when now >= start + window, and then reset the
    open count. The first closed window holds `count` events; its rate seeds
    a NaN ema and is smoothed into any other. The windows after it saw no
    events, and k zero samples compose to ema * (1 - weight) ** k, so the
    cost does not grow with the idle run. Returns the new ema and window
    start.
    """
    closed = 0
    if now - start > STEPPED_WINDOWS * window:
        closed = int((now - start) // window) - 1
        start += closed * window
    while now >= start + window:
        start += window
        closed += 1
    sample = count / window
    ema = sample if ema != ema else ema_update(ema, sample, cfg)
    if closed > 1:
        ema *= (1.0 - cfg.weight) ** (closed - 1)
    return ema, start


@dataclass(frozen=True)
class FeatureVector:
    """Per-object metrics consumed by classification and the cost model."""

    lifetime: float = 0.0  # seconds since allocation
    mutation_rate: float = 0.0  # writes/second
    access_rate: float = 0.0  # reads/second
    size: float = 0.0  # bytes
    fan_out: float = 0.0  # inbound reference count
    complexity_weight: float = 0.0  # dimensionless workload factor

    def __post_init__(self) -> None:
        # One chained test: a loop of getattr calls costs more than the rest
        # of the construction. min() would not do, as min(nan, -1.0) is nan.
        if (self.lifetime < 0 or self.mutation_rate < 0 or self.access_rate < 0
                or self.size < 0 or self.fan_out < 0 or self.complexity_weight < 0):
            name = next(n for n in self.__dataclass_fields__ if getattr(self, n) < 0)
            raise ValueError(f"{name} must be non-negative")


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

    __slots__ = ("window", "cfg", "window_start", "count", "total", "ema")

    def __init__(self, window: float = 1.0, cfg: EmaConfig | None = None,
                 start: float = 0.0) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self.cfg = cfg or EmaConfig()
        self.reset(start)

    def reset(self, start: float) -> None:
        self.window_start = start
        self.count = 0
        self.total = 0
        self.ema = NAN

    def record(self, now: float) -> None:
        if now >= self.window_start + self.window:
            self.ema, self.window_start = roll(
                self.ema, self.window_start, self.count, now, self.window, self.cfg
            )
            self.count = 0
        self.count += 1
        self.total += 1

    @property
    def raw_rate(self) -> float:
        """Rate observed in the current (possibly partial) window."""
        return self.count / self.window

    @property
    def smoothed(self) -> float:
        ema = self.ema
        return ema if ema == ema else self.raw_rate


def _doubles(n: int, fill: float = 0.0) -> memoryview:
    """n float64 entries. Item stores through a memoryview skip the argument
    parsing that array.array's own stores do, which is about a third of the
    cost of claiming a slot."""
    return memoryview(array("d", [fill]) * n)


class SlotTable:
    """Metadata of every slot's occupant, one array entry per table slot.

    The arrays are sized at table capacity, like the checkpoint table. A
    slot's entries describe its current object while alive[i] is set, and
    its last one after release. Mutation and access rates keep a window
    start, an open count and an EMA (NaN until a window closes) at entry
    2 * i + kind.ordinal. The zone is not stored: it is the slot's region.
    """

    def __init__(self, layout: ZoneLayout, window: float, cfg: EmaConfig) -> None:
        n = layout.total
        self.alive = bytearray(n)
        self.allocated_at = _doubles(n)
        self.last_event_at = _doubles(n)
        self.size = _doubles(n)
        self.fan_out = _doubles(n)
        self.complexity_weight = _doubles(n)
        self.site_tag: list[str | None] = [None] * n
        self.window_start = _doubles(2 * n)
        self.count = [0] * (2 * n)
        self.ema = _doubles(2 * n, NAN)
        self.window = window
        self.cfg = cfg
        self.green_start = layout.n_red
        self.blue_start = layout.n_red + layout.n_green

    def zone_of(self, i: int) -> ZoneId:
        return ZONE_ORDER[0 if i < self.green_start else 1 if i < self.blue_start else 2]

    def claim(self, i: int, site_tag: str, now: float, size: float,
              fan_out: float, complexity_weight: float) -> None:
        """Bind slot i to a new object allocated at `now` with fresh rates."""
        self.alive[i] = 1
        self.site_tag[i] = site_tag
        self.allocated_at[i] = now
        self.last_event_at[i] = now
        self.size[i] = size
        self.fan_out[i] = fan_out
        self.complexity_weight[i] = complexity_weight
        j = 2 * i
        start = self.window_start
        start[j] = start[j + 1] = now
        count = self.count
        count[j] = count[j + 1] = 0
        ema = self.ema
        ema[j] = ema[j + 1] = NAN

    def rates(self, j: np.ndarray) -> np.ndarray:
        """Smoothed rate of each tracker entry in j: the EMA, or the open
        window's rate before a window closes. Only the entries whose EMA is
        still NaN read the open count."""
        r = np.frombuffer(self.ema)[j]
        cold = np.flatnonzero(r != r)
        if cold.size:
            count = self.count
            r[cold] = np.array([count[k] for k in j[cold].tolist()],
                               dtype=np.float64) / self.window
        return r


def _column(name: str) -> property:
    return property(lambda handle: getattr(handle.slots, name)[handle.slot_index],
                    doc=f"The slot's {name} entry.")


@dataclass(frozen=True, slots=True)
class ObjectHandle:
    """A slot's object: read-only properties over its SlotTable entries,
    which describe the slot's current object, or its last one once freed.

    The arena makes one per slot, on the slot's first claim, and hands out
    that same object for every later claim. Handles compare by slot index.
    """

    slot_index: int
    slots: SlotTable = field(compare=False, repr=False)

    site_tag = _column("site_tag")
    allocated_at = _column("allocated_at")
    last_event_at = _column("last_event_at")
    size = _column("size")
    fan_out = _column("fan_out")
    complexity_weight = _column("complexity_weight")

    @property
    def alive(self) -> bool:
        return bool(self.slots.alive[self.slot_index])

    @property
    def zone(self) -> ZoneId:
        return self.slots.zone_of(self.slot_index)

    @property
    def lifetime(self) -> float:
        """Seconds from allocation to the last recorded event."""
        return self.last_event_at - self.allocated_at


def record_event(header: ObjectHandle, kind: EventKind, now: float) -> ObjectHandle:
    """Count one event on a live object; its lifetime now ends at `now`."""
    slots = header.slots
    i = header.slot_index
    if not slots.alive[i]:
        raise LifecycleError(f"event on dead object at slot {i}")
    last = slots.last_event_at
    if now < last[i]:
        raise ValueError(f"event time {now} precedes previous event at {last[i]}")
    j = 2 * i + kind.ordinal
    start = slots.window_start
    if now >= start[j] + slots.window:
        ema = slots.ema
        ema[j], start[j] = roll(ema[j], start[j], slots.count[j], now,
                                slots.window, slots.cfg)
        slots.count[j] = 1
    else:
        slots.count[j] += 1
    last[i] = now
    return header


def feature_snapshot(header: ObjectHandle) -> FeatureVector:
    """feature_columns of one object, as a FeatureVector. Pure read."""
    f = feature_columns(header.slots, np.array([header.slot_index], dtype=np.intp))
    return FeatureVector(**{name: float(values[0]) for name, values in f._asdict().items()})


class FeatureColumns(NamedTuple):
    """The features the policies read, for many objects at once: one float64
    array per FeatureVector field."""

    lifetime: np.ndarray
    mutation_rate: np.ndarray
    access_rate: np.ndarray
    size: np.ndarray
    fan_out: np.ndarray
    complexity_weight: np.ndarray


def feature_columns(slots: SlotTable, idx: np.ndarray) -> FeatureColumns:
    """The features of every slot in idx, one fancy index per column.

    Pure read. Raises ValueError on a negative entry, as FeatureVector does,
    before the caller acts on any of the slots.
    """

    def column(name: str) -> np.ndarray:
        return np.frombuffer(getattr(slots, name))[idx]

    j = 2 * idx
    f = FeatureColumns(
        lifetime=column("last_event_at") - column("allocated_at"),
        mutation_rate=slots.rates(j + _MUTATION),
        access_rate=slots.rates(j + _ACCESS),
        size=column("size"),
        fan_out=column("fan_out"),
        complexity_weight=column("complexity_weight"),
    )
    for name, values in zip(FeatureColumns._fields, f):
        if (values < 0).any():
            raise ValueError(f"{name} must be non-negative")
    return f


@dataclass
class LogicalClock:
    """Deterministic operation-count clock; one op advances a fixed number of
    simulated seconds. Wall time never feeds feature metrics."""

    seconds_per_op: float = 1e-6
    ops: int = 0

    @property
    def now(self) -> float:
        return self.ops * self.seconds_per_op
