"""Simulated object arena substrate: headers, rate metrics, EMA smoothing.

Objects here are bookkeeping records, not real heap storage. Each header
carries windowed event-rate trackers (allocation, mutation, access) plus
static features (size, fan-out, complexity weight). Rates are counted over a
fixed logical-time window and smoothed with an exponential moving average;
the smoothed view is what classification consumes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import LifecycleError
from .layout import ZoneId


class EventKind(enum.Enum):
    ACCESS = "access"
    MUTATION = "mutation"
    ALLOCATION = "allocation"


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


@dataclass(frozen=True)
class FeatureVector:
    """Per-object metrics consumed by classification and the cost model."""

    alloc_rate: float = 0.0  # allocations/second at this object's site
    lifetime: float = 0.0  # seconds since allocation
    mutation_rate: float = 0.0  # writes/second
    access_rate: float = 0.0  # reads/second
    size: float = 0.0  # bytes
    fan_out: float = 0.0  # inbound reference count
    complexity_weight: float = 0.0  # dimensionless workload factor

    def __post_init__(self) -> None:
        for name in (
            "alloc_rate",
            "lifetime",
            "mutation_rate",
            "access_rate",
            "size",
            "fan_out",
            "complexity_weight",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


class RateTracker:
    """Events-per-second over a rolling logical-time window, EMA smoothed.

    Every completed window contributes exactly one sample (possibly zero) to
    the EMA chain. The first completed window seeds the EMA directly; before
    any window completes, the smoothed view falls back to the rate observed
    in the current partial window so a cold object is not misread as idle.
    """

    __slots__ = ("window", "cfg", "window_start", "count", "total", "ema")

    def __init__(self, window: float = 1.0, cfg: EmaConfig | None = None,
                 start: float = 0.0) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self.cfg = cfg or EmaConfig()
        self.window_start = start
        self.count = 0
        self.total = 0
        self.ema: float | None = None

    def reset(self, start: float) -> None:
        self.window_start = start
        self.count = 0
        self.total = 0
        self.ema = None

    def _roll(self, now: float) -> None:
        # Close out every window that ended at or before `now`.
        while now >= self.window_start + self.window:
            sample = self.count / self.window
            self.ema = sample if self.ema is None else ema_update(self.ema, sample, self.cfg)
            self.count = 0
            self.window_start += self.window

    def record(self, now: float) -> None:
        self._roll(now)
        self.count += 1
        self.total += 1

    @property
    def raw_rate(self) -> float:
        """Rate observed in the current (possibly partial) window."""
        return self.count / self.window

    @property
    def smoothed(self) -> float:
        return self.ema if self.ema is not None else self.raw_rate


@dataclass(frozen=True)
class ObjectHandle:
    slot_index: int
    address: int


@dataclass
class ObjectHeader:
    """Lifecycle record of one arena slot's current occupant."""

    handle: ObjectHandle
    zone: ZoneId
    site_tag: str
    allocated_at: float = 0.0
    last_event_at: float = 0.0
    size: float = 0.0
    fan_out: float = 0.0
    complexity_weight: float = 0.0
    alive: bool = True
    trackers: dict[EventKind, RateTracker] = field(default_factory=dict)

    @property
    def lifetime(self) -> float:
        """Seconds from allocation to the last recorded event."""
        return self.last_event_at - self.allocated_at

    def tracker(self, kind: EventKind) -> RateTracker:
        return self.trackers[kind]


def make_trackers(window: float, cfg: EmaConfig, start: float,
                  alloc_tracker: RateTracker | None = None) -> dict[EventKind, RateTracker]:
    """Tracker set for a header; the allocation tracker may be shared.

    Allocation rate is a property of the allocation site, not of one object,
    so headers from the same site can share that tracker.
    """
    return {
        EventKind.ALLOCATION: alloc_tracker or RateTracker(window, cfg, start),
        EventKind.MUTATION: RateTracker(window, cfg, start),
        EventKind.ACCESS: RateTracker(window, cfg, start),
    }


def record_event(header: ObjectHeader, kind: EventKind, now: float) -> ObjectHeader:
    """Count one event on a live header; its lifetime now ends at `now`."""
    if not header.alive:
        raise LifecycleError(
            f"event on dead header at slot {header.handle.slot_index}"
        )
    if now < header.last_event_at:
        raise ValueError(
            f"event time {now} precedes previous event at {header.last_event_at}"
        )
    header.trackers[kind].record(now)
    header.last_event_at = now
    return header


def feature_snapshot(header: ObjectHeader) -> FeatureVector:
    """Smoothed feature view for classification. Pure read."""
    t = header.trackers
    return FeatureVector(
        alloc_rate=t[EventKind.ALLOCATION].smoothed,
        lifetime=header.lifetime,
        mutation_rate=t[EventKind.MUTATION].smoothed,
        access_rate=t[EventKind.ACCESS].smoothed,
        size=header.size,
        fan_out=header.fan_out,
        complexity_weight=header.complexity_weight,
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

    def tick(self, n: int = 1) -> float:
        self.ops += n
        return self.now
