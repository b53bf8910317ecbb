"""Zone classification, cost model, and the pooled slot arena.

Objects live in one of three zones for their whole life. Re-zoning never
moves a slot: the object expires in place and a fresh request claims a slot
in the target zone. Per-zone LIFO free pools absorb repeat requests, which is
what keeps real allocations bounded by the peak concurrent live count. The
arena writes ACTIVE and IDLE straight into the checkpoint table's bytes, and
each object's metadata into the SlotTable's arrays at the same index; a
slot's zone is its region, found by two compares against the boundaries.
Each policy has a scalar classifier, for one object, and a batched one that
a sweep pause runs over all its candidates' feature columns at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checkpoint import CheckpointTable, StateCode, SweepReport
from .errors import LifecycleError, ZoneCapacityError
from .layout import ZoneId, ZoneLayout, ZONE_ORDER
from .objects import (
    EmaConfig,
    FeatureColumns,
    FeatureVector,
    LogicalClock,
    ObjectHandle,
    ObjectView,
    SlotTable,
    feature_columns,
    feature_snapshot,  # noqa: F401  perfbench's tracer wraps zones.feature_snapshot
)

# Argmin preference when zone costs tie: green, then blue, then red.
_TIE_ORDER = (ZoneId.GREEN, ZoneId.BLUE, ZoneId.RED)

_RED, _GREEN, _BLUE = (zone.ordinal for zone in ZONE_ORDER)

# Plain-int state codes for the inlined table writes; storing a StateCode
# member in the bytearray costs several times more per write.
_ACTIVE = int(StateCode.ACTIVE)
_IDLE = int(StateCode.IDLE)

POLICIES = ("simple", "predicates")


@dataclass(frozen=True)
class RateThresholds:
    """Thresholds for the rate-based policy; red cut below green cut."""

    access_red: float = 10.0
    access_green: float = 100.0
    mutation_red: float = 10.0
    mutation_green: float = 100.0

    def __post_init__(self) -> None:
        if not self.access_red < self.access_green:
            raise ValueError("rate policy needs access_red < access_green")
        if not self.mutation_red < self.mutation_green:
            raise ValueError("rate policy needs mutation_red < mutation_green")


@dataclass(frozen=True)
class PredicateThresholds:
    """Thresholds for the predicate policy.

    Note the reversed rate orderings relative to RateThresholds: here the red
    cuts sit above the green cuts for mutation and access. The two policies
    describe the zones differently and are deliberately kept separate.
    """

    lifetime_red: float = 0.1
    lifetime_green: float = 10.0
    mutation_red: float = 100.0
    mutation_green: float = 10.0
    access_red: float = 100.0
    access_green: float = 10.0
    size_red: float = 256.0
    size_green: float = 4096.0

    def __post_init__(self) -> None:
        if not self.lifetime_red < self.lifetime_green:
            raise ValueError("predicate policy needs lifetime_red < lifetime_green")
        if not self.mutation_red > self.mutation_green:
            raise ValueError("predicate policy needs mutation_red > mutation_green")
        if not self.access_red > self.access_green:
            raise ValueError("predicate policy needs access_red > access_green")
        if not self.size_red < self.size_green:
            raise ValueError("predicate policy needs size_red < size_green")


@dataclass(frozen=True)
class ZoneWeights:
    """Cost weights of one zone: mark, scan, and staging work."""

    mark: float
    scan: float
    stage: float

    def __post_init__(self) -> None:
        if min(self.mark, self.scan, self.stage) < 0:
            raise ValueError("cost weights must be non-negative")


def _default_weights() -> dict[ZoneId, ZoneWeights]:
    return {
        ZoneId.RED: ZoneWeights(1.0, 1.0, 4.0),
        ZoneId.GREEN: ZoneWeights(1.0, 0.8, 2.0),
        ZoneId.BLUE: ZoneWeights(0.5, 0.5, 1.0),
    }


@dataclass(frozen=True)
class CostParams:
    """Per-zone cost weights.

    Orderings enforced at construction: staging strictly decreases red to
    blue; mark weight red and green agree within mark_tolerance and both
    exceed blue; scan weight is non-increasing red to blue.
    """

    weights: dict[ZoneId, ZoneWeights] = field(default_factory=_default_weights)
    mark_tolerance: float = 0.25

    def __post_init__(self) -> None:
        r, g, b = (self.weights[z] for z in ZONE_ORDER)
        if not r.stage > g.stage > b.stage:
            raise ValueError("staging weights must strictly decrease red > green > blue")
        if not (r.mark >= g.mark > b.mark and abs(r.mark - g.mark) <= self.mark_tolerance):
            raise ValueError(
                "mark weights must satisfy red >= green > blue with "
                f"|red - green| <= {self.mark_tolerance}"
            )
        if not r.scan >= g.scan >= b.scan:
            raise ValueError("scan weights must be non-increasing red >= green >= blue")


def zone_cost(zone: ZoneId, f: FeatureVector | FeatureColumns, costs: CostParams):
    """Expected per-object work of hosting f in zone: mark, scan, staging.
    A float for a FeatureVector, an array for FeatureColumns."""
    w = costs.weights[zone]
    return w.mark * f.complexity_weight + w.scan * f.fan_out + w.stage * f.size


def argmin_cost(f: FeatureVector, costs: CostParams) -> ZoneId:
    best = None
    best_cost = None
    for zone in _TIE_ORDER:
        c = zone_cost(zone, f, costs)
        if best_cost is None or c < best_cost:
            best, best_cost = zone, c
    return best


def argmin_cost_batch(f: FeatureColumns, costs: CostParams) -> np.ndarray:
    """argmin_cost of each object, as zone ordinals.

    Built as argmin_cost's chain, not np.argmin: a cost is taken only when
    strictly below the best so far, so a NaN cost (inf size times a zero
    weight) never wins, where np.argmin would return it.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        best_cost = zone_cost(_TIE_ORDER[0], f, costs)
        best = np.full(best_cost.shape, _TIE_ORDER[0].ordinal)
        for zone in _TIE_ORDER[1:]:
            c = zone_cost(zone, f, costs)
            take = c < best_cost
            best[take] = zone.ordinal
            best_cost = np.where(take, c, best_cost)
    return best


def classify_simple(f: FeatureVector, th: RateThresholds, costs: CostParams) -> ZoneId:
    """Rate-based zone choice.

    Red needs both rates strictly under the red cuts; green takes anything at
    or over a green cut. The ambiguous middle band, where both rates sit
    between their cuts, is settled by cheapest zone; every other fall-through
    goes to blue.
    """
    a = f.access_rate
    mu = f.mutation_rate
    if a < th.access_red and mu < th.mutation_red:
        return ZoneId.RED
    if a >= th.access_green or mu >= th.mutation_green:
        return ZoneId.GREEN
    if th.access_red <= a and th.mutation_red <= mu:
        # both rates inside [red, green): ambiguous, take the cheapest zone
        return argmin_cost(f, costs)
    return ZoneId.BLUE


def classify_simple_batch(f: FeatureColumns, th: RateThresholds,
                          costs: CostParams) -> np.ndarray:
    """classify_simple of each object, as zone ordinals."""
    a = f.access_rate
    mu = f.mutation_rate
    return np.select(
        [(a < th.access_red) & (mu < th.mutation_red),
         (a >= th.access_green) | (mu >= th.mutation_green),
         (th.access_red <= a) & (th.mutation_red <= mu)],
        [_RED, _GREEN, argmin_cost_batch(f, costs)],
        _BLUE,
    )


def eligibility(f: FeatureVector, th: PredicateThresholds) -> dict[ZoneId, bool]:
    """The three zone-eligibility predicates of the predicate policy."""
    e_r = (
        f.lifetime <= th.lifetime_red
        and f.mutation_rate >= th.mutation_red
        and f.access_rate >= th.access_red
        and f.size <= th.size_red
    )
    e_g = (
        th.lifetime_red < f.lifetime <= th.lifetime_green
        and th.mutation_green <= f.mutation_rate < th.mutation_red
        and th.access_green <= f.access_rate < th.access_red
        and th.size_red < f.size <= th.size_green
    )
    e_b = (
        f.lifetime > th.lifetime_green
        or f.mutation_rate < th.mutation_green
        or f.access_rate < th.access_green
        or f.size > th.size_green
    )
    return {ZoneId.RED: e_r, ZoneId.GREEN: e_g, ZoneId.BLUE: e_b}


def classify_predicates(f: FeatureVector, th: PredicateThresholds,
                        costs: CostParams) -> ZoneId:
    """Predicate-based zone choice.

    A single eligible zone wins outright; zero or several eligible zones fall
    back to the cheapest of all three.
    """
    eligible = eligibility(f, th)
    applicable = [zone for zone in ZONE_ORDER if eligible[zone]]
    if len(applicable) == 1:
        return applicable[0]
    return argmin_cost(f, costs)


def classify_predicates_batch(f: FeatureColumns, th: PredicateThresholds,
                              costs: CostParams) -> np.ndarray:
    """classify_predicates of each object, as zone ordinals."""
    lt, mu, a, size = f.lifetime, f.mutation_rate, f.access_rate, f.size
    e_r = ((lt <= th.lifetime_red) & (mu >= th.mutation_red)
           & (a >= th.access_red) & (size <= th.size_red))
    e_g = ((th.lifetime_red < lt) & (lt <= th.lifetime_green)
           & (th.mutation_green <= mu) & (mu < th.mutation_red)
           & (th.access_green <= a) & (a < th.access_red)
           & (th.size_red < size) & (size <= th.size_green))
    e_b = ((lt > th.lifetime_green) | (mu < th.mutation_green)
           | (a < th.access_green) | (size > th.size_green))
    n_eligible = e_r.astype(np.int8) + e_g + e_b
    return np.select(
        [n_eligible != 1, e_r, e_g],
        [argmin_cost_batch(f, costs), _RED, _GREEN],
        _BLUE,
    )


@dataclass(frozen=True)
class PoolStats:
    """Allocation counters of one zone. total = real + reused always."""

    total_requests: int
    real_allocations: int
    reused_objects: int
    expired_objects: int
    pool_size: int

    def __post_init__(self) -> None:
        if self.total_requests != self.real_allocations + self.reused_objects:
            raise ValueError("total_requests must equal real + reused")
        if self.pool_size > self.real_allocations:
            raise ValueError("pool cannot outgrow real allocations")


class ZoneArena:
    """Slot allocator over the checkpoint table with per-zone reuse pools.

    Object metadata lives in `slots`, a SlotTable indexed like the table.
    Ownership contract: one worker drives a given zone partition at a time;
    there is no internal locking. Counters are monotone and aggregated by
    readers at quiescent points.
    """

    def __init__(
        self,
        layout: ZoneLayout | None = None,
        *,
        base: int = 0,
        clock: LogicalClock | None = None,
        rate_window: float = 1.0,
        ema: EmaConfig | None = None,
        rate_thresholds: RateThresholds | None = None,
        predicate_thresholds: PredicateThresholds | None = None,
        costs: CostParams | None = None,
        policy: str = "simple",
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        self.layout = layout or ZoneLayout(1024, 1024, 1024)
        self.table = CheckpointTable(self.layout, base)
        self.clock = clock or LogicalClock()
        self.rate_window = rate_window
        self.ema = ema or EmaConfig()
        self.rate_thresholds = rate_thresholds or RateThresholds()
        self.predicate_thresholds = predicate_thresholds or PredicateThresholds()
        self.costs = costs or CostParams()
        self.policy = policy
        self.slots = SlotTable(self.layout, rate_window, self.ema)
        # Indexed by ZoneId.ordinal; hot paths avoid enum-keyed dicts.
        self._pools: list[list[int]] = [[] for _ in ZONE_ORDER]
        self._fresh_next: list[int] = [self.layout.start(z) for z in ZONE_ORDER]
        self._fresh_stop: list[int] = [self.layout.span(z)[1] for z in ZONE_ORDER]
        self._real: list[int] = [0, 0, 0]
        self._reused: list[int] = [0, 0, 0]
        self._expired: list[int] = [0, 0, 0]
        self._states = self.table._states  # shared storage for inlined writes

    # -- allocation ---------------------------------------------------------

    def allocate(
        self,
        zone: ZoneId,
        site_tag: str = "default",
        *,
        size: float = 0.0,
        fan_out: float = 0.0,
        complexity_weight: float = 0.0,
    ) -> ObjectHandle:
        """Serve one allocation request from the pool or a fresh slot."""
        clock = self.clock
        clock.ops += 1
        now = clock.ops * clock.seconds_per_op
        zi = zone.ordinal
        pool = self._pools[zi]
        slots = self.slots
        if pool:
            idx = pool.pop()
            self._reused[zi] += 1
        else:
            idx = self._fresh_next[zi]
            if idx >= self._fresh_stop[zi]:
                raise ZoneCapacityError(
                    f"zone {zone} exhausted at {self.layout.size(zone)} slots"
                )
            self._fresh_next[zi] = idx + 1
            self._real[zi] += 1
            slots.handles[idx] = ObjectHandle(idx)
        slots.claim(idx, site_tag, now, size, fan_out, complexity_weight)
        # set_state(idx, ACTIVE) inlined; idx came from this arena so the
        # range check is redundant here.
        self._states[idx] = _ACTIVE
        return slots.handles[idx]

    def _free(self, handle: ObjectHandle) -> int:
        """Return a live slot to its zone's pool; returns the zone's ordinal."""
        idx = handle.slot_index
        slots = self.slots
        if not (0 <= idx < len(slots.alive) and slots.alive[idx]):
            raise LifecycleError(f"slot {idx} holds no live object")
        self.clock.ops += 1
        slots.alive[idx] = 0
        self._states[idx] = _IDLE  # set_state(idx, IDLE) inlined
        # The zone is the slot's region.
        zi = 0 if idx < slots.green_start else 1 if idx < slots.blue_start else 2
        self._pools[zi].append(idx)
        return zi

    def release(self, handle: ObjectHandle) -> None:
        """Return a live slot to its zone's pool."""
        self._free(handle)

    def expire(self, handle: ObjectHandle) -> None:
        """Terminal expiry: reclaim the slot into its pool and count it."""
        self._expired[self._free(handle)] += 1

    def expire_and_reallocate(self, handle: ObjectHandle, new_zone: ZoneId) -> ObjectHandle:
        """Re-zone by expiry plus fresh request; same-zone calls are no-ops.

        The old index returns to its own zone's pool and is never rebound to
        the new zone. The new object takes the old one's site and static
        features, which a freed slot keeps.
        """
        idx = handle.slot_index
        slots = self.slots
        if not (0 <= idx < len(slots.alive) and slots.alive[idx]):
            raise LifecycleError(f"slot {idx} holds no live object")
        zi = 0 if idx < slots.green_start else 1 if idx < slots.blue_start else 2
        if new_zone.ordinal == zi:
            return handle
        # expire(handle) inlined, its checks done above: a pause makes one
        # call per moved object.
        self.clock.ops += 1
        slots.alive[idx] = 0
        self._states[idx] = _IDLE
        self._pools[zi].append(idx)
        self._expired[zi] += 1
        return self.allocate(
            new_zone, slots.site_tag[idx], size=slots.size[idx],
            fan_out=slots.fan_out[idx], complexity_weight=slots.complexity_weight[idx],
        )

    # -- queries ------------------------------------------------------------

    def header_of(self, handle: ObjectHandle) -> ObjectView:
        """View of the slot's current object, or of its last one once freed."""
        idx = handle.slot_index
        slots = self.slots
        if not 0 <= idx < len(slots.handles) or slots.handles[idx] is None:
            raise LifecycleError(f"slot {idx} was never allocated")
        return ObjectView(slots, idx)

    def pool_stats(self, zone: ZoneId) -> PoolStats:
        zi = zone.ordinal
        real = self._real[zi]
        reused = self._reused[zi]
        return PoolStats(
            total_requests=real + reused,
            real_allocations=real,
            reused_objects=reused,
            expired_objects=self._expired[zi],
            pool_size=len(self._pools[zi]),
        )

    def classify(self, f: FeatureVector) -> ZoneId:
        if self.policy == "simple":
            return classify_simple(f, self.rate_thresholds, self.costs)
        return classify_predicates(f, self.predicate_thresholds, self.costs)

    # -- sweep integration --------------------------------------------------

    def run_sweep(self) -> SweepReport:
        return self.table.epoch_sweep()

    def reclassify_candidates(self, report: SweepReport) -> list[tuple[int, ObjectHandle]]:
        """Re-run the active policy on promotion/demotion candidates.

        The pause is a snapshot: the candidates alive when it starts are
        classified at once, from their features at that moment, and a slot
        that a move claims during the pause is not examined again. Then each
        candidate whose zone differs from its target expires and reallocates
        into the target, in ascending index order; the rest are left as they
        are. Returns (old index, new handle) pairs for the moved objects. A
        negative feature raises ValueError before any move is made.
        """
        slots = self.slots
        idx = np.array(report.candidates, dtype=np.intp)
        idx = idx[np.frombuffer(slots.alive, dtype=np.uint8)[idx] != 0]
        f = feature_columns(slots, idx)
        if self.policy == "simple":
            target = classify_simple_batch(f, self.rate_thresholds, self.costs)
        else:
            target = classify_predicates_batch(f, self.predicate_thresholds, self.costs)
        # The zone is the slot's region.
        zone = (idx >= slots.green_start).astype(np.int8) + (idx >= slots.blue_start)
        movers = target != zone
        handles = slots.handles
        return [
            (i, self.expire_and_reallocate(handles[i], ZONE_ORDER[t]))
            for i, t in zip(idx[movers].tolist(), target[movers].tolist())
        ]
