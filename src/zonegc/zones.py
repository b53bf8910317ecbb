"""Zone classification, cost model, and the pooled slot arena.

Objects live in one of three zones for their whole life. Re-zoning never
moves a slot: the object expires in place and a fresh request claims a slot
in the target zone. Per-zone LIFO free pools absorb repeat requests, which is
what keeps real allocations bounded by the peak concurrent live count. One
pool policy serves every claim and free: a claim takes the zone's pool top,
or else its next fresh slot, and a free pushes the slot onto the pool of its
zone, which is its region, read from the layout's bounds. The arena writes
ACTIVE and IDLE straight into the checkpoint table's bytes, and has the
SlotTable write each object's metadata at the same index. Each policy has
one rule, written with & and | so that it reads a FeatureVector or
FeatureColumns alike, and two pickers over it: a scalar classifier for one
object, and a batched one that a sweep pause runs over all its candidates'
feature columns at once. The type of the thresholds an arena is given
selects its policy. A move whose target zone has no slot left changes
nothing; in a pause the object stays and the rest move. A pause moves its
objects as one batch: it replays their pool pushes and pops over plain ints,
then writes each metadata column once for all of them. A request stream, in
which every object ends right after its request, is served in one pass, by
the shortcut that serve's docstring gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .checkpoint import CheckpointTable, StateCode, SweepReport
from .errors import LifecycleError, ZoneCapacityError
from .layout import ZoneId, ZoneLayout, ZONE_ORDER
from .objects import (
    RATE_WINDOW,
    EmaConfig,
    EventKind,
    FeatureColumns,
    FeatureVector,
    LogicalClock,
    ObjectHandle,
    SlotTable,
    feature_columns,
    feature_snapshot,  # noqa: F401  perfbench's tracer wraps zones.feature_snapshot
    # serve records through this binding, which a tracer that wraps
    # objects.record_event leaves as it is
    record_event,
)

# Argmin preference when zone costs tie: green, then blue, then red.
_TIE_ORDER = (ZoneId.GREEN, ZoneId.BLUE, ZoneId.RED)

# Zone ordinals: the zone codes of a request stream and of the batched
# classifiers' output.
RED, GREEN, BLUE = (zone.ordinal for zone in ZONE_ORDER)

# Plain-int state codes for the inlined table writes: reading a member off
# StateCode costs several times more than the store itself.
_ACTIVE = int(StateCode.ACTIVE)
_IDLE = int(StateCode.IDLE)

# _take makes a fresh slot's handle through ObjectHandle's slot descriptors,
# which skips the frozen dataclass __init__ and its two object.__setattr__
# calls; the handle is the same object that __init__ makes.
_new_handle = object.__new__
_set_handle_index = ObjectHandle.__dict__["slot_index"].__set__
_set_handle_slots = ObjectHandle.__dict__["slots"].__set__

# End codes of a request stream (ZoneArena.serve): how each request's object
# ends. ACCESS is a flag on RELEASE and EXPIRE.
RELEASE, EXPIRE, ACCESS, SWEEP = 0, 1, 2, 4


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


# How far the red mark weight may exceed the green one (CostParams).
MARK_TOLERANCE = 0.25

# CostParams()'s weights, by ZoneId.ordinal; the config's cost.<zone> defaults.
DEFAULT_WEIGHTS = (ZoneWeights(1.0, 1.0, 4.0),
                   ZoneWeights(1.0, 0.8, 2.0),
                   ZoneWeights(0.5, 0.5, 1.0))


@dataclass(frozen=True)
class CostParams:
    """Per-zone cost weights, indexed by ZoneId.ordinal.

    Orderings enforced at construction: staging strictly decreases red to
    blue; mark weight red and green agree within MARK_TOLERANCE and both
    exceed blue; scan weight is non-increasing red to blue.
    """

    weights: tuple[ZoneWeights, ZoneWeights, ZoneWeights] = DEFAULT_WEIGHTS

    def __post_init__(self) -> None:
        r, g, b = self.weights
        if not r.stage > g.stage > b.stage:
            raise ValueError("staging weights must strictly decrease red > green > blue")
        if not (r.mark >= g.mark > b.mark and abs(r.mark - g.mark) <= MARK_TOLERANCE):
            raise ValueError(
                "mark weights must satisfy red >= green > blue with "
                f"|red - green| <= {MARK_TOLERANCE}"
            )
        if not r.scan >= g.scan >= b.scan:
            raise ValueError("scan weights must be non-increasing red >= green >= blue")


def zone_cost(zone: ZoneId, f: FeatureVector | FeatureColumns, costs: CostParams):
    """Expected per-object work of hosting f in zone: mark, scan, staging.
    A float for a FeatureVector, an array for FeatureColumns."""
    w = costs.weights[zone.ordinal]
    return w.mark * f.complexity_weight + w.scan * f.fan_out + w.stage * f.size


def argmin_cost(f: FeatureVector, costs: CostParams) -> ZoneId:
    """The cheapest zone; the first of _TIE_ORDER on a tie. min() takes a cost
    only when strictly below the best so far, so a NaN cost never wins."""
    return min(_TIE_ORDER, key=lambda zone: zone_cost(zone, f, costs))


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


def _simple_rules(f: FeatureVector | FeatureColumns, th: RateThresholds) -> tuple:
    """(red, green, band) of the rate-based policy, tried in that order.

    Red needs both rates strictly under the red cuts; green takes anything at
    or over a green cut. In the ambiguous middle band both rates sit between
    their cuts; every other fall-through goes to blue.
    """
    a, mu = f.access_rate, f.mutation_rate
    return ((a < th.access_red) & (mu < th.mutation_red),
            (a >= th.access_green) | (mu >= th.mutation_green),
            (th.access_red <= a) & (th.mutation_red <= mu))


def classify_simple(f: FeatureVector, th: RateThresholds, costs: CostParams) -> ZoneId:
    """Rate-based zone choice; the middle band takes the cheapest zone."""
    red, green, band = _simple_rules(f, th)
    if red:
        return ZoneId.RED
    if green:
        return ZoneId.GREEN
    if band:
        return argmin_cost(f, costs)
    return ZoneId.BLUE


def classify_simple_batch(f: FeatureColumns, th: RateThresholds,
                          costs: CostParams) -> np.ndarray:
    """classify_simple of each object, as zone ordinals."""
    return np.select(list(_simple_rules(f, th)),
                     [RED, GREEN, argmin_cost_batch(f, costs)], BLUE)


def _eligible(f: FeatureVector | FeatureColumns, th: PredicateThresholds) -> tuple:
    """(red, green, blue) eligibility of the predicate policy."""
    lt, mu, a, size = f.lifetime, f.mutation_rate, f.access_rate, f.size
    return ((lt <= th.lifetime_red) & (mu >= th.mutation_red)
            & (a >= th.access_red) & (size <= th.size_red),
            (th.lifetime_red < lt) & (lt <= th.lifetime_green)
            & (th.mutation_green <= mu) & (mu < th.mutation_red)
            & (th.access_green <= a) & (a < th.access_red)
            & (th.size_red < size) & (size <= th.size_green),
            (lt > th.lifetime_green) | (mu < th.mutation_green)
            | (a < th.access_green) | (size > th.size_green))


def classify_predicates(f: FeatureVector, th: PredicateThresholds,
                        costs: CostParams) -> ZoneId:
    """Predicate-based zone choice.

    A single eligible zone wins outright; zero or several eligible zones fall
    back to the cheapest of all three.
    """
    e_r, e_g, e_b = _eligible(f, th)
    if e_r + e_g + e_b != 1:
        return argmin_cost(f, costs)
    return ZoneId.RED if e_r else ZoneId.GREEN if e_g else ZoneId.BLUE


def classify_predicates_batch(f: FeatureColumns, th: PredicateThresholds,
                              costs: CostParams) -> np.ndarray:
    """classify_predicates of each object, as zone ordinals."""
    e_r, e_g, e_b = _eligible(f, th)
    return np.select([e_r.astype(np.int8) + e_g + e_b != 1, e_r, e_g],
                     [argmin_cost_batch(f, costs), RED, GREEN], BLUE)


# thresholds type -> (policy name, scalar classifier, batched classifier)
_POLICY_TABLE = {
    RateThresholds: ("simple", classify_simple, classify_simple_batch),
    PredicateThresholds: ("predicates", classify_predicates,
                          classify_predicates_batch),
}
POLICIES = tuple(name for name, _, _ in _POLICY_TABLE.values())


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

    Object metadata lives in `slots`, a SlotTable indexed like the table,
    and `handles` keeps each slot's ObjectHandle once the slot is first
    claimed. The list sits here, not on the SlotTable, so that the handles'
    references to the table make no reference cycle. The thresholds' type
    selects the policy.
    Ownership contract: one worker drives a given zone partition at a time;
    there is no internal locking. Counters are monotone and aggregated by
    readers at quiescent points.
    """

    def __init__(
        self,
        layout: ZoneLayout,
        *,
        clock: LogicalClock | None = None,
        rate_window: float = RATE_WINDOW,
        ema: EmaConfig | None = None,
        thresholds: RateThresholds | PredicateThresholds | None = None,
        costs: CostParams | None = None,
    ) -> None:
        self.thresholds = thresholds or RateThresholds()
        try:
            _, self._classify, self._classify_batch = _POLICY_TABLE[type(self.thresholds)]
        except KeyError:
            raise ValueError(
                f"no policy takes {type(self.thresholds).__name__} thresholds") from None
        self.layout = layout
        self.table = CheckpointTable(self.layout)
        self.clock = clock or LogicalClock()
        self.costs = costs or CostParams()
        self.slots = SlotTable(self.layout, rate_window, ema or EmaConfig())
        self.handles: list[ObjectHandle | None] = [None] * self.layout.total
        # Indexed by ZoneId.ordinal; hot paths avoid enum-keyed dicts.
        self._pools: list[list[int]] = [[] for _ in ZONE_ORDER]
        self._fresh_next: list[int] = list(self.layout.bounds[:3])
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
        _state: int = _ACTIVE,
    ) -> ObjectHandle:
        """Serve one allocation request from the pool or a fresh slot. A
        negative static feature raises ValueError and changes nothing. The
        new entry's state is ACTIVE, or the code YieldScope.promote has
        checked and passes as _state."""
        # 0.0, not 0: a float-to-float compare takes the interpreter's fast path
        if size < 0.0 or fan_out < 0.0 or complexity_weight < 0.0:
            raise ValueError("size, fan_out and complexity_weight must be non-negative")
        slots = self.slots
        # first: a tag with no id left changes nothing
        tag = slots.tag_ids.get(site_tag)
        if tag is None:
            tag = slots.tag_id(site_tag)
        clock = self.clock
        clock.ops = ops = clock.ops + 1
        idx = self._take(zone.ordinal)
        slots.claim(idx, tag, ops * clock.seconds_per_op, size, fan_out, complexity_weight)
        # set_state(idx, _state) inlined; idx came from this arena so the
        # range check is redundant here.
        self._states[idx] = _state
        return self.handles[idx]

    def release(self, handle: ObjectHandle) -> None:
        """Return a live slot to its zone's pool. A slot with no live object,
        or another arena's handle, raises LifecycleError and changes nothing."""
        self._free(handle)

    def _free(self, handle: ObjectHandle) -> int:
        """release, which returns the slot's zone ordinal for expire to
        count, so a traced release counts only its own calls."""
        idx = handle.slot_index
        alive = self.slots.alive
        if handle.slots is not self.slots or not (0 <= idx < len(alive) and alive[idx]):
            self.slots.live(handle)  # raises, with the lifecycle message
        self.clock.ops += 1
        alive[idx] = 0
        self._states[idx] = _IDLE  # set_state(idx, IDLE) inlined
        return self._give(idx)

    def expire(self, handle: ObjectHandle) -> None:
        """Terminal expiry: reclaim the slot into its pool and count it."""
        self._expired[self._free(handle)] += 1

    # -- the pool policy: every claim and free of a slot goes through these --

    def _room(self, zi: int) -> bool:
        """Whether _take would find the zone of ordinal zi a slot: a pooled
        one, or a fresh one below the zone's edge."""
        return bool(self._pools[zi]) or (
            self._fresh_next[zi] < self.layout.bounds[zi + 1])

    def _take(self, zi: int) -> int:
        """Claim a slot of the zone of ordinal zi: its pool top, counted as a
        reuse, or else its next fresh slot, whose handle is made here. A zone
        with neither raises ZoneCapacityError."""
        pool = self._pools[zi]
        if pool:
            self._reused[zi] += 1
            return pool.pop()
        idx = self._fresh_next[zi]
        if idx >= self.layout.bounds[zi + 1]:  # not _room(zi), as the pool is empty
            zone = ZONE_ORDER[zi]
            raise ZoneCapacityError(
                f"zone {zone} exhausted at {self.layout.size(zone)} slots")
        self._fresh_next[zi] = idx + 1
        handle = _new_handle(ObjectHandle)
        _set_handle_index(handle, idx)
        _set_handle_slots(handle, self.slots)
        self.handles[idx] = handle
        return idx

    def _give(self, idx: int) -> int:
        """Push slot idx onto its zone's pool; returns the zone's ordinal.
        The zone is the slot's region: two compares, as this runs on every
        free."""
        bounds = self.layout.bounds
        zi = 0 if idx < bounds[1] else 1 if idx < bounds[2] else 2
        self._pools[zi].append(idx)
        return zi

    # -- re-zoning and request streams ---------------------------------------

    def expire_and_reallocate(self, handle: ObjectHandle, new_zone: ZoneId) -> ObjectHandle:
        """Re-zone by expiry plus fresh request; same-zone calls are no-ops.

        The old index returns to its own zone's pool and is never rebound to
        the new zone. The new object takes the old one's site and static
        features, which a freed slot keeps. When the new zone has neither a
        pooled nor a fresh slot, raises ZoneCapacityError before anything
        changes, so the object stays where it is.
        """
        slots = self.slots
        idx = slots.live(handle)
        if new_zone is self.layout.zone_of_index(idx):
            return handle
        if not self._room(new_zone.ordinal):
            raise ZoneCapacityError(f"zone {new_zone} has no slot for slot {idx}")
        self.expire(handle)
        return self.allocate(
            new_zone, slots.tags[slots.site_tag[idx]], size=slots.size[idx],
            fan_out=slots.fan_out[idx], complexity_weight=slots.complexity_weight[idx],
        )

    def serve(self, zones: np.ndarray, ends: np.ndarray,
              tags: Sequence[str | None]) -> None:
        """Serve a request stream, given as arrays with one entry per request.

        Request k allocates in the zone of ordinal zones[k] (int8) for the
        zone's site, tags[zones[k]], as tags holds one site tag per zone in
        red, green, blue order. It ends its object at once, as the code
        ends[k] (int8) says: RELEASE or EXPIRE, each after recording one
        access at the allocation time when the ACCESS flag is set; or SWEEP,
        which marks the object expired, runs a sweep and expires it.

        The arena ends as one call per request would leave it, and a zone
        with no slot left raises ZoneCapacityError at the same request and
        in the same state. As each request frees its slot before the next,
        no request changes which zones have room, and a zone's requests all
        take one pooled slot, whose claim rewrites all its entries. So only
        the sweep requests and each zone's last request are made, with
        allocate and expire or release, at their ticks of the request loop;
        the others are counted.
        """
        n = len(zones)
        if len(ends) != n or len(tags) != 3:
            raise ValueError("zones and ends need one entry per request, "
                             "and tags one per zone")
        if zones.dtype != np.int8 or ends.dtype != np.int8:
            raise ValueError("zones and ends must be int8 arrays")
        # one max per array: a negative int8 reads as 128 or more as uint8
        if n and (zones.view(np.uint8).max() > 2 or ends.view(np.uint8).max() > SWEEP):
            raise ValueError("a request names no zone or end code")
        full = [not self._room(zi) for zi in range(3)]
        if any(full) and (blocked := np.array(full)[zones]).any():
            n = int(blocked.argmax())  # the failing request, made last
        codes, marks = zones.tobytes(), ends.tobytes()
        sweeps, k = [], marks.find(SWEEP, 0, n)
        while k >= 0:
            sweeps.append(k)
            k = marks.find(SWEEP, k + 1, n)
        lasts = {codes.rfind(zi, 0, n) for zi in range(3)} - {-1}
        made = sorted(lasts.union(sweeps))
        made_zones = [codes[k] for k in made]
        zones, expiring = zones[:n], (ends[:n] & EXPIRE).view(np.bool_)
        # A made request counts itself: _take counts its reuse, and expire
        # a sweep request's expiry (SWEEP has no EXPIRE bit).
        for zi in set(made_zones):
            in_zone = zones == zi
            self._reused[zi] += int(np.count_nonzero(in_zone)) - made_zones.count(zi)
            self._expired[zi] += int(np.count_nonzero(in_zone & expiring))
        if n < len(codes):
            made.append(n)

        clock = self.clock
        ops0 = clock.ops
        for k in made:
            zone, tag = ZONE_ORDER[codes[k]], tags[codes[k]]
            clock.ops = ops0 + 2 * k
            handle = self.allocate(zone, tag)
            if marks[k] == SWEEP:
                self.table.set_state(handle.slot_index, StateCode.EXPIRED)
                self.run_sweep()  # reports the slot reclaimable, so it expires
                self.expire(handle)
            else:
                if marks[k] & ACCESS:
                    record_event(handle, EventKind.ACCESS, clock.now)
                self.release(handle)
        clock.ops = ops0 + 2 * n

    # -- queries ------------------------------------------------------------

    def header_of(self, handle: ObjectHandle) -> ObjectHandle:
        """The arena's handle of the slot, which reads its current object, or
        its last one once freed. Another arena's handle raises LifecycleError."""
        idx = handle.slot_index
        if handle.slots is not self.slots:
            raise LifecycleError(f"the handle of slot {idx} is another table's")
        handles = self.handles
        if 0 <= idx < len(handles) and (found := handles[idx]) is not None:
            return found
        raise LifecycleError(f"slot {idx} was never allocated")

    def pool_stats(self, zone: ZoneId) -> PoolStats:
        zi = zone.ordinal
        # Fresh slots are claimed in order, once each, so the claimed ones
        # are the real allocations.
        real = self._fresh_next[zi] - self.layout.bounds[zi]
        reused = self._reused[zi]
        return PoolStats(
            total_requests=real + reused,
            real_allocations=real,
            reused_objects=reused,
            expired_objects=self._expired[zi],
            pool_size=len(self._pools[zi]),
        )

    def classify(self, f: FeatureVector) -> ZoneId:
        return self._classify(f, self.thresholds, self.costs)

    # -- sweep integration --------------------------------------------------

    def run_sweep(self) -> SweepReport:
        return self.table.epoch_sweep()

    def reclassify_candidates(self, report: SweepReport) -> list[tuple[int, ObjectHandle]]:
        """Re-run the active policy on promotion/demotion candidates.

        The pause is a snapshot: the candidates alive when it starts are
        classified at once, from their features at that moment, and a slot
        that a move claims during the pause is not examined again. Then each
        candidate whose zone differs from its target moves there, as
        expire_and_reallocate would, in ascending index order; the rest are
        left as they are, and so is a mover whose target zone has no slot
        left. Returns (old index, new handle) pairs for the moved objects. No
        candidate fails the pause: allocate refuses a negative feature.
        """
        slots = self.slots
        idx = np.array(report.candidates, dtype=np.intp)
        idx = idx[np.asarray(slots.alive)[idx] != 0]
        f = feature_columns(slots, idx)
        target = self._classify_batch(f, self.thresholds, self.costs)
        # The zone is the slot's region: the count of green and blue starts
        # at or below the slot.
        zone = np.searchsorted(self.layout.bounds[1:3], idx, side="right")
        movers = target != zone
        return self._move_batch(idx[movers].tolist(), target[movers].tolist())

    def _move_batch(self, movers: list[int], targets: list[int]
                    ) -> list[tuple[int, ObjectHandle]]:
        """expire_and_reallocate of each live slot in ascending `movers`
        into the zone of ordinal targets[k], without its per-object calls.

        First the pool pushes and pops are replayed in order over plain
        ints: a mover whose target zone has no pooled or fresh slot at its
        turn stays, and one that finds room frees its slot into its own
        zone's pool, where a later mover can claim it. Then each column is
        written once for all the moves: the frees before the claims, since
        a freed slot may be claimed again, and the claim of the k-th move
        made at the clock's 2k-th tick from now, as expire and allocate tick
        once each. Returns the (old index, new handle) pairs.
        """
        take, give, expired = self._take, self._give, self._expired
        src: list[int] = []
        dst: list[int] = []
        for i, t in zip(movers, targets):
            try:
                dst.append(take(t))
            except ZoneCapacityError:
                continue  # the target zone is full: the object stays
            # i is not in zone t, so its free and the claim commute
            expired[give(i)] += 1
            src.append(i)
        s = np.array(src, dtype=np.intp)
        d = np.array(dst, dtype=np.intp)
        states = np.asarray(self._states)
        states[s] = _IDLE
        states[d] = _ACTIVE
        clock = self.clock
        now = (clock.ops + 2 * np.arange(1, len(src) + 1)) * clock.seconds_per_op
        clock.ops += 2 * len(src)
        self.slots.move(s, d, now)
        handles = self.handles
        return list(zip(src, [handles[k] for k in dst]))
