"""Classification policies, cost model, and the pooled arena lifecycle."""

from __future__ import annotations

import gc
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zonegc.bench import SCHEDULES, WorkloadSpec
from zonegc.checkpoint import HUGE_PAGE_BYTES, StateCode
from zonegc.config import DEFAULT_CONFIG
from zonegc.errors import LifecycleError, ZoneCapacityError
from zonegc.layout import ZONE_ORDER, ZoneId, ZoneLayout
from zonegc.objects import (
    EmaConfig,
    EventKind,
    FeatureColumns,
    FeatureVector,
    LogicalClock,
    ObjectHandle,
    feature_snapshot,
    record_event,
)
from zonegc.zones import (
    ACCESS,
    EXPIRE,
    POLICIES,
    RELEASE,
    SWEEP,
    CostParams,
    PoolStats,
    PredicateThresholds,
    RateThresholds,
    ZoneArena,
    ZoneWeights,
    argmin_cost,
    classify_predicates,
    classify_predicates_batch,
    classify_simple,
    classify_simple_batch,
    _eligible,
    zone_cost,
)
from zonegc.yield_memory import YieldScope

from .oracles import ArenaModel, Refused, request_loop_oracle

RATES = st.floats(min_value=0.0, max_value=500.0)


def fv(access=0.0, mutation=0.0, lifetime=0.0, size=0.0, fan_out=0.0,
       chi=0.0) -> FeatureVector:
    return FeatureVector(lifetime=lifetime,
                         mutation_rate=mutation, access_rate=access,
                         size=size, fan_out=fan_out, complexity_weight=chi)


# -- cost model -------------------------------------------------------------


def test_zone_cost_manual():
    costs = CostParams()
    f = fv(size=1.0, fan_out=1.0, chi=1.0)
    assert zone_cost(ZoneId.RED, f, costs) == pytest.approx(1 + 1 + 4)
    assert zone_cost(ZoneId.GREEN, f, costs) == pytest.approx(1 + 0.8 + 2)
    assert zone_cost(ZoneId.BLUE, f, costs) == pytest.approx(0.5 + 0.5 + 1)


def test_argmin_tie_and_strict_minimum():
    costs = CostParams()
    # zero feature vector costs 0 everywhere: full tie, green wins.
    # ordering validation makes any partial tie collapse to the full one,
    # so this is the only tie the weights can produce
    assert argmin_cost(fv(), costs) is ZoneId.GREEN
    # default marks tie red and green at 4.0; blue's strict 2.0 must win
    assert argmin_cost(fv(chi=4.0), costs) is ZoneId.BLUE


def test_cost_params_orderings_enforced():
    def weights(r, g, b):
        return ZoneWeights(*r), ZoneWeights(*g), ZoneWeights(*b)

    with pytest.raises(ValueError):  # staging must strictly decrease
        CostParams(weights=weights((1, 1, 2), (1, 0.8, 2), (0.5, 0.5, 1)))
    with pytest.raises(ValueError):  # mark red/green too far apart
        CostParams(weights=weights((2, 1, 4), (1, 0.8, 2), (0.5, 0.5, 1)))
    with pytest.raises(ValueError):  # scan must be non-increasing
        CostParams(weights=weights((1, 0.2, 4), (1, 0.8, 2), (0.5, 0.5, 1)))


def test_threshold_orderings_enforced():
    with pytest.raises(ValueError):
        RateThresholds(access_red=100, access_green=10)
    with pytest.raises(ValueError):
        PredicateThresholds(mutation_red=5, mutation_green=10)


# -- simple policy ----------------------------------------------------------


def test_simple_red_requires_both_rates_strictly_low():
    th = RateThresholds()
    costs = CostParams()
    assert classify_simple(fv(access=5, mutation=5), th, costs) is ZoneId.RED
    # equality at a red cut breaks the strict condition
    assert classify_simple(fv(access=10, mutation=5), th, costs) is not ZoneId.RED
    assert classify_simple(fv(access=5, mutation=10), th, costs) is not ZoneId.RED


def test_simple_green_cut_is_nonstrict_disjunction():
    th = RateThresholds()
    costs = CostParams()
    assert classify_simple(fv(access=100, mutation=0), th, costs) is ZoneId.GREEN
    assert classify_simple(fv(access=0, mutation=100), th, costs) is ZoneId.GREEN
    assert classify_simple(fv(access=250, mutation=250), th, costs) is ZoneId.GREEN


def test_simple_middle_band_takes_cheapest_zone():
    th = RateThresholds()
    costs = CostParams()
    # both rates inside [red, green); default weights make blue cheapest
    f = fv(access=50, mutation=50, size=1.0, fan_out=1.0, chi=1.0)
    assert classify_simple(f, th, costs) is ZoneId.BLUE


def test_simple_single_low_rate_falls_through_to_blue():
    th = RateThresholds()
    costs = CostParams()
    assert classify_simple(fv(access=50, mutation=5), th, costs) is ZoneId.BLUE
    assert classify_simple(fv(access=5, mutation=50), th, costs) is ZoneId.BLUE


@given(a=RATES, mu=RATES)
def test_simple_policy_matches_re_derived_rule(a, mu):
    th = RateThresholds()
    costs = CostParams()
    got = classify_simple(fv(access=a, mutation=mu, size=1.0), th, costs)
    if a < 10 and mu < 10:
        expected = ZoneId.RED
    elif a >= 100 or mu >= 100:
        expected = ZoneId.GREEN
    elif a >= 10 and mu >= 10:
        expected = argmin_cost(fv(access=a, mutation=mu, size=1.0), costs)
    else:
        expected = ZoneId.BLUE
    assert got is expected


# -- predicate policy -------------------------------------------------------


def predicate_oracle(f: FeatureVector, th: PredicateThresholds,
                     costs: CostParams) -> ZoneId:
    """Re-derived: three eligibility predicates, unique winner or argmin."""
    e_r = (f.lifetime <= th.lifetime_red and f.mutation_rate >= th.mutation_red
           and f.access_rate >= th.access_red and f.size <= th.size_red)
    e_g = (th.lifetime_red < f.lifetime <= th.lifetime_green
           and th.mutation_green <= f.mutation_rate < th.mutation_red
           and th.access_green <= f.access_rate < th.access_red
           and th.size_red < f.size <= th.size_green)
    e_b = (f.lifetime > th.lifetime_green
           or f.mutation_rate < th.mutation_green
           or f.access_rate < th.access_green
           or f.size > th.size_green)
    flags = [(ZoneId.RED, e_r), (ZoneId.GREEN, e_g), (ZoneId.BLUE, e_b)]
    winners = [z for z, on in flags if on]
    if len(winners) == 1:
        return winners[0]
    return argmin_cost(f, costs)


def test_predicate_clear_cases():
    th = PredicateThresholds()
    costs = CostParams()
    hot_short = fv(access=200, mutation=200, lifetime=0.05, size=128)
    assert _eligible(hot_short, th)[0]  # (red, green, blue)
    assert classify_predicates(hot_short, th, costs) is ZoneId.RED
    banded = fv(access=50, mutation=50, lifetime=1.0, size=1024)
    assert _eligible(banded, th) == (False, True, False)
    assert classify_predicates(banded, th, costs) is ZoneId.GREEN
    cold = fv(access=1, mutation=1, lifetime=100.0, size=10000)
    assert classify_predicates(cold, th, costs) is ZoneId.BLUE


def test_predicate_overlap_falls_back_to_argmin():
    th = PredicateThresholds()
    costs = CostParams()
    # red-eligible and blue-eligible at once (hot, short-lived, but huge
    # fan-in of the blue disjunction via long lifetime is impossible here,
    # so use low size to trip red and low mutation to trip blue)
    both = fv(access=200, mutation=5, lifetime=0.05, size=128)
    red, _, blue = _eligible(both, th)
    assert not red  # mutation too low for red
    assert blue
    # only blue: unique winner
    assert classify_predicates(both, th, costs) is ZoneId.BLUE


@settings(max_examples=300)
@given(a=RATES, mu=RATES,
       lifetime=st.floats(min_value=0, max_value=100),
       size=st.floats(min_value=0, max_value=10000),
       fan_out=st.floats(min_value=0, max_value=50),
       chi=st.floats(min_value=0, max_value=10))
def test_predicate_policy_matches_oracle(a, mu, lifetime, size, fan_out, chi):
    th = PredicateThresholds()
    costs = CostParams()
    f = fv(access=a, mutation=mu, lifetime=lifetime, size=size,
           fan_out=fan_out, chi=chi)
    assert classify_predicates(f, th, costs) is predicate_oracle(f, th, costs)


# -- batched classifiers against the scalar ones ---------------------------

INF = math.inf
CUTS = st.sampled_from([0.0, 0.125, 1.0, 10.0, 50.0, 100.0, 256.0, 4096.0])


def _cut_pair(draw) -> tuple[float, float]:
    lo, hi = draw(st.lists(CUTS, min_size=2, max_size=2, unique=True))
    return min(lo, hi), max(lo, hi)


def _weights(draw) -> CostParams:
    """Valid weights drawn from a few dyadic steps, so partial ties and a zero
    blue stage (or mark, or scan) weight all occur."""
    def ladder(base, up1, up2):
        b = draw(st.sampled_from(base))
        g = b + draw(st.sampled_from(up1))
        return b, g, g + draw(st.sampled_from(up2))

    mark = ladder([0.0, 0.5], [0.25, 0.5], [0.0, 0.25])
    scan = ladder([0.0, 0.5], [0.0, 0.25], [0.0, 0.5])
    stage = ladder([0.0, 1.0], [0.5, 1.0], [1.0, 2.0])
    # the ladders run blue, green, red; weights run in ZoneId.ordinal order
    return CostParams(weights=tuple(map(ZoneWeights, mark[::-1], scan[::-1], stage[::-1])))


def _band(lo: float, hi: float) -> list[float]:
    """Zero, each cut, the midpoint between them, and above both."""
    return [0.0, lo, (lo + hi) / 2, hi, 2 * hi + 1]


@st.composite
def classifier_cases(draw):
    """Thresholds (default or drawn), weights, and feature vectors.

    The vectors are every combination of each classified feature's band
    points, for each policy, so every cut is met exactly with the other
    features on either side of theirs; plus drawn vectors whose values sit
    on any cut, between them, at zero, inf or NaN.
    """
    if draw(st.booleans()):
        rth, pth = RateThresholds(), PredicateThresholds()
    else:
        (ar, ag), (mr, mg) = _cut_pair(draw), _cut_pair(draw)
        rth = RateThresholds(access_red=ar, access_green=ag,
                             mutation_red=mr, mutation_green=mg)
        (lr, lg), (pmg, pmr), (pag, par), (sr, sg) = (_cut_pair(draw) for _ in range(4))
        pth = PredicateThresholds(lifetime_red=lr, lifetime_green=lg,
                                  mutation_red=pmr, mutation_green=pmg,
                                  access_red=par, access_green=pag,
                                  size_red=sr, size_green=sg)
    costs = _weights(draw) if draw(st.booleans()) else CostParams()
    cuts = sorted({0.0, *vars(rth).values(), *vars(pth).values()})
    wild = st.one_of(st.sampled_from(cuts), st.floats(0.0, 5000.0),
                     st.sampled_from([INF, math.nan]))
    fan_out, chi = draw(wild), draw(wild)
    grid = [fv(access=a, mutation=mu, lifetime=lifetime, size=size,
               fan_out=fan_out, chi=chi)
            for a, mu, lifetime, size in itertools.product(
                _band(pth.access_green, pth.access_red),
                _band(pth.mutation_green, pth.mutation_red),
                _band(pth.lifetime_red, pth.lifetime_green),
                _band(pth.size_red, pth.size_green))]
    grid += [fv(access=a, mutation=mu, size=size, fan_out=fan_out, chi=chi)
             for a, mu, size in itertools.product(
                 _band(rth.access_red, rth.access_green),
                 _band(rth.mutation_red, rth.mutation_green), (0.0, 1.0, INF, math.nan))]
    drawn = st.builds(fv, access=wild, mutation=wild, lifetime=wild, size=wild,
                      fan_out=wild, chi=wild)
    return rth, pth, costs, grid + draw(st.lists(drawn, max_size=16))


def columns(fs: list[FeatureVector]) -> FeatureColumns:
    return FeatureColumns(*(np.array([getattr(f, name) for f in fs], dtype=np.float64)
                            for name in FeatureColumns._fields))


# Blue's mark and stage weights are 0, so an inf size or complexity weight
# makes blue's cost inf * 0 = NaN while green's and red's are inf.
ZERO_BLUE_WEIGHTS = CostParams(weights=(ZoneWeights(1.0, 1.0, 4.0),
                                         ZoneWeights(1.0, 0.8, 2.0),
                                         ZoneWeights(0.0, 0.5, 0.0)))


@settings(max_examples=100, deadline=None)
@example(case=(RateThresholds(), PredicateThresholds(), ZERO_BLUE_WEIGHTS, [
    # costs inf, NaN, inf reach the argmin under each policy: green keeps it
    fv(access=50.0, mutation=50.0, size=INF),
    fv(access=50.0, mutation=50.0, lifetime=1.0, chi=INF),
    fv(),  # every cost 0: green
    fv(fan_out=2.0),  # blue strictly cheapest
]))
@given(case=classifier_cases())
def test_batched_classifiers_match_scalar(case):
    rth, pth, costs, fs = case
    cols = columns(fs)
    assert classify_simple_batch(cols, rth, costs).tolist() == [
        classify_simple(f, rth, costs).ordinal for f in fs]
    assert classify_predicates_batch(cols, pth, costs).tolist() == [
        classify_predicates(f, pth, costs).ordinal for f in fs]


# -- pool stats -------------------------------------------------------------


def test_pool_stats_invariants():
    PoolStats(5, 2, 3, 1, 2)
    with pytest.raises(ValueError):
        PoolStats(5, 2, 2, 0, 0)  # total != real + reused
    with pytest.raises(ValueError):
        PoolStats(2, 1, 1, 0, 2)  # pool exceeds real


# -- arena ------------------------------------------------------------------


def small_arena(**kw) -> ZoneArena:
    return ZoneArena(ZoneLayout(8, 8, 8), **kw)


def test_allocate_claims_fresh_slot_in_zone_span():
    arena = small_arena()
    handle = arena.allocate(ZoneId.GREEN, "site_a")
    lo, hi = arena.layout.span(ZoneId.GREEN)
    assert lo <= handle.slot_index < hi
    header = arena.header_of(handle)
    assert header.zone is ZoneId.GREEN
    assert arena.table.get_state(handle.slot_index) is StateCode.ACTIVE


def test_release_then_reuse_lifofirst():
    arena = small_arena()
    h1 = arena.allocate(ZoneId.RED, "s")
    h2 = arena.allocate(ZoneId.RED, "s")
    arena.release(h1)
    arena.release(h2)
    again = arena.allocate(ZoneId.RED, "s")
    assert again.slot_index == h2.slot_index  # LIFO takes the last freed
    stats = arena.pool_stats(ZoneId.RED)
    assert (stats.total_requests, stats.real_allocations,
            stats.reused_objects) == (3, 2, 1)


def test_reuse_resets_object_identity():
    arena = small_arena()
    h1 = arena.allocate(ZoneId.BLUE, "old_site", size=64.0)
    arena.release(h1)
    h2 = arena.allocate(ZoneId.BLUE, "new_site", size=8.0)
    assert h2.slot_index == h1.slot_index
    header = arena.header_of(h2)
    assert header.site_tag == "new_site"
    assert header.size == 8.0
    assert feature_snapshot(header).lifetime == 0.0


def test_capacity_error_when_zone_exhausted():
    arena = ZoneArena(ZoneLayout(2, 2, 2))
    arena.allocate(ZoneId.RED, "s")
    arena.allocate(ZoneId.RED, "s")
    with pytest.raises(ZoneCapacityError):
        arena.allocate(ZoneId.RED, "s")
    # other zones unaffected
    arena.allocate(ZoneId.GREEN, "s")


def test_site_tag_past_the_uint16_ids_raises_and_changes_nothing():
    arena = small_arena()
    assert arena.allocate(ZoneId.GREEN, None).site_tag is None  # id 0
    for k in range(1, 0x10000):
        assert arena.slots.tag_id(f"site{k}") == k
    handle = arena.allocate(ZoneId.GREEN, "site65535")  # a known tag still claims
    assert (handle.site_tag, arena.slots.site_tag[handle.slot_index]) == ("site65535", 0xFFFF)
    before = _arena_snapshot(arena)
    with pytest.raises(ValueError, match="at most 65535 site tags"):
        arena.allocate(ZoneId.GREEN, "one_more")
    assert _arena_snapshot(arena) == before
    assert len(arena.slots.tags) == len(arena.slots.tag_ids) == 0x10000


def test_double_release_and_use_after_free_rejected():
    arena = small_arena()
    handle = arena.allocate(ZoneId.GREEN, "s")
    arena.release(handle)
    with pytest.raises(LifecycleError):
        arena.release(handle)
    with pytest.raises(LifecycleError):
        arena.expire(handle)


def test_expire_counts_and_pools_the_slot():
    arena = small_arena()
    handle = arena.allocate(ZoneId.BLUE, "s")
    arena.expire(handle)
    stats = arena.pool_stats(ZoneId.BLUE)
    assert stats.expired_objects == 1
    assert stats.pool_size == 1
    assert arena.table.get_state(handle.slot_index) is StateCode.IDLE
    # slot comes back for the next request
    again = arena.allocate(ZoneId.BLUE, "s")
    assert again.slot_index == handle.slot_index


def test_expire_and_reallocate_same_zone_is_noop():
    arena = small_arena()
    handle = arena.allocate(ZoneId.GREEN, "s")
    before = arena.pool_stats(ZoneId.GREEN)
    same = arena.expire_and_reallocate(handle, ZoneId.GREEN)
    assert same is handle
    assert arena.pool_stats(ZoneId.GREEN) == before
    assert arena.header_of(handle).alive


def test_expire_and_reallocate_moves_via_fresh_slot():
    arena = small_arena()
    handle = arena.allocate(ZoneId.GREEN, "mover", size=32.0, fan_out=2.0)
    new = arena.expire_and_reallocate(handle, ZoneId.RED)
    lo, hi = arena.layout.span(ZoneId.RED)
    assert lo <= new.slot_index < hi
    header = arena.header_of(new)
    assert header.zone is ZoneId.RED
    assert header.site_tag == "mover"
    assert header.size == 32.0
    assert header.fan_out == 2.0
    green = arena.pool_stats(ZoneId.GREEN)
    assert green.expired_objects == 1
    assert green.pool_size == 1  # old slot stayed in its own zone's pool
    assert arena.pool_stats(ZoneId.RED).real_allocations == 1


def test_arena_is_freed_by_reference_counting():
    # handles refer to the SlotTable; were the handle list kept on the table,
    # every arena would be a reference cycle that only the cyclic GC frees
    enabled = gc.isenabled()
    gc.disable()
    try:
        arena = small_arena()
        kept = arena.allocate(ZoneId.GREEN, "s")
        freed = arena.allocate(ZoneId.RED, "s")
        arena.release(freed)
        expired = arena.allocate(ZoneId.BLUE, "s")
        arena.expire(expired)
        moved = arena.expire_and_reallocate(kept, ZoneId.RED)
        view = arena.header_of(moved)
        refs = [weakref.ref(arena), weakref.ref(arena.slots)]
        del arena, kept, freed, expired, moved, view
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


# The arena's footprint, in tracemalloc's traced bytes (CPython 3.11) plus a
# mapped slot-table row block, which tracemalloc does not see: a per table
# slot, for the capacity-sized rows, columns and lists, and b per slot ever
# claimed, for its ObjectHandle, its index int and its pool entry.
BYTES_PER_TABLE_SLOT = 100.1
BYTES_PER_CLAIMED_SLOT = 88.5


def _footprint(per_zone: int, claims: int, events: int) -> tuple[int, int]:
    """Bytes of a new 3 x per_zone arena, traced or mapped, and the traced
    bytes it holds more once `claims` green slots are claimed, given
    `events` accesses each and released."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        arena = ZoneArena(ZoneLayout(per_zone, per_zone, per_zone))
        built = tracemalloc.get_traced_memory()[0]
        handles = [arena.allocate(ZoneId.GREEN, "g") for _ in range(claims)]
        for handle in handles:
            for _ in range(events):
                record_event(handle, EventKind.ACCESS, arena.clock.now)
            arena.release(handle)
        del handles, handle
        claimed = tracemalloc.get_traced_memory()[0]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert arena.pool_stats(ZoneId.GREEN).pool_size == claims
    rows = arena.slots.rows.nbytes
    mapped = rows if rows >= HUGE_PAGE_BYTES else 0  # zero_column's size rule
    return built - before + mapped, claimed - built


def test_arena_footprint_is_linear_in_capacity_and_claimed_slots():
    for per_zone, claims in [(10_000, 5_000), (20_000, 10_000), (40_000, 5_000)]:
        built, grown = _footprint(per_zone, claims, events=3)
        assert built / (3 * per_zone) == pytest.approx(BYTES_PER_TABLE_SLOT, rel=0.03)
        assert grown / claims == pytest.approx(BYTES_PER_CLAIMED_SLOT, rel=0.03)


# Resident bytes per table slot that building a 3 x 1M arena adds: the
# handles list's 8 B pointer. The checkpoint table's state bytes and the
# SlotTable's columns are zero pages that only claims commit.
RESIDENT_BYTES_PER_TABLE_SLOT = 9.0
_BUILD_RSS = """
from zonegc.bench import measure_memory
from zonegc.layout import ZoneLayout
from zonegc.zones import ZoneArena
before = measure_memory()
arena = ZoneArena(ZoneLayout({n}, {n}, {n}))
print((measure_memory() - before) * 1024 / (3 * {n}))
"""


@pytest.mark.skipif(not os.path.isfile("/proc/self/statm"), reason="needs /proc/self/statm")
def test_building_an_arena_commits_no_slot_table_pages():
    # In a child process, so that this process's heap does not count.
    proc = subprocess.run([sys.executable, "-c", _BUILD_RSS.format(n=1_000_000)],
                          capture_output=True, text=True, timeout=30, check=True)
    assert float(proc.stdout) <= RESIDENT_BYTES_PER_TABLE_SLOT


# Resident bytes that a claim adds, the same at every table size: its
# entries in the columns and the state bytes (92 B), its handle (48 B) and
# its slot-index int (32 B). Six runs per size on a 2-core x86-64 host
# (CPython 3.11.7, numpy 2.4.6, transparent huge pages in madvise mode)
# read 172.0-172.2 B at both sizes; with the columns on numpy's huge-page
# advice they read 198.3-198.5 B at 3 x 100k and 307-316 B at 3 x 1M.
RESIDENT_BYTES_PER_CLAIM = 180.0
RESIDENT_PER_CLAIM_SPREAD = 1.03  # largest over smallest of the two sizes
_CLAIM_RSS = """
from zonegc.bench import measure_memory
from zonegc.layout import ZONE_ORDER, ZoneLayout
from zonegc.zones import ZoneArena
arena = ZoneArena(ZoneLayout({n}, {n}, {n}))
allocate = arena.allocate
before = measure_memory()
for zone in ZONE_ORDER:
    for _ in range({claims}):
        allocate(zone)
print((measure_memory() - before) * 1024 / (3 * {claims}))
"""


@pytest.mark.skipif(not os.path.isfile("/proc/self/statm"), reason="needs /proc/self/statm")
def test_resident_bytes_per_claim_do_not_depend_on_table_size():
    # Each in a child process; the larger table's zones also take twice the claims.
    per_claim = [float(subprocess.run(
        [sys.executable, "-c", _CLAIM_RSS.format(n=n, claims=claims)],
        capture_output=True, text=True, timeout=60, check=True).stdout)
        for n, claims in [(100_000, 50_000), (1_000_000, 100_000)]]
    assert max(per_claim) <= RESIDENT_BYTES_PER_CLAIM
    assert max(per_claim) <= RESIDENT_PER_CLAIM_SPREAD * min(per_claim)


def _arena_snapshot(arena: ZoneArena) -> dict:
    """Everything the arena holds: states, the SlotTable's row block and
    flag columns, pools, fresh cursors, counters, the sweep epoch, the
    clock, and which slots have a handle. The block and columns are the
    table's contiguous memoryview attributes, so one added or dropped is
    compared too; the strided views of the rows are not compared again.
    They compare as bytes, so NaNs compare too; site tags compare as the
    tags their ids resolve to, as ids are given in first-claim order, which
    serve and the request loop need not share."""
    slots = arena.slots
    columns = {name: bytes(value) for name, value in vars(slots).items()
               if isinstance(value, memoryview) and value.c_contiguous}
    columns["site_tag"] = [slots.tags[tag] for tag in slots.site_tag]
    return {
        "states": bytes(arena.table._states), "epoch": arena.table.epoch,
        "ops": arena.clock.ops, "pools": [list(pool) for pool in arena._pools],
        "fresh": list(arena._fresh_next), "reused": list(arena._reused),
        "expired": list(arena._expired),
        "handles": [h is not None and h.slot_index for h in arena.handles],
        "columns": columns,
    }


def test_move_into_a_full_zone_changes_nothing():
    arena = ZoneArena(ZoneLayout(1, 4, 4))
    arena.allocate(ZoneId.RED, "s")
    handle = arena.allocate(ZoneId.GREEN, "s")
    before = _arena_snapshot(arena)
    with pytest.raises(ZoneCapacityError):
        arena.expire_and_reallocate(handle, ZoneId.RED)
    assert _arena_snapshot(arena) == before
    assert arena.header_of(handle) is handle and handle.alive
    assert handle.zone is ZoneId.GREEN


def test_pause_into_a_full_zone_loses_no_object():
    # zero rates send both green objects to red, whose one slot is taken
    arena = ZoneArena(ZoneLayout(1, 4, 4))
    arena.allocate(ZoneId.RED, "s")
    greens = [arena.allocate(ZoneId.GREEN, "s") for _ in range(2)]
    for handle in greens:
        arena.table.set_state(handle.slot_index, StateCode.PROMOTE_CANDIDATE)
    report = arena.run_sweep()
    before = _arena_snapshot(arena)
    assert arena.reclassify_candidates(report) == []
    assert _arena_snapshot(arena) == before
    assert all(handle.alive and handle.zone is ZoneId.GREEN for handle in greens)


def _frames(call) -> int:
    """The Python frames that call() starts, call itself not counted."""
    started = []

    def profile(frame, event, arg):
        if event == "call":
            started.append(frame.f_code.co_qualname)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return len(started) - 1


def test_object_birth_and_zone_lookup_run_few_python_frames():
    # Each Python frame costs tens of ns, and a birth, a zone lookup, a
    # state write, an event or a free runs once per request; the counts
    # guard that cost with no timing. Before the birth path was cut down,
    # the first six were 6, 4, 9, 12, 2 and 4; before the range and
    # liveness tests were inlined, the last four were 2, 2, 4 and 4.
    arena = small_arena()
    scope = YieldScope(arena)
    scope.promote(None, StateCode.PERSISTENT)  # the tags below have ids from here on
    arena.release(arena.allocate(ZoneId.RED, "s"))
    handle = arena.allocate(ZoneId.BLUE, "s")
    released, expired = (arena.allocate(ZoneId.GREEN, "s") for _ in range(2))
    now = arena.clock.now  # an event in the open window, which closes none
    cold = FeatureVector(size=64.0)
    counts = {
        "fresh allocate": _frames(lambda: arena.allocate(ZoneId.GREEN, "s", size=8.0)),
        "pooled allocate": _frames(lambda: arena.allocate(ZoneId.RED, "s", size=8.0)),
        "persistent promote": _frames(lambda: scope.promote(None, StateCode.PERSISTENT)),
        "deferred promote": _frames(lambda: scope.promote(None, StateCode.DEFERRED,
                                                          features=cold)),
        "zone_of_index": _frames(lambda: arena.layout.zone_of_index(handle.slot_index)),
        "header_of(h).zone": _frames(lambda: arena.header_of(handle).zone),
        "set_state": _frames(lambda: arena.table.set_state(handle.slot_index,
                                                           StateCode.PROMOTE_CANDIDATE)),
        "record_event": _frames(lambda: record_event(handle, EventKind.ACCESS, now)),
        "release": _frames(lambda: arena.release(released)),
        "expire": _frames(lambda: arena.expire(expired)),
    }
    assert counts == {"fresh allocate": 3, "pooled allocate": 3, "persistent promote": 4,
                      "deferred promote": 7, "zone_of_index": 1, "header_of(h).zone": 3,
                      "set_state": 1, "record_event": 1, "release": 3, "expire": 3}


def test_zone_edges_hold_on_unequal_zones():
    """Every slot of three zones of different sizes: its handle names its
    region, it frees into its own zone's pool, and a pause leaves a
    region's first and last slot where they are when the policy's target
    is their own zone."""
    layout = ZoneLayout(3, 5, 4)
    # open-window access counts: none sends an object to red, one to blue,
    # two to green
    events = {ZoneId.RED: 0, ZoneId.BLUE: 1, ZoneId.GREEN: 2}
    arena = ZoneArena(layout, thresholds=RateThresholds(
        access_red=1.0, access_green=2.0, mutation_red=1.0, mutation_green=2.0))
    handles = []
    for zone in ZoneId:
        for _ in range(layout.size(zone)):
            handle = arena.allocate(zone, "s")
            assert handle.zone is layout.zone_of_index(handle.slot_index) is zone
            for _ in range(events[zone]):
                record_event(handle, EventKind.ACCESS, handle.allocated_at)
            assert arena.classify(feature_snapshot(handle)) is zone
            handles.append(handle)
        with pytest.raises(ZoneCapacityError):
            arena.allocate(zone, "s")
    assert [handle.slot_index for handle in handles] == list(range(layout.total))
    edges = {i for zone in ZoneId for i in (layout.span(zone)[0], layout.span(zone)[1] - 1)}

    def free_each(handles):
        for handle in handles:
            zone = layout.zone_of_index(handle.slot_index)
            before = [arena.pool_stats(z) for z in ZoneId]
            expire = handle.slot_index % 2
            (arena.expire if expire else arena.release)(handle)
            for z, was in zip(ZoneId, before):
                now = arena.pool_stats(z)
                mine = z is zone
                assert now.pool_size - was.pool_size == mine, (handle.slot_index, z)
                assert now.expired_objects - was.expired_objects == (mine and expire)

    # freeing the inner slots leaves every zone a pooled slot to move into
    free_each([handle for handle in handles if handle.slot_index not in edges])
    for i in edges:
        arena.table.set_state(i, StateCode.PROMOTE_CANDIDATE)
    report = arena.run_sweep()
    assert report.candidates == sorted(edges)
    assert arena.reclassify_candidates(report) == []
    free_each([handle for handle in handles if handle.slot_index in edges])


def test_arena_rejects_unknown_policy():
    # the thresholds' type selects the policy; no policy takes CostParams
    with pytest.raises(ValueError):
        ZoneArena(ZoneLayout(2, 2, 2), thresholds=CostParams())


def test_arena_classify_dispatches_on_policy():
    simple = small_arena()
    pred = small_arena(thresholds=PredicateThresholds())
    hot_short = fv(access=200, mutation=200, lifetime=0.05, size=128)
    assert simple.classify(hot_short) is ZoneId.GREEN  # rates over green cut
    assert pred.classify(hot_short) is ZoneId.RED


def test_sweep_reports_candidates_and_reclassify_moves_them():
    arena = small_arena()
    handle = arena.allocate(ZoneId.GREEN, "s")
    # with zero rates the simple policy wants this object in red
    arena.table.set_state(handle.slot_index, StateCode.PROMOTE_CANDIDATE)
    report = arena.run_sweep()
    assert handle.slot_index in report.candidates
    moved = arena.reclassify_candidates(report)
    assert len(moved) == 1
    old_idx, new_handle = moved[0]
    assert old_idx == handle.slot_index
    lo, hi = arena.layout.span(ZoneId.RED)
    assert lo <= new_handle.slot_index < hi
    assert arena.pool_stats(ZoneId.GREEN).expired_objects == 1


def test_reclassify_skips_satisfied_candidates():
    arena = small_arena(thresholds=PredicateThresholds())
    handle = arena.allocate(ZoneId.BLUE, "s")
    # zero features are blue-eligible under the predicate policy (low rates)
    arena.table.set_state(handle.slot_index, StateCode.DEMOTE_CANDIDATE)
    report = arena.run_sweep()
    assert arena.reclassify_candidates(report) == []
    assert arena.header_of(handle).zone is ZoneId.BLUE


def test_allocate_refuses_a_negative_feature_and_changes_nothing():
    # so no pause can meet a negative feature: it never reaches the table
    arena = small_arena()
    mover = arena.allocate(ZoneId.GREEN, "s")  # zero rates: simple wants red
    arena.release(arena.allocate(ZoneId.GREEN, "s"))  # a pooled slot to take
    before = _arena_snapshot(arena)
    for feature in ("size", "fan_out", "complexity_weight"):
        with pytest.raises(ValueError, match="must be non-negative$"):
            arena.allocate(ZoneId.GREEN, "a new site", **{feature: -1.0})
        assert _arena_snapshot(arena) == before
        assert arena.slots.tags == [None, "s"]
    arena.table.set_state(mover.slot_index, StateCode.PROMOTE_CANDIDATE)
    moved = arena.reclassify_candidates(arena.run_sweep())
    assert [(old, new.zone) for old, new in moved] == [(mover.slot_index, ZoneId.RED)]


def test_reclassify_skips_a_freed_candidate():
    arena = small_arena()
    handle = arena.allocate(ZoneId.GREEN, "s")
    arena.release(handle)
    arena.table.set_state(handle.slot_index, StateCode.PROMOTE_CANDIDATE)
    report = arena.run_sweep()
    assert report.candidates == [handle.slot_index]
    stats = [arena.pool_stats(zone) for zone in ZoneId]
    assert arena.reclassify_candidates(report) == []
    assert [arena.pool_stats(zone) for zone in ZoneId] == stats


def test_reclassify_of_an_empty_report_moves_nothing():
    arena = small_arena()
    arena.allocate(ZoneId.GREEN, "s")
    report = arena.run_sweep()
    assert report.candidates == []
    assert arena.reclassify_candidates(report) == []


# -- randomized replay against a free-list model ---------------------------


@settings(max_examples=60, deadline=None)
@example(ops=[*[("alloc", ZoneId.RED, 0)] * 8, ("alloc", ZoneId.GREEN, 0),
              ("rezone", ZoneId.RED, 8)])  # the green object finds red full
@given(ops=st.lists(
    st.tuples(st.sampled_from(["alloc", "release", "expire", "rezone"]),
              st.sampled_from([ZoneId.RED, ZoneId.GREEN, ZoneId.BLUE]),
              st.integers(0, 7)),
    max_size=120,
))
def test_arena_counters_match_free_list_model(ops):
    arena = ZoneArena(ZoneLayout(8, 8, 8))
    live: list = []
    model = {z: {"pool": [], "fresh": 0, "real": 0, "reused": 0, "expired": 0}
             for z in ZoneId}

    def model_alloc(zone):
        m = model[zone]
        if m["pool"]:
            m["pool"].pop()
            m["reused"] += 1
        else:
            if m["fresh"] >= 8:
                return False
            m["fresh"] += 1
            m["real"] += 1
        return True

    for op, zone, pick in ops:
        if op == "alloc":
            if model_alloc(zone):
                live.append((zone, arena.allocate(zone, "fuzz")))
            else:
                with pytest.raises(ZoneCapacityError):
                    arena.allocate(zone, "fuzz")
        elif op == "release" and live:
            owner, handle = live.pop(pick % len(live))
            arena.release(handle)
            model[owner]["pool"].append(handle.slot_index)
        elif op == "expire" and live:
            owner, handle = live.pop(pick % len(live))
            arena.expire(handle)
            model[owner]["pool"].append(handle.slot_index)
            model[owner]["expired"] += 1
        elif op == "rezone" and live:
            owner, handle = live.pop(pick % len(live))
            if zone is owner:
                arena.expire_and_reallocate(handle, zone)
                live.append((owner, handle))
            elif model_alloc(zone):
                model[owner]["pool"].append(handle.slot_index)
                model[owner]["expired"] += 1
                live.append((zone, arena.expire_and_reallocate(handle, zone)))
            else:
                stats = [arena.pool_stats(z) for z in ZoneId]
                with pytest.raises(ZoneCapacityError):
                    arena.expire_and_reallocate(handle, zone)
                assert [arena.pool_stats(z) for z in ZoneId] == stats
                live.append((owner, handle))  # target zone full: it stays
    for zone in ZoneId:
        stats = arena.pool_stats(zone)
        m = model[zone]
        assert stats.real_allocations == m["real"]
        assert stats.reused_objects == m["reused"]
        assert stats.expired_objects == m["expired"]
        assert stats.pool_size == len(m["pool"])


# -- flat arena against the per-object header model -------------------------

LETTER = {ZoneId.RED: "R", ZoneId.GREEN: "G", ZoneId.BLUE: "B"}
KINDS = {EventKind.ACCESS: "access", EventKind.MUTATION: "mutation"}
REFUSAL = {LifecycleError: "lifecycle", ZoneCapacityError: "capacity",
           ValueError: "time"}
# Dyadic window lengths, clock steps and event offsets put every window
# boundary on an exact float, so closing windows one at a time (the model)
# and in one step (the arena) must assign each event to the same window.
# Offsets up to 1,200 windows take the one-step path. A step of 0.0 stops
# the clock: a reused slot's last and new objects then share an allocation
# time, and only the claim's reset of the rate entries tells their rates
# apart.
ZONE_PICK = st.sampled_from([ZoneId.RED, ZoneId.GREEN, ZoneId.BLUE])
ARENA_OPS = st.one_of(
    st.tuples(st.just("alloc"), ZONE_PICK, st.sampled_from(["a", "b"]),
              st.sampled_from([0.0, 64.0, 4096.0])),
    st.tuples(st.sampled_from(["release", "expire"]), st.integers(0, 63)),
    st.tuples(st.just("move"), st.integers(0, 63), ZONE_PICK),
    st.tuples(st.just("event"), st.integers(0, 63), st.sampled_from(list(KINDS)),
              st.sampled_from([0.0, 0.125, 0.75, 3.0, -0.5, 600.0])),
    # mark the slots of issued handles (freed ones included) 010/011, then pause
    st.tuples(st.just("pause"), st.lists(st.integers(0, 63), max_size=4),
              st.sampled_from([StateCode.PROMOTE_CANDIDATE, StateCode.DEMOTE_CANDIDATE])),
    # a yield scope's promotion, persistent or deferred, as a member or a
    # plain int, for the scope's tag or a site's, without features (the
    # scope reads zeros) or with features that reach the cuts below
    st.tuples(st.just("promote"),
              st.sampled_from([StateCode.PERSISTENT, StateCode.DEFERRED, 0b100, 0b101]),
              st.sampled_from([None, "a"]),
              st.one_of(st.none(), st.fixed_dictionaries({
                  "lifetime": st.sampled_from([0.0, 1.0, 8.0]),
                  "mutation_rate": st.sampled_from([0.0, 2.0, 8.0]),
                  "access_rate": st.sampled_from([0.0, 2.0, 8.0]),
                  "size": st.sampled_from([0.0, 64.0, 4096.0]),
                  "fan_out": st.sampled_from([0.0, 1.0]),
                  "complexity_weight": st.sampled_from([0.0, 2.0]),
              }))),
)
NO_FEATURES = dict.fromkeys(
    ["lifetime", "mutation_rate", "access_rate", "size", "fan_out", "complexity_weight"], 0.0)
HOT = dict(NO_FEATURES, mutation_rate=8.0, access_rate=8.0, size=64.0)
# Cuts the drawn rates, lifetimes and sizes reach, so pauses move objects;
# one set per policy.
MODEL_THRESHOLDS = {
    "simple": RateThresholds(access_red=1.0, access_green=4.0,
                             mutation_red=1.0, mutation_green=4.0),
    "predicates": PredicateThresholds(lifetime_red=0.5, lifetime_green=4.0,
                                      mutation_red=4.0, mutation_green=1.0,
                                      access_red=4.0, access_green=1.0,
                                      size_red=64.0, size_green=4096.0),
}


def _outcome(call):
    """The call's result, or the kind of refusal it raised."""
    try:
        return call()
    except (LifecycleError, ZoneCapacityError, ValueError) as exc:
        return next(kind for cls, kind in REFUSAL.items() if isinstance(exc, cls))
    except Refused as exc:
        return exc.kind


@settings(max_examples=150, deadline=None)
@example(ops=[  # a reused slot starts with fresh rates, not its last object's
    ("alloc", ZoneId.GREEN, "a", 0.0), ("event", 2, EventKind.ACCESS, 0.0),
    ("event", 2, EventKind.ACCESS, 3.0), ("release", 2),
    ("alloc", ZoneId.GREEN, "a", 0.0)], window=1.0, omega=0.5, step=0.125,
    policy="simple")
@example(ops=[  # a pause is a snapshot: the slot a move claims is not re-examined
    ("alloc", ZoneId.GREEN, "a", 0.0), ("alloc", ZoneId.RED, "a", 0.0),
    ("release", 2),  # green slot 4 goes back to its pool
    *[("event", 3, EventKind.ACCESS, 0.0)] * 4,  # red slot 0 reaches the green cut
    # slot 0 moves to green and claims slot 4, whose fresh object the
    # policy would send to red
    ("pause", [3, 2], StateCode.PROMOTE_CANDIDATE)],
    window=1.0, omega=0.5, step=0.125, policy="simple")
@example(ops=[  # moves into a full zone change nothing, alone or in a pause
    *[("alloc", ZoneId.RED, "a", 0.0)] * 4,  # red is full
    ("alloc", ZoneId.GREEN, "a", 0.0), ("alloc", ZoneId.GREEN, "a", 0.0),
    ("alloc", ZoneId.BLUE, "a", 0.0),
    ("move", 6, ZoneId.RED),  # green slot 4 stays
    *[("event", 8, EventKind.ACCESS, 0.0)] * 4,  # blue slot 8 reaches the green cut
    # zero rates send green slots 4 and 5 to the full red zone, where they
    # stay; slot 8 still moves to green
    ("pause", [6, 7, 8], StateCode.PROMOTE_CANDIDATE)],
    window=1.0, omega=0.5, step=0.125, policy="simple")
@example(ops=[  # a batch moves into a zone that is full when the pause starts
    *[("alloc", ZoneId.RED, "a", 0.0)] * 4,  # red is full
    ("alloc", ZoneId.GREEN, "a", 0.0),
    *[("event", 2, EventKind.ACCESS, 0.0)] * 4,  # red slot 0 reaches the green cut
    # zero rates send green slot 4 to red. Slot 0 moves to green first and
    # frees red slot 0, which slot 4 then claims in the same pause.
    ("pause", [2, 6], StateCode.PROMOTE_CANDIDATE)],
    window=1.0, omega=0.5, step=0.125, policy="simple")
@example(ops=[  # one pause gathers every kind of rate entry at once
    ("alloc", ZoneId.RED, "a", 0.0), ("event", 2, EventKind.ACCESS, 0.0),
    ("event", 2, EventKind.ACCESS, 3.0), ("release", 2),  # a closed window
    *[("alloc", ZoneId.RED, "a", 0.0)] * 3,  # red slot 0's new object: no event
    ("event", 4, EventKind.ACCESS, 0.0),  # red slot 1: an open window only
    ("event", 5, EventKind.ACCESS, 0.0),  # red slot 2: a closed window
    ("event", 5, EventKind.ACCESS, 3.0),
    ("pause", [3, 4, 5], StateCode.PROMOTE_CANDIDATE)],  # slot 1 moves to blue
    window=1.0, omega=0.5, step=0.125, policy="simple")
@example(ops=[  # a pause's move resets the rate entries of the slot it claims
    ("alloc", ZoneId.GREEN, "a", 0.0), ("event", 2, EventKind.MUTATION, 0.0),
    ("event", 2, EventKind.ACCESS, 0.0),
    ("event", 2, EventKind.ACCESS, 3.0),  # green slot 4: a closed access window
    ("release", 2),
    ("alloc", ZoneId.RED, "a", 0.0),
    *[("event", 3, EventKind.ACCESS, 0.0)] * 4,  # red slot 0 reaches the green cut
    ("pause", [3], StateCode.PROMOTE_CANDIDATE),  # slot 0 moves to green slot 4
    # inside the window the move opened, but over a window after the one
    # the last object's mutation opened
    ("event", 4, EventKind.MUTATION, 0.75)],
    window=1.0, omega=0.5, step=0.125, policy="simple")
@example(ops=[  # a promotion into a full zone is refused and ticks the clock
    *[("alloc", ZoneId.GREEN, "a", 0.0)] * 4,  # green is full
    ("promote", StateCode.PERSISTENT, None, None),
    *[("alloc", ZoneId.BLUE, "a", 0.0)] * 4,  # blue is full
    # rates over the green cut classify green, which a deferred value takes
    # as blue, and blue is full
    ("promote", StateCode.DEFERRED, "a", HOT),
    ("promote", 0b101, None, None),  # zero rates: red slot 0, code 101
    ("release", 2),  # green slot 4 goes back to its pool
    ("promote", 0b100, "a", HOT),  # pooled green slot 4, code 100
    ("event", 11, EventKind.ACCESS, 0.0),  # on the persistent object in slot 4
    ("pause", [10, 11], StateCode.DEMOTE_CANDIDATE)],
    window=1.0, omega=0.5, step=0.125, policy="simple")
@given(ops=st.lists(ARENA_OPS, max_size=80),
       window=st.sampled_from([0.5, 1.0, 2.0]),
       omega=st.sampled_from([0.25, 0.5, 0.875]),
       step=st.sampled_from([0.0, 0.125, 0.25]),
       policy=st.sampled_from(POLICIES))
def test_flat_arena_matches_header_model(ops, window, omega, step, policy):
    sizes = (4, 4, 4)
    arena = ZoneArena(ZoneLayout(*sizes), clock=LogicalClock(seconds_per_op=step),
                      rate_window=window, ema=EmaConfig(omega),
                      thresholds=MODEL_THRESHOLDS[policy])
    model = ArenaModel(sizes, window, omega, step)
    scope = YieldScope(arena, scope_id="y")
    promoted = 0
    # every handle ever issued, plus two that name no slot of the table
    handles = [ObjectHandle(-1, arena.slots), ObjectHandle(12, arena.slots)]
    by_slot: dict[int, ObjectHandle] = {}

    def issued(handle):
        if isinstance(handle, ObjectHandle):
            # one handle object per slot, made on the slot's first claim
            assert by_slot.setdefault(handle.slot_index, handle) is handle
            handles.append(handle)
            return handle.slot_index
        return handle

    def arena_features(features):
        # the model's per-site allocation rate has no counterpart in the arena
        del features["alloc_rate"]
        return features

    def classify(features):
        return LETTER[arena.classify(FeatureVector(**arena_features(features)))]

    for op in ops:
        if op[0] == "alloc":
            _, zone, site, size = op
            got = issued(_outcome(lambda: arena.allocate(zone, site, size=size,
                                                         fan_out=size / 64)))
            want = _outcome(lambda: model.allocate(LETTER[zone], site, size, size / 64))
        elif op[0] == "pause":
            _, picks, code = op
            # a forged handle's pick marks a slot no object has used yet
            for k in picks:
                slot = handles[k % len(handles)].slot_index
                slot = slot if 0 <= slot < sum(sizes) else k % sum(sizes)
                arena.table.set_state(slot, code)
                model.mark(slot, int(code))
            report = arena.run_sweep()
            candidates = [i for i, s in enumerate(model.states) if s in (0b010, 0b011)]
            assert report.candidates == candidates
            got = _outcome(lambda: arena.reclassify_candidates(report))
            want = _outcome(lambda: model.reclassify_lossless(candidates, classify))
            if isinstance(got, list):
                got = [(old, issued(new)) for old, new in got]
        elif op[0] == "promote":
            _, code, site, drawn = op
            features = None if drawn is None else FeatureVector(**drawn)
            got = issued(_outcome(lambda: scope.promote(object(), code, site_tag=site,
                                                        features=features)))
            want = _outcome(lambda: model.promote(
                int(code), site or scope.scope_id, drawn or NO_FEATURES,
                lambda f: LETTER[arena.classify(FeatureVector(**f))]))
            promoted += isinstance(want, int)
        else:
            handle = handles[op[1] % len(handles)]
            slot = handle.slot_index
            if op[0] == "release":
                got = _outcome(lambda: arena.release(handle))
                want = _outcome(lambda: model.release(slot) and None)
            elif op[0] == "expire":
                got = _outcome(lambda: arena.expire(handle))
                want = _outcome(lambda: model.expire(slot))
            elif op[0] == "move":
                zone = op[2]
                got = issued(_outcome(lambda: arena.expire_and_reallocate(handle, zone)))
                want = _outcome(lambda: model.move_lossless(slot, LETTER[zone]))
            else:
                _, _, kind, offset = op
                now = arena.clock.now + offset * window
                got = _outcome(lambda: record_event(arena.header_of(handle), kind, now)
                               and None)
                want = _outcome(lambda: model.record_event(slot, KINDS[kind], now))
        assert got == want, op
        assert arena.clock.ops == model.ops, op
        assert scope.promoted == promoted

        for zone in ZoneId:
            s = arena.pool_stats(zone)
            assert (s.total_requests, s.real_allocations, s.reused_objects,
                    s.expired_objects, s.pool_size) == model.pool_stats(LETTER[zone])
        assert [int(s) for s in arena.table.states()] == model.states
        for slot in range(sum(sizes)):
            if slot not in model.headers:
                with pytest.raises(LifecycleError):
                    arena.header_of(ObjectHandle(slot, arena.slots))
                continue
            h = model.headers[slot]
            view = arena.header_of(by_slot[slot])
            assert view is by_slot[slot]
            assert (LETTER[view.zone], view.site_tag, view.alive, view.allocated_at,
                    view.last_event_at, view.size, view.fan_out,
                    view.complexity_weight) == (
                h.zone, h.site_tag, h.alive, h.allocated_at, h.last_event_at,
                h.size, h.fan_out, h.complexity_weight)
            f = feature_snapshot(view)
            for name, value in arena_features(model.features(slot)).items():
                assert math.isclose(getattr(f, name), value, rel_tol=1e-9,
                                    abs_tol=1e-12), name


# -- the stated bound: real allocations equal the peak live count ----------

BOUND_OPS = st.one_of(
    st.tuples(st.just("alloc"), ZONE_PICK),
    st.tuples(st.sampled_from(["release", "expire"]), st.integers(0, 63)),
    # enough events at one instant to cross MODEL_THRESHOLDS' cuts
    st.tuples(st.just("event"), st.integers(0, 63), st.sampled_from(list(KINDS)),
              st.integers(1, 5)),
    st.tuples(st.just("move"), st.integers(0, 63), ZONE_PICK),
    # mark every live object 010, then pause: sweep and reclassify
    st.tuples(st.just("pause")),
)


@settings(max_examples=100, deadline=None)
@example(ops=[  # green's peak falls inside the pause
    ("alloc", ZoneId.RED), ("event", 0, EventKind.ACCESS, 4),  # red slot 0 goes green
    ("alloc", ZoneId.GREEN),  # zero rates: green slot 4 goes red
    # slot 0 moves first and green holds two objects, then slot 4 leaves it
    ("pause",)], policy="simple")
@given(ops=st.lists(BOUND_OPS, max_size=200), policy=st.sampled_from(POLICIES))
def test_real_allocations_equal_peak_live_count(ops, policy):
    """Each zone claims a fresh slot only when its pool is empty, so after
    every step its real allocations equal the most objects it has held live
    at once, counting the moment inside a pause after each move."""
    arena = ZoneArena(ZoneLayout(4, 4, 4), thresholds=MODEL_THRESHOLDS[policy])
    zone_of = arena.layout.zone_of_index
    live: list[ObjectHandle] = []
    count = {zone: 0 for zone in ZoneId}
    peak = dict(count)

    def claimed(handle):
        zone = zone_of(handle.slot_index)
        count[zone] += 1
        peak[zone] = max(peak[zone], count[zone])
        live.append(handle)

    def freed(handle):
        count[zone_of(handle.slot_index)] -= 1
        live.remove(handle)

    for op in ops:
        kind = op[0]
        if kind == "alloc":
            try:
                claimed(arena.allocate(op[1], "bound"))
            except ZoneCapacityError:
                pass
        elif kind == "pause":
            for handle in live:
                arena.table.set_state(handle.slot_index, StateCode.PROMOTE_CANDIDATE)
            for old, new in arena.reclassify_candidates(arena.run_sweep()):
                freed(arena.handles[old])
                claimed(new)
        elif live:
            handle = live[op[1] % len(live)]
            if kind == "release":
                arena.release(handle)
                freed(handle)
            elif kind == "expire":
                arena.expire(handle)
                freed(handle)
            elif kind == "event":
                for _ in range(op[3]):
                    record_event(handle, op[2], arena.clock.now)
            elif zone_of(handle.slot_index) is not op[2]:
                try:
                    new = arena.expire_and_reallocate(handle, op[2])
                except ZoneCapacityError:
                    pass  # the target zone is full: the object stays
                else:
                    freed(handle)
                    claimed(new)
        alive = np.frombuffer(arena.slots.alive, dtype=np.uint8)
        for zone in ZoneId:
            lo, hi = arena.layout.span(zone)
            assert int(alive[lo:hi].sum()) == count[zone]
            assert arena.pool_stats(zone).real_allocations == peak[zone], op


# -- a request stream served in one pass: only the sweep requests and each ---
# -- zone's last request are made -------------------------------------------

STREAM_TAGS = ("a", "b", "c")
# Set-up steps that leave live objects, pooled slots, slots whose rate
# entries hold earlier events, marked slots and full zones behind. No step
# marks a slot 111: the old loop's sweep expires only its own object.
SETUP_OPS = st.one_of(
    st.tuples(st.just("alloc"), ZONE_PICK, st.sampled_from([0.0, 64.0])),
    st.tuples(st.sampled_from(["release", "expire"]), st.integers(0, 31)),
    st.tuples(st.just("event"), st.integers(0, 31), st.sampled_from(list(EventKind)),
              st.sampled_from([0.0, 0.125, 3.0])),
    st.tuples(st.just("mark"), st.integers(0, 31), st.integers(0, 6)),
)
STREAM = st.lists(st.tuples(st.integers(0, 2),
                            st.sampled_from([RELEASE, EXPIRE, ACCESS | RELEASE,
                                             ACCESS | EXPIRE, SWEEP])),
                  max_size=200)


def _prepared(sizes, setup, window: float, step: float) -> ZoneArena:
    """An arena after the set-up steps; a refused step changes what it
    changes before the refusal, the same on every call."""
    arena = ZoneArena(ZoneLayout(*sizes), clock=LogicalClock(seconds_per_op=step),
                      rate_window=window)
    live: list[ObjectHandle] = []
    for op in setup:
        kind = op[0]
        try:
            if kind == "alloc":
                live.append(arena.allocate(op[1], "setup", size=op[2], fan_out=op[2],
                                           complexity_weight=op[2]))
            elif kind == "mark":
                arena.table.set_state(op[1] % arena.layout.total, op[2])
            elif live and kind == "event":
                record_event(live[op[1] % len(live)], op[2], arena.clock.now + op[3])
            elif live:
                handle = live.pop(op[1] % len(live))
                (arena.release if kind == "release" else arena.expire)(handle)
        except (ZoneCapacityError, ValueError):
            pass
    return arena


def _raised(call):
    """None, or the type and message of what call raised."""
    try:
        call()
    except Exception as exc:  # noqa: BLE001  any difference is the finding
        return type(exc), str(exc)
    return None


@settings(max_examples=200, deadline=None)
@example(  # green is full with no pooled slot: the stream fails at its first green request
    sizes=(1, 2, 1), setup=[("alloc", ZoneId.GREEN, 0.0)] * 2,
    stream=[(0, ACCESS | EXPIRE), (2, SWEEP), (0, RELEASE), (1, RELEASE), (2, RELEASE)],
    window=1.0, step=0.125)
@example(  # pooled slots with earlier events and features; after blue's sweep,
    # its last access is not its last request
    sizes=(2, 2, 2), setup=[("alloc", ZoneId.BLUE, 64.0),
                            ("event", 0, EventKind.MUTATION, 3.0), ("release", 0),
                            ("alloc", ZoneId.GREEN, 64.0), ("release", 0)],
    stream=[(2, ACCESS | RELEASE), (2, SWEEP), (2, ACCESS | EXPIRE), (2, RELEASE),
            (1, EXPIRE)],
    window=1.0, step=0.125)
@example(  # green's last access is not its last request, on a pooled slot
    # whose rate entries hold its last object's event until a claim resets them
    sizes=(1, 1, 1), setup=[("alloc", ZoneId.GREEN, 64.0),
                            ("event", 0, EventKind.ACCESS, 3.0), ("release", 0)],
    stream=[(1, ACCESS | RELEASE), (0, ACCESS | EXPIRE), (1, ACCESS | EXPIRE),
            (0, RELEASE), (1, RELEASE), (1, EXPIRE)],
    window=0.5, step=0.3)
@example(  # red is full and fails at its first request, partway through the
    # run, after green has served an access and a later request
    sizes=(1, 2, 1), setup=[("alloc", ZoneId.RED, 0.0)],
    stream=[(1, ACCESS | RELEASE), (2, ACCESS | EXPIRE), (1, RELEASE), (0, RELEASE),
            (1, ACCESS | RELEASE)],
    window=1.0, step=0.125)
@example(  # blue's last request is a sweep request, after plain blue requests
    sizes=(2, 2, 2), setup=[("alloc", ZoneId.BLUE, 64.0), ("release", 0)],
    stream=[(2, ACCESS | RELEASE), (1, RELEASE), (2, EXPIRE), (2, SWEEP), (1, EXPIRE)],
    window=1.0, step=0.125)
@example(  # red's last request, a plain one, comes before green's sweep request
    sizes=(2, 2, 2), setup=[],
    stream=[(0, ACCESS | EXPIRE), (1, RELEASE), (0, ACCESS | RELEASE), (1, SWEEP),
            (1, ACCESS | EXPIRE)],
    window=1.0, step=0.3)
@example(  # red's requests fall on both sides of green's sweep, whose scan sees
    # red's fresh slot marked, as only red's last request is made
    sizes=(1, 1, 1), setup=[("mark", 0, 2)],
    stream=[(0, ACCESS | EXPIRE), (1, SWEEP), (0, RELEASE), (1, RELEASE)],
    window=1.0, step=0.125)
@example(  # blue is full, and its first request is a sweep request
    sizes=(1, 1, 1), setup=[("alloc", ZoneId.BLUE, 0.0)],
    stream=[(1, ACCESS | EXPIRE), (0, EXPIRE), (2, SWEEP), (1, RELEASE), (0, RELEASE)],
    window=1.0, step=0.125)
@given(sizes=st.tuples(*[st.integers(1, 8)] * 3), setup=st.lists(SETUP_OPS, max_size=40),
       stream=STREAM, window=st.sampled_from([0.5, 1.0]),
       step=st.sampled_from([1e-6, 0.125, 0.3]))
def test_serve_matches_the_request_loop(sizes, setup, stream, window, step):
    zones, ends = (np.array(column, dtype=np.int8)
                   for column in (zip(*stream) if stream else ([], [])))
    loop, batch = _prepared(sizes, setup, window, step), _prepared(sizes, setup, window, step)
    assert _arena_snapshot(loop) == _arena_snapshot(batch)
    # Each zone's one site: the oracle's site index is the zone ordinal.
    raised = _raised(lambda: request_loop_oracle(
        loop, zones, zones.view(np.uint8), ends, STREAM_TAGS, zone_ids=ZONE_ORDER,
        access=EventKind.ACCESS, record_event=record_event))
    assert _raised(lambda: batch.serve(zones, ends, STREAM_TAGS)) == raised
    assert _arena_snapshot(batch) == _arena_snapshot(loop)


def test_serve_rejects_a_malformed_stream():
    arena = small_arena()
    before = _arena_snapshot(arena)
    codes = np.zeros(3, np.int8)
    tags = ("r", "g", "b")
    # int64 streams, whose sweep codes a byte scan would find at offsets that
    # are no request: a green stream with a blue sweep at request 3, and six
    # green sweeps
    wide_zones = np.where(np.arange(40) == 3, 2, 1)
    wide_ends = np.where(np.arange(40) == 3, SWEEP, RELEASE)
    for zones, ends, zone_tags in [
        (wide_zones, wide_ends, tags),
        (np.ones(6, np.int64), np.full(6, SWEEP, np.int64), tags),
        (wide_zones.astype(np.int8), wide_ends, tags),  # int64 ends only
        (codes, codes[:2], tags),  # one array short
        (codes + 3, codes, tags),  # zone ordinal 3
        (codes - 1, codes, tags),  # zone ordinal -1
        (codes, codes + 5, tags),  # end code 5
        (codes, codes - 1, tags),  # end code -1
        (codes, codes, ("t",)),  # one tag for three zones
    ]:
        with pytest.raises(ValueError):
            arena.serve(zones, ends, zone_tags)
    assert _arena_snapshot(arena) == before


def test_serve_makes_only_each_zones_last_plain_request(monkeypatch):
    """checkpoint_lifecycle at 5,000 requests per zone has 10 blue sweep
    requests, and blue's last request is one of them: allocate sees those
    10 and, of the rest, only green's and red's last requests."""
    made: list[ZoneId] = []
    allocate = ZoneArena.allocate

    def counted(arena, zone, *args, **kwargs):
        made.append(zone)
        return allocate(arena, zone, *args, **kwargs)

    monkeypatch.setattr(ZoneArena, "allocate", counted)
    spec = WorkloadSpec("checkpoint_lifecycle", 5000)
    zones, ends, tags = SCHEDULES[spec.kind][1](spec, DEFAULT_CONFIG)
    assert np.count_nonzero(ends == SWEEP) == 10
    assert ends[zones == ZoneId.BLUE.ordinal][-1] == SWEEP
    arena = DEFAULT_CONFIG.build_arena()
    arena.serve(zones, ends, tags)
    # the stream's order: green's requests, then blue's, then red's
    assert made == [ZoneId.GREEN] + [ZoneId.BLUE] * 10 + [ZoneId.RED]
    assert [arena.pool_stats(zone).total_requests for zone in ZONE_ORDER] == [5000] * 3
