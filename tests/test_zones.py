"""Classification policies, cost model, and the pooled arena lifecycle."""

from __future__ import annotations

import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zonegc.checkpoint import StateCode
from zonegc.errors import LifecycleError, ZoneCapacityError
from zonegc.layout import ZoneId, ZoneLayout
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
    POLICIES,
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
    eligibility,
    zone_cost,
)

from .oracles import ArenaModel, Refused

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
        return {ZoneId.RED: ZoneWeights(*r), ZoneId.GREEN: ZoneWeights(*g),
                ZoneId.BLUE: ZoneWeights(*b)}

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
    assert eligibility(hot_short, th)[ZoneId.RED]
    assert classify_predicates(hot_short, th, costs) is ZoneId.RED
    banded = fv(access=50, mutation=50, lifetime=1.0, size=1024)
    assert eligibility(banded, th) == {ZoneId.RED: False, ZoneId.GREEN: True,
                                       ZoneId.BLUE: False}
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
    flags = eligibility(both, th)
    assert not flags[ZoneId.RED]  # mutation too low for red
    assert flags[ZoneId.BLUE]
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
    return CostParams(weights={
        zone: ZoneWeights(mark[k], scan[k], stage[k])
        for k, zone in enumerate((ZoneId.BLUE, ZoneId.GREEN, ZoneId.RED))})


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
ZERO_BLUE_WEIGHTS = CostParams(weights={ZoneId.RED: ZoneWeights(1.0, 1.0, 4.0),
                                        ZoneId.GREEN: ZoneWeights(1.0, 0.8, 2.0),
                                        ZoneId.BLUE: ZoneWeights(0.0, 0.5, 0.0)})


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
    assert header.lifetime == 0.0


def test_capacity_error_when_zone_exhausted():
    arena = ZoneArena(ZoneLayout(2, 2, 2))
    arena.allocate(ZoneId.RED, "s")
    arena.allocate(ZoneId.RED, "s")
    with pytest.raises(ZoneCapacityError):
        arena.allocate(ZoneId.RED, "s")
    # other zones unaffected
    arena.allocate(ZoneId.GREEN, "s")


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


def test_arena_rejects_unknown_policy():
    with pytest.raises(ValueError):
        ZoneArena(ZoneLayout(2, 2, 2), policy="magic")


def test_arena_classify_dispatches_on_policy():
    simple = small_arena()
    pred = small_arena(policy="predicates")
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
    arena = small_arena(policy="predicates")
    handle = arena.allocate(ZoneId.BLUE, "s")
    # zero features are blue-eligible under the predicate policy (low rates)
    arena.table.set_state(handle.slot_index, StateCode.DEMOTE_CANDIDATE)
    report = arena.run_sweep()
    assert arena.reclassify_candidates(report) == []
    assert arena.header_of(handle).zone is ZoneId.BLUE


def test_reclassify_rejects_a_negative_feature_before_any_move():
    arena = small_arena()
    mover = arena.allocate(ZoneId.GREEN, "s")  # zero rates: simple wants red
    bad = arena.allocate(ZoneId.GREEN, "s", size=-1.0)  # allocate accepts it
    for handle in (mover, bad):
        arena.table.set_state(handle.slot_index, StateCode.PROMOTE_CANDIDATE)
    report = arena.run_sweep()
    stats = [arena.pool_stats(zone) for zone in ZoneId]
    states = list(arena.table.states())
    with pytest.raises(ValueError, match="size"):
        arena.reclassify_candidates(report)
    assert [arena.pool_stats(zone) for zone in ZoneId] == stats
    assert list(arena.table.states()) == states
    assert arena.header_of(mover).alive


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
                live.append((owner, handle))  # target zone full: skip
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
# Offsets up to 1,200 windows take the one-step path.
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
)
# Cuts the drawn rates, lifetimes and sizes reach, so pauses move objects.
MODEL_RATES = RateThresholds(access_red=1.0, access_green=4.0,
                             mutation_red=1.0, mutation_green=4.0)
MODEL_PREDICATES = PredicateThresholds(lifetime_red=0.5, lifetime_green=4.0,
                                       mutation_red=4.0, mutation_green=1.0,
                                       access_red=4.0, access_green=1.0,
                                       size_red=64.0, size_green=4096.0)


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
@given(ops=st.lists(ARENA_OPS, max_size=80),
       window=st.sampled_from([0.5, 1.0, 2.0]),
       omega=st.sampled_from([0.25, 0.5, 0.875]),
       step=st.sampled_from([0.125, 0.25]),
       policy=st.sampled_from(POLICIES))
def test_flat_arena_matches_header_model(ops, window, omega, step, policy):
    sizes = (4, 4, 4)
    arena = ZoneArena(ZoneLayout(*sizes), clock=LogicalClock(seconds_per_op=step),
                      rate_window=window, ema=EmaConfig(omega), policy=policy,
                      rate_thresholds=MODEL_RATES,
                      predicate_thresholds=MODEL_PREDICATES)
    model = ArenaModel(sizes, window, omega, step)
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
            want = _outcome(lambda: model.reclassify(candidates, classify))
            if isinstance(got, list):
                got = [(old, issued(new)) for old, new in got]
            else:  # a move found its zone full; the moves before it stand
                for slot in sorted(model.headers.keys() - by_slot.keys()):
                    issued(arena.handles[slot])
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
                want = _outcome(lambda: model.expire_and_reallocate(slot, LETTER[zone]))
            else:
                _, _, kind, offset = op
                now = arena.clock.now + offset * window
                got = _outcome(lambda: record_event(arena.header_of(handle), kind, now)
                               and None)
                want = _outcome(lambda: model.record_event(slot, KINDS[kind], now))
        assert got == want, op

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
                    view.last_event_at, view.lifetime, view.size, view.fan_out,
                    view.complexity_weight) == (
                h.zone, h.site_tag, h.alive, h.allocated_at, h.last_event_at,
                h.last_event_at - h.allocated_at, h.size, h.fan_out,
                h.complexity_weight)
            f = feature_snapshot(view)
            for name, value in arena_features(model.features(slot)).items():
                assert math.isclose(getattr(f, name), value, rel_tol=1e-9,
                                    abs_tol=1e-12), name
