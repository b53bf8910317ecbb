"""Feature tracking: EMA, rate windows, event recording, logical clock."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonegc.errors import LifecycleError
from zonegc.layout import ZoneId, ZoneLayout
from zonegc.objects import (
    EmaConfig,
    EventKind,
    FeatureVector,
    LogicalClock,
    RateTracker,
    ema_update,
    feature_snapshot,
    record_event,
)
from zonegc.zones import ZoneArena

from .oracles import ema_chain_oracle, rate_replay_oracle

FINITE = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
OMEGA = st.floats(min_value=0.01, max_value=0.99)


def make_header(window: float = 1.0, site: str = "t"):
    """A live object allocated at time 0 in a small arena, and its view.

    The clock stands still (0 seconds per op), so the object is allocated at
    time 0 and its events carry their own times.
    """
    arena = ZoneArena(ZoneLayout(4, 4, 4), clock=LogicalClock(seconds_per_op=0.0),
                      rate_window=window, ema=EmaConfig(0.5))
    handle = arena.allocate(ZoneId.GREEN, site)
    return arena, arena.header_of(handle)


# -- EMA --------------------------------------------------------------------


def test_ema_midpoint_and_fixed_point():
    assert ema_update(2.0, 4.0, EmaConfig(0.5)) == 3.0
    for omega in (0.1, 0.5, 0.9):
        assert ema_update(7.0, 7.0, EmaConfig(omega)) == 7.0


def test_ema_config_rejects_boundaries():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            EmaConfig(bad)


@settings(max_examples=200)
@given(seed=FINITE, samples=st.lists(FINITE, max_size=30), omega=OMEGA)
def test_ema_chain_matches_extended_precision(seed, samples, omega):
    cfg = EmaConfig(omega)
    acc = seed
    for s in samples:
        acc = ema_update(acc, s, cfg)
    expected = float(ema_chain_oracle(seed, samples, omega))
    assert math.isclose(acc, expected, rel_tol=1e-12, abs_tol=1e-12)


@given(seed=FINITE, samples=st.lists(FINITE, min_size=1, max_size=30),
       omega=OMEGA)
def test_ema_stays_within_sample_bounds(seed, samples, omega):
    cfg = EmaConfig(omega)
    acc = seed
    for s in samples:
        acc = ema_update(acc, s, cfg)
    lo = min(samples + [seed])
    hi = max(samples + [seed])
    assert lo - 1e-9 * max(1.0, abs(lo)) <= acc <= hi + 1e-9 * max(1.0, abs(hi))


# -- rate tracker -----------------------------------------------------------


def test_rate_before_first_window_completes():
    tracker = RateTracker(window=1.0, cfg=EmaConfig(0.5), start=0.0)
    tracker.record(0.1)
    tracker.record(0.2)
    assert tracker.raw_rate == 2.0
    assert tracker.smoothed == 2.0  # partial-window fallback
    assert math.isnan(tracker.ema)  # no window has closed


def test_first_completed_window_seeds_ema():
    tracker = RateTracker(window=1.0, cfg=EmaConfig(0.5), start=0.0)
    for t in (0.1, 0.4, 0.9):
        tracker.record(t)
    tracker.record(1.2)  # crosses the boundary: sample 3.0 seeds the EMA
    assert tracker.ema == 3.0
    assert tracker.raw_rate == 1.0
    assert tracker.smoothed == 3.0


def test_empty_windows_decay_toward_zero():
    tracker = RateTracker(window=1.0, cfg=EmaConfig(0.5), start=0.0)
    for t in (0.1, 0.2, 0.3, 0.4):
        tracker.record(t)
    tracker.record(3.5)  # windows [0,1) sample 4, [1,2) and [2,3) sample 0
    # chain: seed 4 -> 0.5*0 + 0.5*4 = 2 -> 0.5*0 + 0.5*2 = 1, then the
    # event at 3.5 sits in the open [3,4) window
    assert tracker.ema == 1.0
    assert tracker.count == 1


def test_ten_accesses_over_two_seconds_average_five_per_second():
    # 10 events spread over a 2-second window-pair averages 5 events/second
    tracker = RateTracker(window=2.0, cfg=EmaConfig(0.5), start=0.0)
    for k in range(10):
        tracker.record(k * 0.2)
    assert tracker.raw_rate == 5.0
    assert tracker.smoothed == 5.0


@settings(max_examples=120, deadline=None)
@given(
    times=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1,
                   max_size=60),
    window=st.floats(min_value=0.25, max_value=4.0),
    omega=OMEGA,
)
def test_tracker_matches_replay_oracle(times, window, omega):
    ordered = sorted(times)
    tracker = RateTracker(window=window, cfg=EmaConfig(omega), start=0.0)
    for t in ordered:
        tracker.record(t)
    raw, smoothed = rate_replay_oracle(ordered, window, omega, 0.0)
    assert math.isclose(tracker.raw_rate, raw, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(tracker.smoothed, smoothed, rel_tol=1e-9, abs_tol=1e-12)
    assert tracker.total == len(ordered)


@pytest.mark.parametrize("window, omega, idle", [
    (1.0, 1e-6, 1_000_000),  # decay (1 - 1e-6) ** 1e6 ~ 1/e stays visible
    (0.3, 0.01, 1_000),
])
def test_long_idle_roll_matches_replay_oracle(window, omega, idle):
    # three events, `idle` empty windows, then two events mid-window; the
    # idle run is closed in one step, by both the tracker and the slot path
    times = [0.1 * window, 0.4 * window, 0.7 * window,
             (idle + 1.5) * window, (idle + 1.75) * window]
    raw, smoothed = rate_replay_oracle(times, window, omega, 0.0)
    tracker = RateTracker(window=window, cfg=EmaConfig(omega), start=0.0)
    arena = ZoneArena(ZoneLayout(4, 4, 4), clock=LogicalClock(seconds_per_op=0.0),
                      rate_window=window, ema=EmaConfig(omega))
    header = arena.header_of(arena.allocate(ZoneId.BLUE, "idle"))
    for t in times:
        tracker.record(t)
        record_event(header, EventKind.MUTATION, t)
    assert tracker.raw_rate == raw == 2 / window
    for got in (tracker.smoothed, feature_snapshot(header).mutation_rate):
        assert math.isclose(got, smoothed, rel_tol=1e-9, abs_tol=1e-12)
    assert smoothed > 0.0


def test_tracker_reset_clears_history():
    tracker = RateTracker(window=1.0, cfg=EmaConfig(0.5), start=0.0)
    for t in (0.5, 1.5, 2.5):
        tracker.record(t)
    assert not math.isnan(tracker.ema)
    tracker.reset(10.0)
    assert math.isnan(tracker.ema)
    assert tracker.count == 0
    assert tracker.total == 0
    assert tracker.window_start == 10.0


def test_tracker_rejects_bad_window():
    with pytest.raises(ValueError):
        RateTracker(window=0.0)


# -- record_event -----------------------------------------------------------


def test_record_event_updates_lifetime_and_counts():
    # 0.5 keeps the event inside the first window; at exactly 1.0 the
    # tracker would roll an empty window first and smooth toward zero
    _, header = make_header()
    record_event(header, EventKind.ACCESS, 0.5)
    assert header.lifetime == 0.5
    assert header.last_event_at == 0.5
    f = feature_snapshot(header)
    assert f.access_rate == 1.0  # partial-window fallback, 1 event / window
    assert f.mutation_rate == 0.0


def test_record_event_two_mutations_in_window():
    _, header = make_header()
    record_event(header, EventKind.MUTATION, 0.3)
    record_event(header, EventKind.MUTATION, 0.6)
    assert feature_snapshot(header).mutation_rate == 2.0


def test_record_event_rejects_dead_header_and_time_regression():
    arena, header = make_header()
    record_event(header, EventKind.ACCESS, 1.0)
    with pytest.raises(ValueError):
        record_event(header, EventKind.ACCESS, 0.5)
    arena.release(header)
    assert not header.alive
    with pytest.raises(LifecycleError):
        record_event(header, EventKind.ACCESS, 2.0)


def test_record_event_never_touches_placement():
    _, header = make_header()
    placement = (header.zone, header)
    for t in (0.2, 0.9, 1.4, 3.0):
        record_event(header, EventKind.ACCESS, t)
        record_event(header, EventKind.MUTATION, t)
    assert (header.zone, header) == placement


def test_feature_snapshot_is_pure():
    _, header = make_header()
    for t in (0.2, 0.4, 1.1):
        record_event(header, EventKind.ACCESS, t)
    first = feature_snapshot(header)
    second = feature_snapshot(header)
    assert first == second


def test_feature_vector_rejects_negative_fields():
    with pytest.raises(ValueError):
        FeatureVector(lifetime=-1.0, mutation_rate=0,
                      access_rate=0, size=0, fan_out=0, complexity_weight=0)
    # a NaN before the negative field does not hide it
    with pytest.raises(ValueError, match="^fan_out must be non-negative$"):
        FeatureVector(lifetime=float("nan"), size=float("nan"), fan_out=-1.0)


def test_events_stay_with_their_object():
    # rates belong to the object, not to its site: events on one object move
    # nothing that another object of the same site reads
    arena, first = make_header(site="s")
    second = arena.header_of(arena.allocate(ZoneId.RED, "s"))
    record_event(first, EventKind.ACCESS, 0.5)
    record_event(first, EventKind.MUTATION, 0.5)
    f, g = feature_snapshot(first), feature_snapshot(second)
    assert (f.access_rate, f.mutation_rate) == (1.0, 1.0)
    assert g.access_rate == 0.0
    assert (g.mutation_rate, g.lifetime) == (0.0, 0.0)


# -- logical clock ----------------------------------------------------------


def test_logical_clock_scale():
    clock = LogicalClock()
    assert clock.now == 0.0
    clock.ops += 1
    assert clock.now == 1e-6
    clock.ops += 999_999
    assert clock.now == pytest.approx(1.0)


def test_logical_clock_custom_scale():
    clock = LogicalClock(seconds_per_op=0.5)
    clock.ops += 4
    assert clock.now == 2.0
