"""Feature tracking: EMA, rate windows, event recording, logical clock."""

from __future__ import annotations

import contextlib
import dataclasses
import math
import re
import signal
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonegc.checkpoint import StateCode
from zonegc.errors import IndexRangeError, LifecycleError, ZoneCapacityError
from zonegc.layout import ZONE_ORDER, ZoneId, ZoneLayout
from zonegc.objects import (
    EmaConfig,
    EventKind,
    FeatureColumns,
    FeatureVector,
    LogicalClock,
    ObjectHandle,
    RateTracker,
    ema_update,
    feature_columns,
    feature_snapshot,
    record_event,
)
from zonegc.zones import ZoneArena

from .oracles import ema_chain_oracle, rate_replay_oracle
from .test_zones import _arena_snapshot

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


@contextlib.contextmanager
def _returns_within(seconds: int):
    """Fail the test, rather than hang it, when the body runs too long."""
    def stop(signum, frame):
        raise AssertionError(f"no return within {seconds} s")
    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_roll_returns_when_the_window_is_below_the_time_spacing():
    # start + 1e-300 == start for every start after the clock's first tick,
    # so adding the window cannot close one: the window restarts at the
    # event, by both the tracker and the slot path
    arena = ZoneArena(ZoneLayout(4, 4, 4), rate_window=1e-300)
    header = arena.allocate(ZoneId.RED, "tiny")
    tracker = RateTracker(window=1e-300)
    with _returns_within(10):
        for t in (header.allocated_at, 0.5, 0.5, 0.75):
            record_event(header, EventKind.ACCESS, t)
            tracker.record(t)
    i, kind = header.slot_index, EventKind.ACCESS
    assert (arena.slots.window_start[kind][i], arena.slots.count[kind][i]) == (0.75, 1)
    assert (tracker.window_start, tracker.count) == (0.75, 1)


def test_roll_restarts_the_window_when_the_closed_count_overflows():
    # (0.5 - 1e-6) // 5e-324 is inf, so no float counts the windows closed
    # since the allocation at tick 1: the EMA becomes 0.0 and the window
    # restarts at the event, by both the tracker and the slot path, and so
    # again at the second event
    arena = ZoneArena(ZoneLayout(4, 4, 4), rate_window=5e-324)
    header = arena.allocate(ZoneId.RED, "tiny")
    tracker = RateTracker(window=5e-324, start=header.allocated_at)
    i, kind = header.slot_index, EventKind.ACCESS
    slots = arena.slots
    for t in (0.5, 0.75):
        record_event(header, EventKind.ACCESS, t)
        tracker.record(t)
        assert (slots.ema[kind][i], slots.window_start[kind][i],
                slots.count[kind][i]) == (0.0, t, 1)
        assert (tracker.ema, tracker.window_start, tracker.count) == (0.0, t, 1)
    assert feature_snapshot(header).access_rate == tracker.smoothed == 0.0


def test_roll_decay_below_the_float_range_gives_zero_not_nan():
    # one event in a 1e-320 window is an infinite rate, and the 1e308 empty
    # windows after it decay it by a factor that underflows to 0.0: the EMA
    # is 0.0, where inf * 0.0 would make it NaN
    _, header = make_header(window=1e-320)
    tracker = RateTracker(window=1e-320, start=0.0)
    for t in (0.0, 1e-12):
        record_event(header, EventKind.MUTATION, t)
        tracker.record(t)
    i, kind = header.slot_index, EventKind.MUTATION
    assert (header.slots.ema[kind][i], header.slots.count[kind][i]) == (0.0, 1)
    assert (tracker.ema, tracker.count) == (0.0, 1)


def test_tracker_reset_clears_history():
    tracker = RateTracker(window=1.0, cfg=EmaConfig(0.5), start=0.0)
    for t in (0.5, 1.5, 2.5):
        tracker.record(t)
    assert not math.isnan(tracker.ema)
    tracker.reset(10.0)
    assert math.isnan(tracker.ema)
    assert tracker.count == 0
    assert tracker.window_start == 10.0


@pytest.mark.parametrize("window", [0.0, -1.0, math.nan, math.inf])
def test_tracker_and_arena_reject_a_bad_window(window):
    with pytest.raises(ValueError, match="finite and > 0"):
        RateTracker(window=window)
    with pytest.raises(ValueError, match="finite and > 0"):
        ZoneArena(ZoneLayout(4, 4, 4), rate_window=window)


# -- record_event -----------------------------------------------------------


def test_record_event_updates_lifetime_and_counts():
    # 0.5 keeps the event inside the first window; at exactly 1.0 the
    # tracker would roll an empty window first and smooth toward zero
    _, header = make_header()
    record_event(header, EventKind.ACCESS, 0.5)
    assert header.last_event_at == 0.5
    f = feature_snapshot(header)
    assert f.lifetime == 0.5
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


def _reused_slot(step: float):
    """An arena whose green slot 4 held an object with closed rate windows
    and was released and reclaimed since, with no event on the new object."""
    arena = ZoneArena(ZoneLayout(4, 4, 4), clock=LogicalClock(seconds_per_op=step),
                      rate_window=1.0, ema=EmaConfig(0.5))
    old = arena.allocate(ZoneId.GREEN, "t")
    t = arena.clock.now
    for dt in (0.0, 0.5, 3.0):
        record_event(old, EventKind.ACCESS, t + dt)
        record_event(old, EventKind.MUTATION, t + dt)
    arena.release(old)
    new = arena.allocate(ZoneId.GREEN, "t")
    assert new.slot_index == old.slot_index
    return arena, new


def _rate_entries(slots, i: int) -> tuple:
    """Slot i's window starts, open counts and EMAs, each in kind order."""
    return (*(start[i] for start in slots.window_start),
            *(count[i] for count in slots.count),
            *(repr(ema[i]) for ema in slots.ema))  # repr: NaN equals itself


@pytest.mark.parametrize("outside", [-1, 12])
def test_event_on_a_slot_outside_the_table_is_refused(outside):
    # -1 would read as the table's last slot, 11, which holds a live object
    arena = ZoneArena(ZoneLayout(4, 4, 4))
    last = [arena.allocate(ZoneId.BLUE, "t") for _ in range(4)][-1]
    assert last.slot_index == 11
    before = (last.last_event_at, _rate_entries(arena.slots, 11))
    with pytest.raises(LifecycleError, match=rf"^slot {outside} holds no live object$"):
        record_event(ObjectHandle(outside, arena.slots), EventKind.ACCESS, 1.0)
    assert (last.last_event_at, _rate_entries(arena.slots, 11)) == before


@pytest.mark.parametrize("kind", [-1, 2, 0.5, 1.0, None, "x", []])
def test_event_of_an_unknown_kind_is_refused(kind):
    # kind 2 on slot 5 would count an access on slot 6's object, and kind -1
    # a mutation on slot 4's; 0.5 and 1.0 lie in the offsets' range, but no
    # float names an entry
    arena = ZoneArena(ZoneLayout(4, 4, 4))
    handles = [arena.allocate(zone, "t") for zone in ZoneId for _ in range(4)]
    before = _arena_snapshot(arena)
    with pytest.raises(ValueError, match=rf"^event kind {re.escape(repr(kind))} "
                                         "is neither ACCESS nor MUTATION$"):
        record_event(handles[5], kind, 1.0)
    assert _arena_snapshot(arena) == before


@pytest.mark.parametrize("kind, offset", [(EventKind.ACCESS, 0), (False, 0), (0, 0),
                                          (EventKind.MUTATION, 1), (True, 1), (1, 1)])
def test_an_event_kind_is_any_int_equal_to_a_members_offset(kind, offset):
    arena = ZoneArena(ZoneLayout(4, 4, 4))
    handle = arena.allocate(ZoneId.GREEN, "t")
    record_event(handle, kind, 0.5)
    i, count = handle.slot_index, arena.slots.count
    assert (count[offset][i], count[1 - offset][i]) == (1, 0)


@pytest.mark.parametrize("outside", [-1, 12])
def test_reads_through_a_handle_outside_the_table_are_refused(outside):
    # -1 would read the table's last slot, 11, which holds a live object
    arena = ZoneArena(ZoneLayout(4, 4, 4))
    last = [arena.allocate(ZoneId.BLUE, "t", size=7.0) for _ in range(4)][-1]
    assert (last.slot_index, last.alive, last.size) == (11, True, 7.0)
    handle = ObjectHandle(outside, arena.slots)
    message = rf"^index {outside} outside table of 12 entries$"
    for name in ("alive", "site_tag", "allocated_at", "last_event_at", "size",
                 "fan_out", "complexity_weight", "zone"):
        with pytest.raises(IndexRangeError, match=message):
            getattr(handle, name)
    with pytest.raises(IndexRangeError, match=message):
        feature_snapshot(handle)


def test_event_at_a_nan_time_is_refused():
    # a stored NaN would let every later time pass the order check
    _, header = make_header()
    record_event(header, EventKind.MUTATION, 0.5)
    slots, i = header.slots, header.slot_index
    before = (header.last_event_at, _rate_entries(slots, i))
    with pytest.raises(ValueError, match="event time nan"):
        record_event(header, EventKind.ACCESS, math.nan)
    assert (header.last_event_at, _rate_entries(slots, i)) == before
    with pytest.raises(ValueError):  # the order check still holds
        record_event(header, EventKind.ACCESS, 0.25)
    assert feature_snapshot(header).lifetime == 0.5


def test_refused_event_leaves_a_reclaimed_slot_as_it_is():
    arena, header = _reused_slot(0.125)
    slots, i = arena.slots, header.slot_index
    before = _rate_entries(slots, i)
    # the claim opened both windows, with no events and no EMA
    t = header.allocated_at
    assert before == (t, t, 0, 0, "nan", "nan")
    with pytest.raises(ValueError):  # a time before the last event
        record_event(header, EventKind.ACCESS, header.last_event_at - 0.5)
    assert _rate_entries(slots, i) == before
    arena.release(header)
    with pytest.raises(LifecycleError):  # a dead slot
        record_event(header, EventKind.ACCESS, header.last_event_at + 0.5)
    assert _rate_entries(slots, i) == before


@pytest.mark.parametrize("step", [0.0, 0.125])
def test_reclaimed_slot_reads_fresh_rates_before_its_first_event(step):
    # The last object closed windows at this slot; the claim reset its rate
    # entries, so they read as a fresh object's. A clock that stands still
    # gives both objects the same allocation time.
    arena, header = _reused_slot(step)
    f = feature_snapshot(header)
    assert (f.access_rate, f.mutation_rate, f.lifetime) == (0.0, 0.0, 0.0)
    cols = feature_columns(arena.slots, np.array([0, header.slot_index], dtype=np.intp))
    assert cols.access_rate.tolist() == [0.0, 0.0]
    assert cols.mutation_rate.tolist() == [0.0, 0.0]
    # its first event counts in the window the claim opened
    record_event(header, EventKind.MUTATION, header.allocated_at + 0.5)
    f = feature_snapshot(header)
    assert (f.access_rate, f.mutation_rate) == (0.0, 1.0)


def test_a_never_claimed_slot_reads_zero_and_a_claim_or_move_opens_a_nan_ema():
    # The columns start as zero pages, with no NaN EMA filled in; through
    # feature_columns, a slot no claim has written reads as a fresh object's,
    # as it did with the NaN fill.
    arena, header = _reused_slot(0.125)  # green slot 4 holds closed windows
    slots = arena.slots
    never = np.array([0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11], dtype=np.intp)
    cols = feature_columns(slots, never)
    assert all(values.tolist() == [0.0] * len(never) for values in cols)
    i = header.slot_index  # the claim wrote NaN over the last object's EMA
    assert _rate_entries(slots, i)[4:] == ("nan", "nan")
    record_event(header, EventKind.ACCESS, header.last_event_at + 2.0)
    assert slots.ema[EventKind.ACCESS][i] == 0.0  # a window closed
    now = header.last_event_at + 1.0
    # into never-claimed red slot 0
    slots.move(np.array([i], dtype=np.intp), np.array([0], dtype=np.intp), np.array([now]))
    assert _rate_entries(slots, 0) == (now, now, 0, 0, "nan", "nan")
    assert slots.alive[0] and not slots.alive[i]


# A slot's row, written out here apart from objects.py: allocated_at,
# last_event_at, size, fan_out, complexity_weight, then for ACCESS and for
# MUTATION the window start, the open count (int64) and the EMA.
ROW_LAYOUT = struct.Struct("5d dqd dqd")

# One op on the layout test's arena: (name, pick, zone or kind, value).
LAYOUT_OPS = st.tuples(
    st.sampled_from(["claim", "event", "release", "expire", "move", "pause"]),
    st.integers(min_value=0, max_value=99), st.integers(min_value=0, max_value=2),
    st.sampled_from([0.0, 0.25, 1.5, 8.0]))


def _slot_entries(slots) -> list[tuple[bytes, int, int]]:
    """Each slot's row bytes, alive entry and site tag id."""
    rows = bytes(slots.rows)
    return [(rows[ROW_LAYOUT.size * i:ROW_LAYOUT.size * (i + 1)], slots.alive[i],
             slots.site_tag[i]) for i in range(len(slots.alive))]


def _row_through_views(slots, i: int) -> bytes:
    """Slot i's row, read entry by entry through the SlotTable's views."""
    return ROW_LAYOUT.pack(
        slots.allocated_at[i], slots.last_event_at[i], slots.size[i], slots.fan_out[i],
        slots.complexity_weight[i],
        *(view[i] for kind in EventKind
          for view in (slots.window_start[kind], slots.count[kind], slots.ema[kind])))


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(LAYOUT_OPS, max_size=40))
def test_each_op_writes_only_the_rows_and_flags_of_the_slots_it_names(ops):
    """Claims, events, frees, moves and pauses on a 3+4+3 arena. After each
    op, every slot it did not name keeps its row, alive and site tag
    entries byte for byte, and every slot's views read its row's entries in
    the order ROW_LAYOUT gives."""
    arena = ZoneArena(ZoneLayout(3, 4, 3), rate_window=0.5)
    slots = arena.slots
    live: list[ObjectHandle] = []
    t = 0.0
    for op, pick, arg, value in ops:
        before = _slot_entries(slots)
        named: set[int] = set()
        handle = live[pick % len(live)] if live else None
        if op == "claim":
            try:
                handle = arena.allocate(ZoneId.RED if arg == 0 else ZoneId.GREEN if arg == 1
                                        else ZoneId.BLUE, f"s{pick % 3}", size=value,
                                        fan_out=2 * value, complexity_weight=value + 1)
            except ZoneCapacityError:
                pass
            else:
                live.append(handle)
                named.add(handle.slot_index)
        elif handle is None:
            pass
        elif op == "event":
            t = max(t, arena.clock.now) + value
            record_event(handle, EventKind(arg % 2), t)
            named.add(handle.slot_index)
        elif op in ("release", "expire"):
            getattr(arena, op)(handle)
            live.remove(handle)
            named.add(handle.slot_index)
        elif op == "move":
            try:
                moved = arena.expire_and_reallocate(handle, ZONE_ORDER[arg])
            except ZoneCapacityError:
                pass
            else:
                live[live.index(handle)] = moved
                named.update((handle.slot_index, moved.slot_index))
        else:  # a pause over every other live object
            for marked in live[pick % 2::2]:
                arena.table.set_state(marked.slot_index, StateCode.PROMOTE_CANDIDATE)
            report = arena.run_sweep()
            for old, new in arena.reclassify_candidates(report):
                live[[h.slot_index for h in live].index(old)] = new
                named.add(new.slot_index)
            named.update(report.candidates)
        after = _slot_entries(slots)
        for i, (was, now) in enumerate(zip(before, after)):
            assert i in named or now == was, (op, i)
            assert _row_through_views(slots, i) == now[0], (op, i)


def test_open_counts_take_no_memory_as_they_grow():
    """A slot's open count is stored in the table: counting 300 events on
    each of 1,000 live objects within one window allocates nothing that
    lasts, as an int object per count above 256 would."""
    arena = ZoneArena(ZoneLayout(1000, 1, 1), clock=LogicalClock(seconds_per_op=0.0))
    handles = [arena.allocate(ZoneId.RED, "t") for _ in range(1000)]
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(300):
            for handle in handles:
                record_event(handle, EventKind.ACCESS, 0.0)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert arena.slots.count[EventKind.ACCESS][handles[-1].slot_index] == 300
    assert grown < 4 * len(handles)


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
    names = FeatureColumns._fields
    for k, name in enumerate(names):
        with pytest.raises(ValueError, match=f"^{name} must be non-negative$"):
            FeatureVector(**{name: -1.0})
        # a NaN in each field before the negative one does not hide it
        with pytest.raises(ValueError, match=f"^{name} must be non-negative$"):
            FeatureVector(**dict.fromkeys(names[:k], float("nan")), **{name: -1.0})
    # the positional order is FeatureColumns', and every field defaults to 0.0
    given = FeatureVector(*range(1, len(names) + 1))
    assert [getattr(given, name) for name in names] == list(range(1, len(names) + 1))
    assert all(getattr(FeatureVector(), name) == 0.0 for name in names)
    with pytest.raises(dataclasses.FrozenInstanceError):
        given.size = 2.0
    assert not hasattr(given, "__dict__")  # slotted


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
