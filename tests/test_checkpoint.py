"""Checkpoint byte-per-entry table, address arithmetic, and vectorized sweep."""

from __future__ import annotations

import itertools
import mmap
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonegc.checkpoint import HUGE_PAGE_BYTES, CheckpointTable, StateCode, zero_column
from zonegc.errors import AlignmentError, IndexRangeError
from zonegc.layout import ZoneLayout

from .oracles import zone_scan_oracle


# -- address arithmetic -----------------------------------------------------


@given(sizes=st.tuples(*[st.integers(min_value=1, max_value=4096)] * 3),
       base=st.integers(min_value=0, max_value=2**40), data=st.data())
def test_index_address_roundtrip(sizes, base, data):
    table = CheckpointTable(ZoneLayout(*sizes), base=base)
    index = data.draw(st.integers(min_value=0, max_value=table.capacity - 1))
    assert table.index_of(table.address_of(index)) == index


def test_index_of_rejects_misaligned_and_out_of_range():
    table = CheckpointTable(ZoneLayout(4, 3, 3))  # 10 entries, base 0
    with pytest.raises(AlignmentError):
        table.index_of(8)
    with pytest.raises(IndexRangeError):
        CheckpointTable(ZoneLayout(4, 3, 3), base=16).index_of(0)  # below base
    with pytest.raises(IndexRangeError):
        table.index_of(16 * 10)
    with pytest.raises(IndexRangeError):
        table.address_of(-1)
    assert table.index_of(16 * 9) == 9


# -- state table ------------------------------------------------------------


def test_set_state_isolates_neighbors():
    layout = ZoneLayout(15, 15, 15)  # 45 entries; 20, 21 and 22 are neighbours
    table = CheckpointTable(layout)
    table.set_state(20, StateCode.EXPIRED)
    table.set_state(21, StateCode.ACTIVE)
    table.set_state(22, StateCode.PERSISTENT)
    assert table.get_state(20) is StateCode.EXPIRED
    assert table.get_state(21) is StateCode.ACTIVE
    assert table.get_state(22) is StateCode.PERSISTENT
    for i in range(45):
        if i not in (20, 21, 22):
            assert table.get_state(i) is StateCode.IDLE
    table.set_state(21, StateCode.IDLE)
    assert table.get_state(20) is StateCode.EXPIRED
    assert table.get_state(22) is StateCode.PERSISTENT


def test_set_state_validates():
    table = CheckpointTable(ZoneLayout(2, 2, 2))
    with pytest.raises(IndexRangeError):
        table.set_state(6, StateCode.ACTIVE)
    with pytest.raises(IndexRangeError):
        table.get_state(-1)
    with pytest.raises(IndexRangeError):
        table.set_state(-1, 1)  # the state bytes alone would write the last entry
    with pytest.raises(ValueError):
        table.set_state(0, 8)
    with pytest.raises(ValueError):
        table.set_state(0, 255)  # fits a byte, not 3 bits
    assert [int(s) for s in table.states()] == [0] * 6


@pytest.mark.parametrize("code", [1.0, 4.0, 1.5, "x", None])
def test_set_state_refuses_a_code_that_is_not_an_int(code):
    # 1.0 and 4.0 equal codes and 1.5 lies between two, but no float is a code
    table = CheckpointTable(ZoneLayout(2, 2, 2))
    table.set_state(3, StateCode.DEFERRED)
    message = rf"^state code {re.escape(repr(code))} is not an int of 3 bits$"
    with pytest.raises(ValueError, match=message):
        table.set_state(3, code)
    assert table.get_state(3) is StateCode.DEFERRED


@pytest.mark.parametrize("code", [False, True, 0, 7, StateCode.MARKED])
def test_set_state_takes_any_int_of_3_bits(code):
    table = CheckpointTable(ZoneLayout(2, 2, 2))
    table.set_state(5, code)
    assert table.get_state(5) == code


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_get_after_set_random_tables(data):
    sizes = data.draw(st.tuples(*[st.integers(1, 24)] * 3))
    layout = ZoneLayout(*sizes)
    table = CheckpointTable(layout)
    expected = [0] * layout.total
    writes = data.draw(
        st.lists(
            st.tuples(st.integers(0, layout.total - 1), st.integers(0, 7)),
            max_size=80,
        )
    )
    for i, code in writes:
        table.set_state(i, code)
        expected[i] = code
    assert [int(s) for s in table.states()] == expected


# -- zero columns -----------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64, np.float64])
def test_zero_column_reads_as_numpy_zeros_on_both_sides_of_the_huge_page_size(dtype):
    edge = HUGE_PAGE_BYTES // np.dtype(dtype).itemsize
    for n, mapped in [(edge - 1, False), (edge, True)]:
        column = zero_column(n, dtype)
        zeros = np.zeros(n, dtype).data
        assert isinstance(column.obj, mmap.mmap) is mapped
        assert (column.format, column.itemsize, column.shape) == (
            zeros.format, zeros.itemsize, zeros.shape)
        column[n - 1] = 7
        array = np.asarray(column)
        assert array.dtype == dtype and array[n - 1] == 7 and not array[:-1].any()


def test_mapped_state_bytes_read_write_and_sweep_like_small_ones():
    layout = ZoneLayout(1, 1, HUGE_PAGE_BYTES)  # 2 entries past the huge-page size
    table = CheckpointTable(layout)
    assert isinstance(table._states.obj, mmap.mmap)
    last = layout.total - 1
    table.set_state(0, StateCode.EXPIRED)
    table.set_state(last, StateCode.PROMOTE_CANDIDATE)
    assert table.get_state(last) is StateCode.PROMOTE_CANDIDATE
    assert list(itertools.islice(table.states(), 2)) == [StateCode.EXPIRED, StateCode.IDLE]
    report = table.epoch_sweep()
    assert (report.evaluated, report.reclaimed, report.candidates) == (
        layout.total, [0], [last])
    assert bytes(table._states)[::last] == bytes([0b111, 0b010])


# -- sweep vs scalar oracle -------------------------------------------------


def scalar_sweep_oracle(states, sizes, active):
    """Per-entry reimplementation of the retention rule."""
    n_red, n_green, n_blue = sizes
    reclaimed, candidates = [], []
    for i, state in enumerate(states):
        letter = zone_scan_oracle(i, n_red, n_green, n_blue)
        zone_on = active[letter]
        self_live = state in (0b001, 0b100)
        pending = state == 0b101
        out = (self_live and zone_on) or ((not self_live) and pending)
        if not out and state == 0b111:
            reclaimed.append(i)
        if state in (0b010, 0b011):
            candidates.append(i)
    return reclaimed, candidates


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_epoch_sweep_matches_scalar_oracle(data):
    sizes = data.draw(st.tuples(*[st.integers(1, 30)] * 3))
    layout = ZoneLayout(*sizes)
    table = CheckpointTable(layout)
    states = data.draw(
        st.lists(st.integers(0, 7), min_size=layout.total,
                 max_size=layout.total)
    )
    for i, code in enumerate(states):
        table.set_state(i, code)
    flags = data.draw(st.tuples(*[st.booleans()] * 3))
    report = table.epoch_sweep()
    expect_reclaim, expect_cand = scalar_sweep_oracle(
        states, sizes, {"R": flags[0], "G": flags[1], "B": flags[2]}
    )
    assert report.evaluated == layout.total
    assert report.reclaimed == expect_reclaim
    assert report.candidates == expect_cand
    assert all(type(i) is int for i in report.reclaimed + report.candidates)
    # the oracle's answer does not depend on zone activation, which is why
    # the sweep takes none
    for mask in itertools.product((False, True), repeat=3):
        assert scalar_sweep_oracle(states, sizes, dict(zip("RGB", mask))) == (
            report.reclaimed, report.candidates)
    # the sweep reports; it does not mutate states
    assert [int(s) for s in table.states()] == states


def windowed_sweep_oracle(states, window=250):
    """scalar_sweep_oracle over a long table, one window at a time.

    The oracle finds each entry's zone by walking the table from index 0, so
    a single call over n entries takes O(n^2) steps. The zone reaches the
    answer only through its activation flag, and the answer is the same for
    every activation mask (checked above), so each window is passed as a
    one-zone table and its indices are shifted back.
    """
    reclaimed, candidates = [], []
    for lo in range(0, len(states), window):
        chunk = states[lo:lo + window]
        r, c = scalar_sweep_oracle(chunk, (len(chunk), 0, 0), {"R": True})
        reclaimed += [lo + i for i in r]
        candidates += [lo + i for i in c]
    return reclaimed, candidates


def test_epoch_sweep_matches_scalar_oracle_at_60k_entries():
    layout = ZoneLayout(20_000, 20_001, 19_999)
    table = CheckpointTable(layout)
    rng = random.Random(2008)
    states = [rng.randrange(8) if rng.random() < 0.3 else 0
              for _ in range(layout.total)]
    states[-1] = 0b111
    for i, code in enumerate(states):
        table.set_state(i, code)
    report = table.epoch_sweep()
    expect_reclaim, expect_cand = windowed_sweep_oracle(states)
    assert report.evaluated == layout.total == 60_000
    assert report.reclaimed == expect_reclaim
    assert report.candidates == expect_cand
    assert all(type(i) is int for i in report.reclaimed + report.candidates)
    assert [int(s) for s in table.states()] == states


def test_epoch_counter_and_default_activation():
    table = CheckpointTable(ZoneLayout(4, 4, 4))
    table.set_state(0, StateCode.ACTIVE)
    table.set_state(5, StateCode.EXPIRED)
    assert table.epoch == 0
    report = table.epoch_sweep()
    assert table.epoch == 1
    assert report.reclaimed == [5]
    table.epoch_sweep()
    assert table.epoch == 2


def test_expired_in_active_zone_is_reclaimable():
    # reclaimability comes from the state bits alone: an expired entry is
    # reported whatever its zone
    table = CheckpointTable(ZoneLayout(2, 2, 2))
    table.set_state(2, StateCode.EXPIRED)
    report = table.epoch_sweep()
    assert report.reclaimed == [2]


def test_deferred_survives_inactive_zone():
    table = CheckpointTable(ZoneLayout(2, 2, 2))
    table.set_state(0, StateCode.DEFERRED)
    table.set_state(1, StateCode.EXPIRED)
    report = table.epoch_sweep()
    assert report.reclaimed == [1]


@pytest.mark.parametrize("code, field", [
    (StateCode.EXPIRED, "reclaimed"),
    (StateCode.PROMOTE_CANDIDATE, "candidates"),
])
def test_sweep_reads_the_final_index_of_a_partly_filled_word(code, field):
    table = CheckpointTable(ZoneLayout(8, 8, 9))  # 25 entries, the last one set
    last = table.capacity - 1
    table.set_state(last, code)
    report = table.epoch_sweep()
    assert getattr(report, field) == [last]
    assert report.reclaimed + report.candidates == [last]

