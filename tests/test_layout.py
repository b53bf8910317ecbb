"""Index geometry: regions and generations."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonegc.errors import IndexRangeError
from zonegc.layout import SLOT_BYTES, ZoneId, ZoneLayout

from .oracles import (
    generation_scan_oracle,
    zone_scan_oracle,
)

LETTER = {ZoneId.RED: "R", ZoneId.GREEN: "G", ZoneId.BLUE: "B"}


def test_slot_granularity_constant():
    assert SLOT_BYTES == 16


def test_zone_identity_basics():
    assert [z.value for z in ZoneId] == ["R", "G", "B"]
    assert str(ZoneId.GREEN) == "G"
    assert ZoneId("B") is ZoneId.BLUE
    assert [z.ordinal for z in ZoneId] == [0, 1, 2]


def test_layout_regions_are_contiguous_in_order():
    layout = ZoneLayout(5, 7, 3)
    assert layout.total == 15
    assert layout.span(ZoneId.RED) == (0, 5)
    assert layout.span(ZoneId.GREEN) == (5, 12)
    assert layout.span(ZoneId.BLUE) == (12, 15)
    assert layout.span(ZoneId.BLUE)[0] == 12
    assert layout.size(ZoneId.GREEN) == 7


def test_layout_validation():
    with pytest.raises(ValueError):
        ZoneLayout(0, 1, 1)  # every zone needs at least one slot


def test_zone_of_index_bounds():
    layout = ZoneLayout(2, 2, 2)
    with pytest.raises(IndexRangeError):
        layout.zone_of_index(-1)
    with pytest.raises(IndexRangeError):
        layout.zone_of_index(6)


@settings(max_examples=120, deadline=None)
@given(sizes=st.tuples(*[st.integers(1, 64)] * 3))
def test_zone_mapping_matches_linear_scan(sizes):
    layout = ZoneLayout(*sizes)
    for i in range(layout.total):
        assert LETTER[layout.zone_of_index(i)] == zone_scan_oracle(i, *sizes)


@settings(max_examples=120, deadline=None)
@given(sizes=st.tuples(*[st.integers(1, 64)] * 3))
def test_generation_mapping_matches_linear_scan(sizes):
    layout = ZoneLayout(*sizes)  # generation cuts fixed at the quartiles
    for zone in ZoneId:
        lo, hi = layout.span(zone)
        for i in range(lo, hi):
            expected = generation_scan_oracle(i - lo, hi - lo, 0.25, 0.75)
            assert int(layout.generation_of(i)) == expected


def test_generation_default_fractions_quartiles():
    layout = ZoneLayout(8, 8, 8)  # cuts at 2 and 6 inside each zone
    gens = [int(layout.generation_of(i)) for i in range(8)]
    assert gens == [0, 0, 1, 1, 1, 1, 2, 2]
