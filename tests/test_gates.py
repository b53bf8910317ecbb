"""The retention gate and zone-mask update against truth tables and per-bit
scalar oracles."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zonegc.errors import ShapeError
from zonegc.gates import eval_liveness_gate, zone_mask_update

from .oracles import liveness_oracle, zone_mask_bit

WORDS = st.integers(min_value=0, max_value=(1 << 64) - 1)


def test_operand_wider_than_declared_rejected():
    with pytest.raises(ShapeError):
        eval_liveness_gate(2, 1, 1)
    with pytest.raises(ShapeError):
        zone_mask_update(1 << 8, 0, 0, width=8)


def test_liveness_gate_exhaustive_width1():
    for s in (0, 1):
        for z in (0, 1):
            for p in (0, 1):
                expected = (s and z) or ((not s) and p)
                assert eval_liveness_gate(s, z, p) == int(expected)


@given(state=WORDS, zone=WORDS, pending=WORDS)
def test_liveness_gate_wide(state, zone, pending):
    assert eval_liveness_gate(state, zone, pending, width=64) == liveness_oracle(
        state, zone, pending, 64
    )


def test_zone_mask_update_exhaustive_width1():
    for r in (0, 1):
        for g in (0, 1):
            for b in (0, 1):
                assert zone_mask_update(r, g, b) == zone_mask_bit(r, g, b)


@given(r=WORDS, g=WORDS, b=WORDS)
def test_zone_mask_update_wide(r, g, b):
    got = zone_mask_update(r, g, b, width=64)
    for i in range(64):
        lane = tuple((v >> i) & 1 for v in got)
        expected = zone_mask_bit((r >> i) & 1, (g >> i) & 1, (b >> i) & 1)
        assert lane == expected


def test_zone_mask_update_never_leaves_red_and_blue_set():
    # the update relations keep red and blue mutually exclusive when the
    # input was consistent (not both set)
    for r in (0, 1):
        for g in (0, 1):
            for b in (0, 1):
                if r and b:
                    continue
                r2, g2, b2 = zone_mask_update(r, g, b)
                assert not (r2 and b2)

