"""Ephemeral scratch scope: budget enforcement, promotion routing,
counter neutrality."""

from __future__ import annotations

import re

import pytest

from zonegc.checkpoint import StateCode
from zonegc.errors import (
    EphemeralStateError,
    LifecycleError,
    PromotionError,
    YieldOverflowError,
)
from zonegc.layout import ZoneId, ZoneLayout
from zonegc.objects import FeatureVector
from zonegc.yield_memory import YieldScope
from zonegc.zones import ZoneArena


def test_yield_eval_returns_thunk_value_and_frees_scratch():
    with YieldScope(capacity_slots=4) as scope:
        assert scope.yield_eval(lambda: 41 + 1) == 42
        assert scope.slots_in_use == 0
        assert scope.bytes_in_use == 0


def test_yield_eval_nested_holds_scratch():
    with YieldScope(capacity_slots=2) as scope:
        def outer():
            assert scope.slots_in_use == 1
            return scope.yield_eval(lambda: scope.slots_in_use)
        assert scope.yield_eval(outer) == 2


def test_yield_eval_overflow_on_slots_and_bytes():
    with YieldScope(capacity_slots=1) as scope:
        with pytest.raises(YieldOverflowError):
            scope.yield_eval(lambda: scope.yield_eval(lambda: 0))
    with YieldScope(capacity_bytes=16) as scope:
        with pytest.raises(YieldOverflowError):
            scope.yield_eval(lambda: 0, nbytes=32)


def test_yield_eval_releases_scratch_on_exception():
    with YieldScope(capacity_slots=1) as scope:
        with pytest.raises(RuntimeError):
            scope.yield_eval(lambda: (_ for _ in ()).throw(RuntimeError("x")))
        assert scope.slots_in_use == 0
        # budget is whole again
        assert scope.yield_eval(lambda: 7) == 7


def test_closed_scope_rejects_everything():
    scope = YieldScope()
    scope.close()
    with pytest.raises(LifecycleError):
        scope.yield_eval(lambda: 1)
    with pytest.raises(LifecycleError):
        scope.promote(1, StateCode.PERSISTENT)
    with pytest.raises(LifecycleError):  # closed is checked before the code
        scope.promote(1, 9)


def test_promote_discard_and_scoped_refused():
    arena = ZoneArena(ZoneLayout(4, 4, 4))
    with YieldScope(arena=arena) as scope:
        for state in (StateCode.IDLE, StateCode.ACTIVE, False, True, 0, 1):
            with pytest.raises(PromotionError):
                scope.promote(object(), state)


def test_promote_rejects_foreign_codes():
    arena = ZoneArena(ZoneLayout(4, 4, 4))
    with YieldScope(arena=arena) as scope:
        for bad in (0b010, 0b011, 0b110, 0b111, 9):
            with pytest.raises(EphemeralStateError):
                scope.promote(object(), bad)
    assert all(s is StateCode.IDLE for s in arena.table.states())
    with YieldScope() as scope:  # the code is checked before the arena
        with pytest.raises(EphemeralStateError):
            scope.promote(object(), 9)
        with pytest.raises(PromotionError):
            scope.promote(object(), StateCode.IDLE)


@pytest.mark.parametrize("state", [1.0, 4.0, 1.5, "x", None])
def test_promote_refuses_a_state_that_is_not_an_int(state):
    # 1.0 equals ACTIVE and 4.0 PERSISTENT, but no float is a code
    arena = ZoneArena(ZoneLayout(4, 4, 4))
    with YieldScope(arena=arena) as scope:
        message = rf"^state {re.escape(repr(state))} is not an ephemeral-value code$"
        with pytest.raises(EphemeralStateError, match=message):
            scope.promote(object(), state)
        assert scope.promoted == 0
    assert all(s is StateCode.IDLE for s in arena.table.states())
    assert all(arena.pool_stats(zone).total_requests == 0 for zone in ZoneId)


def test_promote_without_arena_refused():
    with YieldScope() as scope:
        with pytest.raises(LifecycleError):
            scope.promote(object(), StateCode.PERSISTENT)


def test_promote_persistent_lands_in_green_with_state_code():
    arena = ZoneArena(ZoneLayout(4, 4, 4))
    with YieldScope(arena=arena, scope_id="sc") as scope:
        handle = scope.promote("kept", StateCode.PERSISTENT)
        lo, hi = arena.layout.span(ZoneId.GREEN)
        assert lo <= handle.slot_index < hi
        assert arena.table.get_state(handle.slot_index) is StateCode.PERSISTENT
        assert arena.header_of(handle).site_tag == "sc"
        assert scope.promoted == 1
        assert arena.pool_stats(ZoneId.GREEN).total_requests == 1
        assert arena.header_of(handle).alive


def test_promote_deferred_never_lands_in_green():
    arena = ZoneArena(ZoneLayout(4, 4, 4))
    hot = FeatureVector(access_rate=500.0, mutation_rate=500.0)
    with YieldScope(arena=arena) as scope:
        # rates over the green cut would classify green; the deferred route
        # clamps that to blue
        handle = scope.promote("v", StateCode.DEFERRED, features=hot)
        lo, hi = arena.layout.span(ZoneId.BLUE)
        assert lo <= handle.slot_index < hi
        assert arena.table.get_state(handle.slot_index) is StateCode.DEFERRED


def test_promote_deferred_cold_features_pick_red():
    arena = ZoneArena(ZoneLayout(4, 4, 4))
    with YieldScope(arena=arena) as scope:
        handle = scope.promote("v", StateCode.DEFERRED,
                               features=FeatureVector())
        lo, hi = arena.layout.span(ZoneId.RED)
        assert lo <= handle.slot_index < hi


def test_unpromoted_evaluation_is_invisible_to_the_arena():
    arena = ZoneArena(ZoneLayout(4, 4, 4))
    before = {z: arena.pool_stats(z) for z in ZoneId}
    epoch = arena.table.epoch
    with YieldScope(arena=arena) as scope:
        for k in range(100):
            scope.yield_eval(lambda k=k: k * k, nbytes=8)
    assert {z: arena.pool_stats(z) for z in ZoneId} == before
    assert arena.table.epoch == epoch
    assert all(s is StateCode.IDLE for s in arena.table.states())
