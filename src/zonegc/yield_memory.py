"""Ephemeral execution path bypassing zones and checkpoint tracking.

Short-lived values evaluate inside a bounded scratch scope and vanish when it
closes; nothing they do touches the table or the pools. An ephemeral value
carries one of four StateCodes: IDLE (dropped after evaluation) and ACTIVE
(dropped when the scope closes) never leave the scope. A value that must
outlive it is promoted explicitly and enters the arena with its code:
PERSISTENT in green, DEFERRED in red or blue, decided at promotion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .checkpoint import StateCode
from .errors import EphemeralStateError, LifecycleError, PromotionError, YieldOverflowError
from .layout import SLOT_BYTES, ZoneId
from .objects import FeatureVector
from .zones import ZoneArena


# What promote reads when it is given no features; frozen, so one serves all.
_NO_FEATURES = FeatureVector()

# Plain-int codes, so that a promotion makes no StateCode member lookup.
_PERSISTENT, _DEFERRED = int(StateCode.PERSISTENT), int(StateCode.DEFERRED)


@dataclass
class YieldScope:
    """Bounded scratch region for ephemeral evaluation.

    Slot and byte budgets cap concurrently held scratch; a nested evaluation
    chain deeper than the budget overflows rather than growing silently.
    Use as a context manager to get the close-time guarantees.
    """

    arena: ZoneArena | None = None
    scope_id: str = "yield"
    capacity_slots: int = 4096
    capacity_bytes: int = 4096 * SLOT_BYTES
    slots_in_use: int = field(default=0, init=False)
    bytes_in_use: int = field(default=0, init=False)
    promoted: int = field(default=0, init=False)  # a count; the scope keeps no value
    open: bool = field(default=True, init=False)

    def __enter__(self) -> "YieldScope":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        self.open = False
        self.slots_in_use = 0
        self.bytes_in_use = 0

    def yield_eval(self, thunk: Callable[[], Any], *, slots: int = 1,
                   nbytes: int = 0) -> Any:
        """Run a thunk on scratch only; no table entry, no zone counters."""
        if not self.open:
            raise LifecycleError(f"scope {self.scope_id} is closed")
        if (self.slots_in_use + slots > self.capacity_slots
                or self.bytes_in_use + nbytes > self.capacity_bytes):
            raise YieldOverflowError(
                f"scope {self.scope_id} scratch exhausted "
                f"({self.slots_in_use}/{self.capacity_slots} slots)"
            )
        self.slots_in_use += slots
        self.bytes_in_use += nbytes
        try:
            return thunk()
        finally:
            self.slots_in_use -= slots
            self.bytes_in_use -= nbytes

    def promote(self, value: Any, state: int, *, site_tag: str | None = None,
                features: FeatureVector | None = None):
        """Register a surviving value with the arena.

        Persistent values go to green; deferred values are classified on the
        spot with a green verdict clamped to blue, so the outcome stays in
        red-or-blue. The new entry carries the ephemeral state code. The
        arena keeps the entry's metadata, not the value, and the scope only
        counts the promotion.
        """
        if not self.open:
            raise LifecycleError(f"scope {self.scope_id} is closed")
        if not isinstance(state, int) or (state != _PERSISTENT and state != _DEFERRED):
            if isinstance(state, int) and state in (StateCode.IDLE, StateCode.ACTIVE):
                raise PromotionError(
                    f"state {state:03b} does not outlive the scope; nothing to promote"
                )
            raise EphemeralStateError(f"state {state!r} is not an ephemeral-value code")
        arena = self.arena
        if arena is None:
            raise LifecycleError("scope has no arena to promote into")
        f = _NO_FEATURES if features is None else features
        if state == _PERSISTENT:
            zone, code = ZoneId.GREEN, _PERSISTENT
        else:
            zone, code = arena.classify(f), _DEFERRED
            if zone is ZoneId.GREEN:
                zone = ZoneId.BLUE
        # the arena writes the checked code as the claim's one state write
        handle = arena.allocate(zone, site_tag or self.scope_id, size=f.size,
                                fan_out=f.fan_out, complexity_weight=f.complexity_weight,
                                _state=code)
        self.promoted += 1
        return handle
