"""Partitioning, thread budgeting, parallel runner."""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonegc import cli
from zonegc.errors import ObjectiveUndefinedError, PartitionFaultError, PartitionPlanError
from zonegc.ppe import (
    ThreadAllocation,
    allocate_threads,
    make_partitions,
    optimize_thread_allocation,
    probe_cores,
    run_parallel,
    scheduler_objective,
    sync_checkpoint,
)

from .oracles import PARTITION_CASES, check_partition_properties, liveness_oracle

POS = st.floats(min_value=0.0, max_value=1000.0)


# -- partitioning -----------------------------------------------------------


def test_make_partitions_frozen_cases():
    for (n, p), expected in PARTITION_CASES.items():
        assert make_partitions(n, p) == expected


@given(n=st.integers(0, 5000), p=st.integers(1, 64))
def test_make_partitions_tiles_the_range(n, p):
    ranges = make_partitions(n, p)
    assert len(ranges) == p
    check_partition_properties(n, ranges)


def test_make_partitions_validation():
    with pytest.raises(PartitionPlanError):
        make_partitions(10, 0)
    with pytest.raises(PartitionPlanError):
        make_partitions(-1, 2)


def test_probe_cores_floor():
    assert probe_cores() >= 1


def test_sync_checkpoint_is_the_liveness_gate():
    for state, zone, pending in ((0b1010, 0b1100, 0b0101),
                                 (0, 0b1111, 0b1111), (0b1111, 0, 0)):
        assert sync_checkpoint(state, zone, pending, 4) == liveness_oracle(
            state, zone, pending, 4
        )


# -- thread allocation ------------------------------------------------------


def test_thread_allocation_shape():
    alloc = ThreadAllocation(2, 3, 1)
    assert alloc.total == 6
    with pytest.raises(ValueError):
        ThreadAllocation(-1, 1, 1)


@settings(max_examples=300)
@given(
    costs=st.tuples(POS, POS, POS),
    k=st.integers(3, 64),
    eta=st.tuples(*[st.floats(min_value=0.05, max_value=0.95)] * 3),
)
def test_allocate_threads_sums_to_k(costs, k, eta):
    alloc = allocate_threads(costs, k, eta)
    assert alloc.total == k
    assert min(alloc.red, alloc.green, alloc.blue) >= 0


def test_allocate_threads_all_zero_costs_uniform():
    alloc = allocate_threads((0, 0, 0), 8, (0.9, 0.9, 0.9))
    assert (alloc.red, alloc.green, alloc.blue) == (2, 4, 2)  # remainder on green
    assert allocate_threads((0, 0, 0), 9, (0.9, 0.9, 0.9)).green == 3


def test_allocate_threads_follows_cost_share():
    alloc = allocate_threads((100.0, 10.0, 1.0), 12, (0.9, 0.9, 0.9))
    assert alloc.red > alloc.green >= alloc.blue
    assert alloc.total == 12


def test_allocate_threads_validation():
    with pytest.raises(ValueError):
        allocate_threads((1, 1, 1), 2, (0.9, 0.9, 0.9))
    assert allocate_threads((1, 1, 1), 2, (0.9, 0.9, 0.9),
                            allow_zero_zones=True).total == 2
    with pytest.raises(ValueError):
        allocate_threads((1, 1, 1), 6, (1.0, 0.9, 0.9))  # eta at boundary
    with pytest.raises(ValueError):
        allocate_threads((-1, 1, 1), 6, (0.9, 0.9, 0.9))


def test_scheduler_objective_manual():
    # red: 0.5*4 + 1*(4/2) = 4; green: 0.3*3 + 1*(3/1) = 3.9; blue skipped
    score = scheduler_objective((4.0, 3.0, 0.0), ThreadAllocation(2, 1, 0),
                                (0.5, 0.3, 0.2), (1.0, 1.0, 1.0))
    assert score == pytest.approx(4.0 + 3.9)


def test_scheduler_objective_undefined_for_starved_zone():
    with pytest.raises(ObjectiveUndefinedError):
        scheduler_objective((4.0, 3.0, 1.0), ThreadAllocation(2, 1, 0),
                            (0.5, 0.3, 0.2), (1.0, 1.0, 1.0))


def test_scheduler_objective_validation():
    with pytest.raises(ValueError):
        scheduler_objective((-1.0, 0.0, 0.0), ThreadAllocation(1, 1, 1),
                            (0.5, 0.3, 0.2), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        scheduler_objective((1.0, 0.0, 0.0), ThreadAllocation(1, 1, 1),
                            (0.5, 0.3, 0.2), (0.0, 1.0, 1.0))


def brute_force_best(pauses, k, pi, delta):
    best = None
    for r in range(k + 1):
        for g in range(k - r + 1):
            b = k - r - g
            if any(pauses[i] > 0 and (r, g, b)[i] == 0 for i in range(3)):
                continue
            score = scheduler_objective(pauses, ThreadAllocation(r, g, b),
                                        pi, delta)
            if best is None or score < best[1]:
                best = ((r, g, b), score)
    return best


@settings(max_examples=80, deadline=None)
@given(
    pauses=st.tuples(POS, POS, POS),
    k=st.integers(3, 9),
)
def test_optimize_matches_enumeration(pauses, k):
    pi = (0.5, 0.3, 0.2)
    delta = (1.0, 1.0, 1.0)
    alloc, score = optimize_thread_allocation(pauses, k, pi, delta)
    expected = brute_force_best(pauses, k, pi, delta)
    assert expected is not None
    assert score == pytest.approx(expected[1])
    assert alloc.total == k


def test_optimize_requires_enough_threads():
    with pytest.raises(ValueError):
        optimize_thread_allocation((1.0, 1.0, 1.0), 2, (0.5, 0.3, 0.2),
                                   (1.0, 1.0, 1.0))


# -- parallel runner --------------------------------------------------------


def test_run_parallel_returns_partials_in_range_order():
    ranges = make_partitions(10, 4)
    assert run_parallel(ranges, lambda lo, hi: (lo, hi)) == list(ranges)


def test_run_parallel_sums_match_serial():
    ranges = make_partitions(1000, 7)
    total = sum(run_parallel(ranges, lambda lo, hi: sum(range(lo, hi))))
    assert total == sum(range(1000))


def test_run_parallel_repeated_runs_identical():
    ranges = make_partitions(200, 3)
    outs = {
        tuple(run_parallel(ranges, lambda lo, hi: sum(i * i for i in range(lo, hi))))
        for _ in range(5)
    }
    assert len(outs) == 1


def test_run_parallel_collects_failures_with_partials():
    ranges = make_partitions(9, 3)

    def kernel(lo, hi):
        if lo == 3:
            raise RuntimeError("partition blew up")
        return hi - lo

    with pytest.raises(PartitionFaultError) as exc_info:
        run_parallel(ranges, kernel)
    err = exc_info.value
    assert len(err.failed) == 1
    assert err.failed[0][0] == (3, 6)
    assert isinstance(err.failed[0][1], RuntimeError)
    assert err.partials == {(0, 3): 3, (6, 9): 3}


def test_run_parallel_worker_stack_override():
    def deep(n: int) -> int:
        if n == 0:
            return 0
        return 1 + deep(n - 1)

    depth = 30000
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 1000)
    try:
        got = run_parallel(make_partitions(1, 1), lambda lo, hi: deep(depth),
                           stack_bytes=64 * 1024 * 1024)
        assert got == [depth]
    finally:
        sys.setrecursionlimit(old_limit)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="platform has no CPU affinity call")
def test_run_parallel_binds_each_worker_to_one_core():
    cores = sorted(os.sched_getaffinity(0))
    got = run_parallel(make_partitions(10, 5),
                       lambda lo, hi: sorted(os.sched_getaffinity(0)))
    assert got == [[cores[i % len(cores)]] for i in range(5)]
    assert sorted(os.sched_getaffinity(0)) == cores  # the caller stays unbound


def test_run_parallel_restores_default_stack_size():
    before = threading.stack_size()
    run_parallel(make_partitions(4, 2), lambda lo, hi: hi - lo, stack_bytes=1024 * 1024)
    assert threading.stack_size() == before



def _paced_starts(monkeypatch, fail_at: int | None = None) -> list[int]:
    """Make Thread.start record when it returns, then pause 10 ms, long
    enough for a started worker to run; the start numbered fail_at raises
    instead. Returns the list of return times."""
    returned: list[int] = []
    start = threading.Thread.start

    def paced(thread):
        if len(returned) == fail_at:
            raise RuntimeError("can't start new thread")
        start(thread)
        returned.append(time.perf_counter_ns())
        time.sleep(0.01)

    monkeypatch.setattr(threading.Thread, "start", paced)
    return returned


def test_run_parallel_starts_no_kernel_before_the_last_thread(monkeypatch):
    returned = _paced_starts(monkeypatch)
    began = run_parallel(make_partitions(4, 4), lambda lo, hi: time.perf_counter_ns())
    assert len(returned) == 4
    assert min(began) > max(returned)


def _workers_alive() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("ppe-worker")]


def test_run_parallel_failed_start_leaves_no_worker_waiting(monkeypatch):
    done = threading.Event()
    _paced_starts(monkeypatch, fail_at=2)
    with pytest.raises(PartitionFaultError) as info:
        try:
            run_parallel(make_partitions(4, 4), lambda lo, hi: lo == 1 and done.set())
        finally:
            alive = _workers_alive()
    assert done.wait(10.0)  # the second worker ran its kernel
    assert alive == []  # the started workers were joined before the error
    assert [(r, str(exc)) for r, exc in info.value.failed] == [
        ((2, 3), "can't start new thread"), ((3, 4), "can't start new thread")]
    assert info.value.partials == {(0, 1): False, (1, 2): None}


def test_cli_failed_start_is_one_error_line(monkeypatch, capsys):
    _paced_starts(monkeypatch, fail_at=2)
    assert cli.main(["loop", "--size", "100000", "--partitions", "4",
                     "--attempts", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert _workers_alive() == []
