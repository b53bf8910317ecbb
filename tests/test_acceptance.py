"""End-to-end acceptance checks, one test per criterion, reported one line
each in the terminal summary.

Every check runs against a deterministic schedule or a frozen oracle; time
limits are generous bounds meant to catch pathological slowdowns, not to
benchmark the host.
"""

from __future__ import annotations

import itertools
import math
import random
import subprocess
import sys
import time

import pytest

from zonegc.bench import (
    WorkloadSpec,
    parse_pool_stats_csv,
    run_alloc_experiments,
    run_bench,
    summarize,
)
from zonegc.bench import AttemptRecord
from zonegc.checkpoint import CheckpointTable
from zonegc.gates import eval_liveness_gate, zone_mask_update
from zonegc.layout import ZoneId, ZoneLayout
from zonegc.objects import FeatureVector
from zonegc.ppe import (
    ThreadAllocation,
    allocate_threads,
    make_partitions,
    optimize_thread_allocation,
    probe_cores,
    scheduler_objective,
    sync_checkpoint,
)
from zonegc.yield_memory import YieldScope
from zonegc.zones import ZoneArena, classify_predicates, classify_simple
from zonegc.config import RuntimeConfig

from .oracles import (
    LOOP_WRAP,
    MATRIX_WRAP,
    RECURSION_WRAP,
    REF_PRINTED_MEAN,
    REF_PRINTED_STDDEV,
    REF_TIMES,
    liveness_oracle,
    zone_mask_bit,
)

GREEN, BLUE, RED = ZoneId.GREEN, ZoneId.BLUE, ZoneId.RED


def timed_alloc(kind: str, size: int):
    t0 = time.perf_counter()
    stats = run_alloc_experiments(WorkloadSpec(kind, size))
    return stats, time.perf_counter() - t0


def test_c01_alloc_reuse_exact_counters_via_cli():
    """1M acquire/release cycles through the CLI: one real allocation, all
    later requests served from the pool, inside 5 seconds."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "zonegc", "alloc_reuse", "--size", "1000000"],
        capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    stats = parse_pool_stats_csv(proc.stdout)
    green = stats[GREEN]
    assert green.real_allocations == 1
    assert green.reused_objects == 999_999
    assert green.pool_size == 1
    assert green.total_requests == 1_000_000
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_c02_zone_imbalance_exact_counters():
    """90/9/1 request blocks over 1M requests: every zone keeps exactly one
    real allocation and a pool of one."""
    stats, elapsed = timed_alloc("zone_imbalance", 1_000_000)
    expected = {GREEN: 900_000, BLUE: 90_000, RED: 10_000}
    for zone, total in expected.items():
        s = stats[zone]
        assert (s.total_requests, s.real_allocations, s.reused_objects,
                s.pool_size) == (total, 1, total - 1, 1)
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_c03_zone_pressure_proportions():
    """Seeded 0.7/0.2/0.1 zone draws over 1M requests: exact pooling per
    zone, draw proportions within one percent."""
    stats, elapsed = timed_alloc("zone_pressure", 1_000_000)
    targets = {GREEN: 0.7, BLUE: 0.2, RED: 0.1}
    for zone, share in targets.items():
        s = stats[zone]
        assert s.real_allocations == 1
        assert s.pool_size == 1
        assert s.total_requests == s.reused_objects + 1
        got = s.total_requests / 1_000_000
        assert abs(got - share) / share <= 0.01, f"{zone}: {got} vs {share}"
    assert sum(s.total_requests for s in stats.values()) == 1_000_000
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_c04_expiration_lifecycle_counts():
    """Use-count TTL schedule: green expires only at teardown, blue every
    second use, red every use; one real allocation per zone throughout."""
    stats, elapsed = timed_alloc("expiration", 100_000)
    expected_expired = {GREEN: 1, BLUE: 50_000, RED: 100_000}
    for zone, count in expected_expired.items():
        s = stats[zone]
        assert s.expired_objects == count, f"{zone}: {s.expired_objects}"
        assert s.real_allocations == 1
        assert s.total_requests == 100_000
        assert s.pool_size == 1
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_c05_checkpoint_lifecycle_counts():
    """Sweep-every-500 schedule: pinned green never expires, blue expires at
    each sweep boundary, red on every use."""
    stats, elapsed = timed_alloc("checkpoint_lifecycle", 100_000)
    expected_expired = {GREEN: 0, BLUE: 200, RED: 100_000}
    for zone, count in expected_expired.items():
        s = stats[zone]
        assert s.expired_objects == count, f"{zone}: {s.expired_objects}"
        assert s.real_allocations == 1
        assert s.total_requests == 100_000
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_c06_statistics_convention():
    """summarize must reproduce the recorded reference summaries: mean and
    standard deviation both within 5e-6 on each of the three fixtures."""
    failures = []
    for name, times in REF_TIMES.items():
        records = [AttemptRecord(i + 1, t, 0, None, None, None)
                   for i, t in enumerate(times)]
        report = summarize(WorkloadSpec("loop", 100_000, attempts=5),
                           list(records))
        mean_err = abs(report.mean_time_ms - REF_PRINTED_MEAN[name])
        sd_err = abs(report.stddev_time_ms - REF_PRINTED_STDDEV[name])
        if mean_err > 5e-6:
            failures.append(
                f"{name}: mean {report.mean_time_ms:.6f} vs printed "
                f"{REF_PRINTED_MEAN[name]} (err {mean_err:.2e})"
            )
        if sd_err > 5e-6:
            failures.append(
                f"{name}: stddev {report.stddev_time_ms:.6f} vs printed "
                f"{REF_PRINTED_STDDEV[name]} (err {sd_err:.2e})"
            )
    assert not failures, "; ".join(failures)


def test_c07_gate_oracles():
    """Retention gate, zone-mask update, and the sync merge agree with
    per-bit oracles exhaustively and on 1,000 random 64-bit vectors."""
    for s, z, p in itertools.product((0, 1), repeat=3):
        assert eval_liveness_gate(s, z, p) == int((s and z) or ((not s) and p))
    for r, g, b in itertools.product((0, 1), repeat=3):
        assert zone_mask_update(r, g, b) == zone_mask_bit(r, g, b)
    rng = random.Random(7)
    for _ in range(1000):
        s = rng.getrandbits(64)
        z = rng.getrandbits(64)
        p = rng.getrandbits(64)
        expected = liveness_oracle(s, z, p, 64)
        assert eval_liveness_gate(s, z, p, width=64) == expected
        assert sync_checkpoint(s, z, p, 64) == expected
        r, g, b = rng.getrandbits(64), rng.getrandbits(64), rng.getrandbits(64)
        got = zone_mask_update(r, g, b, width=64)
        for i in range(64):
            lane = tuple((v >> i) & 1 for v in got)
            assert lane == zone_mask_bit((r >> i) & 1, (g >> i) & 1, (b >> i) & 1)


def test_c08_index_zone_generation_mapping():
    """Per-index roundtrip and linear-scan agreement across a size grid
    covering 1 through 64 slots per zone, plus a 4,096-entry table."""
    grid = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
    layouts = [ZoneLayout(r, g, b) for r, g, b in itertools.product(grid, repeat=3)]
    layouts += [ZoneLayout(n, n, n) for n in range(1, 65)]
    for layout in layouts:
        sizes = [layout.size(z) for z in (RED, GREEN, BLUE)]
        expected_zone = ["R"] * sizes[0] + ["G"] * sizes[1] + ["B"] * sizes[2]
        table = CheckpointTable(layout, base=4096)
        for i in range(layout.total):
            assert layout.zone_of_index(i).value == expected_zone[i]
            assert table.index_of(table.address_of(i)) == i
        for zone in (RED, GREEN, BLUE):
            lo, hi = layout.span(zone)
            n = hi - lo
            cut0, cut1 = int(0.25 * n), int(0.75 * n)
            for i in range(lo, hi):
                off = i - lo
                expected_gen = 0 if off < cut0 else (1 if off < cut1 else 2)
                assert int(layout.generation_of(i)) == expected_gen
    big = ZoneLayout(1366, 1365, 1365)
    assert big.total == 4096
    table = CheckpointTable(big)
    for i in range(big.total):
        assert table.index_of(table.address_of(i)) == i
    assert big.zone_of_index(1365).value == "R"
    assert big.zone_of_index(1366).value == "G"
    assert big.zone_of_index(2731).value == "B"


def test_c09_classification_oracles():
    """The three rate-policy boundary cases, then the predicate policy
    against a fully re-derived oracle on 10,000 random feature vectors."""
    cfg = RuntimeConfig()
    th = cfg.rate_thresholds
    pth = cfg.predicate_thresholds
    costs = cfg.cost_params

    def f(access=0.0, mutation=0.0, lifetime=0.0, size=0.0, fan_out=0.0, chi=0.0):
        return FeatureVector(lifetime=lifetime, mutation_rate=mutation,
                             access_rate=access, size=size, fan_out=fan_out,
                             complexity_weight=chi)

    # equality at a red cut fails the strict red condition
    assert classify_simple(f(access=10.0, mutation=5.0), th, costs) is not RED
    assert classify_simple(f(access=5.0, mutation=10.0), th, costs) is not RED
    assert classify_simple(f(access=9.99, mutation=9.99), th, costs) is RED
    # equality at a green cut satisfies the non-strict disjunction
    assert classify_simple(f(access=100.0), th, costs) is GREEN
    assert classify_simple(f(mutation=100.0), th, costs) is GREEN
    # both rates inside the band: cheapest zone wins (blue on default weights)
    assert classify_simple(
        f(access=50.0, mutation=50.0, size=1.0, fan_out=1.0, chi=1.0),
        th, costs) is BLUE

    def oracle(v: FeatureVector) -> ZoneId:
        # default thresholds and weights restated as plain numbers
        e_r = (v.lifetime <= 0.1 and v.mutation_rate >= 100.0
               and v.access_rate >= 100.0 and v.size <= 256.0)
        e_g = (0.1 < v.lifetime <= 10.0 and 10.0 <= v.mutation_rate < 100.0
               and 10.0 <= v.access_rate < 100.0 and 256.0 < v.size <= 4096.0)
        e_b = (v.lifetime > 10.0 or v.mutation_rate < 10.0
               or v.access_rate < 10.0 or v.size > 4096.0)
        winners = [zone for zone, on in ((RED, e_r), (GREEN, e_g), (BLUE, e_b))
                   if on]
        if len(winners) == 1:
            return winners[0]
        cost = {
            RED: 1.0 * v.complexity_weight + 1.0 * v.fan_out + 4.0 * v.size,
            GREEN: 1.0 * v.complexity_weight + 0.8 * v.fan_out + 2.0 * v.size,
            BLUE: 0.5 * v.complexity_weight + 0.5 * v.fan_out + 1.0 * v.size,
        }
        best = GREEN
        for zone in (BLUE, RED):
            if cost[zone] < cost[best]:
                best = zone
        return best

    rng = random.Random(9)
    for _ in range(10_000):
        v = f(
            access=rng.uniform(0, 200),
            mutation=rng.uniform(0, 200),
            lifetime=rng.uniform(0, 20),
            size=rng.uniform(0, 8000),
            fan_out=rng.uniform(0, 50),
            chi=rng.uniform(0, 10),
        )
        assert classify_predicates(v, pth, costs) is oracle(v)


def test_c10_thread_allocation():
    """Budget reconciliation sums to k on 1,000 random draws, and the
    optimizer matches exhaustive enumeration for every k up to 12."""
    rng = random.Random(11)
    for _ in range(1000):
        costs = tuple(
            0.0 if rng.random() < 0.1 else rng.uniform(0, 100) for _ in range(3)
        )
        k = rng.randint(3, 64)
        eta = tuple(rng.uniform(0.1, 0.9) for _ in range(3))
        assert allocate_threads(costs, k, eta).total == k

    pi = (0.5, 0.3, 0.2)
    delta = (1.0, 1.0, 1.0)
    pause_sets = [
        (4.0, 3.0, 1.0), (10.0, 0.0, 0.0), (0.0, 0.0, 0.0),
        (1.0, 1.0, 1.0), (7.5, 2.5, 5.0),
    ] + [tuple(rng.uniform(0, 20) for _ in range(3)) for _ in range(5)]
    for pauses in pause_sets:
        loaded = sum(1 for p in pauses if p > 0)
        for k in range(max(loaded, 1), 13):
            alloc, score = optimize_thread_allocation(pauses, k, pi, delta)
            best = None
            for r in range(k + 1):
                for g in range(k - r + 1):
                    b = k - r - g
                    if any(pauses[i] > 0 and (r, g, b)[i] == 0
                           for i in range(3)):
                        continue
                    s = scheduler_objective(pauses, ThreadAllocation(r, g, b),
                                            pi, delta)
                    if best is None or s < best:
                        best = s
            assert alloc.total == k
            assert math.isclose(score, best, rel_tol=1e-12, abs_tol=1e-12)


def test_c11_checksum_determinism_and_partition_invariance():
    """Checksums are constant across 5 attempts and partition counts 1, 2
    and 4 for every kernel size, and match the frozen closed-form values."""
    cases = []
    for size in (100_000, 200_000, 400_000):
        cases.append(("loop", size, None, LOOP_WRAP[size]))
    for size in (10_000, 20_000, 40_000):
        cases.append(("recursion", size, None, RECURSION_WRAP[(size, 1000)]))
    cases.append(("matrix", 64, None, MATRIX_WRAP[64]))
    for kind, size, chunk, expected in cases:
        seen = set()
        for partitions in (1, 2, 4):
            report = run_bench(
                WorkloadSpec(kind, size, chunk=chunk, partitions=partitions,
                             attempts=5)
            )
            assert len(report.records) == 5
            seen.update(r.checksum for r in report.records)
        assert seen == {expected}, f"{kind} {size}: {seen}"


def test_c12_parallel_speedup_on_multicore():
    """With at least two usable cores, two partitions must not run slower
    than one on the 4M loop."""
    if probe_cores() < 2:
        pytest.skip("host exposes a single core; speedup comparison "
                    "needs at least two")
    single = run_bench(WorkloadSpec("loop", 4_000_000, partitions=1))
    double = run_bench(WorkloadSpec("loop", 4_000_000, partitions=2))
    assert {r.checksum for r in single.records} == {LOOP_WRAP[4_000_000]}
    assert {r.checksum for r in double.records} == {LOOP_WRAP[4_000_000]}
    assert double.mean_time_ms <= single.mean_time_ms


def test_c13_no_migration_fuzz():
    """100,000 random lifecycle operations: a slot index never shows up
    bound to a zone other than the one its region dictates."""
    rng = random.Random(13)
    arena = ZoneArena(ZoneLayout(32, 32, 32))
    layout = arena.layout
    zones = (RED, GREEN, BLUE)
    live = []
    bound_zone: dict[int, ZoneId] = {}

    def check(handle, zone):
        region = layout.zone_of_index(handle.slot_index)
        assert region is zone, (
            f"slot {handle.slot_index} of zone {zone} sits in region {region}"
        )
        seen = bound_zone.setdefault(handle.slot_index, region)
        assert seen is region  # one region per index, forever

    for _ in range(100_000):
        roll = rng.random()
        if roll < 0.45 or not live:
            zone = zones[rng.randrange(3)]
            lo, hi = layout.span(zone)
            if arena.pool_stats(zone).pool_size == 0 and (
                    arena._fresh_next[zone.ordinal] >= hi):
                continue  # zone full; skip rather than catch
            handle = arena.allocate(zone, "fuzz")
            check(handle, zone)
            live.append((zone, handle))
        elif roll < 0.75:
            zone, handle = live.pop(rng.randrange(len(live)))
            check(handle, zone)
            arena.release(handle)
        elif roll < 0.90:
            zone, handle = live.pop(rng.randrange(len(live)))
            arena.expire(handle)
            check(handle, zone)
        else:
            zone, handle = live.pop(rng.randrange(len(live)))
            target = zones[rng.randrange(3)]
            lo, hi = layout.span(target)
            if target is not zone and arena.pool_stats(target).pool_size == 0 \
                    and arena._fresh_next[target.ordinal] >= hi:
                live.append((zone, handle))
                continue
            new_handle = arena.expire_and_reallocate(handle, target)
            check(new_handle, target)
            live.append((target, new_handle))
    # every index ever seen belongs to exactly the region the layout fixes
    for idx, zone in bound_zone.items():
        assert layout.zone_of_index(idx) is zone


def test_c14_yield_neutrality():
    """1,000 ephemeral evaluations without promotion leave every allocation
    counter, pool, and table entry untouched."""
    arena = ZoneArena(ZoneLayout(16, 16, 16))
    warm = arena.allocate(GREEN, "warm")  # some pre-existing state to disturb
    before = {z: arena.pool_stats(z) for z in (RED, GREEN, BLUE)}
    states_before = [int(s) for s in arena.table.states()]
    ops_before = arena.clock.ops
    with YieldScope(arena=arena, capacity_slots=64) as scope:
        for k in range(1000):
            value = scope.yield_eval(lambda k=k: [k] * 3, slots=2, nbytes=24)
            assert value == [k] * 3
    assert {z: arena.pool_stats(z) for z in (RED, GREEN, BLUE)} == before
    assert [int(s) for s in arena.table.states()] == states_before
    assert arena.clock.ops == ops_before
    assert arena.header_of(warm).alive
