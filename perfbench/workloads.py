"""The three benchmark workloads.

Each workload is a closed loop driven by one process: the next request is
issued only after the previous one returns. A workload object does its
set-up in ``setup()``, then the caller runs ``run_round()`` until time is up.
Every round returns its timed nanoseconds and its request count, and counts
attempted and failed operations; a failed correctness check counts as a
failed operation.

Inputs come only from the seed. Only ``parallel_kernels`` starts threads
(``run_parallel`` starts one per partition, at most two here).
"""

from __future__ import annotations

import math
import os
import random
import statistics
import sys
import time

import zonegc.bench as zbench
import zonegc.cli as zcli
import zonegc.config as zconfig
import zonegc.objects as zobjects
from zonegc.checkpoint import StateCode
from zonegc.errors import ZonegcError
from zonegc.layout import ZoneId
from zonegc.objects import EventKind, FeatureVector
from zonegc.yield_memory import YieldScope

HERE = os.path.dirname(os.path.abspath(__file__))
ZONES = (ZoneId.RED, ZoneId.GREEN, ZoneId.BLUE)


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    """90th percentile; callers make sure at least 10 samples lie beyond it."""
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 2 else median(values)


def wrap16(value: int) -> int:
    return ((value + 0x8000) & 0xFFFF) - 0x8000


class Workload:
    name = ""
    # Fewest rounds a timed run makes even when --seconds has run out.
    min_rounds = 1

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.tracer = None  # set by the worker for traced runs

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 20:
            print(f"check failed: {what}", file=sys.stderr)

    def round_id(self, k: int) -> None:
        if self.tracer is not None:
            self.tracer.round = k

    def close(self) -> None:
        """Remove what the workload wrote; called when the run ends."""

    def series(self) -> dict[str, float]:
        """The workload's own named series, medians over rounds."""
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        """Counts the traced run turns into per-layer ratios."""
        return {}


# -- alloc_schedules ---------------------------------------------------------

# Requests per call: each call takes roughly 50 ms on a 2-core host, so one
# round of the five takes about 0.25 s, short enough for the reference loop
# timed around it to see the same host speed. expiration and
# checkpoint_lifecycle count requests per zone.
ALLOC_SIZES = {
    "alloc_reuse": 10_000,
    "zone_pressure": 7_500,
    "zone_imbalance": 10_000,
    "expiration": 2_500,
    "checkpoint_lifecycle": 2_500,
}
SWEEP_INTERVAL = 500  # RuntimeConfig default, used by checkpoint_lifecycle


def expected_pool_counts(kind: str, size: int):
    """Closed-form per-zone (total, real, reused, expired, pool) rows, as
    c01, c02, c04 and c05 assert them. zone_pressure is checked apart."""

    def row(total, expired=0):
        return (total, 1, total - 1, expired, 1) if total else (0, 0, 0, 0, 0)

    if kind == "alloc_reuse":
        return {ZoneId.GREEN: row(size), ZoneId.BLUE: row(0), ZoneId.RED: row(0)}
    if kind == "zone_imbalance":
        return {ZoneId.GREEN: row(size * 90 // 100), ZoneId.BLUE: row(size * 9 // 100),
                ZoneId.RED: row(size // 100)}
    if kind == "expiration":
        return {ZoneId.GREEN: row(size, 1), ZoneId.BLUE: row(size, size // 2),
                ZoneId.RED: row(size, size)}
    if kind == "checkpoint_lifecycle":
        return {ZoneId.GREEN: row(size, 0), ZoneId.BLUE: row(size, size // SWEEP_INTERVAL),
                ZoneId.RED: row(size, size)}
    raise ValueError(kind)


class AllocSchedules(Workload):
    name = "alloc_schedules"

    def setup(self) -> None:
        self.out_path = os.path.join(self.work_dir, f"schedule-{os.getpid()}.csv")
        self.samples: dict[str, list[float]] = {k: [] for k in ALLOC_SIZES}
        self.requests = 0
        self.reused = 0
        # One discarded call of each schedule warms the code paths.
        for kind in ALLOC_SIZES:
            self._call(kind, record=False)

    def _call(self, kind: str, record: bool = True):
        size = ALLOC_SIZES[kind]
        argv = [kind, "--size", str(size), "--seed", str(self.seed),
                "--output", self.out_path]
        tracer = self.tracer
        t0 = time.perf_counter_ns()
        if tracer is not None:
            with tracer.span("cli.main"):
                status = zcli.main(argv)
        else:
            status = zcli.main(argv)
        elapsed = time.perf_counter_ns() - t0
        self.attempted += 1
        if status != 0:
            self.fail(f"{kind}: cli.main returned {status}")
            return None
        with open(self.out_path) as fh:
            stats = zbench.parse_pool_stats_csv(fh.read())
        total = sum(s.total_requests for s in stats.values())
        if not self._check(kind, size, stats):
            return None
        if record:
            self.samples[kind].append(elapsed / 1e3 / total)
            self.requests += total
            self.reused += sum(s.reused_objects for s in stats.values())
        return elapsed, total

    def _check(self, kind: str, size: int, stats) -> bool:
        if set(stats) != set(ZONES):
            self.fail(f"{kind}: zones {sorted(map(str, stats))}")
            return False
        got = {z: (s.total_requests, s.real_allocations, s.reused_objects,
                   s.expired_objects, s.pool_size) for z, s in stats.items()}
        if kind == "zone_pressure":
            # c03: one real allocation and a pool of one per zone, all
            # requests accounted for, shares near 0.7/0.2/0.1. The tolerance
            # is six binomial standard deviations.
            ok = sum(g[0] for g in got.values()) == size
            for zone, share in ((ZoneId.GREEN, 0.7), (ZoneId.BLUE, 0.2), (ZoneId.RED, 0.1)):
                total, real, reused, expired, pool = got[zone]
                sigma = math.sqrt(size * share * (1 - share))
                ok &= (real, reused, expired, pool) == (1, total - 1, 0, 1)
                ok &= abs(total - size * share) <= 6 * sigma
        else:
            ok = got == expected_pool_counts(kind, size)
        if not ok:
            self.fail(f"{kind} size {size}: counters {got}")
        return ok

    def run_round(self, k: int) -> tuple[int, int]:
        self.round_id(k)
        kinds = list(ALLOC_SIZES)
        self.rng.shuffle(kinds)
        wall = reqs = 0
        for kind in kinds:
            result = self._call(kind)
            if result is not None:
                wall += result[0]
                reqs += result[1]
        return wall, reqs

    def close(self) -> None:
        if os.path.exists(self.out_path):
            os.remove(self.out_path)

    def series(self) -> dict[str, float]:
        return {f"us_per_req.{k}": median(v) for k, v in self.samples.items()}

    def counters(self) -> dict[str, float]:
        return {"requests": self.requests, "reused": self.reused}


# -- live_set_sweep ----------------------------------------------------------

LIVE_CONFIG = os.path.join(HERE, "live_set.conf")
LIVE_TARGET = 150_000  # about half of the 3 x 100k slots
# Requests of one batch, besides the settling of the previous pause.
BATCH_MIX = (
    ("event", 2000),  # record_event, access or mutation
    ("mark", LIVE_TARGET // 100),  # set_state 010/011 on ~1% of the live set
    ("xmark", LIVE_TARGET // 1000),  # set_state 111, reclaimed by the next sweep
    ("allocate", 500),
    ("promote", 500),
    ("release", 600),
    ("expire", 400),
    ("move", 200),  # expire_and_reallocate into another zone
)
CANDIDATE_CODES = (StateCode.PROMOTE_CANDIDATE, StateCode.DEMOTE_CANDIDATE)


class LiveSet:
    """The benchmark's own view of the live objects, per zone."""

    def __init__(self) -> None:
        self.handles: list[list] = [[], [], []]
        self.pos: dict[int, int] = {}  # slot -> position in its zone's list
        self.by_slot: dict[int, tuple] = {}  # slot -> (handle, zone ordinal)

    def add(self, handle, zi: int) -> None:
        lst = self.handles[zi]
        self.pos[handle.slot_index] = len(lst)
        self.by_slot[handle.slot_index] = (handle, zi)
        lst.append(handle)

    def remove(self, slot: int) -> None:
        _, zi = self.by_slot.pop(slot)
        lst = self.handles[zi]
        i = self.pos.pop(slot)
        last = lst.pop()
        if last.slot_index != slot:
            lst[i] = last
            self.pos[last.slot_index] = i

    def count(self, zi: int) -> int:
        return len(self.handles[zi])

    def fullest(self) -> int:
        r, g, b = map(len, self.handles)
        return (0 if r >= b else 2) if r >= g else (1 if g >= b else 2)

    def emptiest(self) -> int:
        r, g, b = map(len, self.handles)
        return (0 if r <= b else 2) if r <= g else (1 if g <= b else 2)

    def pick(self, r: int):
        """Handle at position r of the whole live set."""
        for lst in self.handles:
            if r < len(lst):
                return lst[r]
            r -= len(lst)
        raise IndexError(r)

    def __len__(self) -> int:
        return len(self.by_slot)


class LiveSetSweep(Workload):
    name = "live_set_sweep"
    # At least 100 pauses, so that 10 fall beyond the 90th percentile.
    min_rounds = 100

    def setup(self) -> None:
        cfg = zconfig.load_config(LIVE_CONFIG)
        self.arena = arena = cfg.build_arena()
        self.table = arena.table
        self.layout = arena.layout
        self.scope = YieldScope(arena, scope_id="live_set")
        self.live = LiveSet()
        self.candidates: set[int] = set()  # slots the benchmark marked 010/011
        self.expired_marks: set[int] = set()  # slots it marked 111
        self.settle_reset: list = []  # candidates the last pause kept
        self.settle_expire: list = []  # slots the last sweep reported reclaimable
        self.batch_us: list[float] = []
        self.pause_ms: list[float] = []
        self.new_handles: list = []
        rng = self.rng
        for _ in range(LIVE_TARGET):
            self._add(rng.random(), rng.random())
        self._check_handles()
        self.table.epoch_sweep()  # discarded: builds the lane masks lazily

    # One request that adds a live object: allocate into the emptiest zone,
    # or promote a persistent (green) or deferred (red or blue) value.
    def _add(self, u: float, v: float):
        arena = self.arena
        if u < 0.5:
            zi = self.live.emptiest()
            zone = ZONES[zi]
            handle = arena.allocate(zone, "live_alloc", size=64.0 * (1 + zi))
        elif u < 0.75:
            zone = ZoneId.GREEN
            handle = self.scope.promote(u, 0b100, site_tag="live_persistent")
        else:
            # Rates summing to 15 straddle the simple policy's red cut of 10:
            # a third of deferred values go to red, the rest to blue.
            f = FeatureVector(access_rate=15.0 * v, mutation_rate=15.0 * (1 - v),
                              size=128.0)
            handle = self.scope.promote(v, 0b101, site_tag="live_deferred", features=f)
            zone = arena.header_of(handle).zone
        self.live.add(handle, zone.ordinal)
        self.new_handles.append((handle, zone))
        return handle

    def _forget(self, slot: int) -> None:
        self.live.remove(slot)
        self.candidates.discard(slot)
        self.expired_marks.discard(slot)

    def _plan(self):
        """Request codes and random draws of one batch, drawn from the seed."""
        rng = self.rng
        ops = []
        for op, n in BATCH_MIX:
            ops.extend([op] * n)
        # Allocate as many extra objects as the settle step expires, so the
        # live set keeps its size.
        ops.extend(["allocate"] * len(self.settle_expire))
        rng.shuffle(ops)
        draws = [(rng.random(), rng.random()) for _ in ops]
        return ops, draws

    def run_round(self, k: int) -> tuple[int, int]:
        self.round_id(k)
        ops, draws = self._plan()
        arena = self.arena
        table = self.table
        live = self.live
        set_state = table.set_state
        record_event = zobjects.record_event
        header_of = arena.header_of
        clock = arena.clock
        candidates = self.candidates
        expired_marks = self.expired_marks
        settle_reset, settle_expire = self.settle_reset, self.settle_expire
        n_req = len(ops) + len(settle_reset) + len(settle_expire)
        failed = 0
        active = StateCode.ACTIVE

        t0 = time.perf_counter_ns()
        # Settle the previous pause: kept candidates go back to active, and
        # reclaimable slots are expired into their pools.
        for handle in settle_reset:
            try:
                set_state(handle.slot_index, active)
                candidates.discard(handle.slot_index)
            except ZonegcError:
                failed += 1
        for handle in settle_expire:
            try:
                arena.expire(handle)
                self._forget(handle.slot_index)
            except ZonegcError:
                failed += 1
        for op, (u, v) in zip(ops, draws):
            try:
                if op == "event":
                    handle = live.pick(int(u * len(live)))
                    kind = EventKind.ACCESS if v < 0.7 else EventKind.MUTATION
                    record_event(header_of(handle), kind, clock.now)
                elif op == "mark":
                    slot = live.pick(int(u * len(live))).slot_index
                    set_state(slot, CANDIDATE_CODES[v < 0.5])
                    expired_marks.discard(slot)
                    candidates.add(slot)
                elif op == "xmark":
                    slot = live.pick(int(u * len(live))).slot_index
                    set_state(slot, StateCode.EXPIRED)
                    candidates.discard(slot)
                    expired_marks.add(slot)
                elif op in ("allocate", "promote"):
                    self._add(u * 0.5 if op == "allocate" else 0.5 + u * 0.5, v)
                else:
                    zi = live.fullest()
                    lst = live.handles[zi]
                    handle = lst[int(u * len(lst))]
                    if op == "release":
                        arena.release(handle)
                        self._forget(handle.slot_index)
                    elif op == "expire":
                        arena.expire(handle)
                        self._forget(handle.slot_index)
                    else:
                        to = ZONES[min((z for z in range(3) if z != zi),
                                       key=live.count)]
                        new = arena.expire_and_reallocate(handle, to)
                        self._forget(handle.slot_index)
                        live.add(new, to.ordinal)
                        self.new_handles.append((new, to))
            except ZonegcError:
                failed += 1
        t1 = time.perf_counter_ns()
        report = arena.run_sweep()
        t2 = time.perf_counter_ns()
        failed += self._check_report(report)
        t3 = time.perf_counter_ns()
        moved = arena.reclassify_candidates(report)
        t4 = time.perf_counter_ns()

        self.attempted += n_req + 1
        self.failed += failed
        self.batch_us.append((t1 - t0) / 1e3 / n_req)
        self.pause_ms.append(((t2 - t1) + (t4 - t3)) / 1e6)
        self._after_pause(report, moved)
        # Collector pauses are charged to the requests of their round.
        return (t2 - t0) + (t4 - t3), n_req

    def _check_report(self, report) -> int:
        """Compare a sweep report with the states the benchmark wrote."""
        bad = 0
        get_state = self.table.get_state
        if report.evaluated != self.table.capacity:
            bad += 1
            self.fail(f"sweep evaluated {report.evaluated}")
        if sorted(report.reclaimed) != sorted(self.expired_marks):
            bad += 1
            self.fail(f"reclaimed {len(report.reclaimed)} != marked {len(self.expired_marks)}")
        if sorted(report.candidates) != sorted(self.candidates):
            bad += 1
            self.fail(f"candidates {len(report.candidates)} != marked {len(self.candidates)}")
        if any(get_state(i) is not StateCode.EXPIRED for i in report.reclaimed):
            bad += 1
            self.fail("a reclaimed slot does not read EXPIRED")
        if any(get_state(i) not in CANDIDATE_CODES for i in report.candidates):
            bad += 1
            self.fail("a candidate slot does not read 010/011")
        return bad

    def _after_pause(self, report, moved) -> None:
        """Untimed bookkeeping: apply the moves, plan the settle step, check
        zones and counters."""
        live = self.live
        if len(moved) > len(report.candidates):
            self.fail("more moves than candidates")
        moved_from = set()
        for old, new in moved:
            moved_from.add(old)
            entry = live.by_slot.get(old)
            if entry is None:  # already counted by _check_report
                continue
            zi = entry[1]
            self._forget(old)
            zone = self.arena.header_of(new).zone
            if zone.ordinal == zi:
                self.fail(f"slot {old} moved within zone {zone}")
            live.add(new, zone.ordinal)
            self.new_handles.append((new, zone))
        # Slots the model does not hold live were already counted as failed
        # by _check_report.
        by_slot = live.by_slot
        self.settle_reset = [by_slot[i][0] for i in report.candidates
                             if i not in moved_from and i in by_slot]
        self.settle_expire = [by_slot[i][0] for i in report.reclaimed if i in by_slot]
        self._check_handles()
        for zone in ZONES:
            s = self.arena.pool_stats(zone)
            if s.total_requests != s.real_allocations + s.reused_objects:
                self.fail(f"zone {zone}: total != real + reused")
            if s.real_allocations - s.pool_size != live.count(zone.ordinal):
                self.fail(f"zone {zone}: {s.real_allocations - s.pool_size} live "
                          f"in the arena, {live.count(zone.ordinal)} in the model")

    def _check_handles(self) -> None:
        zone_of = self.layout.zone_of_index
        for handle, zone in self.new_handles:
            if zone_of(handle.slot_index) is not zone:
                self.fail(f"slot {handle.slot_index} outside zone {zone}")
        self.new_handles.clear()

    def series(self) -> dict[str, float]:
        return {
            "us_per_req.live_set": median(self.batch_us),
            "pause_ms_p50": median(self.pause_ms),
            "pause_ms_p90": p90(self.pause_ms),
            "pauses": len(self.pause_ms),
        }

    def counters(self) -> dict[str, float]:
        reused = sum(self.arena.pool_stats(z).reused_objects for z in ZONES)
        total = sum(self.arena.pool_stats(z).total_requests for z in ZONES)
        return {"requests": total, "reused": reused}


# -- parallel_kernels --------------------------------------------------------

KERNELS = (
    ("loop", 4_000_000, None),
    ("recursion", 40_000, 1000),
    ("matrix", 256, None),
)
PARTITIONS = (1, 2)


def closed_form_checksum(kind: str, size: int, chunk: int | None) -> int:
    """The kernel's 16-bit checksum, computed without running the kernel."""
    if kind == "loop":
        # sum of 31*i + 7 over [0, size)
        return wrap16(31 * size * (size - 1) // 2 + 7 * size)
    if kind == "recursion":
        # size/chunk chains, each summing 13*d - 5 over d = 1..chunk
        chain = 13 * chunk * (chunk + 1) // 2 - 5 * chunk
        return wrap16(size // chunk * chain)
    # matrix: sum over all entries of A @ A, A[r][c] = ((r*n + c) % 17) - 8,
    # is the sum over k of (column k sum) * (row k sum).
    n = size
    col = [0] * n
    row = [0] * n
    for r in range(n):
        base = r * n
        for c in range(n):
            a = (base + c) % 17 - 8
            col[c] += a
            row[r] += a
    return wrap16(sum(col[k] * row[k] for k in range(n)))


class ParallelKernels(Workload):
    name = "parallel_kernels"

    def setup(self) -> None:
        self.cases = [(kind, size, chunk, p) for kind, size, chunk in KERNELS
                      for p in PARTITIONS]
        self.expected = {kind: closed_form_checksum(kind, size, chunk)
                         for kind, size, chunk in KERNELS}
        self.samples: dict[str, list[float]] = {self._key(c): [] for c in self.cases}
        for case in self.cases:  # discarded warm-up call of each case
            self._call(case, record=False)

    @staticmethod
    def _key(case) -> str:
        kind, _, _, p = case
        return f"kernel_ms.{kind}.p{p}"

    def _call(self, case, record: bool = True):
        """One run_bench call; its wall time in ns, or None when a check
        failed. run_bench runs the kernel twice: one discarded warm-up
        attempt and one recorded attempt."""
        kind, size, chunk, p = case
        spec = zbench.WorkloadSpec(kind, size, chunk=chunk, partitions=p, attempts=1)
        t0 = time.perf_counter_ns()
        report = zbench.run_bench(spec)
        elapsed = time.perf_counter_ns() - t0
        self.attempted += 1
        sums = {r.checksum for r in report.records}
        if sums != {self.expected[kind]}:
            self.fail(f"{kind} p{p}: checksums {sums} != {self.expected[kind]}")
            return None
        if record:
            self.samples[self._key(case)].append(elapsed / 2 / 1e6)
        return elapsed

    def run_round(self, k: int) -> tuple[int, int]:
        """A request is one kernel execution."""
        self.round_id(k)
        wall = runs = 0
        for case in self.cases:
            elapsed = self._call(case)
            if elapsed is not None:
                wall += elapsed
                runs += 2
        return wall, runs

    def series(self) -> dict[str, float]:
        return {k: median(v) for k, v in self.samples.items()}


WORKLOADS = {w.name: w for w in (AllocSchedules, LiveSetSweep, ParallelKernels)}
