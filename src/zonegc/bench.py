"""Benchmark harness: deterministic kernels, timed attempts, allocation
experiments, and report emission.

Timed kinds (loop, recursion, deep_recursion, matrix) run one discarded
warmup attempt plus `attempts` recorded attempts; each attempt reports wall
time, a 16-bit checksum of the kernel accumulator, and resident memory
before/after. The checksum is the determinism witness: identical across
attempts and across partition counts by construction.

Allocation kinds (alloc_reuse, zone_pressure, zone_imbalance, expiration,
checkpoint_lifecycle) drive the arena with a scripted schedule and report the
per-zone pool counters.
"""

from __future__ import annotations

import operator
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from .checkpoint import Signals, StateCode, step_state
from .config import RuntimeConfig
from .errors import DepthLimitError
from .layout import ZoneId
from .objects import EventKind, record_event
from .ppe import PartitionPlan, make_partitions, run_parallel
from .zones import PoolStats, ZoneArena

TIMED_KINDS = ("loop", "recursion", "deep_recursion", "matrix")
ALLOC_KINDS = (
    "alloc_reuse",
    "zone_pressure",
    "zone_imbalance",
    "expiration",
    "checkpoint_lifecycle",
)
KINDS = TIMED_KINDS + ALLOC_KINDS

DEFAULT_CHUNK = {"recursion": 1000, "deep_recursion": 4000}
# run_parallel starts one thread per partition, with a large stack for the
# recursion kinds, so the count is bounded before any thread starts.
MAX_PARTITIONS = 64
_WORKER_STACK_BYTES = 64 * 1024 * 1024  # deep chains need room below each frame

ZONE_LABELS = {ZoneId.RED: "Red", ZoneId.GREEN: "Green", ZoneId.BLUE: "Blue"}
# Reports list zones in the order the experiment tables use.
REPORT_ZONE_ORDER = (ZoneId.GREEN, ZoneId.BLUE, ZoneId.RED)

SCHEDULE_NOTES = {
    "alloc_reuse": "sequential acquire/release cycles on one green site",
    "zone_pressure": "seeded zone draws with probabilities green 0.7, blue 0.2, red 0.1",
    "zone_imbalance": "repeating request block of 90 green, 9 blue, 1 red",
    "expiration": "per-use TTL: blue every 2nd use, red every use, green only at teardown",
    "checkpoint_lifecycle": (
        "sweep every {interval} requests; blue expires at sweep boundaries, "
        "red per use, green pinned persistent"
    ),
}


def wrap16(value: int) -> int:
    """Wrap an integer accumulator to 16-bit two's complement."""
    return ((value + 0x8000) & 0xFFFF) - 0x8000


def measure_memory() -> int | None:
    """Current resident set size in KB, or None where the probe is missing."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark invocation. size means iterations, logical steps, matrix
    dimension, or requests depending on kind; chunk is the recursion depth per
    chain for the recursion kinds."""

    kind: str
    size: int
    chunk: int | None = None
    partitions: int = 1
    attempts: int = 5
    seed: int = 42

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown workload kind {self.kind!r}")
        if self.size < 0:
            raise ValueError("size must be >= 0")
        if not 1 <= self.partitions <= MAX_PARTITIONS:
            raise ValueError(f"partitions must be in 1..{MAX_PARTITIONS}")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.chunk is not None and self.chunk < 1:
            raise ValueError("chunk must be >= 1")
        if self.kind in DEFAULT_CHUNK:
            chunk = self.effective_chunk
            if self.size % chunk:
                raise ValueError(
                    f"chunk {chunk} must divide size {self.size} for {self.kind}"
                )

    @property
    def effective_chunk(self) -> int:
        return self.chunk or DEFAULT_CHUNK.get(self.kind, 1)


@dataclass(frozen=True)
class AttemptRecord:
    attempt: int
    time_ms: float
    checksum: int
    mem_before_kb: int | None
    mem_after_kb: int | None
    delta_kb: int | None

    def __post_init__(self) -> None:
        if (
            self.mem_before_kb is not None
            and self.mem_after_kb is not None
            and self.delta_kb != self.mem_after_kb - self.mem_before_kb
        ):
            raise ValueError("delta_kb must equal mem_after_kb - mem_before_kb")


@dataclass(frozen=True)
class BenchReport:
    spec: WorkloadSpec
    records: tuple[AttemptRecord, ...]
    mean_time_ms: float
    stddev_time_ms: float
    mean_delta_kb: float | None
    stddev_defined: bool


def summarize(spec: WorkloadSpec, records: list[AttemptRecord]) -> BenchReport:
    """Mean and sample (n-1) standard deviation over the recorded attempts.

    A single record leaves the deviation undefined; it is reported as 0 with
    stddev_defined cleared.
    """
    if not records:
        raise ValueError("cannot summarize zero attempts")
    times = [r.time_ms for r in records]
    defined = len(times) >= 2
    deltas = [r.delta_kb for r in records if r.delta_kb is not None]
    return BenchReport(
        spec=spec,
        records=tuple(records),
        mean_time_ms=statistics.mean(times),
        stddev_time_ms=statistics.stdev(times) if defined else 0.0,
        mean_delta_kb=statistics.mean(deltas) if deltas else None,
        stddev_defined=defined,
    )


# -- kernels ----------------------------------------------------------------


def loop_partial(lo: int, hi: int) -> int:
    """Sum of i*31 + 7 over [lo, hi)."""
    arr = np.arange(lo, hi, dtype=np.int64)
    arr *= 31
    arr += 7
    return int(arr.sum())


def chain_value(depth: int) -> int:
    """Recursive descent adding depth*13 - 5 at each frame."""
    if depth == 0:
        return 0
    return chain_value(depth - 1) + (depth * 13 - 5)


def matrix_operands(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two deterministic n x n integer operands, entries in [-8, 8].

    Entry (r, c) is ((r*n + c) mod 17) - 8; both operands use the same
    formula, so the product is fixed by n alone.
    """
    flat = np.arange(n * n, dtype=np.int64) % 17 - 8
    a = flat.reshape(n, n)
    return a, a.copy()


# -- timed workloads --------------------------------------------------------


def _timed_run(spec: WorkloadSpec, plan: PartitionPlan, kernel,
               stack_bytes: int | None = None) -> BenchReport:
    records = []
    for attempt in range(spec.attempts + 1):  # attempt 0 is discarded warmup
        mem_before = measure_memory()
        t0 = time.perf_counter_ns()
        total = run_parallel(plan, kernel, operator.add, 0, stack_bytes=stack_bytes)
        elapsed_ms = (time.perf_counter_ns() - t0) / 1e6
        mem_after = measure_memory()
        if attempt == 0:
            continue
        delta = (
            mem_after - mem_before
            if mem_before is not None and mem_after is not None
            else None
        )
        records.append(
            AttemptRecord(attempt, elapsed_ms, wrap16(total), mem_before,
                          mem_after, delta)
        )
    return summarize(spec, records)


def run_loop(spec: WorkloadSpec, config: RuntimeConfig | None = None) -> BenchReport:
    if spec.kind != "loop":
        raise ValueError(f"run_loop got kind {spec.kind!r}")
    plan = make_partitions(spec.size, spec.partitions)
    return _timed_run(spec, plan, loop_partial)


def run_recursion(spec: WorkloadSpec, config: RuntimeConfig | None = None) -> BenchReport:
    """size logical steps as size/chunk chains, chains split across workers."""
    if spec.kind not in ("recursion", "deep_recursion"):
        raise ValueError(f"run_recursion got kind {spec.kind!r}")
    cfg = config or RuntimeConfig()
    chunk = spec.effective_chunk
    if chunk > cfg.max_recursion_depth:
        raise DepthLimitError(
            f"chunk {chunk} exceeds safe recursion depth {cfg.max_recursion_depth}"
        )
    chains = spec.size // chunk
    plan = make_partitions(chains, spec.partitions)

    def kernel(lo: int, hi: int) -> int:
        total = 0
        for _ in range(lo, hi):
            total += chain_value(chunk)
        return total

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, chunk + 1000))
    try:
        return _timed_run(spec, plan, kernel, stack_bytes=_WORKER_STACK_BYTES)
    finally:
        sys.setrecursionlimit(old_limit)


def run_matrix(spec: WorkloadSpec, config: RuntimeConfig | None = None) -> BenchReport:
    """n x n integer product, output rows split across workers."""
    if spec.kind != "matrix":
        raise ValueError(f"run_matrix got kind {spec.kind!r}")
    n = spec.size
    a, b = matrix_operands(n)
    plan = make_partitions(n, spec.partitions)

    def kernel(lo: int, hi: int) -> int:
        if lo == hi:
            return 0
        return int((a[lo:hi] @ b).sum())

    return _timed_run(spec, plan, kernel)


# -- allocation experiments -------------------------------------------------


def _schedule_alloc_reuse(arena: ZoneArena, size: int) -> None:
    allocate = arena.allocate
    release = arena.release
    green = ZoneId.GREEN
    for _ in range(size):
        release(allocate(green, "hot_loop"))


def _schedule_zone_pressure(arena: ZoneArena, size: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    u = rng.random(size)
    codes = np.where(u < 0.7, 0, np.where(u < 0.9, 1, 2)).tolist()
    del u
    zones = (ZoneId.GREEN, ZoneId.BLUE, ZoneId.RED)
    sites = ("pressure_green", "pressure_blue", "pressure_red")
    allocate = arena.allocate
    release = arena.release
    for code in codes:
        release(allocate(zones[code], sites[code]))


def _schedule_zone_imbalance(arena: ZoneArena, size: int) -> None:
    allocate = arena.allocate
    release = arena.release
    green, blue, red = ZoneId.GREEN, ZoneId.BLUE, ZoneId.RED
    for i in range(size):
        slot = i % 100
        if slot < 90:
            release(allocate(green, "imbalance_green"))
        elif slot < 99:
            release(allocate(blue, "imbalance_blue"))
        else:
            release(allocate(red, "imbalance_red"))


def _schedule_expiration(arena: ZoneArena, per_zone: int) -> None:
    """Use-count TTL per zone: red 1, blue 2, green unbounded.

    Every request is one use. Red expires after each use, blue after every
    second, green never during the run; its final object expires once at
    teardown so the counter shows exactly one expiry.
    """
    plans = (
        (ZoneId.GREEN, "expiry_green", 0),
        (ZoneId.BLUE, "expiry_blue", 2),
        (ZoneId.RED, "expiry_red", 1),
    )
    allocate = arena.allocate
    release = arena.release
    expire = arena.expire
    clock = arena.clock
    access = EventKind.ACCESS  # an enum member lookup costs ~150 ns per request
    for zone, site, ttl in plans:
        for k in range(1, per_zone + 1):
            handle = allocate(zone, site)
            record_event(handle, access, clock.now)
            if (ttl and k % ttl == 0) or (not ttl and k == per_zone):
                expire(handle)
            else:
                release(handle)


def _schedule_checkpoint_lifecycle(arena: ZoneArena, per_zone: int,
                                   interval: int) -> None:
    """Sweep-driven expiry: green pinned, blue dies at sweeps, red per use."""
    allocate = arena.allocate
    release = arena.release
    expire = arena.expire
    set_state = arena.table.set_state
    # Enum members looked up once, not per request.
    green, blue, red = ZoneId.GREEN, ZoneId.BLUE, ZoneId.RED
    expired = StateCode.EXPIRED
    # Pin transition computed once; the signal set is identical per request.
    pinned, _ = step_state(StateCode.ACTIVE, Signals(persistent=True))
    for k in range(per_zone):
        handle = allocate(green, "pinned_green")
        set_state(handle.slot_index, pinned)
        release(handle)
    for k in range(1, per_zone + 1):
        handle = allocate(blue, "swept_blue")
        if k % interval == 0:
            # Blue dies at the boundary: marked expired, it is reclaimed
            # because the sweep reports it.
            set_state(handle.slot_index, expired)
            live = {handle.slot_index: handle}
            for idx in arena.run_sweep().reclaimed:
                expire(live[idx])
        else:
            release(handle)
    for k in range(per_zone):
        handle = allocate(red, "per_use_red")
        expire(handle)


def run_alloc_experiments(spec: WorkloadSpec,
                          config: RuntimeConfig | None = None
                          ) -> dict[ZoneId, PoolStats]:
    """Drive the arena with the scripted schedule for spec.kind.

    size counts total requests for alloc_reuse, zone_pressure and
    zone_imbalance, and requests per zone for expiration and
    checkpoint_lifecycle.
    """
    if spec.kind not in ALLOC_KINDS:
        raise ValueError(f"run_alloc_experiments got kind {spec.kind!r}")
    cfg = config or RuntimeConfig()
    arena = cfg.build_arena()
    if spec.kind == "alloc_reuse":
        _schedule_alloc_reuse(arena, spec.size)
    elif spec.kind == "zone_pressure":
        _schedule_zone_pressure(arena, spec.size, spec.seed)
    elif spec.kind == "zone_imbalance":
        _schedule_zone_imbalance(arena, spec.size)
    elif spec.kind == "expiration":
        _schedule_expiration(arena, spec.size)
    else:
        _schedule_checkpoint_lifecycle(arena, spec.size, cfg.sweep_interval)
    return {zone: arena.pool_stats(zone) for zone in REPORT_ZONE_ORDER}


def run_bench(spec: WorkloadSpec, config: RuntimeConfig | None = None):
    """Dispatch on kind; BenchReport for timed kinds, stats dict otherwise."""
    if spec.kind == "loop":
        return run_loop(spec, config)
    if spec.kind in ("recursion", "deep_recursion"):
        return run_recursion(spec, config)
    if spec.kind == "matrix":
        return run_matrix(spec, config)
    return run_alloc_experiments(spec, config)


# -- report emission --------------------------------------------------------


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def emit_report(report: BenchReport, fmt: str = "csv") -> str:
    """Attempt table plus mean/stddev footer.

    CSV uses lossless float repr so parse(emit(r)) gives the numbers back
    exactly; markdown rounds for reading. The stddev row appears only when it
    is defined (two or more attempts).
    """
    if fmt == "csv":
        lines = ["attempt,time_ms,checksum,mem_before_kb,mem_after_kb,delta_kb"]
        for r in report.records:
            lines.append(
                ",".join(
                    _csv_cell(v)
                    for v in (r.attempt, r.time_ms, r.checksum,
                              r.mem_before_kb, r.mem_after_kb, r.delta_kb)
                )
            )
        lines.append(
            f"mean,{_csv_cell(report.mean_time_ms)},,,,"
            f"{_csv_cell(report.mean_delta_kb)}"
        )
        if report.stddev_defined:
            lines.append(f"stddev,{_csv_cell(report.stddev_time_ms)},,,,")
        return "\n".join(lines)
    if fmt == "markdown":
        def cell(v, num_fmt="{}"):
            return "n/a" if v is None else num_fmt.format(v)

        spec = report.spec
        title = f"{spec.kind} size={spec.size} partitions={spec.partitions}"
        if spec.kind in DEFAULT_CHUNK:
            title += f" chunk={spec.effective_chunk}"
        lines = [
            title,
            "",
            "| Attempt | Time (ms) | Checksum | MemBefore (KB) | MemAfter (KB) | Delta (KB) |",
            "| --- | --- | --- | --- | --- | --- |",
        ]
        for r in report.records:
            lines.append(
                f"| {r.attempt} | {r.time_ms:.6f} | {r.checksum} "
                f"| {cell(r.mem_before_kb)} | {cell(r.mem_after_kb)} "
                f"| {cell(r.delta_kb)} |"
            )
        lines.append(
            f"| Mean | {report.mean_time_ms:.6f} |  |  |  "
            f"| {cell(report.mean_delta_kb, '{:.1f}')} |"
        )
        stddev = f"{report.stddev_time_ms:.6f}" if report.stddev_defined else "n/a"
        lines.append(f"| StdDev | {stddev} |  |  |  |  |")
        return "\n".join(lines)
    raise ValueError(f"unknown report format {fmt!r}")


def parse_report_csv(text: str) -> dict:
    """Inverse of emit_report(fmt='csv') for the numeric fields."""

    def parse_cell(cell: str, caster):
        return None if cell == "" else caster(cell)

    records = []
    mean_time = stddev_time = mean_delta = None
    lines = [line for line in text.splitlines() if line.strip()]
    for line in lines[1:]:
        cells = line.split(",")
        if cells[0] == "mean":
            mean_time = parse_cell(cells[1], float)
            mean_delta = parse_cell(cells[5], float)
        elif cells[0] == "stddev":
            stddev_time = parse_cell(cells[1], float)
        else:
            records.append(
                AttemptRecord(
                    attempt=int(cells[0]),
                    time_ms=float(cells[1]),
                    checksum=int(cells[2]),
                    mem_before_kb=parse_cell(cells[3], int),
                    mem_after_kb=parse_cell(cells[4], int),
                    delta_kb=parse_cell(cells[5], int),
                )
            )
    return {
        "records": records,
        "mean_time_ms": mean_time,
        "stddev_time_ms": stddev_time,
        "mean_delta_kb": mean_delta,
    }


def schedule_note(kind: str, config: RuntimeConfig | None = None) -> str:
    note = SCHEDULE_NOTES[kind]
    if kind == "checkpoint_lifecycle":
        cfg = config or RuntimeConfig()
        note = note.format(interval=cfg.sweep_interval)
    return note


def emit_pool_stats(stats: dict[ZoneId, PoolStats], fmt: str = "csv", *,
                    kind: str, config: RuntimeConfig | None = None) -> str:
    """Per-zone counter table with the driving schedule stated up front."""
    note = schedule_note(kind, config)
    if fmt == "csv":
        lines = [
            f"# workload={kind} schedule={note}",
            "zone,total_requests,real_allocations,reused_objects,"
            "expired_objects,pool_size",
        ]
        for zone in REPORT_ZONE_ORDER:
            s = stats[zone]
            lines.append(
                f"{zone},{s.total_requests},{s.real_allocations},"
                f"{s.reused_objects},{s.expired_objects},{s.pool_size}"
            )
        return "\n".join(lines)
    if fmt == "markdown":
        lines = [
            f"{kind}: {note}",
            "",
            "| Zone | Total Requests | Real Allocations | Reused Objects "
            "| Expired Objects | Pool Size |",
            "| --- | --- | --- | --- | --- | --- |",
        ]
        for zone in REPORT_ZONE_ORDER:
            s = stats[zone]
            lines.append(
                f"| {ZONE_LABELS[zone]} | {s.total_requests:,} "
                f"| {s.real_allocations:,} | {s.reused_objects:,} "
                f"| {s.expired_objects:,} | {s.pool_size:,} |"
            )
        return "\n".join(lines)
    raise ValueError(f"unknown report format {fmt!r}")


def parse_pool_stats_csv(text: str) -> dict[ZoneId, PoolStats]:
    stats = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("zone,"):
            continue
        cells = line.split(",")
        zone = ZoneId(cells[0])
        stats[zone] = PoolStats(*(int(c) for c in cells[1:]))
    return stats
