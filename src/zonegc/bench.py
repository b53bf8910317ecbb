"""Benchmark harness: deterministic kernels, timed attempts, allocation
experiments, and report emission.

Timed kinds (loop, recursion, deep_recursion, matrix) run one discarded
warmup attempt plus `attempts` recorded attempts; each attempt reports wall
time, a 16-bit checksum of the kernel accumulator, and resident memory
before/after. The checksum is the determinism witness: identical across
attempts and across partition counts by construction.

Allocation kinds (alloc_reuse, zone_pressure, zone_imbalance, expiration,
checkpoint_lifecycle) each build a request stream as two arrays, one entry
per request: an int8 zone ordinal and an int8 end code (release or expire,
optionally after one access, or a sweep); each zone has one site tag. One
ZoneArena.serve call serves it, as a planned batch between sweeps: every
object ends before the next request, so each zone reuses one pooled slot.
They report the per-zone pool counters.
"""

from __future__ import annotations

import operator
import statistics
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from .config import DEFAULT_CONFIG, RuntimeConfig
from .errors import DepthLimitError
from .layout import ZONE_ORDER, ZoneId
from .objects import record_event  # noqa: F401  perfbench's tracer wraps bench.record_event
from .ppe import PartitionPlan, make_partitions, run_parallel
from .zones import ACCESS, EXPIRE, RELEASE, SWEEP, PoolStats

_RED, _GREEN, _BLUE = (zone.ordinal for zone in ZONE_ORDER)

TIMED_KINDS = ("loop", "recursion", "deep_recursion", "matrix")
# ALLOC_KINDS, the keys of SCHEDULES, and KINDS are defined with the schedules.

DEFAULT_CHUNK = {"recursion": 1000, "deep_recursion": 4000}
# run_parallel starts one thread per partition, with a large stack for the
# recursion kinds, so the count is bounded before any thread starts.
MAX_PARTITIONS = 64
_WORKER_STACK_BYTES = 64 * 1024 * 1024  # deep chains need room below each frame

ZONE_LABELS = {ZoneId.RED: "Red", ZoneId.GREEN: "Green", ZoneId.BLUE: "Blue"}
# Reports list zones in the order the experiment tables use.
REPORT_ZONE_ORDER = (ZoneId.GREEN, ZoneId.BLUE, ZoneId.RED)
# The columns after the zone: PoolStats' fields, read without astuple's deep copy.
_POOL_COLUMNS = operator.attrgetter(*(f.name for f in fields(PoolStats)))

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
    chain, and only the recursion kinds take one. Only the timed kinds take
    more than one partition: an allocation schedule runs on one thread."""

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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
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
        elif self.chunk is not None:
            raise ValueError(f"chunk applies only to the recursion kinds, not {self.kind}")
        if self.partitions > 1 and self.kind in ALLOC_KINDS:
            raise ValueError(f"partitions apply only to the timed kinds; {self.kind} takes 1")

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


# Indices per loop_partial block: 512 KiB of int64, 1 MiB for a worker's two
# buffers. Chosen by timing the 4M loop at 1 and 2 partitions on a 2-core
# host: 1 << 17 ran p1 slower, and 1 << 15 ran p2 slower, since its workers
# hand the GIL over once per ufunc call and so four times as often.
_LOOP_BLOCK = 1 << 16


def loop_partial(lo: int, hi: int) -> int:
    """Sum of i*31 + 7 over [lo, hi).

    The range is walked in blocks of at most _LOOP_BLOCK indices. Each block
    is filled by a ufunc, which releases the GIL, into one reused buffer,
    scaled and summed in int64, and the block sums are added as Python ints.
    A block sum that leaves int64 wraps modulo 2**64, so the total is exact
    modulo 2**64 at any size, and so is its wrap16 checksum.
    """
    m = min(hi - lo, _LOOP_BLOCK)
    if m <= 0:
        return 0
    offsets = np.arange(m, dtype=np.int64)
    buf = np.empty(m, dtype=np.int64)
    total = 0
    for start in range(lo, hi, m):
        k = min(m, hi - start)
        block = buf[:k]
        np.add(offsets[:k], start, out=block)
        block *= 31
        block += 7
        total += int(block.sum())
    return total


def chain_value(depth: int) -> int:
    """Recursive descent adding depth*13 - 5 at each frame."""
    if depth == 0:
        return 0
    return chain_value(depth - 1) + (depth * 13 - 5)


def matrix_operands(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two deterministic n x n int32 operands, entries in [-8, 8].

    Entry (r, c) is ((r*n + c) mod 17) - 8; both operands use the same
    formula, so the product is fixed by n alone. The index is an int64
    arange, so r*n + c cannot overflow; the entries are cast to int32 after
    `% 17 - 8`, for run_matrix's int32 product.
    """
    flat = (np.arange(n * n, dtype=np.int64) % 17 - 8).astype(np.int32)
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
    cfg = config or DEFAULT_CONFIG
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
    """n x n integer product, output rows split across workers.

    Each worker forms its row block of A @ B with np.einsum on the int32
    operands and sums the block in int64. This is exact: every entry lies in
    [-8, 8], so every partial dot product is below 64*n in magnitude and fits
    int32 for every n below 2**31 / 64 (about 33.5M), far beyond any operand
    that can be allocated (n*n entries). A block sum is at most 64*n**3 in
    magnitude, within int64 below n = 2**19, where each operand already
    takes 1 TiB. numpy has no BLAS for integers: int64 `@` runs an
    unvectorised loop, while einsum's int32 sum of products is SIMD and
    starts no thread pool beside the workers.
    """
    if spec.kind != "matrix":
        raise ValueError(f"run_matrix got kind {spec.kind!r}")
    n = spec.size
    a, b = matrix_operands(n)
    plan = make_partitions(n, spec.partitions)

    def kernel(lo: int, hi: int) -> int:
        return int(np.einsum("ij,jk->ik", a[lo:hi], b).sum(dtype=np.int64))

    return _timed_run(spec, plan, kernel)


# -- allocation experiments -------------------------------------------------


def _per_zone(n: int, green: int, blue: int, red: int) -> tuple:
    """n green requests, then n blue, then n red, ending by the given codes."""
    return (np.repeat(np.array([_GREEN, _BLUE, _RED], np.int8), n),
            np.repeat(np.array([green, blue, red], np.int8), n))


def _alloc_reuse(spec: WorkloadSpec, cfg: RuntimeConfig) -> tuple:
    n = spec.size
    return (np.full(n, _GREEN, np.int8), np.full(n, RELEASE, np.int8),
            (None, "hot_loop", None))


def _zone_pressure(spec: WorkloadSpec, cfg: RuntimeConfig) -> tuple:
    u = np.random.default_rng(spec.seed).random(spec.size)
    zones = np.full(spec.size, _RED, np.int8)
    zones[u < 0.9] = _BLUE
    zones[u < 0.7] = _GREEN
    return (zones, np.full(spec.size, RELEASE, np.int8),
            ("pressure_red", "pressure_green", "pressure_blue"))


def _zone_imbalance(spec: WorkloadSpec, cfg: RuntimeConfig) -> tuple:
    block = np.repeat(np.array([_GREEN, _BLUE, _RED], np.int8), (90, 9, 1))
    return (np.resize(block, spec.size), np.full(spec.size, RELEASE, np.int8),
            ("imbalance_red", "imbalance_green", "imbalance_blue"))


def _expiration(spec: WorkloadSpec, cfg: RuntimeConfig) -> tuple:
    """Use-count TTL per zone: red 1, blue 2, green the whole run.

    Every request is one use, recorded as an access before the object ends.
    Red expires after each use and blue after every second; green's last
    request expires at teardown, so its counter shows exactly one expiry.
    """
    n = spec.size
    zones, ends = _per_zone(n, ACCESS | RELEASE, ACCESS | RELEASE, ACCESS | RELEASE)
    for zone_ends, ttl in ((ends[:n], n or 1), (ends[n:2 * n], 2), (ends[2 * n:], 1)):
        zone_ends[ttl - 1::ttl] |= EXPIRE
    return zones, ends, ("expiry_red", "expiry_green", "expiry_blue")


def _checkpoint_lifecycle(spec: WorkloadSpec, cfg: RuntimeConfig) -> tuple:
    """Sweep-driven expiry: green pinned, blue dies at sweeps, red per use.

    Each green request pins its object persistent and releases it. The
    release overwrites the pin before anything reads it, so the stream
    records a plain release. Every sweep_interval-th blue object is marked
    expired at a sweep boundary, and reclaimed because the sweep reports it.
    """
    n, k = spec.size, cfg.sweep_interval
    zones, ends = _per_zone(n, RELEASE, RELEASE, EXPIRE)
    ends[n:2 * n][k - 1::k] = SWEEP
    return zones, ends, ("per_use_red", "pinned_green", "swept_blue")


# kind -> (schedule note, stream builder). A note may name the sweep
# interval as {interval}. A builder returns what ZoneArena.serve takes: the
# kind's requests in order, as zone and end arrays, and the site tags of red,
# green and blue.
SCHEDULES = {
    "alloc_reuse": ("sequential acquire/release cycles on one green site", _alloc_reuse),
    "zone_pressure": ("seeded zone draws with probabilities green 0.7, blue 0.2, red 0.1",
                      _zone_pressure),
    "zone_imbalance": ("repeating request block of 90 green, 9 blue, 1 red",
                       _zone_imbalance),
    "expiration": ("per-use TTL: blue every 2nd use, red every use, green only at teardown",
                   _expiration),
    "checkpoint_lifecycle": ("sweep every {interval} requests; blue expires at sweep "
                             "boundaries, red per use, green pinned persistent",
                             _checkpoint_lifecycle),
}
ALLOC_KINDS = tuple(SCHEDULES)
KINDS = TIMED_KINDS + ALLOC_KINDS


def run_alloc_experiments(spec: WorkloadSpec,
                          config: RuntimeConfig | None = None
                          ) -> dict[ZoneId, PoolStats]:
    """Serve the request stream of spec.kind on a new arena.

    size counts total requests for alloc_reuse, zone_pressure and
    zone_imbalance, and requests per zone for expiration and
    checkpoint_lifecycle.
    """
    if spec.kind not in ALLOC_KINDS:
        raise ValueError(f"run_alloc_experiments got kind {spec.kind!r}")
    cfg = config or DEFAULT_CONFIG
    arena = cfg.build_arena()
    arena.serve(*SCHEDULES[spec.kind][1](spec, cfg))
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


def _table(fmt: str, title: str | None, header, rows) -> str:
    """The one writer of the report syntax: an optional title line, then the
    header and the rows of cells.

    CSV joins cells with commas. Markdown puts a blank line after the title
    and writes `| a | b |` rows, with a `| --- |` rule under the header.
    fmt is checked before `rows` is read, so a generator of rows makes its
    lookups only for a known format.
    """
    if fmt == "csv":
        lines = [",".join(cells) for cells in (header, *rows)]
    elif fmt == "markdown":
        lines = ["", *(f"| {' | '.join(cells)} |"
                       for cells in (header, ["---"] * len(header), *rows))]
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return "\n".join(lines if title is None else [title, *lines])


def emit_report(report: BenchReport, fmt: str = "csv") -> str:
    """Attempt table plus mean/stddev footer.

    CSV uses lossless float repr so parse(emit(r)) gives the numbers back
    exactly, and leaves a missing figure empty; markdown rounds for reading
    and shows n/a. The CSV stddev row appears only when it is defined (two or
    more attempts).
    """
    csv = fmt == "csv"

    def num(value, spec: str = ".6f") -> str:
        # format(x, "") of a float is its repr.
        if value is None:
            return "" if csv else "n/a"
        return format(value, "" if csv else spec)

    rows = [[str(r.attempt), num(r.time_ms), str(r.checksum), num(r.mem_before_kb, ""),
             num(r.mem_after_kb, ""), num(r.delta_kb, "")] for r in report.records]
    rows.append(["mean" if csv else "Mean", num(report.mean_time_ms), "", "", "",
                 num(report.mean_delta_kb, ".1f")])
    if report.stddev_defined or not csv:
        stddev = report.stddev_time_ms if report.stddev_defined else None
        rows.append(["stddev" if csv else "StdDev", num(stddev), "", "", "", ""])
    if csv:
        return _table(fmt, None, ("attempt", "time_ms", "checksum", "mem_before_kb",
                                  "mem_after_kb", "delta_kb"), rows)
    spec = report.spec
    title = f"{spec.kind} size={spec.size} partitions={spec.partitions}"
    if spec.kind in DEFAULT_CHUNK:
        title += f" chunk={spec.effective_chunk}"
    return _table(fmt, title, ("Attempt", "Time (ms)", "Checksum", "MemBefore (KB)",
                               "MemAfter (KB)", "Delta (KB)"), rows)


def schedule_note(kind: str, config: RuntimeConfig | None = None) -> str:
    return SCHEDULES[kind][0].format(interval=(config or DEFAULT_CONFIG).sweep_interval)


def emit_pool_stats(stats: dict[ZoneId, PoolStats], fmt: str = "csv", *,
                    kind: str, config: RuntimeConfig | None = None) -> str:
    """Per-zone counter table with the driving schedule stated up front."""
    note = schedule_note(kind, config)
    if fmt == "csv":
        title, label, num = f"# workload={kind} schedule={note}", str, str
        header = ("zone", "total_requests", "real_allocations", "reused_objects",
                  "expired_objects", "pool_size")
    else:
        title, label, num = f"{kind}: {note}", ZONE_LABELS.get, "{:,}".format
        header = ("Zone", "Total Requests", "Real Allocations", "Reused Objects",
                  "Expired Objects", "Pool Size")
    rows = ([label(zone), *map(num, _POOL_COLUMNS(stats[zone]))] for zone in REPORT_ZONE_ORDER)
    return _table(fmt, title, header, rows)


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
