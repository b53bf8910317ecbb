"""Benchmark harness: deterministic kernels, timed attempts, allocation
experiments, and report emission.

Timed kinds (loop, recursion, deep_recursion, matrix) run one untimed
warm-up, then `attempts` recorded attempts; each reports wall time, a 16-bit
checksum of the kernel accumulator, and resident memory before/after. The
checksum is the determinism witness: identical across attempts and across
partition counts by construction. matrix_operand says why the matrix
kind's float32 product is exact.

Allocation kinds (alloc_reuse, zone_pressure, zone_imbalance, expiration,
checkpoint_lifecycle) each build a request stream as two arrays, one entry
per request: an int8 zone ordinal and an int8 end code (release or expire,
optionally after one access, or a sweep); each zone has one site tag. One
ZoneArena.serve call serves it in one pass, by the shortcut its docstring
gives. They report the per-zone pool counters.
"""

from __future__ import annotations

import operator
import os
import statistics
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from .config import DEFAULT_CONFIG, RuntimeConfig
from .errors import DepthLimitError
from .layout import ZoneId
from .objects import record_event  # noqa: F401  perfbench's tracer wraps bench.record_event
from .ppe import make_partitions, run_parallel
from .zones import ACCESS, BLUE, EXPIRE, GREEN, RED, RELEASE, SWEEP, PoolStats

TIMED_KINDS = ("loop", "recursion", "deep_recursion", "matrix")
# ALLOC_KINDS, the keys of SCHEDULES, and KINDS are defined with the schedules.

# The recursion kinds, each with its default chunk.
DEFAULT_CHUNK = {"recursion": 1000, "deep_recursion": 4000}
# run_parallel starts one thread per partition, with a large stack for the
# recursion kinds, so the count is bounded before any thread starts.
MAX_PARTITIONS = 64
# The largest matrix dimension whose float32 product is exact (matrix_operand).
MAX_MATRIX_SIZE = 1 << 18
# The largest allocation-kind size whose request stream, of at most 3 x size
# requests (one size per zone in expiration and checkpoint_lifecycle), numpy
# can still index.
MAX_ALLOC_SIZE = np.iinfo(np.intp).max // 3
_WORKER_STACK_BYTES = 64 * 1024 * 1024  # deep chains need room below each frame
MAX_CHUNK = 32000  # the deepest chain, the chunk, that a worker's stack runs

# Reports list zones in the order the experiment tables use.
REPORT_ZONE_ORDER = (ZoneId.GREEN, ZoneId.BLUE, ZoneId.RED)
# The pool table's columns after the zone are PoolStats' fields, read without
# astuple's deep copy. Its headers name them, title-cased in markdown.
_POOL_CSV_HEADER = ("zone", *(f.name for f in fields(PoolStats)))
_POOL_MARKDOWN_HEADER = tuple(name.replace("_", " ").title() for name in _POOL_CSV_HEADER)
_POOL_COLUMNS = operator.attrgetter(*_POOL_CSV_HEADER[1:])

def wrap16(value: int) -> int:
    """Wrap an integer accumulator to 16-bit two's complement."""
    return ((value + 0x8000) & 0xFFFF) - 0x8000


def measure_memory() -> int | None:
    """Current resident set size in KB, or None where the probe is missing:
    the VmRSS of /proc/self/status, read as statm's resident page count."""
    try:
        with open("/proc/self/statm", "rb", buffering=0) as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark invocation. size means iterations, logical steps, matrix
    dimension, or requests depending on kind; chunk is the recursion depth per
    chain, which only the recursion kinds take: DEFAULT_CHUNK if omitted. Only
    the timed kinds take more than one partition: an allocation schedule runs
    on one thread."""

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
            if self.chunk is None:
                object.__setattr__(self, "chunk", DEFAULT_CHUNK[self.kind])
            if self.chunk > MAX_CHUNK:
                raise DepthLimitError(
                    f"chunk {self.chunk} exceeds safe recursion depth {MAX_CHUNK}")
            if self.size % self.chunk:
                raise ValueError(
                    f"chunk {self.chunk} must divide size {self.size} for {self.kind}"
                )
        elif self.chunk is not None:
            raise ValueError(f"chunk applies only to the recursion kinds, not {self.kind}")
        if self.kind == "matrix" and self.size > MAX_MATRIX_SIZE:
            raise ValueError(f"matrix size must be <= {MAX_MATRIX_SIZE} for an exact product")
        if self.kind in ALLOC_KINDS:
            if self.partitions > 1:
                raise ValueError(f"partitions apply only to the timed kinds; {self.kind} takes 1")
            if self.size > MAX_ALLOC_SIZE:
                raise ValueError(f"size must be <= {MAX_ALLOC_SIZE} for an allocation kind, "
                                 "whose stream holds up to 3 x size requests")


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


_ATTEMPT_CSV_HEADER = tuple(f.name for f in fields(AttemptRecord))


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
# host: of 1 << 14 to 1 << 18, 1 << 16 ran fastest at both. A smaller block
# makes more ufunc calls, two per block, and at p2 each call hands the GIL
# over; a larger block ran slower at p1 and p2 alike.
_LOOP_BLOCK = 1 << 16


def loop_partial(lo: int, hi: int) -> int:
    """Sum of i*31 + 7 over [lo, hi).

    The range is walked in blocks of at most _LOOP_BLOCK indices. The steps
    31*j of a block's offsets j are computed once per call; each block then
    makes two ufunc calls, which release the GIL: one adds the block's base
    31*start + 7 to the steps, writing the block's values into one reused
    buffer, and one sums them in int64. The block sums are added as Python
    ints. The base is reduced modulo 2**64 into int64 range, and a block sum
    that leaves int64 wraps modulo 2**64, so the total is exact modulo 2**64
    at any size, and so is its wrap16 checksum.
    """
    m = min(hi - lo, _LOOP_BLOCK)
    if m <= 0:
        return 0
    steps = np.arange(0, 31 * m, 31, dtype=np.int64)
    buf = np.empty(m, dtype=np.int64)
    total = 0
    for start in range(lo, hi, m):
        k = min(m, hi - start)
        block = buf[:k]
        base = (31 * start + 7 + 2**63) % 2**64 - 2**63
        np.add(steps[:k], base, out=block)
        total += int(block.sum())
    return total


def chain_value(depth: int) -> int:
    """Recursive descent adding depth*13 - 5 at each frame."""
    if depth == 0:
        return 0
    return chain_value(depth - 1) + (depth * 13 - 5)


def matrix_operand(n: int) -> np.ndarray:
    """The deterministic n x n float32 matrix A, entries in [-8, 8], whose
    square run_matrix sums.

    Entry (r, c) is ((r*n + c) mod 17) - 8, so the product is fixed by n
    alone. The residues are formed in int8 from r*n mod 17 and c mod 17, so
    no n x n index array is built, and cast to float32. The product A @ A is
    exact in float32: every partial dot product of these entries is an
    integer of magnitude at most 64*n <= 2**24 for n <= MAX_MATRIX_SIZE
    (2**18), and float32 holds every integer up to 2**24 exactly;
    WorkloadSpec rejects a larger n. A row block's sum is at most
    64*n**3 <= 2**60 in magnitude, within int64.
    """
    idx = np.arange(n, dtype=np.int64)
    residues = np.add.outer((idx * n % 17).astype(np.int8), (idx % 17).astype(np.int8))
    residues %= 17
    residues -= 8
    return residues.astype(np.float32)


# -- timed workloads --------------------------------------------------------


def _timed_run(spec: WorkloadSpec, ranges: tuple[tuple[int, int], ...], kernel,
               stack_bytes: int | None = None) -> BenchReport:
    run_parallel(ranges, kernel, stack_bytes=stack_bytes)  # the warm-up, discarded
    records = []
    for attempt in range(1, spec.attempts + 1):
        mem_before = measure_memory()
        t0 = time.perf_counter_ns()
        total = sum(run_parallel(ranges, kernel, stack_bytes=stack_bytes))
        elapsed_ms = (time.perf_counter_ns() - t0) / 1e6
        mem_after = measure_memory()
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


def run_loop(spec: WorkloadSpec) -> BenchReport:
    if spec.kind != "loop":
        raise ValueError(f"run_loop got kind {spec.kind!r}")
    return _timed_run(spec, make_partitions(spec.size, spec.partitions), loop_partial)


def run_recursion(spec: WorkloadSpec) -> BenchReport:
    """size logical steps as size/chunk chains, chains split across workers."""
    if spec.kind not in DEFAULT_CHUNK:
        raise ValueError(f"run_recursion got kind {spec.kind!r}")
    chunk = spec.chunk
    chains = spec.size // chunk
    ranges = make_partitions(chains, spec.partitions)

    def kernel(lo: int, hi: int) -> int:
        total = 0
        for _ in range(lo, hi):
            total += chain_value(chunk)
        return total

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, chunk + 1000))
    try:
        return _timed_run(spec, ranges, kernel, stack_bytes=_WORKER_STACK_BYTES)
    finally:
        sys.setrecursionlimit(old_limit)


def run_matrix(spec: WorkloadSpec) -> BenchReport:
    """Sum of the n x n integer product A @ A, output rows split across
    workers.

    Each worker forms its row block of A @ A with np.einsum on the float32
    matrix_operand, exact for the reason its docstring gives, and sums the
    block with .sum(dtype=np.int64), which casts in buffered chunks and so
    makes no int64 copy of the block. einsum's float32 sum of products is
    SIMD, runs about twice as fast as its int32 one, and, unlike `@` or
    np.dot, calls no BLAS and so starts no thread pool beside the workers.
    """
    if spec.kind != "matrix":
        raise ValueError(f"run_matrix got kind {spec.kind!r}")
    n = spec.size
    a = matrix_operand(n)

    def kernel(lo: int, hi: int) -> int:
        return int(np.einsum("ij,jk->ik", a[lo:hi], a).sum(dtype=np.int64))

    return _timed_run(spec, make_partitions(n, spec.partitions), kernel)


# -- allocation experiments -------------------------------------------------


def _per_zone(n: int, green: int, blue: int, red: int) -> tuple:
    """n green requests, then n blue, then n red, ending by the given codes."""
    return (np.repeat(np.array([GREEN, BLUE, RED], np.int8), n),
            np.repeat(np.array([green, blue, red], np.int8), n))


def _alloc_reuse(spec: WorkloadSpec, cfg: RuntimeConfig) -> tuple:
    n = spec.size
    return (np.full(n, GREEN, np.int8), np.full(n, RELEASE, np.int8),
            (None, "hot_loop", None))


def _zone_pressure(spec: WorkloadSpec, cfg: RuntimeConfig) -> tuple:
    u = np.random.default_rng(spec.seed).random(spec.size)
    # Two compares and one shift, with no scatter. The ordinals are red 0,
    # green 1 and blue 2: a draw below 0.9 is green, shifted to blue from 0.7
    # up, and any other is red. Int8 add and multiply would fault in numpy
    # loops that no other allocation kind runs, ~0.1 MB of set-up RSS.
    zones = (u < 0.9).view(np.int8) << (u >= 0.7).view(np.int8)
    return (zones, np.full(spec.size, RELEASE, np.int8),
            ("pressure_red", "pressure_green", "pressure_blue"))


def _zone_imbalance(spec: WorkloadSpec, cfg: RuntimeConfig) -> tuple:
    block = np.repeat(np.array([GREEN, BLUE, RED], np.int8), (90, 9, 1))
    zones = np.tile(block, -(-spec.size // len(block)))[:spec.size]
    return (zones, np.full(spec.size, RELEASE, np.int8),
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
    """Dispatch on kind; BenchReport for timed kinds, stats dict otherwise.
    Only an allocation kind reads config."""
    if spec.kind == "loop":
        return run_loop(spec)
    if spec.kind in DEFAULT_CHUNK:
        return run_recursion(spec)
    if spec.kind == "matrix":
        return run_matrix(spec)
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
        return _table(fmt, None, _ATTEMPT_CSV_HEADER, rows)
    spec = report.spec
    title = f"{spec.kind} size={spec.size} partitions={spec.partitions}"
    if spec.kind in DEFAULT_CHUNK:
        title += f" chunk={spec.chunk}"
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
        header = _POOL_CSV_HEADER
    else:
        title, label, num = f"{kind}: {note}", lambda zone: zone.name.title(), "{:,}".format
        header = _POOL_MARKDOWN_HEADER
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
