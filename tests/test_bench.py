"""Benchmark harness: checksums, kernels, summaries, report round trips."""

from __future__ import annotations

import importlib
import math
import os
import re
import resource
import stat
import statistics
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zonegc import bench, cli
from zonegc.bench import (
    AttemptRecord,
    BenchReport,
    WorkloadSpec,
    chain_value,
    emit_pool_stats,
    emit_report,
    loop_partial,
    matrix_operand,
    measure_memory,
    parse_pool_stats_csv,
    run_alloc_experiments,
    run_bench,
    run_loop,
    run_recursion,
    summarize,
    wrap16,
)
from zonegc.checkpoint import StateCode
from zonegc.config import RuntimeConfig
from zonegc.errors import DepthLimitError, ZonegcError
from zonegc.layout import MAX_ZONE_SLOTS, ZoneId, ZoneLayout
from zonegc.zones import PoolStats, ZoneArena

from .oracles import (
    LOOP_WRAP,
    MATRIX_WRAP,
    RECURSION_WRAP,
    chain_total_oracle,
    exact_mean,
    exact_sample_variance,
    loop_total_oracle,
    matrix_total,
    matrix_total_by_sums,
    wrap16_oracle,
    zone_imbalance_oracle,
    zone_pressure_oracle,
)


# -- wrap16 -----------------------------------------------------------------


def test_wrap16_fixed_points_and_edges():
    assert wrap16(0) == 0
    assert wrap16(32767) == 32767
    assert wrap16(32768) == -32768
    assert wrap16(-32768) == -32768
    assert wrap16(65536) == 0
    assert wrap16(-1) == -1


@given(st.integers(min_value=-(10**18), max_value=10**18))
def test_wrap16_matches_byte_oracle(x):
    got = wrap16(x)
    assert got == wrap16_oracle(x)
    assert -32768 <= got <= 32767
    assert (got - x) % 65536 == 0


# -- kernels ----------------------------------------------------------------


# loop_partial walks its range in blocks of _LOOP_BLOCK indices. The explicit
# examples put the range's ends on, just before and just after a block edge.
_B = bench._LOOP_BLOCK


def _at_block_edges(test):
    for lo in (0, 1, _B - 1, _B, _B + 1, 5 * _B - 1, 5 * _B, 5 * _B + 1):
        for span in (0, 1, _B - 1, _B, _B + 1, 3 * _B + 5):
            test = example(lo, span)(test)
    return test


@_at_block_edges
@given(st.integers(0, 5000), st.integers(0, 500))
def test_loop_partial_matches_series(lo, span):
    hi = lo + span
    expected = loop_total_oracle(hi) - loop_total_oracle(lo)
    assert loop_partial(lo, hi) == expected


# Past start = 2**63 // 31, a block's base 31*start + 7 leaves int64 while
# start itself stays inside it; loop_partial reduces the base modulo 2**64.
@example(2**58, 3 * _B + 5)
@example(2**63 - 4 * _B - 1, 3 * _B + 5)
@example(2**63 // 31, _B + 1)
@given(st.integers(2**58, 2**63 - 4 * _B - 1), st.integers(0, 3 * _B + 5))
def test_loop_partial_wraps_modulo_2_64_past_int64_bases(lo, span):
    hi = lo + span
    expected = loop_total_oracle(hi) - loop_total_oracle(lo)
    assert (loop_partial(lo, hi) - expected) % 2**64 == 0


def test_loop_partial_empty_range():
    assert loop_partial(7, 7) == 0


# numpy reports its data buffers to tracemalloc. The whole 4M range as one
# int64 array would be 30.5 MiB; two reused blocks are 1 MiB.
def test_loop_partial_memory_does_not_grow_with_range():
    tracemalloc.start()
    try:
        loop_partial(0, 4_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


# At n = 256 the float32 operand, and a p1 worker's one product block, is
# 256 KiB; .sum(dtype=np.int64) casts through a 64 KiB buffer. A copy of the
# operand would add 256 KiB, an int64 copy of the block 512 KiB, and so would
# an n x n int64 index array.
def test_run_matrix_memory_is_operands_and_one_float32_block():
    n = 256
    spec = WorkloadSpec("matrix", n, attempts=1)
    run_bench(spec)  # first-call allocations of numpy's own
    tracemalloc.start()
    try:
        run_bench(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 4 * n * n + 128 * 2**10


@pytest.mark.parametrize("depth", [0, 1, 2, 50, 1000])
def test_chain_value_closed_form(depth):
    # A chain of `depth` frames needs more than the default limit of 1000.
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, depth + 1000))
    try:
        assert chain_value(depth) == chain_total_oracle(depth)
    finally:
        sys.setrecursionlimit(old_limit)


def test_matrix_operand_formula():
    a = matrix_operand(5)
    for r in range(5):
        for c in range(5):
            assert a[r, c] == ((r * 5 + c) % 17) - 8


@pytest.mark.parametrize("n", [4, 8])
def test_matrix_product_matches_pure_python(n):
    a = matrix_operand(n)
    assert int((a @ a).sum()) == matrix_total(n)
    assert wrap16(matrix_total(n)) == MATRIX_WRAP[n]


def test_matrix_sum_identity_matches_triple_loop():
    for n in range(17):
        assert matrix_total_by_sums(n) == matrix_total(n)
    for n, checksum in MATRIX_WRAP.items():
        assert wrap16(matrix_total_by_sums(n)) == checksum


# -- workload spec ----------------------------------------------------------


def test_workload_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec("warp", 10)
    with pytest.raises(ValueError):
        WorkloadSpec("loop", -1)
    with pytest.raises(ValueError):
        WorkloadSpec("loop", 10, partitions=0)
    with pytest.raises(ValueError):
        WorkloadSpec("loop", 10, attempts=0)
    with pytest.raises(ValueError):
        WorkloadSpec("recursion", 10_500)  # default chunk 1000 must divide
    assert WorkloadSpec("recursion", 10_000).chunk == 1000
    assert WorkloadSpec("deep_recursion", 8000, chunk=4000).chunk == 4000


def test_partitions_bounded_before_any_thread_starts(monkeypatch, capsys):
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: pytest.fail("a thread was started"))
    assert WorkloadSpec("loop", 10, partitions=64).partitions == 64
    with pytest.raises(ValueError, match="partitions"):
        WorkloadSpec("loop", 10, partitions=65)
    assert cli.main(["loop", "--size", "10", "--partitions", "65"]) == 1
    assert capsys.readouterr().err == "error: partitions must be in 1..64\n"


@pytest.mark.parametrize("kind", bench.ALLOC_KINDS)
def test_allocation_kinds_reject_partitions(kind, capsys):
    assert WorkloadSpec(kind, 10, partitions=1).partitions == 1
    with pytest.raises(ValueError, match="partitions"):
        WorkloadSpec(kind, 10, partitions=2)
    assert cli.main([kind, "--size", "1000", "--partitions", "4"]) == 1
    assert capsys.readouterr() == (
        "", f"error: partitions apply only to the timed kinds; {kind} takes 1\n")


def test_negative_seed_is_one_error_line(capsys):
    for kind in bench.KINDS:
        with pytest.raises(ValueError, match="seed must be >= 0"):
            WorkloadSpec(kind, 0, seed=-3)
    assert cli.main(["zone_pressure", "--size", "5", "--seed", "-3"]) == 1
    assert capsys.readouterr() == ("", "error: seed must be >= 0\n")


@pytest.mark.parametrize("kind", [k for k in bench.KINDS if k not in bench.DEFAULT_CHUNK])
def test_chunk_rejected_without_recursion(kind, capsys):
    with pytest.raises(ValueError, match="chunk"):
        WorkloadSpec(kind, 10, chunk=3)
    assert cli.main([kind, "--size", "1000", "--chunk", "3"]) == 1
    assert capsys.readouterr() == (
        "", f"error: chunk applies only to the recursion kinds, not {kind}\n")


def test_unwritable_output_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "missing" / "out.csv"
    argv = ["loop", "--size", "10", "--attempts", "1", "--output", str(out)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_output_path_that_is_no_file_is_one_error_line(tmp_path, capsys):
    # a directory cannot be written, and an empty path names no file: it
    # does not mean "print to stdout"
    for path, reason in ((str(tmp_path), "[Errno 21] Is a directory"),
                         ("", "[Errno 2] No such file or directory")):
        assert cli.main(["alloc_reuse", "--size", "10", "--output", path]) == 1
        assert capsys.readouterr() == ("", f"error: {reason}: '{path}'\n")


def test_output_file_is_rewritten_to_the_report_length(tmp_path, capsys):
    # the file is written in place, not truncated first: what is left of a
    # longer old file must be cut off
    argv = ["zone_pressure", "--size", "300", "--seed", "3"]
    assert cli.main(argv) == 0
    report = capsys.readouterr().out
    out = tmp_path / "out.csv"
    out.write_bytes(b"x" * 10_000)
    assert cli.main([*argv, "--output", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == report.encode()


def test_output_to_dev_null_prints_nothing(capsys):
    # /dev/null is not a regular file: nothing is cut, and the write succeeds
    assert cli.main(["alloc_reuse", "--size", "10", "--output", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_output_to_a_pipe_is_the_whole_report(tmp_path, capsys):
    assert cli.main(["expiration", "--size", "700", "--format", "markdown"]) == 0
    report = capsys.readouterr().out
    path = tmp_path / "report.fifo"
    os.mkfifo(path)
    received = []
    reader = threading.Thread(target=lambda: received.append(path.read_text()), daemon=True)
    reader.start()
    assert cli.main(["expiration", "--size", "700", "--format", "markdown",
                     "--output", str(path)]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [report]
    assert capsys.readouterr() == ("", "")


def test_new_output_file_takes_the_umask(tmp_path):
    out = tmp_path / "out.csv"
    old = os.umask(0o027)
    try:
        assert cli.main(["alloc_reuse", "--size", "10", "--output", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~0o027


def test_unallocatable_matrix_is_one_error_line(monkeypatch, capsys):
    # A 20M x 20M float32 operand takes 1.42 PiB: the spec refuses before any thread.
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: pytest.fail("a thread was started"))
    assert cli.main(["matrix", "--size", "20000000", "--attempts", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (4 * 2**30, 4 * 2**30))


def test_matrix_past_the_exact_bound_is_one_error_line():
    # The child's address space is capped at 4 GiB, so a run that got past
    # the bound would fail to allocate its 256 GiB operands, not take them.
    size = bench.MAX_MATRIX_SIZE + 1
    proc = subprocess.run([sys.executable, "-m", "zonegc", "matrix", "--size", str(size)],
                          capture_output=True, text=True, timeout=30,
                          preexec_fn=_cap_address_space)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (f"error: matrix size must be <= {bench.MAX_MATRIX_SIZE} "
                           "for an exact product\n")


@pytest.mark.parametrize("kind, size", [
    ("expiration", 2**63), ("checkpoint_lifecycle", 2**63),
    ("expiration", 10**25), ("checkpoint_lifecycle", 10**25), ("zone_imbalance", 10**25),
])
def test_allocation_size_past_the_stream_bound_is_one_error_line(kind, size):
    # These sizes printed numpy's OverflowError traceback. The child's
    # address space is capped, so a run past a broken bound fails to
    # allocate its stream instead of taking the memory.
    proc = subprocess.run([sys.executable, "-m", "zonegc", kind, "--size", str(size)],
                          capture_output=True, text=True, timeout=30,
                          preexec_fn=_cap_address_space)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (f"error: size must be <= {bench.MAX_ALLOC_SIZE} for an "
                           "allocation kind, whose stream holds up to 3 x size requests\n")


def test_unallocatable_zone_imbalance_stream_is_one_error_line(monkeypatch, capsys):
    # 10**13 requests printed a bare "error: ": np.resize's MemoryError had
    # no message. The child's address space is capped, as above.
    proc = subprocess.run([sys.executable, "-m", "zonegc", "zone_imbalance",
                           "--size", str(10**13)], capture_output=True, text=True,
                          timeout=30, preexec_fn=_cap_address_space)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: Unable to allocate ")
    assert proc.stderr.count("\n") == 1

    def out_of_memory(spec, config):
        raise MemoryError  # as Python's own allocator raises it, with no message

    monkeypatch.setattr(cli, "run_bench", out_of_memory)
    assert cli.main(["zone_imbalance", "--size", "10"]) == 1
    assert capsys.readouterr() == ("", "error: MemoryError\n")


def test_unmappable_slot_table_column_is_one_error_line(tmp_path):
    # Every zone at MAX_ZONE_SLOTS asks for 4224 MiB of slot-table rows (88 B
    # for each of 3 * 2**24 slots), which a 1 GiB address space cannot map.
    # mmap's own OSError would print a bare "error: [Errno 12] Cannot
    # allocate memory", naming no size.
    conf = tmp_path / "max.conf"
    conf.write_text("".join(f"zones.{zone.name.lower()} = {MAX_ZONE_SLOTS}\n"
                            for zone in ZoneId))
    proc = subprocess.run([sys.executable, "-m", "zonegc", "alloc_reuse", "--size", "1",
                           "--config", str(conf)], capture_output=True, text=True,
                          timeout=30, preexec_fn=lambda: resource.setrlimit(
                              resource.RLIMIT_AS, (2**30, 2**30)))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: Unable to allocate 4224 MiB ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_allocation_kinds_on_the_default_config_leave_mmap_unimported():
    # zero_column imports mmap only for a column of HUGE_PAGE_BYTES or more;
    # the module alone adds ~0.2 MB to a process's peak resident memory.
    code = ("import sys\n"
            "from zonegc import bench, cli\n"
            "codes = [cli.main([kind, '--size', '1000']) for kind in bench.ALLOC_KINDS]\n"
            "print(codes, 'mmap' in sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stderr == f"{[0] * len(bench.ALLOC_KINDS)} False\n"


def _fail_every_run(monkeypatch) -> None:
    """Make each run get past the spec and then fail, as a run that raises
    a ZonegcError in run_bench does."""
    def failing_run(spec, config):
        raise ZonegcError("the run failed")

    monkeypatch.setattr(cli, "run_bench", failing_run)


def test_output_is_checked_before_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_bench", lambda spec, config: pytest.fail("the run started"))
    out = tmp_path / "missing" / "x.csv"
    assert cli.main(["matrix", "--size", "1376", "--output", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: '{out}'\n")


def test_failed_run_leaves_no_new_file_and_an_old_file_unchanged(tmp_path, monkeypatch,
                                                                 capsys):
    _fail_every_run(monkeypatch)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_bytes(b"an earlier report\n" * 100)
    for path in (new, old):
        assert cli.main(["alloc_reuse", "--size", "10", "--output", str(path)]) == 1
        assert capsys.readouterr() == ("", "error: the run failed\n")
    assert not new.exists()
    assert old.read_bytes() == b"an earlier report\n" * 100


def test_too_deep_a_chunk_fails_before_the_output_is_opened(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_write_report",
                        lambda *args: pytest.fail("the output was opened"))
    out = tmp_path / "deep.csv"
    argv = ["deep_recursion", "--size", "40000", "--chunk", "40000", "--output", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == (
        "", f"error: chunk 40000 exceeds safe recursion depth {bench.MAX_CHUNK}\n")
    assert not out.exists()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_cli_main_leaves_no_file_descriptor_open(tmp_path, monkeypatch, capsys):
    def run(output: Path, status: int) -> None:
        before = len(os.listdir("/proc/self/fd"))
        assert cli.main(["alloc_reuse", "--size", "10", "--output", str(output)]) == status
        assert len(os.listdir("/proc/self/fd")) == before, output

    run(tmp_path / "out.csv", 0)
    run(tmp_path / "missing" / "x.csv", 1)
    run(tmp_path, 1)
    _fail_every_run(monkeypatch)
    run(tmp_path / "failed.csv", 1)  # fails after its output is opened
    capsys.readouterr()


# -- cli.main called again and again in one process ----------------------------

# Sizes that take each kind's branches: checkpoint_lifecycle runs sweep
# requests at the default sweep_interval of 500.
REUSE_ARGV = {
    "alloc_reuse": ["--size", "2000"], "zone_pressure": ["--size", "2000", "--seed", "7"],
    "zone_imbalance": ["--size", "2000"], "expiration": ["--size", "700"],
    "checkpoint_lifecycle": ["--size", "1200"], "loop": ["--size", "200000"],
    "recursion": ["--size", "4000"], "deep_recursion": ["--size", "8000"],
    "matrix": ["--size", "16", "--partitions", "2"],
}
REUSE_RUNS = [(kind, fmt) for kind in REUSE_ARGV for fmt in ("csv", "markdown")]


def _reuse_argv(kind: str, fmt: str) -> list[str]:
    return [kind, *REUSE_ARGV[kind], "--attempts", "2", "--format", fmt]


def _comparable(kind: str, text: str) -> str | list[str]:
    """The whole output, or for a timed kind the checksum column: the third
    cell of each row in either format, which times and memory do not touch."""
    if kind not in bench.TIMED_KINDS:
        return text
    return [(re.split(r" *[,|] *", line.strip("| ")) + ["", "", ""])[2]
            for line in text.splitlines()]


@pytest.fixture(scope="module")
def fresh_outputs() -> dict[tuple[str, str], str]:
    """The stdout of each (kind, format) run, each in its own new
    `python -m zonegc` process, two at a time."""
    def run(key: tuple[str, str]) -> str:
        return subprocess.run([sys.executable, "-m", "zonegc", *_reuse_argv(*key)],
                              capture_output=True, text=True, timeout=120,
                              check=True).stdout

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(REUSE_RUNS, pool.map(run, REUSE_RUNS)))


@pytest.mark.parametrize("kind, fmt", REUSE_RUNS)
def test_repeated_cli_calls_match_a_fresh_process(kind, fmt, fresh_outputs,
                                                  tmp_path, capsys):
    # cli.main builds its parser and its default config once per process;
    # no call may leave state behind that shows in a later call's output,
    # whatever the earlier call did: fail to parse, fail with exit 1, or run
    # on a config file of non-default keys
    conf = tmp_path / "other.conf"
    conf.write_text("zones.green = 64\nsweep_interval = 7\npolicy = predicates\n"
                    "ema_weight = 0.25\ncost.red.mark = 1.1\n")
    disturbances = [
        lambda: pytest.raises(SystemExit, cli.main, [kind, "--size", "ten"]).value.code == 2,
        lambda: cli.main([kind, "--size", "-1"]) == 1,
        lambda: cli.main([kind, *REUSE_ARGV[kind], "--config", str(conf)]) == 0,
    ]
    expected = _comparable(kind, fresh_outputs[kind, fmt])
    for disturb in [None, None, *disturbances]:
        if disturb is not None:
            assert disturb()
            capsys.readouterr()
        assert cli.main(_reuse_argv(kind, fmt)) == 0
        out, err = capsys.readouterr()
        assert (_comparable(kind, out), err) == (expected, "")


def test_repeated_cli_calls_to_one_output_file_match_a_fresh_process(fresh_outputs,
                                                                    tmp_path, capsys):
    # every allocation kind in both formats writes to one file, longest
    # report first: each call must leave exactly its own report, with no
    # tail of the longer one before it
    runs = sorted(((kind, fmt) for kind, fmt in REUSE_RUNS if kind in bench.ALLOC_KINDS),
                  key=lambda run: -len(fresh_outputs[run]))
    lengths = [len(fresh_outputs[run]) for run in runs]
    assert len(set(lengths)) == len(lengths)  # so each report is shorter than the last
    out = tmp_path / "report.txt"
    for kind, fmt in runs:
        assert cli.main([*_reuse_argv(kind, fmt), "--output", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert out.read_bytes() == fresh_outputs[kind, fmt].encode()


def test_kind_dispatch_guards():
    with pytest.raises(ValueError):
        run_loop(WorkloadSpec("matrix", 4))
    with pytest.raises(ValueError):
        run_recursion(WorkloadSpec("loop", 10))
    with pytest.raises(ValueError):
        run_alloc_experiments(WorkloadSpec("loop", 10))


def test_recursion_depth_guard():
    assert WorkloadSpec("deep_recursion", 32000, chunk=32000).chunk == bench.MAX_CHUNK
    with pytest.raises(DepthLimitError):
        WorkloadSpec("deep_recursion", 40000, chunk=40000)


# -- timed runs -------------------------------------------------------------


def test_timed_run_warms_up_once_without_a_memory_probe(monkeypatch):
    # K attempts read memory twice each; the warm-up reads none, and runs
    # the kernel once more than the attempts
    calls = {"memory": 0, "run": 0}
    probe, run_parallel = bench.measure_memory, bench.run_parallel

    def counting_probe():
        calls["memory"] += 1
        return probe()

    def counting_run(*args, **kwargs):
        calls["run"] += 1
        return run_parallel(*args, **kwargs)

    monkeypatch.setattr(bench, "measure_memory", counting_probe)
    monkeypatch.setattr(bench, "run_parallel", counting_run)
    report = run_bench(WorkloadSpec("loop", 1000, attempts=3))
    assert calls == {"memory": 6, "run": 4}
    assert [r.attempt for r in report.records] == [1, 2, 3]


def test_run_loop_produces_frozen_checksum():
    report = run_bench(WorkloadSpec("loop", 100_000, attempts=3))
    assert len(report.records) == 3  # warmup discarded
    assert {r.checksum for r in report.records} == {LOOP_WRAP[100_000]}
    assert report.records[0].attempt == 1
    assert all(r.time_ms >= 0 for r in report.records)


def test_run_recursion_produces_frozen_checksum():
    report = run_bench(WorkloadSpec("recursion", 10_000, attempts=2))
    assert {r.checksum for r in report.records} == {RECURSION_WRAP[(10_000, 1000)]}


def test_recursion_limit_restored_after_run():
    before = sys.getrecursionlimit()
    run_bench(WorkloadSpec("deep_recursion", 8000, chunk=4000, attempts=1))
    assert sys.getrecursionlimit() == before


def test_run_matrix_produces_frozen_checksum():
    report = run_bench(WorkloadSpec("matrix", 8, attempts=2, partitions=3))
    assert {r.checksum for r in report.records} == {MATRIX_WRAP[8]}


# 1376 is the smallest n at which a dot product of A @ A leaves int16 (one
# reaches -33048), so a 16-bit operand or accumulator cannot pass. Such a
# kernel is still right modulo 2**16, so the unwrapped totals are compared
# too, summed from the partials run_parallel returns, and not only the
# 16-bit checksums. n = 1376 runs at 1 and 2 partitions, as one product
# there takes a second; the smaller sizes cover 3 to 5.
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 17, 255, 256, 257, 1376])
def test_run_matrix_matches_sum_identity(n, monkeypatch):
    totals = []
    run_parallel = bench.run_parallel

    def recording_run_parallel(*args, **kwargs):
        partials = run_parallel(*args, **kwargs)
        totals.append(sum(partials))
        return partials

    monkeypatch.setattr(bench, "run_parallel", recording_run_parallel)
    expected = matrix_total_by_sums(n)
    for p in (1, 2) if n == 1376 else (1, 2, 3, 4, 5):
        totals.clear()
        report = run_bench(WorkloadSpec("matrix", n, attempts=1, partitions=p))
        assert totals == [expected, expected], f"n={n} p={p}"
        assert [r.checksum for r in report.records] == [wrap16(expected)]


@pytest.mark.parametrize("size", [2 * _B - 1, 2 * _B, 2 * _B + 1, 4_000_000])
def test_loop_checksum_matches_oracle_at_every_partition_count(size):
    for p in (1, 2, 3, 4, 5, 7):
        report = run_bench(WorkloadSpec("loop", size, partitions=p, attempts=1))
        assert [r.checksum for r in report.records] == [
            wrap16(loop_total_oracle(size))], f"size={size} p={p}"


def test_partition_count_does_not_change_checksum_small():
    sums = set()
    for p in (1, 2, 4):
        report = run_bench(WorkloadSpec("loop", 10_000, partitions=p, attempts=2))
        sums.update(r.checksum for r in report.records)
    assert len(sums) == 1


def test_memory_probe_on_this_platform():
    rss = measure_memory()
    assert rss is None or rss > 0


@pytest.mark.skipif(not os.path.isfile("/proc/self/status"), reason="needs /proc/self/status")
def test_memory_probe_reads_the_vmrss_of_proc_self_status():
    with open("/proc/self/status") as fh:
        vmrss = next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))
    page_kb = os.sysconf("SC_PAGE_SIZE") // 1024
    assert abs(measure_memory() - vmrss) <= 4 * page_kb


# -- summarize --------------------------------------------------------------


def rec(attempt, t, mem=None):
    if mem is None:
        return AttemptRecord(attempt, t, 0, None, None, None)
    return AttemptRecord(attempt, t, 0, mem, mem + 4, 4)


def test_summarize_single_attempt_leaves_stddev_undefined():
    report = summarize(WorkloadSpec("loop", 10, attempts=1), [rec(1, 2.5)])
    assert report.mean_time_ms == 2.5
    assert report.stddev_time_ms == 0.0
    assert not report.stddev_defined
    assert report.mean_delta_kb is None


def test_summarize_uses_sample_stddev():
    times = [1.0, 2.0, 3.0, 4.0]
    report = summarize(WorkloadSpec("loop", 10, attempts=4),
                       [rec(i + 1, t, mem=100) for i, t in enumerate(times)])
    assert report.mean_time_ms == pytest.approx(2.5)
    # sample (n-1) convention, not population
    assert report.stddev_time_ms == pytest.approx(statistics.stdev(times))
    assert report.stddev_time_ms != pytest.approx(statistics.pstdev(times))
    assert report.mean_delta_kb == 4.0


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize(WorkloadSpec("loop", 10), [])


@settings(max_examples=150)
@given(st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=2,
                max_size=12))
def test_summarize_matches_extended_precision(times):
    report = summarize(
        WorkloadSpec("loop", 10, attempts=len(times)),
        [rec(i + 1, t) for i, t in enumerate(times)],
    )
    mean = float(exact_mean(times))
    stddev = math.sqrt(exact_sample_variance(times))
    assert math.isclose(report.mean_time_ms, mean, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(report.stddev_time_ms, stddev, rel_tol=1e-9, abs_tol=1e-12)


def test_attempt_record_delta_consistency():
    with pytest.raises(ValueError):
        AttemptRecord(1, 1.0, 0, 100, 104, 5)
    AttemptRecord(1, 1.0, 0, 100, 104, 4)
    AttemptRecord(1, 1.0, 0, None, 104, None)


# -- report round trips -----------------------------------------------------


def parse_report_csv(text: str) -> dict:
    """Inverse of emit_report(fmt='csv') for the numeric fields; the round
    trips below pin the CSV report format with it."""

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


def sample_report(with_memory=True) -> BenchReport:
    records = [
        AttemptRecord(1, 0.1753, 21936, 4212 if with_memory else None,
                      4216 if with_memory else None, 4 if with_memory else None),
        AttemptRecord(2, 0.3648, 21936, 4212 if with_memory else None,
                      4216 if with_memory else None, 4 if with_memory else None),
    ]
    return summarize(WorkloadSpec("loop", 100_000, attempts=2), records)


def test_csv_roundtrip_is_lossless():
    report = sample_report()
    parsed = parse_report_csv(emit_report(report, "csv"))
    assert parsed["records"] == list(report.records)
    assert parsed["mean_time_ms"] == report.mean_time_ms
    assert parsed["stddev_time_ms"] == report.stddev_time_ms
    assert parsed["mean_delta_kb"] == report.mean_delta_kb


def test_csv_roundtrip_without_memory_probe():
    report = sample_report(with_memory=False)
    parsed = parse_report_csv(emit_report(report, "csv"))
    assert parsed["records"] == list(report.records)
    assert parsed["mean_delta_kb"] is None


def test_csv_single_attempt_omits_stddev_row():
    report = summarize(WorkloadSpec("loop", 10, attempts=1), [rec(1, 2.0)])
    text = emit_report(report, "csv")
    lines = text.splitlines()
    assert len(lines) == 3  # header, one record, mean
    assert not any(line.startswith("stddev") for line in lines)
    assert parse_report_csv(text)["stddev_time_ms"] is None


def test_markdown_report_shape():
    text = emit_report(sample_report(), "markdown")
    lines = text.splitlines()
    assert lines[0].startswith("loop size=100000")
    header = lines[2]
    assert header.count("|") == 7  # six columns
    assert "Checksum" in header and "Delta (KB)" in header
    assert any(line.startswith("| Mean") for line in lines)
    assert any(line.startswith("| StdDev") for line in lines)


def test_markdown_memoryless_cells_show_na():
    text = emit_report(sample_report(with_memory=False), "markdown")
    assert "n/a" in text


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit_report(sample_report(), "yaml")
    with pytest.raises(ValueError):
        emit_pool_stats({}, "yaml", kind="alloc_reuse")


# -- golden report texts ------------------------------------------------------
# Reports built field by field, so these pin the emitters alone: CSV floats as
# repr and an int mean delta as an int, markdown times as :.6f and the mean
# delta as :.1f, n/a for a missing probe or stddev, and the chunk in a
# recursion title.

_TABLE_HEAD = (
    "| Attempt | Time (ms) | Checksum | MemBefore (KB) | MemAfter (KB) | Delta (KB) |",
    "| --- | --- | --- | --- | --- | --- |",
)
_CSV_HEAD = "attempt,time_ms,checksum,mem_before_kb,mem_after_kb,delta_kb"

GOLDEN_REPORTS = [
    # 3 attempts with memory figures; the mean delta is a float
    (BenchReport(WorkloadSpec("loop", 100_000, partitions=2, attempts=3),
                 (AttemptRecord(1, 0.1753, -1234, 41200, 41212, 12),
                  AttemptRecord(2, 0.3648, -1234, 41216, 41208, -8),
                  AttemptRecord(3, 12.5, -1234, 41232, 41205, -27)),
                 4.3467, 7.122851466013427, -23 / 3, True),
     (_CSV_HEAD,
      "1,0.1753,-1234,41200,41212,12",
      "2,0.3648,-1234,41216,41208,-8",
      "3,12.5,-1234,41232,41205,-27",
      "mean,4.3467,,,,-7.666666666666667",
      "stddev,7.122851466013427,,,,"),
     ("loop size=100000 partitions=2", "", *_TABLE_HEAD,
      "| 1 | 0.175300 | -1234 | 41200 | 41212 | 12 |",
      "| 2 | 0.364800 | -1234 | 41216 | 41208 | -8 |",
      "| 3 | 12.500000 | -1234 | 41232 | 41205 | -27 |",
      "| Mean | 4.346700 |  |  |  | -7.7 |",
      "| StdDev | 7.122851 |  |  |  |  |")),
    # 1 attempt without memory figures; the title carries the default chunk
    (BenchReport(WorkloadSpec("recursion", 10_000, attempts=1),
                 (AttemptRecord(1, 3.0, 9, None, None, None),),
                 3.0, 0.0, None, False),
     (_CSV_HEAD,
      "1,3.0,9,,,",
      "mean,3.0,,,,"),
     ("recursion size=10000 partitions=1 chunk=1000", "", *_TABLE_HEAD,
      "| 1 | 3.000000 | 9 | n/a | n/a | n/a |",
      "| Mean | 3.000000 |  |  |  | n/a |",
      "| StdDev | n/a |  |  |  |  |")),
    # 3 attempts without memory figures, an explicit chunk
    (BenchReport(WorkloadSpec("deep_recursion", 8000, chunk=4000, partitions=2,
                              attempts=3),
                 (AttemptRecord(1, 1.5, 0, None, None, None),
                  AttemptRecord(2, 2.25, 0, None, None, None),
                  AttemptRecord(3, 0.1, 0, None, None, None)),
                 1.2833333333333334, 1.080431703977387, None, True),
     (_CSV_HEAD,
      "1,1.5,0,,,",
      "2,2.25,0,,,",
      "3,0.1,0,,,",
      "mean,1.2833333333333334,,,,",
      "stddev,1.080431703977387,,,,"),
     ("deep_recursion size=8000 partitions=2 chunk=4000", "", *_TABLE_HEAD,
      "| 1 | 1.500000 | 0 | n/a | n/a | n/a |",
      "| 2 | 2.250000 | 0 | n/a | n/a | n/a |",
      "| 3 | 0.100000 | 0 | n/a | n/a | n/a |",
      "| Mean | 1.283333 |  |  |  | n/a |",
      "| StdDev | 1.080432 |  |  |  |  |")),
    # 1 attempt with memory figures; summarize gives an int mean delta here
    (BenchReport(WorkloadSpec("matrix", 64, attempts=1),
                 (AttemptRecord(1, 0.30000000000000004, 32767, 41200, 41212, 12),),
                 0.30000000000000004, 0.0, 12, False),
     (_CSV_HEAD,
      "1,0.30000000000000004,32767,41200,41212,12",
      "mean,0.30000000000000004,,,,12"),
     ("matrix size=64 partitions=1", "", *_TABLE_HEAD,
      "| 1 | 0.300000 | 32767 | 41200 | 41212 | 12 |",
      "| Mean | 0.300000 |  |  |  | 12.0 |",
      "| StdDev | n/a |  |  |  |  |")),
]


@pytest.mark.parametrize("report, csv, markdown", GOLDEN_REPORTS,
                         ids=[r.spec.kind for r, _, _ in GOLDEN_REPORTS])
def test_report_text_is_pinned(report, csv, markdown):
    assert emit_report(report, "csv") == "\n".join(csv)
    assert emit_report(report, "markdown") == "\n".join(markdown)


GOLDEN_STATS = {
    ZoneId.GREEN: PoolStats(1234567, 3, 1234564, 1000, 3),
    ZoneId.BLUE: PoolStats(20000, 2, 19998, 10000, 2),
    ZoneId.RED: PoolStats(999, 999, 0, 0, 0),
}


GOLDEN_NOTES = {
    "alloc_reuse": "sequential acquire/release cycles on one green site",
    "zone_pressure":
        "seeded zone draws with probabilities green 0.7, blue 0.2, red 0.1",
    "zone_imbalance": "repeating request block of 90 green, 9 blue, 1 red",
    "expiration":
        "per-use TTL: blue every 2nd use, red every use, green only at teardown",
    "checkpoint_lifecycle":
        "sweep every 500 requests; blue expires at sweep boundaries, "
        "red per use, green pinned persistent",
}


@pytest.mark.parametrize("kind", list(GOLDEN_NOTES))
def test_pool_stats_text_is_pinned(kind):
    note = GOLDEN_NOTES[kind]
    assert emit_pool_stats(GOLDEN_STATS, "csv", kind=kind) == "\n".join((
        f"# workload={kind} schedule={note}",
        "zone,total_requests,real_allocations,reused_objects,expired_objects,pool_size",
        "G,1234567,3,1234564,1000,3",
        "B,20000,2,19998,10000,2",
        "R,999,999,0,0,0",
    ))
    assert emit_pool_stats(GOLDEN_STATS, "markdown", kind=kind) == "\n".join((
        f"{kind}: {note}",
        "",
        "| Zone | Total Requests | Real Allocations | Reused Objects "
        "| Expired Objects | Pool Size |",
        "| --- | --- | --- | --- | --- | --- |",
        "| Green | 1,234,567 | 3 | 1,234,564 | 1,000 | 3 |",
        "| Blue | 20,000 | 2 | 19,998 | 10,000 | 2 |",
        "| Red | 999 | 999 | 0 | 0 | 0 |",
    ))


def test_pool_stats_roundtrip():
    stats = {
        ZoneId.GREEN: PoolStats(1000, 1, 999, 0, 1),
        ZoneId.BLUE: PoolStats(0, 0, 0, 0, 0),
        ZoneId.RED: PoolStats(10, 2, 8, 2, 2),
    }
    text = emit_pool_stats(stats, "csv", kind="alloc_reuse")
    assert text.splitlines()[0].startswith("# workload=alloc_reuse")
    assert parse_pool_stats_csv(text) == stats


def test_pool_stats_markdown_orders_green_blue_red():
    stats = {
        ZoneId.GREEN: PoolStats(1, 1, 0, 0, 1),
        ZoneId.BLUE: PoolStats(2, 1, 1, 0, 1),
        ZoneId.RED: PoolStats(3, 1, 2, 1, 1),
    }
    lines = emit_pool_stats(stats, "markdown", kind="expiration").splitlines()
    zone_rows = [line for line in lines if line.startswith("| ")][2:]
    assert [row.split("|")[1].strip() for row in zone_rows] == [
        "Green", "Blue", "Red"
    ]


def test_lifecycle_schedule_note_carries_interval():
    from zonegc.bench import schedule_note
    from zonegc.config import RuntimeConfig
    note = schedule_note("checkpoint_lifecycle", RuntimeConfig())
    assert "500" in note


def expected_counters(kind: str, n: int, interval: int, seed: int) -> dict:
    """Closed-form per-zone counters of n requests (n per zone for expiration
    and checkpoint_lifecycle). Every object is freed after its request, so a
    zone with requests has one real allocation and a pool of one."""
    expired = (0, 0, 0)
    if kind == "alloc_reuse":
        totals = (n, 0, 0)
    elif kind == "zone_pressure":
        u = np.random.default_rng(seed).random(n)
        green, below_red = int((u < 0.7).sum()), int((u < 0.9).sum())
        totals = (green, below_red - green, n - below_red)
    elif kind == "zone_imbalance":
        blocks, rest = divmod(n, 100)  # 90 green, 9 blue, 1 red per block
        totals = (90 * blocks + min(rest, 90), 9 * blocks + max(rest - 90, 0), blocks)
    elif kind == "expiration":
        totals, expired = (n, n, n), (min(n, 1), n // 2, n)
    else:
        totals, expired = (n, n, n), (0, n // interval, n)
    return {zone: PoolStats(t, min(t, 1), max(t - 1, 0), e, min(t, 1))
            for zone, t, e in zip((ZoneId.GREEN, ZoneId.BLUE, ZoneId.RED), totals, expired)}


@pytest.mark.parametrize("interval", [1, 7, 500, None])  # None: one above the size
@pytest.mark.parametrize("kind", bench.ALLOC_KINDS)
def test_alloc_counters_match_closed_forms(kind, interval):
    # The sizes sit on and around each stream's block edges, where an
    # off-by-one in a remainder would show.
    for n in (0, 1, 2, 99, 100, 101, 499, 500, 501, 1001):
        cfg = RuntimeConfig(sweep_interval=interval or n + 1)
        got = run_alloc_experiments(WorkloadSpec(kind, n, seed=7), cfg)
        assert got == expected_counters(kind, n, cfg.sweep_interval, 7), (kind, n)


@settings(max_examples=200, deadline=None)
@example(seed=42, size=0)
@example(seed=42, size=1)
@example(seed=5, size=99)  # one short of a zone_imbalance block
@example(seed=77, size=100)
@example(seed=2**64, size=101)
@given(seed=st.integers(0, 2**64), size=st.integers(0, 20_000))
def test_stream_builders_match_their_frozen_forms(seed, size):
    """The zone_pressure stream built by two compares and a shift, and the
    tiled zone_imbalance stream, equal the mask-scatter and np.resize
    streams they replace."""
    for kind, frozen in (("zone_pressure", zone_pressure_oracle(seed, size)),
                         ("zone_imbalance", zone_imbalance_oracle(size))):
        got = bench.SCHEDULES[kind][1](WorkloadSpec(kind, size, seed=seed), RuntimeConfig())
        for column, want in zip(got[:2], frozen[:2]):
            assert column.dtype == want.dtype == np.int8
            assert np.array_equal(column, want)
        assert tuple(got[2]) == frozen[2]


def test_perfbench_tracer_wraps_existing_names_and_restores_them(monkeypatch):
    # perfbench/tracer.py wraps program names from outside, so deleting one
    # of them from src/ breaks the traced benchmark run: install() raises.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install()
        wrapped = list(tracer._saved)
        assert wrapped
        for owner, attr, orig in wrapped:
            assert getattr(owner, attr) is not orig
    finally:
        tracer.uninstall()
        sys.modules.pop("tracer", None)
    for owner, attr, orig in wrapped:
        assert getattr(owner, attr) is orig, f"{owner!r}.{attr} not restored"


@pytest.fixture
def tracer(monkeypatch):
    """perfbench's Tracer, installed for the test and removed after it."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install()
        yield tracer
    finally:
        tracer.uninstall()
        sys.modules.pop("tracer", None)


def span_calls(tracer) -> dict[str, int]:
    return {name: span["calls"] for name, span in tracer.summary().items()}


@pytest.mark.parametrize("kind, n, interval", [
    ("expiration", 11, 500), ("checkpoint_lifecycle", 23, 7), ("checkpoint_lifecycle", 5, 500),
    ("alloc_reuse", 37, 500), ("zone_pressure", 37, 500), ("zone_imbalance", 137, 500),
])
def test_perfbench_tracer_sees_the_schedule_calls(kind, n, interval, tracer, tmp_path):
    # The tracer wraps run_alloc_experiments by module attribute; a caller
    # that bound it at import would run unseen. Each run serves its stream
    # in one ZoneArena.serve call, which makes traced calls only for a
    # sweep request, one allocate, set_state, sweep and expire each, and for
    # each zone's last plain request, one allocate and release each. serve
    # records an event through zones' own binding of record_event, which the
    # tracer leaves as it is, so no kind records a traced event.
    conf = tmp_path / "run.conf"
    conf.write_text(f"sweep_interval = {interval}\n")
    for _ in range(2):
        assert cli.main([kind, "--size", str(n), "--config", str(conf),
                         "--output", str(tmp_path / "out.csv")]) == 0
    sweeps = n // interval if kind == "checkpoint_lifecycle" else 0
    # the zones whose last request is not a sweep request: alloc_reuse's one,
    # and all three in the other cases, as no n here is a multiple of interval
    lasts = 1 if kind == "alloc_reuse" else 3
    calls = span_calls(tracer)
    assert {name: calls[name] for name in (
        "bench.run_alloc_experiments", "zones.allocate", "checkpoint.set_state",
        "checkpoint.first_sweep", "checkpoint.epoch_sweep", "zones.expire",
        "zones.release", "objects.record_event")} == {
        "bench.run_alloc_experiments": 2, "zones.allocate": 2 * (sweeps + lasts),
        "checkpoint.set_state": 2 * sweeps,
        # each run's arena is a new table, so its first sweep is a first_sweep
        "checkpoint.first_sweep": 2 * min(sweeps, 1),
        "checkpoint.epoch_sweep": 2 * max(sweeps - 1, 0),
        "zones.expire": 2 * sweeps, "zones.release": 2 * lasts,
        "objects.record_event": 0}


@pytest.mark.parametrize("n", [1, 37])
def test_traced_alloc_reuse_is_one_allocate_and_one_release_per_request(n, tracer):
    # alloc_reuse's requests made one call at a time, as live_set_sweep and
    # promote still make them: allocate and release do their work without
    # calling another traced method
    arena = ZoneArena(ZoneLayout(4, 4, 4))
    for _ in range(n):
        arena.release(arena.allocate(ZoneId.GREEN, "hot_loop"))
    assert {name: c for name, c in span_calls(tracer).items() if c} == {
        "zones.allocate": n, "zones.release": n}


def test_traced_pause_moves_its_batch_without_per_object_calls(tracer):
    arena = ZoneArena(ZoneLayout(8, 8, 8))
    for _ in range(5):
        handle = arena.allocate(ZoneId.GREEN, "t")
        arena.table.set_state(handle.slot_index, StateCode.DEMOTE_CANDIDATE)
    # zero rates: the default simple policy sends every green object to red
    moved = arena.reclassify_candidates(arena.run_sweep())
    assert [arena.header_of(new).zone for _, new in moved] == [ZoneId.RED] * 5
    calls = span_calls(tracer)
    assert calls["zones.reclassify_candidates"] == 1
    assert calls["zones.allocate"] == 5  # the five before the pause
    assert (calls["zones.expire"], calls["zones.expire_and_reallocate"]) == (0, 0)
