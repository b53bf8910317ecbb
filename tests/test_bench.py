"""Benchmark harness: checksums, kernels, summaries, report round trips."""

from __future__ import annotations

import importlib
import math
import statistics
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonegc import cli
from zonegc.bench import (
    AttemptRecord,
    BenchReport,
    WorkloadSpec,
    chain_value,
    emit_pool_stats,
    emit_report,
    loop_partial,
    matrix_operands,
    measure_memory,
    parse_pool_stats_csv,
    parse_report_csv,
    run_alloc_experiments,
    run_bench,
    run_loop,
    run_recursion,
    summarize,
    wrap16,
)
from zonegc.errors import DepthLimitError
from zonegc.layout import ZoneId
from zonegc.zones import PoolStats

from .oracles import (
    LOOP_WRAP,
    MATRIX_WRAP,
    RECURSION_WRAP,
    chain_total_oracle,
    exact_mean,
    exact_sample_variance,
    loop_total_oracle,
    matrix_total,
    wrap16_oracle,
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


@given(st.integers(0, 5000), st.integers(0, 500))
def test_loop_partial_matches_series(lo, span):
    hi = lo + span
    expected = loop_total_oracle(hi) - loop_total_oracle(lo)
    assert loop_partial(lo, hi) == expected


def test_loop_partial_empty_range():
    assert loop_partial(7, 7) == 0


@pytest.mark.parametrize("depth", [0, 1, 2, 50, 1000])
def test_chain_value_closed_form(depth):
    # A chain of `depth` frames needs more than the default limit of 1000.
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, depth + 1000))
    try:
        assert chain_value(depth) == chain_total_oracle(depth)
    finally:
        sys.setrecursionlimit(old_limit)


def test_matrix_operands_formula_and_identity():
    a, b = matrix_operands(5)
    for r in range(5):
        for c in range(5):
            assert a[r, c] == ((r * 5 + c) % 17) - 8
    assert (a == b).all()
    assert a is not b


@pytest.mark.parametrize("n", [4, 8])
def test_matrix_product_matches_pure_python(n):
    a, b = matrix_operands(n)
    assert int((a @ b).sum()) == matrix_total(n)
    assert wrap16(matrix_total(n)) == MATRIX_WRAP[n]


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
    assert WorkloadSpec("recursion", 10_000).effective_chunk == 1000
    assert WorkloadSpec("deep_recursion", 8000, chunk=4000).effective_chunk == 4000


def test_partitions_bounded_before_any_thread_starts(monkeypatch, capsys):
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: pytest.fail("a thread was started"))
    assert WorkloadSpec("loop", 10, partitions=64).partitions == 64
    with pytest.raises(ValueError, match="partitions"):
        WorkloadSpec("loop", 10, partitions=65)
    assert cli.main(["loop", "--size", "10", "--partitions", "65"]) == 1
    assert capsys.readouterr().err == "error: partitions must be in 1..64\n"


def test_kind_dispatch_guards():
    with pytest.raises(ValueError):
        run_loop(WorkloadSpec("matrix", 4))
    with pytest.raises(ValueError):
        run_recursion(WorkloadSpec("loop", 10))
    with pytest.raises(ValueError):
        run_alloc_experiments(WorkloadSpec("loop", 10))


def test_recursion_depth_guard():
    with pytest.raises(DepthLimitError):
        run_recursion(WorkloadSpec("deep_recursion", 40000, chunk=40000))


# -- timed runs -------------------------------------------------------------


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


def test_partition_count_does_not_change_checksum_small():
    sums = set()
    for p in (1, 2, 4):
        report = run_bench(WorkloadSpec("loop", 10_000, partitions=p, attempts=2))
        sums.update(r.checksum for r in report.records)
    assert len(sums) == 1


def test_memory_probe_on_this_platform():
    rss = measure_memory()
    assert rss is None or rss > 0


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
