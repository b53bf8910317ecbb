"""Span tracer for the traced run.

It wraps public entry points of the program from outside, by replacing class
attributes and module-level names, so the program itself carries no tracing
code. Each call becomes a span (name, start, end, parent, round) kept in
compact arrays in memory and written out when the run ends. A layer's self
time is its spans' duration minus the time of their child spans.
"""

from __future__ import annotations

import threading
import time
import weakref
from array import array
from contextlib import contextmanager

import numpy as np

import zonegc.bench as zbench
import zonegc.checkpoint as zcheckpoint
import zonegc.cli as zcli
import zonegc.config as zconfig
import zonegc.objects as zobjects
import zonegc.zones as zzones
from zonegc.checkpoint import CheckpointTable
from zonegc.config import RuntimeConfig
from zonegc.layout import ZoneLayout
from zonegc.objects import RateTracker
from zonegc.yield_memory import YieldScope
from zonegc.zones import ZoneArena

# Spans kept at most; past this the run stops after its current round, which
# bounds the tracer's memory (40 bytes a span).
MAX_SPANS = 2_000_000


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.rounds = array("i")
        self.round = -1  # set by the workload at the start of each round
        self.stack: list[int] = [-1]  # open spans of the main thread
        self.lock = threading.Lock()  # worker threads append under it
        self.counts: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    def full(self) -> bool:
        return len(self.start) >= MAX_SPANS

    def _id(self, name: str) -> int:
        i = self.name_ids.get(name)
        if i is None:
            i = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.rounds.append(self.round)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def leaf(self, name_id: int, start: int, end: int, parent: int) -> None:
        """A finished span from a worker thread."""
        with self.lock:
            self.name.append(name_id)
            self.parent.append(parent)
            self.rounds.append(self.round)
            self.start.append(start)
            self.end.append(end)

    @contextmanager
    def span(self, name: str):
        idx = self.open(self._id(name))
        try:
            yield idx
        finally:
            self.close(idx)

    # -- installing wrappers -------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr by a wrapper that records one span per call.
        after(args, result, span index), when given, records counts."""
        orig = getattr(owner, attr)
        name_id = self._id(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = orig(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(args, result, idx)
            return result

        self._saved.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def install(self) -> None:
        self.wrap(zconfig, "load_config", "config.load_config")
        self.wrap(zcli, "load_config", "config.load_config")
        self.wrap(RuntimeConfig, "build_arena", "config.build_arena")
        self.wrap(zcli, "run_bench", "bench.run_bench")
        self.wrap(zbench, "run_alloc_experiments", "bench.run_alloc_experiments")
        self.wrap(ZoneArena, "allocate", "zones.allocate")
        self.wrap(ZoneArena, "release", "zones.release")
        self.wrap(ZoneArena, "expire", "zones.expire")
        self.wrap(ZoneArena, "expire_and_reallocate", "zones.expire_and_reallocate")
        self.wrap(ZoneArena, "classify", "zones.classify")
        self.wrap(ZoneArena, "reclassify_candidates", "zones.reclassify_candidates",
                  after=self._after_reclassify)
        self.wrap(CheckpointTable, "set_state", "checkpoint.set_state")
        self.wrap(zcheckpoint, "eval_liveness_gate", "gates.eval_liveness_gate")
        self.wrap(zbench, "record_event", "objects.record_event")
        self.wrap(zobjects, "record_event", "objects.record_event")
        self.wrap(RateTracker, "record", "objects.rate_tracker_record")
        self.wrap(zzones, "feature_snapshot", "objects.feature_snapshot")
        self.wrap(YieldScope, "promote", "yield_memory.promote")
        self.wrap(ZoneLayout, "generation_of", "layout.generation_of")
        self._wrap_sweep()
        self._wrap_run_parallel()

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _after_reclassify(self, args, moved, idx) -> None:
        self.count("reclassify.candidates", len(args[1].candidates))
        self.count("reclassify.moved", len(moved))

    def _wrap_sweep(self) -> None:
        """The first sweep of a table builds its lane masks, so it gets its own
        span name; later sweeps are steady ones."""
        orig = CheckpointTable.epoch_sweep
        first_id = self._id("checkpoint.first_sweep")
        steady_id = self._id("checkpoint.epoch_sweep")
        swept = weakref.WeakSet()

        def epoch_sweep(table, *args, **kwargs):
            first = table not in swept
            swept.add(table)
            idx = self.open(first_id if first else steady_id)
            try:
                report = orig(table, *args, **kwargs)
            finally:
                self.close(idx)
            kind = "first_sweep" if first else "epoch_sweep"
            self.count(f"{kind}.entries", report.evaluated)
            if not first:
                self.count("sweep.reclaimed", len(report.reclaimed))
                self.count("sweep.candidates", len(report.candidates))
            return report

        self._saved.append((CheckpointTable, "epoch_sweep", orig))
        CheckpointTable.epoch_sweep = epoch_sweep

    def _wrap_run_parallel(self) -> None:
        """run_parallel gets a span, and the kernel it is given is wrapped so
        each worker's range is a leaf span under it."""
        orig = zbench.run_parallel
        rp_id = self._id("ppe.run_parallel")
        kernel_id = self._id("bench.kernel")

        def run_parallel(plan, kernel, *args, **kwargs):
            idx = self.open(rp_id)

            def traced_kernel(lo, hi):
                t0 = time.perf_counter_ns()
                try:
                    return kernel(lo, hi)
                finally:
                    self.leaf(kernel_id, t0, time.perf_counter_ns(), idx)

            try:
                return orig(plan, traced_kernel, *args, **kwargs)
            finally:
                self.close(idx)

        self._saved.append((zbench, "run_parallel", orig))
        zbench.run_parallel = run_parallel

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        # Copies, so the arrays stay free to grow.
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.int64),
            "end": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "round": np.array(self.rounds, dtype=np.int32),
        }

    def write(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, total ns and self ns per span name, plus the spans of the
        names that need per-call detail."""
        a = self.arrays()
        n = len(a["start"])
        if n == 0:
            return {}
        dur = (a["end"] - a["start"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        selft = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        self_total = np.bincount(a["name"], weights=selft, minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "total_ns": float(total[i]),
                         "self_ns": float(self_total[i])}
        return out

    def parallel_detail(self) -> list[tuple[float, list[float]]]:
        """(wall ns, [worker ns, ...]) for each run_parallel span."""
        a = self.arrays()
        rp = self.name_ids.get("ppe.run_parallel")
        kernel = self.name_ids.get("bench.kernel")
        if rp is None or kernel is None:
            return []
        dur = a["end"] - a["start"]
        workers: dict[int, list[float]] = {}
        for i in np.flatnonzero(a["name"] == kernel):
            workers.setdefault(int(a["parent"][i]), []).append(float(dur[i]))
        return [(float(dur[i]), workers.get(int(i), []))
                for i in np.flatnonzero(a["name"] == rp)]
