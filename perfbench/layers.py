"""Per-layer metrics of a traced run, computed from its spans and counts.

Per-call ``.ns`` and ``.ms`` values are self time: a span's duration minus
its traced child spans. ``ns_per_entry`` is the whole sweep, gate calls
included, divided by the entries it evaluated. A layer the workload never
calls reports 0. The names, units and directions are declared in
BENCHMARK.json; trace.overhead_ratio is added by run.py, which also has the
untraced run it compares against.
"""

from __future__ import annotations


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer, workload) -> dict[str, float]:
    spans = tracer.summary()
    counts = tracer.counts
    zero = {"calls": 0, "total_ns": 0.0, "self_ns": 0.0}

    def calls(name: str) -> int:
        return spans.get(name, zero)["calls"]

    def self_per_call(name: str, scale: float = 1.0) -> float:
        s = spans.get(name, zero)
        return _div(s["self_ns"], s["calls"]) / scale

    def total(name: str) -> float:
        return spans.get(name, zero)["total_ns"]

    sweeps = calls("checkpoint.epoch_sweep")
    wc = workload.counters()
    m = {
        "checkpoint.epoch_sweep.ns_per_entry":
            _div(total("checkpoint.epoch_sweep"), counts.get("epoch_sweep.entries", 0)),
        "checkpoint.first_sweep.ns_per_entry":
            _div(total("checkpoint.first_sweep"), counts.get("first_sweep.entries", 0)),
        "checkpoint.sweep.reclaimed": _div(counts.get("sweep.reclaimed", 0), sweeps),
        "checkpoint.sweep.candidates": _div(counts.get("sweep.candidates", 0), sweeps),
        "checkpoint.sweeps": sweeps,
        "checkpoint.set_state.ns": self_per_call("checkpoint.set_state"),
        "checkpoint.set_state.calls": calls("checkpoint.set_state"),
        "gates.eval_liveness_gate.ns": self_per_call("gates.eval_liveness_gate"),
        "gates.eval_liveness_gate.calls": calls("gates.eval_liveness_gate"),
        "zones.allocate.ns": self_per_call("zones.allocate"),
        "zones.allocate.calls": calls("zones.allocate"),
        "zones.pool_hit_ratio": _div(wc.get("reused", 0), wc.get("requests", 0)),
        "zones.release.ns": self_per_call("zones.release"),
        "zones.expire.ns": self_per_call("zones.expire"),
        "zones.expire_and_reallocate.ns": self_per_call("zones.expire_and_reallocate"),
        "zones.reclassify_candidates.ms": self_per_call("zones.reclassify_candidates", 1e6),
        "zones.classify.ns": self_per_call("zones.classify"),
        "zones.moved_ratio": _div(counts.get("reclassify.moved", 0),
                                  counts.get("reclassify.candidates", 0)),
        "objects.record_event.ns": self_per_call("objects.record_event"),
        "objects.rate_tracker_record.ns": self_per_call("objects.rate_tracker_record"),
        "objects.feature_snapshot.ns": self_per_call("objects.feature_snapshot"),
        "yield_memory.promote.ns": self_per_call("yield_memory.promote"),
        "yield_memory.promote.calls": calls("yield_memory.promote"),
        "layout.generation_of.ns": self_per_call("layout.generation_of"),
        "config.load_config.ms": self_per_call("config.load_config", 1e6),
        "config.build_arena.ms": self_per_call("config.build_arena", 1e6),
        "bench.kernel_worker_ms": self_per_call("bench.kernel", 1e6),
        "bench.schedule_self_ms": self_per_call("bench.run_alloc_experiments", 1e6),
        # cli.main's only traced child is run_bench: parse and emit remain.
        "cli.overhead_ms": self_per_call("cli.main", 1e6),
        "trace.spans": sum(s["calls"] for s in spans.values()),
    }
    detail = tracer.parallel_detail()
    m["ppe.run_parallel.ms"] = _div(sum(wall for wall, _ in detail), len(detail)) / 1e6
    overhead = [wall - max(workers) for wall, workers in detail if workers]
    m["ppe.dispatch_overhead_ms"] = _div(sum(overhead), len(overhead)) / 1e6
    imbalance = [max(w) / min(w) for _, w in detail if len(w) == 2 and min(w) > 0]
    m["ppe.worker_imbalance"] = _div(sum(imbalance), len(imbalance))
    return m
