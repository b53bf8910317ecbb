"""Runs one workload in a fresh interpreter and prints its result as JSON.

    python3 perfbench/worker.py --root ROOT --workload NAME --seed N
        --seconds S --mode setup|timed|traced --t0 T --stop-by D

T is the CLOCK_MONOTONIC time at which the parent started this process, so
the set-up time covers interpreter start and imports as well as the
workload's own set-up. D is the monotonic time by which the rounds must end. run.py starts this; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time

# The host's speed drifts by 10-20% over tens of seconds, so every round is
# also expressed in iterations of a fixed reference loop timed right before
# and after it. The loop allocates no container, so it neither triggers nor
# pays for the cyclic GC, and its working set stays in cache whatever the
# program's heap does.
REF_ITERATIONS = 20_000
_REF_TABLE = dict.fromkeys(range(1024), 0)
# setup_s is reported in seconds at this reference speed, about the median
# of the 2-core reference host, so that host drift does not move it either.
REF_NOMINAL_NS_PER_ITER = 200.0


def reference_ns() -> int:
    table = _REF_TABLE
    acc = 0
    t0 = time.perf_counter_ns()
    for i in range(REF_ITERATIONS):
        acc = (acc + table[i & 1023]) & 0xFFFF
        table[i & 511] = acc
    return time.perf_counter_ns() - t0


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--stop-by", type=float, required=True)
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import zonegc

    if os.path.dirname(os.path.dirname(os.path.abspath(zonegc.__file__))) != src:
        print(f"zonegc imported from {zonegc.__file__}, not from {src}", file=sys.stderr)
        return 2
    import numpy

    from workloads import WORKLOADS, median

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    work_dir = os.path.join(args.root, ".perfbench_run")
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    workload.tracer = tracer
    workload.setup()
    setup_raw_s = time.monotonic() - args.t0
    setup_ref = sorted(reference_ns() for _ in range(3))[1] / REF_ITERATIONS
    out = {
        "setup_s": setup_raw_s * REF_NOMINAL_NS_PER_ITER / setup_ref,
        "setup_raw_s": setup_raw_s,
        "setup_rss_mb": max_rss_mb(),
        "attempted": workload.attempted,
        "failed": workload.failed,
        "numpy": numpy.__version__,
    }
    if args.mode != "setup":
        start = time.monotonic()
        deadline = min(start + args.seconds, args.stop_by)
        raw, normalized, ref = [], [], []
        rounds = 0
        while rounds < workload.min_rounds or time.monotonic() < deadline:
            before = reference_ns()
            wall_ns, requests = workload.run_round(rounds)
            ref_ns = (before + reference_ns()) / 2 / REF_ITERATIONS
            rounds += 1
            if threading.active_count() != 1:
                workload.fail(f"{threading.active_count() - 1} threads left running")
            if requests:
                raw.append(wall_ns / 1e3 / requests)
                normalized.append(wall_ns / requests / ref_ns)
                ref.append(ref_ns)
            if time.monotonic() >= args.stop_by or (tracer is not None and tracer.full()):
                break
        out.update(
            attempted=workload.attempted,
            failed=workload.failed,
            rounds=rounds,
            measured_s=time.monotonic() - start,
            ref_iters_per_req=median(normalized),
            us_per_req=median(raw),
            ref_ns_per_iter=median(ref),
            series=workload.series(),
            peak_rss_mb=max_rss_mb(),
        )
        if tracer is not None:
            tracer.uninstall()
            from layers import layer_metrics

            out["layers"] = layer_metrics(tracer, workload)
            tracer.write(os.path.join(
                work_dir, f"trace-{args.workload}-{args.seed}.npz"))
    workload.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
