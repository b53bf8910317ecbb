"""zonegc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``. Each
workload runs in fresh interpreters (see worker.py): with ``--trace 0``,
a few set-up-only processes plus one timed process; with ``--trace 1``, one
untraced and one traced process, and the per-layer metrics of the traced one.
The last line of standard output is the result object; the line before it
is a detail object with host facts and the workload's own series.
Workloads, metrics and bounds are listed in BENCHMARK.json; README.md says
which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("alloc_schedules", "live_set_sweep", "parallel_kernels")
# Set-ups per --trace 0 run, the timed process's own included; setup_s is
# their median.
SETUP_RUNS = 3
BUDGET_S = 170  # every run ends within 180 s
CHILD_GRACE_S = 30  # kill a worker this long past its deadline


def host_facts() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        nproc = os.cpu_count()
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "commit": git_commit(), "src_sha256": source_digest()}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's source files, which identifies the code
    measured where there is no git metadata."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def run_worker(args, mode: str, stop_by: float) -> dict:
    """Start one worker, wait for it, and return its JSON result."""
    cmd = [sys.executable, WORKER, "--root", ROOT, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--stop-by", repr(stop_by)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE,
                            cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, stop_by - t0) + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{mode} worker for {args.workload} timed out")
    except BaseException:  # interrupted or terminated: end the worker too
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"{mode} worker for {args.workload} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="zonegc benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM becomes SystemExit, so run_worker stops the worker it waits on.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    begin = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "zonegc", "__init__.py")):
        print(f"error: no program source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".perfbench_run"), exist_ok=True)
    stop_by = begin + BUDGET_S - CHILD_GRACE_S

    try:
        if args.trace:
            base = run_worker(args, "timed", stop_by)
            traced = run_worker(args, "traced", stop_by)
            children = [base, traced]
            metrics = dict(traced["layers"])
            metrics["trace.overhead_ratio"] = (traced["ref_iters_per_req"]
                                               / base["ref_iters_per_req"])
        else:
            children = [run_worker(args, "setup", stop_by) for _ in range(SETUP_RUNS - 1)]
            timed = run_worker(args, "timed", stop_by)
            children.append(timed)
            base = timed
            metrics = {
                "ref_iters_per_req": timed["ref_iters_per_req"],
                "setup_rss_mb": statistics.median(c["setup_rss_mb"] for c in children),
                "setup_s": statistics.median(c["setup_s"] for c in children),
            }
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        if set(units) != set(metrics):
            raise ValueError(f"metrics {sorted(set(metrics) ^ set(units))} "
                             "differ from BENCHMARK.json")
    except (OSError, RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": dict(host_facts(), numpy=base["numpy"]),
        "rounds": base["rounds"],
        "measured_s": base["measured_s"],
        "setup_raw_s_samples": [c["setup_raw_s"] for c in children],
        "us_per_req": base["us_per_req"],
        "ref_ns_per_iter": base["ref_ns_per_iter"],
        "peak_rss_mb": base["peak_rss_mb"],
        "series": base["series"],
    }
    if args.trace:
        detail["traced_series"] = traced["series"]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
