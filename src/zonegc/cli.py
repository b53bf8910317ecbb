"""Command line front end.

    bench <kind> --size N [--chunk D] [--partitions P] [--attempts K]
                 [--seed S] [--format csv|markdown] [--config FILE]
                 [--output FILE]

Timed kinds print the attempt/summary table; allocation kinds print the
per-zone counter table. Exit status 0 on success, 1 on any reported error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .bench import (
    KINDS,
    MAX_PARTITIONS,
    TIMED_KINDS,
    WorkloadSpec,
    emit_pool_stats,
    emit_report,
    run_bench,
)
from .config import DEFAULT_CONFIG, load_config
from .errors import ZonegcError


@functools.cache  # built once per process: parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Zone lifecycle and kernel benchmarks.",
    )
    parser.add_argument("kind", choices=KINDS, help="workload to run")
    parser.add_argument("--size", type=int, required=True,
                        help="iterations, steps, matrix dimension, or requests")
    parser.add_argument("--chunk", type=int, default=None,
                        help="recursion depth per chain (recursion kinds)")
    parser.add_argument("--partitions", type=int, default=1,
                        help=f"parallel partitions for timed kinds, at most {MAX_PARTITIONS}")
    parser.add_argument("--attempts", type=int, default=5,
                        help="recorded attempts after the discarded warmup")
    parser.add_argument("--seed", type=int, default=42,
                        help="seed for randomized schedules")
    parser.add_argument("--format", choices=("csv", "markdown"), default="csv",
                        dest="fmt", help="report format")
    parser.add_argument("--config", default=None,
                        help="runtime config file (key = value lines)")
    parser.add_argument("--output", default=None,
                        help="write the report here instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else DEFAULT_CONFIG
        spec = WorkloadSpec(
            kind=args.kind,
            size=args.size,
            chunk=args.chunk,
            partitions=args.partitions,
            attempts=args.attempts,
            seed=args.seed,
        )
        result = run_bench(spec, config)
        if args.kind in TIMED_KINDS:
            text = emit_report(result, args.fmt)
        else:
            text = emit_pool_stats(result, args.fmt, kind=args.kind,
                                   config=config)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    except (ZonegcError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
