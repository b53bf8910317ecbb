"""Command line front end.

    bench <kind> --size N [--chunk D] [--partitions P] [--attempts K]
                 [--seed S] [--format csv|markdown] [--config FILE]
                 [--output FILE]

An omitted workload option takes WorkloadSpec's default. Timed kinds print
the attempt/summary table; allocation kinds print the per-zone counter
table. Exit status 0 on success, 1 on any reported error.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
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
        argument_default=argparse.SUPPRESS,  # an omitted option is not set
    )
    parser.add_argument("kind", choices=KINDS, help="workload to run")
    parser.add_argument("--size", type=int, required=True,
                        help="iterations, steps, matrix dimension, or requests")
    parser.add_argument("--chunk", type=int,
                        help="recursion depth per chain (recursion kinds)")
    parser.add_argument("--partitions", type=int,
                        help=f"parallel partitions for timed kinds, at most {MAX_PARTITIONS}")
    parser.add_argument("--attempts", type=int,
                        help="recorded attempts after the discarded warmup")
    parser.add_argument("--seed", type=int,
                        help="seed for randomized schedules")
    parser.add_argument("--format", choices=("csv", "markdown"), default="csv",
                        dest="fmt", help="report format")
    parser.add_argument("--config", default=None,
                        help="runtime config file (key = value lines)")
    parser.add_argument("--output", default=None,
                        help="write the report here instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(build_parser().parse_args(argv))
    fmt, config_path, output = args.pop("fmt"), args.pop("config"), args.pop("output")
    try:
        config = DEFAULT_CONFIG if config_path is None else load_config(config_path)
        spec = WorkloadSpec(**args)  # the options left are the given spec fields
        result = run_bench(spec, config)
        if spec.kind in TIMED_KINDS:
            text = emit_report(result, fmt)
        else:
            text = emit_pool_stats(result, fmt, kind=spec.kind, config=config)
        if output is not None:
            # rewritten in place, then cut to the report's length: O_TRUNC
            # would free the file's blocks for the write to allocate again
            with open(output, "w", opener=lambda path, flags:
                      os.open(path, flags & ~os.O_TRUNC, 0o666)) as fh:
                fh.write(text + "\n")
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate()  # a device or a pipe has no length to cut
        else:
            print(text)
    except (ZonegcError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
