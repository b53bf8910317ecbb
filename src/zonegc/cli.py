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
import contextlib
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
from .config import DEFAULT_CONFIG, RuntimeConfig, load_config
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
        if output is None:
            print(_report(spec, config, fmt))
        else:
            _write_report(output, spec, config, fmt)
    except (ZonegcError, OSError, ValueError, MemoryError) as exc:
        # a MemoryError raised by Python itself carries no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


def _report(spec: WorkloadSpec, config: RuntimeConfig, fmt: str) -> str:
    result = run_bench(spec, config)
    if spec.kind in TIMED_KINDS:
        return emit_report(result, fmt)
    return emit_pool_stats(result, fmt, kind=spec.kind, config=config)


def _write_report(path: str, spec: WorkloadSpec, config: RuntimeConfig, fmt: str) -> None:
    """Run spec and write its report to path, opened before the run so that
    a path that cannot be written fails at once.

    A new file is made with mode 0o666 less the umask, and removed again if
    the run or the write fails. An existing one is left as it is until the
    report is written over it in place, and is then cut to the report's
    length if it was longer: O_TRUNC would free the file's blocks for the
    write to allocate again. A device or a pipe has no length to cut.
    """
    try:
        fd, created = os.open(path, os.O_WRONLY), False
    except FileNotFoundError:
        # O_EXCL: a file that another process made meanwhile is not removed
        fd, created = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), True
    try:
        data = (_report(spec, config, fmt) + "\n").encode()
        view = memoryview(data)
        while view:  # a pipe may take part of the report per write
            view = view[os.write(fd, view):]
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_size > len(data):
            os.ftruncate(fd, len(data))
    except BaseException:
        if created:
            with contextlib.suppress(FileNotFoundError):  # already removed
                os.unlink(path)
        raise
    finally:
        os.close(fd)


if __name__ == "__main__":
    sys.exit(main())
