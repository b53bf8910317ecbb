"""Shared fixtures plus a terminal summary that prints one line per
acceptance criterion so a run's verdict can be read at a glance."""

from __future__ import annotations

import gc
import os
import re
import sys
import threading
from pathlib import Path

import pytest

# pyproject's pythonpath puts src/ on the test process's sys.path; the
# tests that run `python -m zonegc` in a child process need it there too.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                  os.environ.get("PYTHONPATH")]))


def _process_settings() -> dict:
    """The process-global settings a run must leave as it found them."""
    umask = os.umask(0o022)  # umask can only be read by setting it
    os.umask(umask)
    return {"recursion limit": sys.getrecursionlimit(),
            "thread stack size": threading.stack_size(),
            "gc thresholds": gc.get_threshold(),
            "gc enabled": gc.isenabled(),
            "umask": oct(umask)}


@pytest.fixture(autouse=True)
def _process_settings_unchanged():
    """Fail a test that leaves a process-global setting changed behind it."""
    before = _process_settings()
    yield
    after = _process_settings()
    changed = {name: (before[name], after[name]) for name in before
               if after[name] != before[name]}
    assert not changed, f"the test left process settings changed (before, after): {changed}"


_ACCEPTANCE_FILE = "test_acceptance.py"
_NAME_RE = re.compile(r"test_c(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = {}
    for status in ("passed", "failed", "error", "skipped"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if _ACCEPTANCE_FILE not in nodeid:
                continue
            # setup/teardown phases only matter when they did not pass
            if getattr(rep, "when", "call") != "call" and status == "passed":
                continue
            match = _NAME_RE.search(nodeid)
            if not match:
                continue
            num = int(match.group(1))
            label = match.group(2)
            shown = {"passed": "PASS", "failed": "FAIL", "error": "FAIL",
                     "skipped": "SKIP"}[status]
            # a failed setup/teardown overrides an earlier pass, never the
            # other way around
            if num not in lines or shown != "PASS":
                lines[num] = (shown, label)
    if not lines:
        return
    writer = terminalreporter
    writer.section("acceptance criteria")
    for num in sorted(lines):
        shown, label = lines[num]
        writer.write_line(f"criterion {num:02d} [{shown}] {label}")
