"""Every function in src/zonegc is entered by a CLI run, or listed in ALLOW
with the reason it is kept; every name a module imports is used there, or
listed in TRACER_IMPORTS.

One child process sets a trace function, then imports the package and runs
cli.main in-process: every kind at a small size, in both report formats, the
timed kinds at 1 and 2 partitions, two runs with --output (a file and
/dev/null), one with --config, and the error paths. A function counts as
entered when a frame of its code object starts, on the main thread or a
run_parallel worker. Only named function bodies count: module and class
bodies run at import, and lambdas, generator expressions and comprehensions
are dropped, as 3.12 inlines the comprehensions into their function.

The list changes only by a visible edit. The tests fail when an unlisted
function is unreached (wire it into a CLI path or delete it), when a listed
function is reached (drop its entry) and when a listed name no longer exists
(drop its entry). A reason starts with what keeps the function: the
acceptance criterion that pins it (cNN), the perfbench module that imports,
calls or wraps it (perfbench/, checked against that module), a fault that
no valid run raises (safety:), or the ROADMAP item, by title, that puts it
on a CLI path (open:).
"""

from __future__ import annotations

import ast
import inspect
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from zonegc.bench import KINDS, TIMED_KINDS

SRC = Path(__file__).resolve().parents[1] / "src"

C07 = "c07: the gate formulas, checked against their truth tables"
C08 = "c08: the index, address, zone and generation mapping"
C09 = "c09: the scalar classifiers, checked on the policies' boundary cases"
C10 = "c10: the zone-aware thread budget"
C13 = "c13: the no-migration fuzz releases and re-zones objects"
C14 = "c14: yield neutrality, read through the scope and the table"
PERFBENCH_WRAPS = "perfbench/tracer.py wraps it"
PERFBENCH_CALLS = "perfbench/workloads.py calls it"
PERFBENCH_IMPORTS = "perfbench/tracer.py imports its class"
ADAPTIVE = "open: the paper's zone decision on a CLI path (an adaptive kind)"

ALLOW = {
    "gates.mask": C07,
    "gates._check": C07,
    "gates.eval_liveness_gate": C07,
    "gates.zone_mask_update": C07,
    "checkpoint.CheckpointTable.index_of": C08,
    "checkpoint.CheckpointTable.address_of": C08,
    "layout.ZoneLayout.zone_of_index": C08,
    "layout.ZoneLayout.generation_of": C08,
    "zones.zone_cost": C09,
    "zones.argmin_cost": C09,
    "zones._simple_rules": C09,
    "zones.classify_simple": C09,
    "zones._eligible": C09,
    "zones.classify_predicates": C09,
    "objects.FeatureVector.__post_init__": C09,
    "ppe.ThreadAllocation.__post_init__": C10,
    "ppe.ThreadAllocation.total": C10,
    "ppe.allocate_threads": C10,
    "ppe.scheduler_objective": C10,
    "ppe.optimize_thread_allocation": C10,
    "ppe.probe_cores": "c12: skips the speedup check on a single usable core",
    "zones.ZoneArena.expire_and_reallocate": C13,
    "yield_memory.YieldScope.__enter__": C14,
    "yield_memory.YieldScope.__exit__": C14,
    "yield_memory.YieldScope.close": C14,
    "yield_memory.YieldScope.yield_eval": C14,
    "zones.ZoneArena.header_of": C14,
    "objects.ObjectHandle.alive": C14,
    "checkpoint.CheckpointTable.states": C14,
    "bench.parse_pool_stats_csv": "c01: reads the CLI's csv report back",
    "objects.RateTracker.__init__": PERFBENCH_IMPORTS,
    "objects.RateTracker.reset": PERFBENCH_IMPORTS,
    "objects.RateTracker.record": PERFBENCH_WRAPS,
    "objects.RateTracker.raw_rate": PERFBENCH_IMPORTS,
    "objects.RateTracker.smoothed": PERFBENCH_IMPORTS,
    "objects.feature_snapshot": PERFBENCH_WRAPS,
    "checkpoint.CheckpointTable.get_state": PERFBENCH_CALLS,
    "objects.ObjectHandle.zone": PERFBENCH_CALLS,
    "zones.ZoneArena.classify": ADAPTIVE,
    "zones.ZoneArena.reclassify_candidates": ADAPTIVE,
    "zones.ZoneArena._move_batch": ADAPTIVE,
    "objects.SlotTable.move": ADAPTIVE,
    "objects.feature_columns": ADAPTIVE,
    "zones.argmin_cost_batch": ADAPTIVE,
    "zones.classify_simple_batch": ADAPTIVE,
    "zones.classify_predicates_batch": ADAPTIVE,
    "objects.roll": ADAPTIVE,
    "objects.ema_update": ADAPTIVE,
    "yield_memory.YieldScope.promote": ADAPTIVE,
    "errors.PartitionFaultError.__init__": "safety: a run_parallel worker that raises",
    "layout.ZoneLayout.check_index": "safety: an index outside the table raises here",
    "objects.SlotTable.live": "safety: a request on a slot with no live object raises here",
}

REASON = re.compile(r"(c\d\d|perfbench/|safety:|open:)")
# A perfbench/ reason names the file and what it does with the function.
PERFBENCH_REASON = re.compile(r"perfbench/(\w+\.py) (wraps|calls|imports) ")

# Module-level imports that nothing in their module reads, kept because
# perfbench's tracer wraps the module's own binding of the name. Each carries
# a noqa comment that says so.
TRACER_IMPORTS = {"bench.record_event", "checkpoint.eval_liveness_gate",
                  "zones.feature_snapshot"}
TRACER_NOQA = re.compile(r"# noqa: F401  perfbench's tracer wraps (\w+\.\w+)$")

# Small sizes that still take each kind's branches: checkpoint_lifecycle
# passes the default sweep_interval of 500, so its sweep requests run.
SIZES = {"alloc_reuse": 2000, "zone_pressure": 2000, "zone_imbalance": 2000,
         "expiration": 700, "checkpoint_lifecycle": 1200, "loop": 200000,
         "recursion": 4000, "deep_recursion": 8000, "matrix": 16}

CHILD = r"""
import contextlib, io, json, sys, threading

codes = {}

def trace(frame, event, arg):
    code = frame.f_code
    codes[id(code)] = code  # the value keeps the id from being reused

sys.settrace(trace)
threading.settrace(trace)
from zonegc.cli import main

statuses = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        statuses.append(main(argv))
sys.settrace(None)
threading.settrace(None)
print(json.dumps({"statuses": statuses, "entered": sorted(
    {(c.co_filename, c.co_firstlineno, c.co_name) for c in codes.values()})}))
"""


def _functions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) -> qualified name, for every named function
    in src/zonegc. A qualified name is the module's, then each enclosing
    class or function: bench.run_recursion.kernel."""
    found = {}

    def walk(code: types.CodeType, prefix: str) -> None:
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                name = f"{prefix}.{const.co_name}"
                if const.co_flags & inspect.CO_OPTIMIZED:
                    found[(const.co_filename, const.co_firstlineno, const.co_name)] = name
                walk(const, name)

    for path in sorted((SRC / "zonegc").glob("*.py")):
        walk(compile(path.read_text(), os.path.realpath(path), "exec"), path.stem)
    return found


def _runs(tmp: Path) -> list[tuple[list[str], int]]:
    """(argv, expected exit status) of every traced CLI run."""
    runs = []
    for kind in KINDS:
        options = [["--format", fmt] for fmt in ("csv", "markdown")]
        if kind in TIMED_KINDS:
            options = [["--attempts", "2", "--partitions", p, *o]
                       for p in ("1", "2") for o in options]
        runs += [([kind, "--size", str(SIZES[kind]), *o], 0) for o in options]
    configs = {"good": "zones.green = 2048\npolicy = predicates\n",
               "bad_value": "zones.green = 0\n", "unknown_key": "zones.purple = 1\n"}
    for name, text in configs.items():
        (tmp / f"{name}.conf").write_text(text)
        runs.append((["alloc_reuse", "--size", "10", "--config", str(tmp / f"{name}.conf")],
                     0 if name == "good" else 1))
    runs += [(["alloc_reuse", "--size", "10", "--output", str(tmp / "report.csv")], 0),
             (["alloc_reuse", "--size", "10", "--output", os.devnull], 0),
             (["alloc_reuse", "--size", "10", "--partitions", "2"], 1),
             (["loop", "--size", "10", "--chunk", "5"], 1)]
    return runs


@pytest.fixture(scope="module")
def unreached(tmp_path_factory) -> set[str]:
    """Qualified names of the functions that no traced CLI run enters."""
    assert set(SIZES) == set(KINDS), "give every CLI kind a size in SIZES"
    tmp = tmp_path_factory.mktemp("reachability")
    runs = _runs(tmp)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps([argv for argv, _ in runs])],
        capture_output=True, text=True, timeout=120, cwd=tmp,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["statuses"] == [status for _, status in runs]
    entered = {(os.path.realpath(f), line, name) for f, line, name in result["entered"]}
    return {name for key, name in _functions().items() if key not in entered}


def test_every_unreached_function_is_listed(unreached):
    unlisted = sorted(unreached - ALLOW.keys())
    assert not unlisted, (
        f"no CLI run enters {unlisted}: wire each into a bench kind's path, or "
        "delete it")


def test_no_listed_function_is_reached(unreached):
    reached = sorted(ALLOW.keys() & set(_functions().values()) - unreached)
    assert not reached, f"a CLI run now enters {reached}: drop their ALLOW entries"


def test_every_listed_name_exists():
    missing = sorted(ALLOW.keys() - set(_functions().values()))
    assert not missing, f"ALLOW lists {missing}, which no longer exist: drop their entries"


def test_every_reason_says_what_keeps_the_function():
    bad = sorted(name for name, reason in ALLOW.items() if not REASON.match(reason))
    assert not bad, (f"the ALLOW reasons of {bad} must start with cNN, perfbench/, "
                     "safety: or open:")


def test_every_perfbench_reason_holds():
    """'wraps' needs a wrap() of the function, through its class or a
    zonegc module alias; 'calls' a read of the name as an attribute, as a
    call reads it first and a property's read calls its getter; 'imports'
    an import of the function, or of its class, from its module."""
    wrong = []
    for name, reason in ALLOW.items():
        if not reason.startswith("perfbench/"):
            continue
        found = PERFBENCH_REASON.match(reason)
        assert found, f"{name}'s reason {reason!r} names no perfbench file and verb"
        text = (SRC.parent / "perfbench" / found[1]).read_text()
        module, *owner, attr = name.split(".")
        through = owner[0] if owner else r"z\w+"  # a class, or a zonegc module
        held = {
            "wraps": rf'\bwrap\({through}, "{attr}"',
            "calls": rf"\.{attr}\b",
            "imports": rf"^from zonegc\.{module} import .*\b{(owner or [attr])[0]}\b",
        }[found[2]]
        if not re.search(held, text, re.MULTILINE):
            wrong.append(name)
    assert not wrong, f"the perfbench/ reasons of {wrong} do not hold: correct them"


def _unread_imports() -> dict[str, str]:
    """module.name -> source line, for each name that a module-level import in
    src/zonegc binds and nothing else in that module reads."""
    found = {}
    for path in sorted((SRC / "zonegc").glob("*.py")):
        source = path.read_text()
        tree, lines = ast.parse(source), source.splitlines()
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                name = (alias.asname or alias.name).partition(".")[0]
                if name not in read:
                    found[f"{path.stem}.{name}"] = lines[alias.lineno - 1]
    return found


def test_every_import_is_read_or_kept_for_the_tracer():
    unread = _unread_imports()
    dead = sorted(unread.keys() - TRACER_IMPORTS)
    assert not dead, f"{dead} are imported and never read: delete the imports"
    stale = sorted(TRACER_IMPORTS - unread.keys())
    assert not stale, f"{stale} are read in their modules now: drop them from TRACER_IMPORTS"
    tracer = (SRC.parent / "perfbench" / "tracer.py").read_text()
    for name in sorted(TRACER_IMPORTS):
        noqa = TRACER_NOQA.search(unread[name])
        assert noqa and noqa[1] == name, (
            f"{name}'s import needs the comment "
            f"'# noqa: F401  perfbench's tracer wraps {name}'")
        module, _, attr = name.partition(".")
        assert f'wrap(z{module}, "{attr}"' in tracer, (
            f"perfbench/tracer.py no longer wraps {name}: delete its import")
