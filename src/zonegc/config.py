"""Runtime configuration: one flat dataclass, a plain-text key-value loader,
and factory helpers that assemble the configured runtime pieces.

File format: one `key = value` per line, `#` starts a comment, blank lines
ignored. A key is its field's name with the group prefix dotted off, for
example:

    zones.green = 2048
    simple.access_red = 10
    cost.blue.stage = 1.0
    policy = simple

Key groups: zones.* (red, green, blue); simple.* and predicate.* policy
thresholds; cost.<zone>.mark|scan|stage and cost.mark_tolerance; and the
plain keys policy, rate_window, ema_weight, seconds_per_op, sweep_interval
and max_recursion_depth.

The threshold and cost pieces take their fields by name: simple.access_red
sets RateThresholds.access_red and cost.red.mark the red ZoneWeights.mark.
build_arena hands the arena only the active policy's thresholds, whose type
selects the policy.

A config is checked as a whole when it is built. The pieces it assembles
(ZoneLayout, EmaConfig, RateThresholds, PredicateThresholds, CostParams)
apply their own rules; RuntimeConfig adds the rules no piece owns: policy
takes one of its allowed values, sweep_interval and max_recursion_depth are
>= 1, rate_window and seconds_per_op are finite and > 0. parse_config reports
a broken rule as ConfigError naming a line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .layout import ZONE_ORDER, ZoneLayout
from .objects import EmaConfig, LogicalClock
from .zones import (
    POLICIES,
    CostParams,
    PredicateThresholds,
    RateThresholds,
    ZoneArena,
    ZoneWeights,
)


@dataclass(frozen=True)
class RuntimeConfig:
    # table layout
    zone_red: int = 1024
    zone_green: int = 1024
    zone_blue: int = 1024
    # metrics and lifecycle
    policy: str = "simple"
    rate_window: float = 1.0
    ema_weight: float = 0.5
    seconds_per_op: float = 1e-6
    sweep_interval: int = 500
    # rate-policy thresholds
    simple_access_red: float = 10.0
    simple_access_green: float = 100.0
    simple_mutation_red: float = 10.0
    simple_mutation_green: float = 100.0
    # predicate-policy thresholds
    predicate_lifetime_red: float = 0.1
    predicate_lifetime_green: float = 10.0
    predicate_mutation_red: float = 100.0
    predicate_mutation_green: float = 10.0
    predicate_access_red: float = 100.0
    predicate_access_green: float = 10.0
    predicate_size_red: float = 256.0
    predicate_size_green: float = 4096.0
    # cost model
    cost_red_mark: float = 1.0
    cost_red_scan: float = 1.0
    cost_red_stage: float = 4.0
    cost_green_mark: float = 1.0
    cost_green_scan: float = 0.8
    cost_green_stage: float = 2.0
    cost_blue_mark: float = 0.5
    cost_blue_scan: float = 0.5
    cost_blue_stage: float = 1.0
    cost_mark_tolerance: float = 0.25
    # bench harness
    max_recursion_depth: int = 32000

    def __post_init__(self) -> None:
        own_rules = (
            (self.policy in POLICIES, f"policy must be one of {POLICIES}"),
            (self.sweep_interval >= 1, "sweep_interval must be >= 1"),
            (self.max_recursion_depth >= 1, "max_recursion_depth must be >= 1"),
            (0 < self.rate_window < math.inf, "rate_window must be finite and > 0"),
            (0 < self.seconds_per_op < math.inf, "seconds_per_op must be finite and > 0"),
        )
        problems = [message for ok, message in own_rules if not ok]
        for factory in (self.layout, self.ema, self.rate_thresholds,
                        self.predicate_thresholds, self.cost_params):
            try:
                factory()
            except ValueError as exc:
                problems.append(str(exc))
        if problems:
            raise ConfigError(*problems)

    # -- factories ----------------------------------------------------------

    def layout(self) -> ZoneLayout:
        return ZoneLayout(self.zone_red, self.zone_green, self.zone_blue)

    def ema(self) -> EmaConfig:
        return EmaConfig(self.ema_weight)

    def clock(self) -> LogicalClock:
        return LogicalClock(self.seconds_per_op)

    def _group(self, group: str) -> dict:
        """The fields under key prefix `group.`, named by the rest of their key,
        which is the name of the piece field they set."""
        return {name: getattr(self, field) for name, field in _GROUP_FIELDS[group].items()}

    def rate_thresholds(self) -> RateThresholds:
        return RateThresholds(**self._group("simple"))

    def predicate_thresholds(self) -> PredicateThresholds:
        return PredicateThresholds(**self._group("predicate"))

    def cost_params(self) -> CostParams:
        return CostParams(
            weights={zone: ZoneWeights(**self._group(f"cost.{zone.name.lower()}"))
                     for zone in ZONE_ORDER},
            **self._group("cost"),
        )

    def build_arena(self) -> ZoneArena:
        return ZoneArena(
            self.layout(),
            clock=self.clock(),
            rate_window=self.rate_window,
            ema=self.ema(),
            thresholds=(self.rate_thresholds() if self.policy == "simple"
                        else self.predicate_thresholds()),
            costs=self.cost_params(),
        )


# Groups whose keys are dotted: field cost_red_mark is key cost.red.mark and
# cost_mark_tolerance is cost.mark_tolerance. zones.* is the one group whose
# key prefix differs from its fields' prefix (zone_*).
_GROUPS = {"zone": "zones", "simple": "simple", "predicate": "predicate",
           "cost": "cost"}


def _key_of(name: str) -> str:
    group, _, rest = name.partition("_")
    if group not in _GROUPS:
        return name
    colour, _, tail = rest.partition("_")
    if tail and colour in ("red", "green", "blue"):
        rest = f"{colour}.{tail}"
    return f"{_GROUPS[group]}.{rest}"


_FIELDS = {_key_of(f.name): f for f in fields(RuntimeConfig)}


def _group_fields() -> dict[str, dict[str, str]]:
    """Key group -> {last key part: field name}, for example "cost.red" ->
    {"mark": "cost_red_mark", ...}; plain keys fall in group ""."""
    groups: dict[str, dict[str, str]] = {}
    for key, f in _FIELDS.items():
        group, _, name = key.rpartition(".")
        groups.setdefault(group, {})[name] = f.name
    return groups


# Built once: scanning fields() on every factory call tripled a config build.
_GROUP_FIELDS = _group_fields()
_PARSERS = {"int": int, "float": float, "str": str}


def _problems(values: dict) -> tuple[str, ...]:
    """Messages of the checks the defaults with `values` applied fail; empty
    if none."""
    try:
        RuntimeConfig(**values)
    except ConfigError as exc:
        return exc.args
    return ()


def _line_of(problem: str, values: dict, lines: dict[str, int]) -> int:
    """Line of a key that `problem` involves.

    A line is involved when dropping it clears the problem. Among those, a
    line whose value breaks a rule by itself is preferred, so a value out of
    range on its own is reported at its own line.
    """
    ordered = sorted(lines, key=lines.get)
    involved = [
        name for name in ordered
        if problem not in _problems({n: v for n, v in values.items() if n != name})
    ]
    alone = [name for name in involved if _problems({name: values[name]})]
    return lines[(alone or involved or ordered)[0]]


def parse_config(text: str) -> RuntimeConfig:
    """Apply key-value overrides from `text` on top of the defaults.

    The overrides are checked together, so a valid file parses whatever its
    line order; a broken rule raises ConfigError at the line of a key it
    involves. A repeated key keeps its last value.
    """
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        field = _FIELDS.get(key)
        if field is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[field.name] = _PARSERS[field.type](raw)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: bad value for {key!r}: {raw!r}") from None
        lines[field.name] = lineno
    try:
        return RuntimeConfig(**values)
    except ConfigError as exc:
        problem = exc.args[0]
    raise ConfigError(f"line {_line_of(problem, values, lines)}: {problem}")


def load_config(path: str | Path) -> RuntimeConfig:
    return parse_config(Path(path).read_text())
