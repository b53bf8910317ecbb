"""Runtime configuration: one flat dataclass, whose pieces every arena it
builds shares, and a plain-text key-value loader.

File format: one `key = value` per line, `#` starts a comment, blank lines
ignored. A key is its field's name with the group prefix dotted off, for
example:

    zones.green = 2048
    simple.access_red = 10
    cost.blue.stage = 1.0
    policy = simple

Key groups: zones.* (red, green, blue); simple.* and predicate.* policy
thresholds; cost.<zone>.mark|scan|stage; and the plain keys policy,
rate_window, ema_weight, seconds_per_op and sweep_interval.

The threshold and cost pieces take their fields by name: simple.access_red
sets RateThresholds.access_red and cost.red.mark the red ZoneWeights.mark.
build_arena hands the arena only the active policy's thresholds, whose type
selects the policy.

A config is checked as a whole when it is built. The pieces it builds and keeps
as immutable attributes (layout, ema, rate_thresholds, predicate_thresholds,
cost_params) apply their own rules; RuntimeConfig adds the rules no piece
owns: policy takes one of its allowed values, sweep_interval is >= 1,
rate_window and seconds_per_op are finite and > 0. parse_config reports a
broken rule as ConfigError naming a line. WorkloadSpec checks the chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .layout import ZONE_ORDER, ZoneId, ZoneLayout
from .objects import RATE_WINDOW, EmaConfig, LogicalClock
from .zones import (
    DEFAULT_WEIGHTS,
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
    rate_window: float = RATE_WINDOW
    ema_weight: float = EmaConfig.weight
    seconds_per_op: float = LogicalClock.seconds_per_op
    sweep_interval: int = 500
    # rate-policy thresholds
    simple_access_red: float = RateThresholds.access_red
    simple_access_green: float = RateThresholds.access_green
    simple_mutation_red: float = RateThresholds.mutation_red
    simple_mutation_green: float = RateThresholds.mutation_green
    # predicate-policy thresholds
    predicate_lifetime_red: float = PredicateThresholds.lifetime_red
    predicate_lifetime_green: float = PredicateThresholds.lifetime_green
    predicate_mutation_red: float = PredicateThresholds.mutation_red
    predicate_mutation_green: float = PredicateThresholds.mutation_green
    predicate_access_red: float = PredicateThresholds.access_red
    predicate_access_green: float = PredicateThresholds.access_green
    predicate_size_red: float = PredicateThresholds.size_red
    predicate_size_green: float = PredicateThresholds.size_green
    # cost model
    cost_red_mark: float = DEFAULT_WEIGHTS[ZoneId.RED.ordinal].mark
    cost_red_scan: float = DEFAULT_WEIGHTS[ZoneId.RED.ordinal].scan
    cost_red_stage: float = DEFAULT_WEIGHTS[ZoneId.RED.ordinal].stage
    cost_green_mark: float = DEFAULT_WEIGHTS[ZoneId.GREEN.ordinal].mark
    cost_green_scan: float = DEFAULT_WEIGHTS[ZoneId.GREEN.ordinal].scan
    cost_green_stage: float = DEFAULT_WEIGHTS[ZoneId.GREEN.ordinal].stage
    cost_blue_mark: float = DEFAULT_WEIGHTS[ZoneId.BLUE.ordinal].mark
    cost_blue_scan: float = DEFAULT_WEIGHTS[ZoneId.BLUE.ordinal].scan
    cost_blue_stage: float = DEFAULT_WEIGHTS[ZoneId.BLUE.ordinal].stage

    def __post_init__(self) -> None:
        own_rules = (
            (self.policy in POLICIES, f"policy must be one of {POLICIES}"),
            (self.sweep_interval >= 1, "sweep_interval must be >= 1"),
            (0 < self.rate_window < math.inf, "rate_window must be finite and > 0"),
            (0 < self.seconds_per_op < math.inf, "seconds_per_op must be finite and > 0"),
        )
        problems = [message for ok, message in own_rules if not ok]
        # The piece fields above default to the pieces' own defaults. The
        # pieces are kept as attributes, not fields; immutable, they are shared.
        for name, build in (
            ("layout", lambda: ZoneLayout(self.zone_red, self.zone_green, self.zone_blue)),
            ("ema", lambda: EmaConfig(self.ema_weight)),
            ("rate_thresholds", lambda: RateThresholds(**self._group("simple"))),
            ("predicate_thresholds", lambda: PredicateThresholds(**self._group("predicate"))),
            ("cost_params", lambda: CostParams(
                weights=tuple(ZoneWeights(**self._group(f"cost.{zone.name.lower()}"))
                              for zone in ZONE_ORDER))),
        ):
            try:
                object.__setattr__(self, name, build())
            except ValueError as exc:
                problems.append(str(exc))
        if problems:
            raise ConfigError(*problems)

    def _group(self, group: str) -> dict:
        """The fields under key prefix `group.`, named by the rest of their key,
        which is the name of the piece field they set."""
        return {name: getattr(self, field) for name, field in _GROUP_FIELDS[group].items()}

    def build_arena(self) -> ZoneArena:
        """A new arena on this config's pieces, with a clock of its own: a
        clock advances, so no two arenas share one."""
        thresholds = (self.rate_thresholds if self.policy == "simple"
                      else self.predicate_thresholds)
        return ZoneArena(self.layout, clock=LogicalClock(self.seconds_per_op),
                         rate_window=self.rate_window, ema=self.ema,
                         thresholds=thresholds, costs=self.cost_params)


# Groups whose keys are dotted: field simple_access_red is key
# simple.access_red and cost_red_mark is cost.red.mark. zones.* is the one
# group whose key prefix differs from its fields' prefix (zone_*).
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


# Built once: scanning fields() on every piece build tripled a config build.
_GROUP_FIELDS = _group_fields()
# The config of every run without --config: frozen, so one serves them all.
DEFAULT_CONFIG = RuntimeConfig()
_PARSERS = {"int": int, "float": float, "str": str}
# A config file is a few dozen lines; load_config refuses one longer than this.
MAX_CONFIG_CHARS = 1 << 20


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
    """parse_config of the UTF-8 file at `path`. The read is capped, so an
    endless file such as /dev/zero fails instead of filling memory."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read(MAX_CONFIG_CHARS + 1)
    if len(text) > MAX_CONFIG_CHARS:
        raise ConfigError(f"{path}: config file longer than {MAX_CONFIG_CHARS} characters")
    return parse_config(text)
