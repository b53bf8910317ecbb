"""Config parsing, type conversion, and runtime assembly."""

from __future__ import annotations

import dataclasses
import subprocess
import sys

import pytest

import zonegc.config as zconfig
from zonegc.cli import main
from zonegc.config import DEFAULT_CONFIG, RuntimeConfig, load_config, parse_config
from zonegc.errors import ConfigError
from zonegc.layout import MAX_ZONE_SLOTS, ZoneId
from zonegc.objects import EmaConfig
from zonegc.zones import CostParams, PredicateThresholds, RateThresholds


def test_defaults_assemble_a_runtime():
    cfg = RuntimeConfig()
    arena = cfg.build_arena()
    assert arena.layout.total == 3072
    assert arena.policy == "simple"


def test_parse_overrides_and_comments():
    cfg = parse_config(
        """
        # comment line
        zones.green = 64   # trailing comment
        policy = predicates
        ema_weight = 0.25
        seconds_per_op = 0.002
        cost.red.mark = 1.1
        sweep_interval = 100
        """
    )
    assert cfg.zone_green == 64
    assert cfg.zone_red == 1024  # untouched default
    assert cfg.policy == "predicates"
    assert cfg.ema_weight == 0.25
    assert cfg.seconds_per_op == 0.002
    assert cfg.cost_red_mark == 1.1
    assert cfg.sweep_interval == 100


def test_parse_rejects_unknown_key_and_bad_values():
    with pytest.raises(ConfigError):
        parse_config("zones.purple = 7")
    with pytest.raises(ConfigError):
        parse_config("zones.red = many")
    with pytest.raises(ConfigError):
        parse_config("ema_weight = high")
    with pytest.raises(ConfigError):
        parse_config("sweep_interval = 2.5")
    with pytest.raises(ConfigError):
        parse_config("just a line without equals")


def test_every_documented_key_maps_to_a_real_field():
    cfg = parse_config(
        """
        zones.red = 7
        ema_weight = 0.3
        zones.blue = 2
        rate_window = 2.0
        simple.mutation_green = 200
        predicate.size_red = 128
        cost.red.mark = 1.2
        cost.mark_tolerance = 0.5
        max_recursion_depth = 100
        """
    )
    assert (cfg.zone_red, cfg.ema_weight, cfg.zone_blue) == (7, 0.3, 2)
    assert (cfg.rate_window, cfg.simple_mutation_green) == (2.0, 200.0)
    assert (cfg.predicate_size_red, cfg.cost_red_mark) == (128.0, 1.2)
    assert (cfg.cost_mark_tolerance, cfg.max_recursion_depth) == (0.5, 100)
    assert {f.type for f in dataclasses.fields(RuntimeConfig)} == {"int", "float", "str"}
    # only the documented spelling of a key is accepted
    for alias in ("zone.red", "zones_red", "cost_red_mark", "cost.red_mark",
                  "cost.mark.tolerance", "rate.window", "gen_fraction0",
                  "simple.access.red", "zone_red"):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(f"{alias} = 1")


@pytest.mark.parametrize("key", [
    "pause.red", "pause.green", "pause.blue", "eta.red", "eta.green", "eta.blue",
    "delta.red", "delta.green", "delta.blue", "rebalance.factor",
    "rebalance.normalize", "cores", "scratch.slots", "scratch.bytes",
    "chi.loop", "chi.recursion", "chi.matrix",
    "partitions.red", "partitions.green", "partitions.blue", "pool_discipline",
    "gen.fraction0", "gen.fraction1",
])
def test_deleted_keys_fail_at_their_line(key):
    with pytest.raises(ConfigError, match=rf"^line 2: unknown key '{key}'$"):
        parse_config(f"zones.red = 8\n{key} = 1\n")


def test_zone_size_is_bounded_at_parse_time():
    # builds only the config, never an arena
    assert parse_config(f"zones.red = {MAX_ZONE_SLOTS}").zone_red == MAX_ZONE_SLOTS
    with pytest.raises(ConfigError, match=rf"^line 2: zone B has {MAX_ZONE_SLOTS + 1} "):
        parse_config(f"zones.red = 8\nzones.blue = {MAX_ZONE_SLOTS + 1}\n")
    with pytest.raises(ConfigError, match="^line 1: zone R "):
        parse_config("zones.red = 1000000000000")


def test_config_rules_are_checked_at_construction():
    with pytest.raises(ConfigError, match="zone R needs at least one entry"):
        RuntimeConfig(zone_red=0)
    with pytest.raises(ConfigError, match="sweep_interval.*; EMA weight"):
        RuntimeConfig(sweep_interval=0, ema_weight=1.0)


@pytest.mark.parametrize("text, line", [
    # cross-key rule broken by both lines together: either line is involved
    ("simple.access_red = 50\nsimple.access_green = 40", 1),
    # a value out of range on its own is named at its own line
    ("simple.access_green = 200\nsimple.access_red = 300", 2),
    # a pair valid together does not take the blame for another key's error
    ("simple.access_green = 200\nzones.red = 0\nsimple.access_red = 150", 2),
    # a repeated key is named at its last line, the one that takes effect
    ("zones.red = 0\nzones.green = 8\nzones.red = 0", 3),
    # the first line already breaks the ordering against the defaults
    ("predicate.access_red = 5\npredicate.access_green = 50", 1),
])
def test_broken_rule_names_a_line_it_involves(text, line):
    with pytest.raises(ConfigError, match=rf"^line {line}: "):
        parse_config(text)


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "runtime.conf"
    path.write_text("zones.red = 33\nseconds_per_op = 0.5\n")
    cfg = load_config(path)
    assert cfg.zone_red == 33
    assert cfg.seconds_per_op == 0.5


def test_config_defaults_are_the_pieces_defaults():
    cfg = RuntimeConfig()
    assert CostParams() == cfg.cost_params()
    assert RateThresholds() == cfg.rate_thresholds()
    assert PredicateThresholds() == cfg.predicate_thresholds()
    assert EmaConfig().weight == cfg.ema_weight
    assert DEFAULT_CONFIG == cfg


def test_every_broken_rule_is_listed_in_one_error():
    # one rule of each kind: two of the config's own, and one per piece
    with pytest.raises(ConfigError) as info:
        RuntimeConfig(policy="bogus", rate_window=0.0, zone_green=0, ema_weight=1.0,
                      simple_access_red=500.0, predicate_size_red=1e9,
                      cost_blue_mark=-1.0)
    assert [message.split()[0] for message in info.value.args] == [
        "policy", "rate_window", "zone", "EMA", "rate", "predicate", "cost"]


def test_build_arena_takes_the_pieces_validation_built(monkeypatch):
    names = ("ZoneLayout", "EmaConfig", "RateThresholds", "PredicateThresholds",
             "CostParams")
    built: dict[str, list] = {}
    for name in names:
        def record(*args, _piece=getattr(zconfig, name), _name=name, **kwargs):
            built.setdefault(_name, []).append(_piece(*args, **kwargs))
            return built[_name][-1]
        monkeypatch.setattr(zconfig, name, record)
    cfg = RuntimeConfig(policy="predicates")
    first, second = cfg.build_arena(), cfg.build_arena()
    # each piece was built once, by the validation, and is handed out as is
    assert {name: len(made) for name, made in built.items()} == dict.fromkeys(names, 1)
    pieces = {name: made[0] for name, made in built.items()}
    for arena in (first, second):
        assert arena.layout is pieces["ZoneLayout"]
        assert arena.slots.cfg is pieces["EmaConfig"]
        assert arena.thresholds is pieces["PredicateThresholds"]
        assert arena.costs is pieces["CostParams"]
    assert cfg.rate_thresholds() is pieces["RateThresholds"]
    assert cfg.predicate_thresholds() is pieces["PredicateThresholds"]
    assert cfg.cost_params() is pieces["CostParams"]


def test_arenas_from_one_config_share_no_mutable_part():
    first, second = DEFAULT_CONFIG.build_arena(), DEFAULT_CONFIG.build_arena()
    assert first.clock is not second.clock
    assert first.table is not second.table
    assert first.slots is not second.slots
    first.release(first.allocate(ZoneId.GREEN, "t"))
    assert (second.clock.ops, second.slots.site_tag.count("t")) == (0, 0)
    assert not any(second.table.states())
    assert second.pool_stats(ZoneId.GREEN).total_requests == 0


def test_replace_revalidates_and_rebuilds_the_pieces():
    with pytest.raises(ConfigError, match="zone R needs at least one entry"):
        dataclasses.replace(DEFAULT_CONFIG, zone_red=0)
    small = dataclasses.replace(DEFAULT_CONFIG, zone_red=8, cost_red_mark=1.1)
    assert small.build_arena().layout.n_red == 8
    assert small.cost_params().weights[ZoneId.RED].mark == 1.1
    # the source config keeps its own pieces
    assert DEFAULT_CONFIG.build_arena().layout.n_red == 1024
    assert DEFAULT_CONFIG.cost_params() == CostParams()


def test_config_is_frozen():
    cfg = RuntimeConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.zone_red = 1  # type: ignore[misc]


# One distinct valid value per threshold and cost key.
PIECE_KEYS = {
    "simple.access_red": 1.0, "simple.access_green": 2.0,
    "simple.mutation_red": 3.0, "simple.mutation_green": 4.0,
    "predicate.lifetime_red": 0.5, "predicate.lifetime_green": 5.5,
    "predicate.mutation_red": 200.0, "predicate.mutation_green": 20.0,
    "predicate.access_red": 300.0, "predicate.access_green": 30.0,
    "predicate.size_red": 128.0, "predicate.size_green": 8192.0,
    "cost.red.mark": 1.3, "cost.red.scan": 1.2, "cost.red.stage": 5.0,
    "cost.green.mark": 1.1, "cost.green.scan": 0.9, "cost.green.stage": 3.0,
    "cost.blue.mark": 0.4, "cost.blue.scan": 0.3, "cost.blue.stage": 0.7,
    "cost.mark_tolerance": 0.35,
}


def test_each_piece_key_reaches_its_piece_field():
    assert {key.replace(".", "_") for key in PIECE_KEYS} == {
        f.name for f in dataclasses.fields(RuntimeConfig)
        if f.name.startswith(("simple_", "predicate_", "cost_"))}
    cfg = parse_config("\n".join(f"{key} = {v}" for key, v in PIECE_KEYS.items()))
    costs = cfg.cost_params()
    pieces = {"simple": cfg.rate_thresholds(), "predicate": cfg.predicate_thresholds(),
              "cost": costs, **{f"cost.{z.name.lower()}": costs.weights[z] for z in ZoneId}}
    for prefix, piece in pieces.items():
        keys = {key.rpartition(".")[2]: v for key, v in PIECE_KEYS.items()
                if key.rpartition(".")[0] == prefix}
        # every field of the piece has its key, and holds that key's value
        assert {f.name for f in dataclasses.fields(piece)} - {"weights"} == set(keys)
        for name, value in keys.items():
            assert getattr(piece, name) == value, f"{prefix}.{name}"


def test_factories_honor_overrides():
    cfg = parse_config(
        """
        cost.blue.stage = 0.5
        seconds_per_op = 0.001
        """
    )
    costs = cfg.cost_params()
    assert costs.weights[ZoneId.BLUE].stage == 0.5
    clock = cfg.clock()
    clock.ops += 10
    assert clock.now == pytest.approx(0.01)


# -- the CLI boundary ---------------------------------------------------------


@pytest.mark.parametrize("bad", [
    "sweep_interval = 0",
    "rate_window = nan",
    "seconds_per_op = -1",
    "max_recursion_depth = 0",
    "zones.red = 0",
    "ema_weight = 2",
    "policy = bogus",
    "pause.red = 0.5",
])
def test_cli_reports_bad_config_at_its_line(tmp_path, capsys, bad):
    path = tmp_path / "runtime.conf"
    path.write_text(f"# runtime overrides\n{bad}\nzones.green = 64\n")
    assert main(["checkpoint_lifecycle", "--size", "10", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("text", [
    "simple.access_red = 150\nsimple.access_green = 200\n",
    "simple.access_green = 200\nsimple.access_red = 150\n",
])
def test_cli_accepts_valid_config_in_any_line_order(tmp_path, capsys, text):
    path = tmp_path / "runtime.conf"
    path.write_text(text)
    assert main(["checkpoint_lifecycle", "--size", "10", "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_cli_returns_with_a_rate_window_below_the_time_spacing(tmp_path):
    # expiration records an access on its requests; a window of 1e-300 adds
    # nothing to a window start of the logical clock, and the run must still
    # end, with the counters the default window gives
    path = tmp_path / "runtime.conf"
    path.write_text("rate_window = 1e-300\n")
    proc = subprocess.run(
        [sys.executable, "-m", "zonegc", "expiration", "--size", "3", "--config", str(path)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1:] == [
        "zone,total_requests,real_allocations,reused_objects,expired_objects,pool_size",
        "G,3,1,2,1,1", "B,3,1,2,1,1", "R,3,1,2,3,1"]
