"""Experiment configuration, artifact hashing, CSV helpers, exit codes, and
the full command pipeline on miniature worlds in both adaptation modes."""

import dataclasses
import hashlib
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import typing

import numpy as np
import pytest

import slimnav
from slimnav import cli, pathoracle, slimnet, worldsim
from slimnav.auxtrain import EpisodeLog, EpisodeStep
from slimnav.cli import (AUX_ACTOR_FILE, AUX_CRITIC_FILES, AUX_EPISODES_FILE,
                         AUX_EVAL_FILE, AUX_UPDATES_FILE, BENCH_FILE,
                         CONFIG_FILE, DATA_FILES, EVAL_EPISODES_FILE,
                         EVAL_RMSE_FILE, EVAL_SUCCESS_FILE, GATE_FILE,
                         NAV_TRAIN_FILE, NAV_WEIGHTS_FILE, PATHS_FILES,
                         REPORT_FILES, WORLD_FILE, ExperimentConfig,
                         load_config, read_csv, write_config_copy, write_csv)
from slimnav.errors import (ConfigError, ConstraintViolation, DependencyError,
                            LoadError, field_ranges)


# ---------------------------------------------------------------------------
# configuration tree

def test_default_config_round_trip():
    cfg = ExperimentConfig()
    data = cfg.to_dict()
    # the dict is plain JSON (tuples already converted)
    assert json.loads(json.dumps(data)) == data
    again = ExperimentConfig.from_dict(data)
    assert again.to_dict() == data
    assert again.config_hash() == cfg.config_hash()
    # a non-default config: null in an optional field, nested lists, and an
    # int in a float field, which is kept as given
    data["aux"]["gate_distance"] = None
    data["bench"]["sizes"] = [[8], [16, 16]]
    data["curriculum"]["start"] = 5
    other = ExperimentConfig.from_dict(data)
    assert other.aux.gate_distance is None
    assert other.bench.sizes == ((8,), (16, 16))
    assert json.dumps(other.to_dict(), sort_keys=True) == \
        json.dumps(data, sort_keys=True)
    assert other.config_hash() != cfg.config_hash()


# The benchmark fixtures' pinned small config (every other key keeps its
# default); these hashes are the `config` values in the fixture weight files.
FIXTURE_OVERRIDES = (
    "world.dims=[48,48,8]",
    "oracle.n_train_paths=200",
    "nav.hidden=[64,64]",
    "nav.max_epochs=15",
    "nav.refine_rollouts=100",
    "aux.total_env_steps=2000",
)


def test_config_hash_is_pinned():
    # a changed hash turns every artifact built before it stale
    assert ExperimentConfig().config_hash() == "3d4928afa0954764"
    for mode, expected in (("C", "6161bb8aaa19ccc6"), ("S", "9092be8fc70805e7")):
        cfg = load_config(None, [f"mode={mode}", *FIXTURE_OVERRIDES])
        assert cfg.config_hash() == expected


def test_from_dict_rejects_unknown_names():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"wrold": {}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"world": {"densty": 0.1}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"world": 0.1})


def test_from_dict_converts_lists_to_tuples():
    cfg = ExperimentConfig.from_dict({
        "nav": {"hidden": [64, 32]},
        "bench": {"sizes": [[8], [16, 16]]},
    })
    assert cfg.nav.hidden == (64, 32)
    assert cfg.bench.sizes == ((8,), (16, 16))


@pytest.mark.parametrize("data", [
    {"mode": "X"},
    {"world": {"dims": [64, 64]}},
    {"world": {"density": 1.0}},
    {"world": {"flight_z": 8}},
    {"world": {"flight_z": 7}},   # the shell's ceiling, like 0 its floor
    {"sensor": {"fifo_depth": 0}},
    {"oracle": {"region_fractions": [0.5, 0.5]}},
    {"oracle": {"distances": []}},
    {"oracle": {"label_jitter": -0.1}},
    {"oracle": {"crowd_boost": 0}},
    {"eval": {"buckets": []}},
    {"bench": {"repeats": 0}},
    # values of the wrong type
    {"world": {"density": "x"}},
    {"aux": {"gamma": "0.9"}},
    {"nav": {"hidden": "abc"}},
    {"eval": {"buckets": 5}},
    {"aux": {"batch_size": 1.5}},
    {"world": {"vertical_locked": 3}},
    {"bench": {"sizes": [32]}},
    {"curriculum": {"start": True}},
    {"world": {"dims": [64, 64, 8, 8]}},
    {"oracle": {"n_train_paths": True}},
    {"out_dir": 1},
    {"world": {"goal_radius": float("nan")}},
    {"sensor": {"max_range": float("inf")}},
    # checks of the module dataclasses the sections are built from
    {"sensor": {"p_f": 5}},
    {"aux": {"gamma": 1.5}},
    {"reward": {"goal": -1.0}},
    {"constraint": {"beta": 0.5}},
    # smaller than worldsim.MIN_DIMS
    {"world": {"dims": [8, 8, 8]}},
    # checks of the module dataclasses the nav and curriculum sections are
    {"nav": {"rho_min": 0.0}},
    {"nav": {"patience": 0}},
    {"curriculum": {"threshold": 0.0}},
    {"curriculum": {"start": 50.0}},
    # checks of TD3Config, AuxConfig and DistillConfig
    {"aux": {"eval_every_episodes": 0}},
    {"aux": {"action_noise_std": -0.1}},
    {"aux": {"gate_episodes": 0}},
    {"aux": {"critic_hidden": [0]}},
    {"aux": {"actor_hidden": []}},
    {"aux": {"eval_episodes": 0}},
    {"aux": {"gate_distance": 0.0}},
    {"aux": {"target_noise_clip": -0.5}},
    {"aux": {"lr_critic": 0.0}},
    {"aux": {"exploration_steps": -1}},
    {"aux": {"max_episode_steps": 0}},
    {"nav": {"lr": 0.0}},
    # values that passed validation, then failed or misbehaved in a stage
    {"nav": {"output_scale": 0.0}},
    {"nav": {"output_scale": -2.0}},
    {"nav": {"refine_rollouts": -1}},
    {"eval": {"adapt_episodes": 0}},
    {"eval": {"adapt_distance": 0.0}},
    {"eval": {"buckets": [10, -5]}},
    {"oracle": {"distances": [5, 0]}},
    {"oracle": {"sample_tolerance": 1.0}},
    {"oracle": {"sample_tolerance": -0.1}},
    {"eval": {"sample_tolerance": 1.5}},
    {"bench": {"sizes": [[64, 0]]}},
    {"bench": {"sizes": [[]]}},
    {"bench": {"aux_hidden": [0]}},
    {"bench": {"aux_hidden": []}},
    # negative seeds reached numpy's generator and failed there
    {"world": {"seed": -1}},
    {"oracle": {"seed": -1}},
    {"nav": {"seed": -1}},
    {"aux": {"seed": -1}},
    {"eval": {"seed": -1}},
    {"bench": {"seed": -1}},
    {"oracle": {"clearance_weight": -0.5}},
    # values that loaded, then failed in a later stage or trained nothing
    {"oracle": {"region_fractions": [0, 0, 0]}},
    {"oracle": {"region_fractions": [0.96, 0.02, 0.02]}},  # a 1-voxel slab
    {"eval": {"rho_grid": []}},
    {"world": {"flight_z": 0}},
    {"aux": {"total_env_steps": -1}},
    {"aux": {"total_env_steps": 0}},
    # more voxels than worldsim.MAX_VOXELS
    {"world": {"dims": [1024, 1024, 32]}},
    # distances no two voxel centres can be apart within the tolerance they
    # are sampled at: below one voxel, or beyond the world's diagonal
    {"oracle": {"distances": [1e18]}},
    {"oracle": {"distances": [5, 0.7]}},
    {"world": {"resolution": 1e18}},
    {"world": {"resolution": 1e-18}},
    {"world": {"dims": [16, 16, 8]}},        # the default distances reach 45 m
    {"aux": {"gate_distance": 1e18}},
    {"eval": {"buckets": [10, 1000]}},
    {"eval": {"adapt_distance": 0.8}},
    {"curriculum": {"start": 0.5}},
    {"curriculum": {"maximum": 200}},
])
def test_validate_rejects_bad_values(data):
    with pytest.raises(ConfigError) as e:
        ExperimentConfig.from_dict(data)
    assert next(iter(data)) in str(e.value)  # names the section


@pytest.mark.parametrize("data,key", [
    ({"aux": {"gate_distance": 1e18}}, "aux.gate_distance"),
    ({"curriculum": {"maximum": 200}}, "curriculum.maximum"),
    ({"eval": {"buckets": [10, 1000]}}, "eval.buckets"),
    ({"world": {"resolution": 1e18}}, "oracle.distances"),
])
def test_impossible_distance_names_its_key(data, key):
    with pytest.raises(ConfigError, match=rf"^{key}: no two voxel centres of "
                                          rf"world.dims \(64, 64, 8\)"):
        ExperimentConfig.from_dict(data)


def test_distances_within_tolerance_of_the_world_load():
    # 64x64x8: centres lie 1 to 89.37 m apart; 127 m at tolerance 0.3
    # reaches down to 88.9 m, and 0.8 m at 0.3 up to 1.04 m
    ExperimentConfig.from_dict({"oracle": {"distances": [0.8, 127.0]},
                                "aux": {"gate_distance": 127.0},
                                "eval": {"buckets": [0.85, 111.0]}})


# Numeric leaves that declare no Range, each with the check that bounds it.
RANGE_EXEMPT = {
    "world.dims": "checked against worldsim.MIN_DIMS and MAX_VOXELS in validate",
    "sensor.p_f": "checked for membership in worldsim.FORWARD_LEVELS by SensorConfig",
    "sensor.p_d": "checked for membership in worldsim.DOWNWARD_LEVELS by SensorConfig",
    "oracle.region_fractions": "checked with world.dims[0] by "
                               "pathoracle.region_edges in validate",
    "aux.buffer_capacity": "checked against batch_size by TD3Config",
    "curriculum.maximum": "checked against start by Curriculum",
}


def _is_numeric(hint) -> bool:
    """int, float, an optional number, or a tuple of numbers (bool is not)."""
    args = [a for a in typing.get_args(hint) if a not in (Ellipsis, type(None))]
    return all(map(_is_numeric, args)) if args else hint in (int, float)


def _scalar(hint):
    """The int or float inside an optional or (nested) tuple annotation."""
    args = [a for a in typing.get_args(hint) if a not in (Ellipsis, type(None))]
    return _scalar(args[0]) if args else hint


def _numeric_leaves():
    """(section, key, annotation with Annotated stripped, Range or None) of
    every numeric leaf of ExperimentConfig."""
    for section, cls in typing.get_type_hints(ExperimentConfig).items():
        if not dataclasses.is_dataclass(cls):
            continue
        ranges = dict(field_ranges(cls))
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if _is_numeric(hints[f.name]):
                yield section, f.name, hints[f.name], ranges.get(f.name)


def _with_first_entry(default, v):
    """`default` with its first scalar replaced by v, as JSON data."""
    if isinstance(default, tuple):
        return [_with_first_entry(default[0], v), *default[1:]]
    return v


def test_every_numeric_leaf_declares_its_range():
    leaves = list(_numeric_leaves())
    assert len(leaves) > 60
    undeclared = {f"{s}.{k}" for s, k, _, r in leaves if r is None}
    assert undeclared == set(RANGE_EXEMPT)


@pytest.mark.parametrize("section,key,hint,r", [
    pytest.param(*leaf, id=f"{leaf[0]}.{leaf[1]}")
    for leaf in _numeric_leaves() if leaf[3] is not None])
def test_each_range_bound_is_enforced_at_load(section, key, hint, r):
    default = getattr(getattr(ExperimentConfig(), section), key)
    for bound, is_open, toward in ((r.lo, r.lo_open, -1), (r.hi, r.hi_open, 1)):
        if bound is None:
            continue
        if is_open:
            outside = bound
        elif _scalar(hint) is int:
            outside = bound + toward
        else:
            outside = math.nextafter(bound, toward * math.inf)
        with pytest.raises(ConfigError) as e:
            ExperimentConfig.from_dict({section: {key: _with_first_entry(default, outside)}})
        assert str(e.value).startswith(f"{section}.{key} must be in {r}")
        if not is_open:   # a closed bound is itself legal
            ExperimentConfig.from_dict({section: {key: _with_first_entry(default, bound)}})
    if isinstance(default, tuple):
        with pytest.raises(ConfigError, match=f"^{section}.{key} needs at least one entry"):
            ExperimentConfig.from_dict({section: {key: []}})


def test_config_hash_ignores_out_dir():
    a = ExperimentConfig.from_dict({"out_dir": "runs/a"})
    b = ExperimentConfig.from_dict({"out_dir": "runs/b"})
    assert a.config_hash() == b.config_hash()
    assert len(a.config_hash()) == 16
    int(a.config_hash(), 16)  # hex digest prefix


def test_config_hash_tracks_semantic_fields():
    a = ExperimentConfig()
    b = ExperimentConfig.from_dict({"world": {"seed": 8}})
    c = ExperimentConfig.from_dict({"mode": "S"})
    assert a.config_hash() != b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_load_config_missing_and_invalid_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.json"), None)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad), None)
    bad.write_text("[1]")
    with pytest.raises(ConfigError):
        load_config(str(bad), None)
    bad.write_bytes(b'{"mode": "\xff"}')   # not UTF-8
    with pytest.raises(ConfigError):
        load_config(str(bad), None)
    with pytest.raises(ConfigError):       # a directory
        load_config(str(tmp_path), None)


def test_load_config_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"world": {"density": 0.3}}))
    cfg = load_config(str(path), [
        "world.density=0.2",          # overrides the file value
        "nav.hidden=[64, 32]",        # JSON list becomes a tuple
        "mode=S",                     # bare strings need no quotes
        "out_dir=" + str(tmp_path),
    ])
    assert cfg.world.density == 0.2
    assert cfg.nav.hidden == (64, 32)
    assert cfg.mode == "S"
    assert cfg.out_dir == str(tmp_path)


def test_load_config_override_errors():
    with pytest.raises(ConfigError):
        load_config(None, ["world.density"])     # no '='
    with pytest.raises(ConfigError):
        load_config(None, ["world.nope=1"])      # unknown key
    with pytest.raises(ConfigError):
        load_config(None, ["mode.density=1"])    # scalar used as a section


def test_write_config_copy_round_trip(tmp_path):
    cfg = ExperimentConfig.from_dict({"out_dir": str(tmp_path / "run"),
                                      "world": {"seed": 11}})
    write_config_copy(cfg)
    copy = tmp_path / "run" / CONFIG_FILE
    data = json.loads(copy.read_text())
    assert data["hash"] == cfg.config_hash()
    # the stored hash key is informational; loading it back reproduces the
    # exact same configuration and hash
    again = load_config(str(copy), None)
    assert again.config_hash() == cfg.config_hash()


# ---------------------------------------------------------------------------
# CSV helpers

def test_csv_round_trip(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, "a,b", [(1, 2.5), (3, "x")], "f00d")
    header, rows = read_csv(path, "f00d")
    assert header == ["a", "b"]
    assert rows == [["1", "2.5"], ["3", "x"]]


def test_csv_empty_rows(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, "a,b", [], "f00d")
    header, rows = read_csv(path, "f00d")
    assert header == ["a", "b"]
    assert rows == []


def test_csv_hash_mismatch(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, "a", [(1,)], "f00d")
    with pytest.raises(DependencyError):
        read_csv(path, "beef")


def test_csv_missing_header_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(LoadError):
        read_csv(str(path), "f00d")


def test_csv_missing_column_header(tmp_path):
    path = tmp_path / "t.csv"
    for text in ("# config=f00d\n", "# config=f00d\n\n1,2\n"):
        path.write_text(text)
        with pytest.raises(LoadError, match="column header"):
            read_csv(str(path), "f00d")


def test_csv_rejects_bytes_that_are_not_text(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"# config=f00d\na,b\n\xff\xfe,1\n")
    with pytest.raises(LoadError):
        read_csv(str(path), "f00d")


def test_csv_rejects_rows_of_another_width(tmp_path):
    path = str(tmp_path / "t.csv")
    for row in ((1,), (1, 2, 3)):
        write_csv(path, "a,b", [(1, 2), row], "f00d")
        with pytest.raises(LoadError, match="line 4"):
            read_csv(path, "f00d")


def test_fmt():
    assert cli._fmt(0.1) == "0.1"
    assert cli._fmt(1.0 / 3.0) == "0.3333333333"
    assert cli._fmt(5) == "5"
    assert cli._fmt("reached") == "reached"


# ---------------------------------------------------------------------------
# episode rows round trip

def _toy_log(outcome, opt_steps):
    steps = [EpisodeStep(position=np.array([1.0, 2.0, 3.0]), rho=0.5,
                         p_f=3, p_d=1, reward=0.25, m_active=120,
                         mean_forward_depth=0.8, mean_downward_depth=0.4),
             EpisodeStep(position=np.array([2.0, 2.5, 3.0]), rho=0.75,
                         p_f=2, p_d=0, reward=-0.1, m_active=200,
                         mean_forward_depth=0.6, mean_downward_depth=0.2)]
    return EpisodeLog(steps=steps, outcome=outcome,
                      spawn=steps[0].position, goal=np.array([9.0, 9.0, 3.0]),
                      optimal_steps=opt_steps)


def _episode_file_rows(logs, tmp_path) -> list[list[str]]:
    """The rows of `logs` as the episode CSV stores and read_csv returns them."""
    path = str(tmp_path / "episodes.csv")
    write_csv(path, cli.EPISODE_COLUMNS, cli._episode_rows(logs), "f00d")
    return read_csv(path, "f00d")[1]


def test_episode_rows_round_trip(tmp_path):
    logs = [_toy_log("reached", 7), _toy_log("timeout", None)]
    rows = _episode_file_rows(logs, tmp_path)
    assert len(rows) == 4
    back = cli._logs_from_rows(rows, "episodes.csv", 1000)
    assert len(back) == 2
    assert back[0].outcome == "reached"
    assert back[0].optimal_steps == 7
    assert back[1].outcome == "timeout"
    assert back[1].optimal_steps is None
    assert [len(l.steps) for l in back] == [2, 2]
    orig = logs[0].steps[1]
    got = back[0].steps[1]
    assert np.allclose(got.position, orig.position)
    assert got.rho == orig.rho
    assert (got.p_f, got.p_d) == (orig.p_f, orig.p_d)
    assert got.reward == pytest.approx(orig.reward)
    assert got.m_active == orig.m_active
    assert got.mean_forward_depth == pytest.approx(orig.mean_forward_depth)


# one corruption of the first data row per case (column, text)
BAD_EPISODE_FIELDS = [
    ("p_f", "x"),           # does not parse
    ("episode_id", "1.5"),  # not an integer
    ("rho", "nan"),
    ("x", "inf"),
    ("rho", "1.5"),         # above 1
    ("rho", "0"),
    ("p_f", "4"),           # a forward power level the sensor lacks
    ("p_d", "-1"),          # a downward power level the sensor lacks
    ("outcome", "lost"),
]
EPISODE_NAMES = cli.EPISODE_COLUMNS.split(",")


# each id leads with the column's position in the file
@pytest.mark.parametrize("col,text", BAD_EPISODE_FIELDS, ids=[
    f"{EPISODE_NAMES.index(col)}-{text}" for col, text in BAD_EPISODE_FIELDS])
def test_logs_from_rows_rejects_bad_fields(col, text, tmp_path):
    rows = _episode_file_rows([_toy_log("reached", 7)], tmp_path)
    rows[0][EPISODE_NAMES.index(col)] = text
    with pytest.raises(LoadError, match="episodes.csv: episode row 1"):
        cli._logs_from_rows(rows, "episodes.csv", 1000)


# ---------------------------------------------------------------------------
# exit codes

def _entry_code(monkeypatch, argv) -> int:
    monkeypatch.setattr(sys, "argv", ["slimnav"] + argv)
    with pytest.raises(SystemExit) as e:
        cli.entry()
    return e.value.code


@pytest.mark.parametrize("override", [
    "aux.eval_every_episodes=0", "aux.action_noise_std=-0.1",
    "aux.gate_episodes=0", "aux.critic_hidden=[0]",
    # values of any section that loaded, then failed in oracle or later
    "oracle.region_fractions=[0,0,0]", "oracle.region_fractions=[0.96,0.02,0.02]",
    "world.dims=[1024,1024,32]", "eval.rho_grid=[]", "aux.total_env_steps=-1",
    "world.flight_z=0", "oracle.distances=[1e18]", "aux.gate_distance=1e18"])
def test_aux_values_that_failed_late_are_config_errors(tmp_path, monkeypatch,
                                                       capsys, override):
    for stage in ("gen-world", "train-aux"):
        code = _entry_code(monkeypatch, [stage, "--set", f"out_dir={tmp_path}",
                                         "--set", override])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error: " + override.partition("=")[0])
        assert "Traceback" not in err and err.count("\n") == 1
    assert os.listdir(tmp_path) == []   # refused before any stage ran


def test_entry_maps_exceptions_to_exit_codes(tmp_path, monkeypatch, capsys):
    def run(argv):
        return _entry_code(monkeypatch, argv)

    out = str(tmp_path / "run")
    # config error
    assert run(["gen-world", "--set", "world.density=2.0"]) == 2
    capsys.readouterr()
    assert run(["gen-world", "--set", 'world.density="x"']) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: world.density")
    assert "Traceback" not in err
    # a world below worldsim.MIN_DIMS is a config error at every stage
    for stage in cli.COMMANDS:
        assert run([stage, "--set", "out_dir=" + out, "--set", "world.dims=[8,8,8]"]) == 2
        assert capsys.readouterr().err.startswith("configuration error: world.dims")
    # missing upstream artifact
    assert run(["train-nav", "--set", "out_dir=" + out]) == 3
    # a world file whose metadata does not parse
    small = ["--set", "out_dir=" + out, "--set", "world.dims=[24,24,8]"]
    assert run(["gen-world", *small]) == 0
    path = os.path.join(out, WORLD_FILE)
    with open(path) as f:
        text = f.read()
    with open(path, "w") as f:
        f.write(text.replace("# seed=", "# seed=x", 1))
    capsys.readouterr()
    assert run(["oracle", *small]) == 3
    err = capsys.readouterr().err
    assert err.startswith("dependency error")
    assert "Traceback" not in err
    # a consistent world file above worldsim.MAX_VOXELS, refused at its header
    with open(path, "w") as f:
        f.write("NAVIWORLD v1 100000 100000 100000 1.0\n1000000000000000 0\n")
    assert run(["oracle", *small]) == 3
    err = capsys.readouterr().err
    assert err.startswith("dependency error") and "more than" in err
    assert "Traceback" not in err and err.count("\n") == 1
    # a navigation weight file holding a NaN
    with open(path, "w") as f:
        f.write(text)
    small_cfg = load_config(None, small[1::2])
    net = slimnet.SlimmableMLP(small_cfg.nav_spec())
    net.biases[-1][0] = np.nan
    slimnet.save_weights(net, os.path.join(out, NAV_WEIGHTS_FILE),
                         config_hash=small_cfg.config_hash())
    assert run(["eval", *small]) == 3
    err = capsys.readouterr().err
    assert err.startswith("dependency error")
    assert "Traceback" not in err
    # constraint violation (stubbed command; the real path needs a full
    # training run and is exercised in the pipeline tests)
    monkeypatch.setitem(cli.COMMANDS, "gen-world",
                        lambda cfg: (_ for _ in ()).throw(
                            ConstraintViolation("gate failed")))
    assert run(["gen-world"]) == 4


def test_diverged_training_exits_2(tmp_path, monkeypatch, capsys):
    # a learning rate that overflows the float32 weights on the first step
    small = ["--set", f"out_dir={tmp_path}", "--set", "world.dims=[24,24,8]",
             "--set", "world.density=0.05", "--set", "oracle.n_train_paths=4",
             "--set", "oracle.n_val_paths=2", "--set", "oracle.n_test_paths=2",
             "--set", "oracle.distances=[5]", "--set", "nav.hidden=[8]",
             "--set", "nav.refine_rollouts=0", "--set", "nav.lr=1e39"]
    for stage in ("gen-world", "oracle"):
        assert _entry_code(monkeypatch, [stage, *small]) == 0
    capsys.readouterr()
    # any warning is an error here, so a leaked overflow warning fails
    assert _entry_code(monkeypatch, ["train-nav", *small]) == 2
    err = capsys.readouterr().err
    assert err.startswith("training error:")
    assert "Traceback" not in err
    assert not os.path.exists(os.path.join(tmp_path, NAV_WEIGHTS_FILE))


def test_eval_rho_grid_outside_unit_interval_is_config_error(tmp_path, monkeypatch, capsys):
    # caught before any stage runs, not as a traceback from SlimMask
    # after every bucket has been flown
    for grid in ("[0.0, 1.0]", "[0.5, 1.5]", "[nan]"):
        monkeypatch.setattr(sys, "argv", ["slimnav", "eval", "--set",
                                          "out_dir=" + str(tmp_path / "run"),
                                          "--set", "eval.rho_grid=" + grid])
        with pytest.raises(SystemExit) as e:
            cli.entry()
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: eval.rho_grid")
        assert "Traceback" not in err


def test_console_script_runs(tmp_path):
    # the console script exists only after an install, so check its wiring
    # in pyproject.toml and run the stages through `python -m slimnav`
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["slimnav"]
    assert target == "slimnav.cli:entry"
    module, func = target.split(":")
    assert getattr(importlib.import_module(module), func) is cli.entry

    # the child imports the same package as this process, from any cwd
    src = os.path.dirname(os.path.dirname(slimnav.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = [sys.executable, "-m", "slimnav"]

    out = str(tmp_path / "run")
    proc = subprocess.run(
        run + ["gen-world", "--set", "out_dir=" + out,
               "--set", "world.dims=[24,24,8]", "--set", "world.density=0.05"],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert os.path.exists(os.path.join(out, WORLD_FILE))
    proc = subprocess.run(run + ["oracle", "--set", "out_dir=" + out],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path)
    assert proc.returncode == 3  # world was built from a different config
    assert "dependency error" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


# ---------------------------------------------------------------------------
# pipeline on a miniature world

def _mini_dict(out_dir, mode):
    return {
        "mode": mode,
        "out_dir": out_dir,
        "world": {"dims": [24, 24, 8], "density": 0.05, "seed": 3},
        "oracle": {"n_train_paths": 40, "n_val_paths": 10, "n_test_paths": 10,
                   "distances": [5, 6, 8]},
        "nav": {"hidden": [24, 12], "max_epochs": 10, "patience": 5,
                "refine_rollouts": 6},
        "aux": {"total_env_steps": 320, "exploration_steps": 120,
                "batch_size": 32, "buffer_capacity": 4000,
                "eval_every_episodes": 6, "eval_episodes": 2,
                "gate_episodes": 3, "gate_distance": 6.0,
                "max_episode_steps": 40},
        "curriculum": {"start": 5, "increment": 5, "maximum": 6},
        "eval": {"buckets": [5, 8], "episodes_per_bucket": 4,
                 "adapt_episodes": 5, "adapt_distance": 6.0},
        "bench": {"sizes": [[8], [16, 16]], "n_observations": 15,
                  "repeats": 2},
    }


def _run_pipeline(cfg_path):
    codes = {}
    for command in ("gen-world", "oracle", "train-nav", "train-aux",
                    "eval", "bench", "report"):
        try:
            codes[command] = cli.main([command, "--config", cfg_path])
        except ConstraintViolation:
            # the gate can honestly fail at this scale; artifacts are
            # still written, so downstream commands keep working
            codes[command] = 4
    return codes


def _mini_pipeline(tmp_path_factory, name, mode):
    root = tmp_path_factory.mktemp(name)
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(_mini_dict(str(root / "run"), mode)))
    codes = _run_pipeline(str(cfg_path))
    cfg = load_config(str(cfg_path), None)
    return cfg, codes, str(cfg_path)


@pytest.fixture(scope="module")
def mini_c(tmp_path_factory):
    return _mini_pipeline(tmp_path_factory, "mini_c", "C")


@pytest.fixture(scope="module")
def mini_s(tmp_path_factory):
    return _mini_pipeline(tmp_path_factory, "mini_s", "S")


def test_pipeline_exit_codes(mini_c):
    cfg, codes, _ = mini_c
    assert codes["gen-world"] == 0
    assert codes["oracle"] == 0
    assert codes["train-nav"] == 0
    assert codes["train-aux"] in (0, 4)
    assert codes["eval"] == 0
    assert codes["bench"] == 0
    assert codes["report"] == 0


def test_pipeline_writes_every_artifact(mini_c):
    cfg, _, _ = mini_c
    names = ([CONFIG_FILE, WORLD_FILE, NAV_WEIGHTS_FILE, NAV_TRAIN_FILE,
              AUX_ACTOR_FILE, AUX_EPISODES_FILE, AUX_UPDATES_FILE,
              AUX_EVAL_FILE, GATE_FILE, EVAL_SUCCESS_FILE, EVAL_RMSE_FILE,
              EVAL_EPISODES_FILE, BENCH_FILE]
             + list(AUX_CRITIC_FILES) + list(PATHS_FILES.values())
             + list(DATA_FILES.values()) + list(REPORT_FILES.values()))
    missing = [n for n in names
               if not os.path.exists(os.path.join(cfg.out_dir, n))]
    assert missing == []


def test_pipeline_world_artifact(mini_c):
    cfg, _, _ = mini_c
    grid, found = worldsim.load_world(os.path.join(cfg.out_dir, WORLD_FILE))
    assert found == cfg.config_hash()
    assert grid.dims == (24, 24, 8)


def test_pipeline_datasets(mini_c):
    cfg, _, _ = mini_c
    for region, name in DATA_FILES.items():
        ds, found = pathoracle.load_dataset(os.path.join(cfg.out_dir, name))
        assert found == cfg.config_hash()
        assert ds.depth == cfg.sensor.fifo_depth
        assert len(ds) > 0


def test_pipeline_training_curve(mini_c):
    cfg, _, _ = mini_c
    header, rows = read_csv(os.path.join(cfg.out_dir, NAV_TRAIN_FILE),
                            cfg.config_hash())
    assert header == ["phase", "epoch", "train_loss", "val_loss"]
    phases = {int(r[0]) for r in rows}
    assert phases == {0, 1}  # initial fit plus one refinement round
    for r in rows:
        assert np.isfinite(float(r[2])) and np.isfinite(float(r[3]))


def test_pipeline_nav_weights_match_spec(mini_c):
    cfg, _, _ = mini_c
    from slimnav.slimnet import load_weights
    net, found = load_weights(os.path.join(cfg.out_dir, NAV_WEIGHTS_FILE))
    assert found == cfg.config_hash()
    assert net.spec == cfg.nav_spec()


def test_pipeline_episode_log(mini_c):
    cfg, _, _ = mini_c
    header, rows = read_csv(os.path.join(cfg.out_dir, AUX_EPISODES_FILE),
                            cfg.config_hash())
    assert ",".join(header) == cli.EPISODE_COLUMNS
    assert rows
    outcomes = {r[11] for r in rows}
    assert outcomes <= {"reached", "collided", "timeout"}
    for r in rows:
        rho = float(r[5])
        assert cfg.nav.rho_min <= rho <= 1.0 + 1e-12
        assert int(r[9]) > 0  # active parameter count


def test_pipeline_gate_file(mini_c):
    cfg, codes, _ = mini_c
    with open(os.path.join(cfg.out_dir, GATE_FILE)) as f:
        lines = f.read().splitlines()
    assert lines[0] == f"# config={cfg.config_hash()}"
    assert lines[1].startswith("gate ")
    if codes["train-aux"] == 4:
        assert any(l.startswith("violation:") for l in lines[2:])


def test_pipeline_eval_success_rows(mini_c):
    cfg, _, _ = mini_c
    header, rows = read_csv(os.path.join(cfg.out_dir, EVAL_SUCCESS_FILE),
                            cfg.config_hash())
    assert [int(r[0]) for r in rows] == [5, 8]
    for r in rows:
        assert 0.0 <= float(r[2]) <= 1.0


def test_eval_bucket_the_test_slab_cannot_host(tmp_path, capsys):
    # the 24-voxel world's test slab is 6 voxels wide: no 40 m task fits
    data = _mini_dict(str(tmp_path / "run"), "C")
    data["eval"]["buckets"] = [5, 40]
    data["nav"].update(max_epochs=2, refine_rollouts=0)
    data["aux"].update(total_env_steps=130, exploration_steps=120)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    for command in ("gen-world", "oracle", "train-nav", "train-aux", "eval",
                    "report"):
        try:
            assert cli.main([command, "--config", str(cfg_path)]) == 0
        except ConstraintViolation:
            assert command == "train-aux"
    out = capsys.readouterr().out
    assert "distance 40: no tasks" in out
    assert "distance 5: success" in out
    cfg = load_config(str(cfg_path), None)
    for name in (EVAL_SUCCESS_FILE, REPORT_FILES["success"]):
        _, rows = read_csv(os.path.join(cfg.out_dir, name), cfg.config_hash())
        assert rows[0][:2] == ["5", "4"] and 0.0 <= float(rows[0][2]) <= 1.0
        assert rows[1] == ["40", "0", "nan", "nan"]


def test_pipeline_eval_rmse_mode_c(mini_c):
    cfg, _, _ = mini_c
    header, rows = read_csv(os.path.join(cfg.out_dir, EVAL_RMSE_FILE),
                            cfg.config_hash())
    assert header == ["rho", "samples", "rmse"]
    assert [float(r[0]) for r in rows] == [0.25, 0.5, 0.75, 1.0]
    for r in rows:
        assert float(r[2]) > 0


def test_pipeline_bench_rows(mini_c):
    cfg, _, _ = mini_c
    header, rows = read_csv(os.path.join(cfg.out_dir, BENCH_FILE),
                            cfg.config_hash())
    assert header == ["hidden", "t_full_s", "t_adapted_s", "mean_rho",
                      "speedup"]
    assert [r[0] for r in rows] == ["8", "16x16"]
    for r in rows:
        assert float(r[1]) > 0 and float(r[2]) > 0
        assert cfg.nav.rho_min <= float(r[3]) <= 1.0
        assert np.isfinite(float(r[4]))


def test_pipeline_report_summary(mini_c):
    cfg, _, _ = mini_c
    header, rows = read_csv(
        os.path.join(cfg.out_dir, REPORT_FILES["summary"]), cfg.config_hash())
    assert header == ["mode", "episodes", "mean_rho", "eta_m", "mean_p_f",
                      "mean_p_d", "eta_w"]
    assert len(rows) == 1
    assert rows[0][0] == "C"
    if int(rows[0][1]) > 0:
        assert cfg.nav.rho_min <= float(rows[0][2]) <= 1.0
        assert rows[0][3].endswith("%")


def test_pipeline_report_idempotent(mini_c):
    cfg, _, cfg_path = mini_c
    paths = [os.path.join(cfg.out_dir, n) for n in REPORT_FILES.values()]

    def contents():
        out = {}
        for p in paths:
            with open(p, "rb") as f:
                out[p] = f.read()
        return out

    before = contents()
    assert cli.main(["report", "--config", cfg_path]) == 0
    assert contents() == before


# sha256 prefixes of every artifact the mini pipelines write, except the two
# tables of wall times and config.json (it holds the temporary out_dir; the
# config hash is pinned above). Recorded with numpy 2.4 on x86-64; a BLAS
# that rounds the networks' matrix products differently changes them.
PIPELINE_DIGESTS = {
    "C": {
        "aux_actor.bin": "1ce58601461bb5fc",
        "aux_critic1.bin": "efeb2f38b1739264",
        "aux_critic2.bin": "cc34e4869c023c85",
        "aux_episodes.csv": "7cc5faade2777f49",
        "aux_eval.csv": "d328364d541e06a3",
        "aux_updates.csv": "55e6238484baf7b0",
        "eval_episodes.csv": "346ebfd57a9aaf6a",
        "eval_rmse.csv": "03e0fc6b05516112",
        "eval_success.csv": "db350ff8b31b9891",
        "gate.txt": "34a043e1a6d196a8",
        "nav_train.csv": "839ea6f17cfe6773",
        "nav_weights.bin": "26302ff6f092eb99",
        "report_depth_bins.csv": "3c9a74d3cc406431",
        "report_heatmap.csv": "2f29c3e6552f1dd3",
        "report_rmse.csv": "03e0fc6b05516112",
        "report_success.csv": "db350ff8b31b9891",
        "report_summary.csv": "953277786db01f99",
        "test_data.bin": "86d675474589b319",
        "test_paths.txt": "41804420f91fe51e",
        "train_data.bin": "9a53c3817eb2f8cb",
        "train_paths.txt": "a437eb6cf86c2646",
        "val_data.bin": "2fe3d3810a5823b7",
        "val_paths.txt": "a9effda5c4d4ed1a",
        "world.txt": "8f5a27d7437144ca",
    },
    "S": {
        "aux_actor.bin": "14fdaec171f88967",
        "aux_critic1.bin": "24f6a7021fda1efc",
        "aux_critic2.bin": "b0efc00bf6c64765",
        "aux_episodes.csv": "16947a14e5a8be07",
        "aux_eval.csv": "d14c9978728be125",
        "aux_updates.csv": "20643ee47c6dfad9",
        "eval_episodes.csv": "aae2dbea56155fae",
        "eval_rmse.csv": "696297f04e8c1d65",
        "eval_success.csv": "da45e95dd9212ab3",
        "gate.txt": "3b6b72656f9e64f9",
        "nav_train.csv": "eab2aaa7c6fb67c3",
        "nav_weights.bin": "4d0540e422587be1",
        "report_depth_bins.csv": "7f2a2b3fed985fff",
        "report_heatmap.csv": "6967d106d9152c71",
        "report_rmse.csv": "696297f04e8c1d65",
        "report_success.csv": "da45e95dd9212ab3",
        "report_summary.csv": "f811b4c53fafb383",
        "test_data.bin": "c5034207a87b11d9",
        "test_paths.txt": "41804420f91fe51e",
        "train_data.bin": "3812f5dc49413d78",
        "train_paths.txt": "a437eb6cf86c2646",
        "val_data.bin": "3b8b1487f9b56228",
        "val_paths.txt": "a9effda5c4d4ed1a",
        "world.txt": "f09e189c4a302c65",
    },
}
UNPINNED_ARTIFACTS = {CONFIG_FILE, BENCH_FILE, REPORT_FILES["timing"]}


@pytest.mark.parametrize("case", ["cut", "p_f", "rho", "header_only",
                                  "columns", "m_active_999999", "m_active_0"])
def test_report_rejects_corrupt_episode_csv(mini_c, tmp_path, monkeypatch,
                                            capsys, case):
    cfg, _, cfg_path = mini_c
    out = str(tmp_path)
    for name in (NAV_WEIGHTS_FILE, EVAL_SUCCESS_FILE, EVAL_RMSE_FILE,
                 EVAL_EPISODES_FILE):
        shutil.copy(os.path.join(cfg.out_dir, name), out)
    path = os.path.join(out, EVAL_EPISODES_FILE)
    with open(path) as f:
        lines = f.read().splitlines()
    row = lines[2].split(",")
    if case == "cut":
        lines[2] = ",".join(row[:8])
    elif case == "p_f":
        lines[2] = ",".join(row[:6] + ["x"] + row[7:])
    elif case == "rho":
        lines[2] = ",".join(row[:5] + ["nan"] + row[6:])
    elif case.startswith("m_active"):
        # outside [1, the nav spec's param_count]
        lines[2] = ",".join(row[:9] + [case.split("_")[-1]] + row[10:])
    elif case == "header_only":
        lines = lines[:1]
    else:
        lines[1] = lines[1].replace("p_f,p_d", "p_d,p_f")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    code = _entry_code(monkeypatch, ["report", "--config", cfg_path,
                                     "--set", "out_dir=" + out])
    err = capsys.readouterr().err
    assert code == 3 and err.startswith(f"dependency error: {path}")
    assert "Traceback" not in err


@pytest.mark.parametrize("mode,u,v", [("C", 10, 1), ("C", None, 2),
                                      ("S", None, 1)])
def test_actor_of_another_shape_is_refused(tmp_path, monkeypatch, capsys,
                                           mode, u, v):
    small = ["--set", f"out_dir={tmp_path}", "--set", "world.dims=[24,24,8]",
             "--set", f"mode={mode}"]
    cfg = load_config(None, small[1::2])
    assert _entry_code(monkeypatch, ["gen-world", *small]) == 0
    slimnet.save_weights(slimnet.SlimmableMLP(cfg.nav_spec()),
                         os.path.join(cfg.out_dir, NAV_WEIGHTS_FILE),
                         config_hash=cfg.config_hash())
    actor = slimnet.SlimmableMLP(slimnet.MLPSpec(u=u or cfg.nav_spec().u,
                                                 q=(4,), v=v))
    slimnet.save_weights(actor, os.path.join(cfg.out_dir, AUX_ACTOR_FILE),
                         config_hash=cfg.config_hash())
    capsys.readouterr()
    for stage in ("eval", "bench"):
        assert _entry_code(monkeypatch, [stage, *small]) == 3
        err = capsys.readouterr().err
        assert err.startswith("dependency error") and AUX_ACTOR_FILE in err
        assert "Traceback" not in err


def _write_test_data(cfg, n: int, seed: int = 0) -> pathoracle.LabeledDataset:
    """n uniform FIFOs as the oracle's test data of `cfg`, read back."""
    x = np.random.default_rng(seed).uniform(
        0.0, 1.0, size=(n, cfg.sensor.fifo_depth * worldsim.OBS_WIDTH))
    path = os.path.join(cfg.out_dir, DATA_FILES["test"])
    pathoracle.save_dataset(pathoracle.LabeledDataset(x, np.zeros((n, 3)),
                                                      cfg.sensor.fifo_depth),
                            path, cfg.config_hash())
    return pathoracle.load_dataset(path)[0]


def test_bench_mode_s_times_power_masked_subnetworks(tmp_path, monkeypatch):
    # without a trained actor, bench builds a mode-S actor and times the
    # input-masked sub-network of each power pair it emits, through blocks
    # held once per pair as a flight holds them
    held = []
    original = slimnet.SlimmableMLP.hold

    def spy(net, mask):
        held.append(mask)
        return original(net, mask)

    monkeypatch.setattr(slimnet.SlimmableMLP, "hold", spy)
    cfg = load_config(None, [f"out_dir={tmp_path}", "mode=S",
                             "bench.sizes=[[8]]", "bench.n_observations=30",
                             "bench.repeats=1"])
    _write_test_data(cfg, 30)
    aux = cli._bench_actor(cfg)
    assert aux.spec.v == 2
    assert (aux.spec.output_low, aux.spec.output_high) == (worldsim.MIN_POWER,
                                                           worldsim.MAX_POWER)
    assert cli.cmd_bench(cfg) == 0
    layout = worldsim.ObservationLayout(cfg.sensor.fifo_depth)
    inputs = {np.flatnonzero(layout.input_mask(p_f, p_d)).tobytes()
              for p_f in worldsim.FORWARD_LEVELS
              for p_d in worldsim.DOWNWARD_LEVELS}
    index = [np.arange(cfg.nav_spec().u) if m.input_index is None else m.input_index
             for m in held]
    assert held and all(m.active_hidden == (8,) for m in held)
    assert all(i.tobytes() in inputs for i in index)
    assert any(m.input_index is not None for m in held)
    assert len({i.tobytes() for i in index}) == len(held)
    _, rows = read_csv(os.path.join(cfg.out_dir, BENCH_FILE), cfg.config_hash())
    assert float(rows[0][3]) == 1.0     # mode S never slims


@pytest.mark.parametrize("mode", ["C", "S"])
def test_bench_builds_one_mask_per_subnetwork_and_size(tmp_path, monkeypatch, mode):
    # bench keys its held masks by (active widths, power pair), as a flight
    # keys them, and builds a mask only for a key it has not met at a size
    built = []
    monkeypatch.setattr(cli, "SlimMask",
                        lambda *a: built.append(a) or slimnet.SlimMask(*a))
    cfg = load_config(None, [f"out_dir={tmp_path}", f"mode={mode}",
                             "bench.sizes=[[8], [16, 16]]",
                             "bench.n_observations=30", "bench.repeats=1"])
    test = _write_test_data(cfg, 30)
    assert cli.cmd_bench(cfg) == 0
    low, high = cli.action_bounds(mode, cfg.nav.rho_min)
    aux = cli._bench_actor(cfg)
    actions = [cli.decode_action(mode, aux.forward(x), low, high)
               for x in test.fifo_vectors]
    layout = worldsim.ObservationLayout(cfg.sensor.fifo_depth)
    for size in cfg.bench.sizes:
        spec = dataclasses.replace(cfg.nav_spec(), q=size)
        want = {(slimnet.active_widths(spec, rho), pair) for rho, pair in actions}
        got = [(slimnet.active_widths(s, rho), keep.tobytes())
               for s, rho, keep in built if s.q == size]
        assert len(got) == len(set(got)) == len(want)
        assert set(got) == {(w, layout.input_mask(*pair).tobytes()) for w, pair in want}


def test_bench_times_the_first_test_fifos(tmp_path, monkeypatch, capsys):
    # the actor decodes its actions from the oracle's test FIFOs, the first
    # bench.n_observations of them; without that file, or with an empty
    # one, bench exits 3
    cfg = load_config(None, [f"out_dir={tmp_path}", "bench.sizes=[[8]]",
                             "bench.n_observations=12", "bench.repeats=1"])
    args = ["bench", "--set", f"out_dir={tmp_path}", "--set", "bench.sizes=[[8]]",
            "--set", "bench.n_observations=12", "--set", "bench.repeats=1"]
    assert _entry_code(monkeypatch, args) == 3
    err = capsys.readouterr().err
    assert err.startswith("dependency error") and DATA_FILES["test"] in err
    test = _write_test_data(cfg, 20)
    seen = []
    bench_actor = cli._bench_actor

    def actor(cfg):
        net = bench_actor(cfg)
        forward = net.forward

        def spy(x, *args, **kwargs):
            seen.append(np.array(x))
            return forward(x, *args, **kwargs)
        net.forward = spy
        return net

    monkeypatch.setattr(cli, "_bench_actor", actor)
    assert cli.cmd_bench(cfg) == 0
    assert np.array_equal(np.array(seen[:12]), test.fifo_vectors[:12])
    _write_test_data(cfg, 0)
    assert _entry_code(monkeypatch, args) == 3
    assert "holds no observations" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["C", "S"])
def test_pipeline_artifacts_pinned(mode, mini_c, mini_s):
    cfg, _, _ = {"C": mini_c, "S": mini_s}[mode]
    found = {}
    for name in sorted(os.listdir(cfg.out_dir)):
        if name not in UNPINNED_ARTIFACTS:
            with open(os.path.join(cfg.out_dir, name), "rb") as f:
                found[name] = hashlib.sha256(f.read()).hexdigest()[:16]
    assert found == PIPELINE_DIGESTS[mode]


def test_pipeline_rejects_stale_artifacts(mini_c):
    cfg, _, _ = mini_c
    # same artifacts, different semantic config -> every consumer refuses
    with pytest.raises(DependencyError):
        cli.main(["oracle", "--set", "out_dir=" + cfg.out_dir,
                  "--set", "world.seed=99",
                  "--set", "world.dims=[24,24,8]",
                  "--set", "world.density=0.05"])


def test_pipeline_mode_s(mini_s):
    cfg, codes, _ = mini_s
    assert codes["oracle"] == 0
    assert codes["train-nav"] == 0
    assert codes["train-aux"] in (0, 4)
    assert codes["eval"] == 0
    assert codes["report"] == 0
    header, rows = read_csv(os.path.join(cfg.out_dir, EVAL_RMSE_FILE),
                            cfg.config_hash())
    assert header == ["p_f", "p_d", "samples", "rmse"]
    assert len(rows) >= 2
    # sensing levels stay inside their menus in the episode logs
    _, ep_rows = read_csv(os.path.join(cfg.out_dir, AUX_EPISODES_FILE),
                          cfg.config_hash())
    for r in ep_rows:
        assert 1 <= int(r[6]) <= 3
        assert 0 <= int(r[7]) <= 3
    summary_header, summary = read_csv(
        os.path.join(cfg.out_dir, REPORT_FILES["summary"]), cfg.config_hash())
    assert summary[0][0] == "S"
