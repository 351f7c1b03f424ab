"""Experiment orchestration CLI.

Subcommands cover the full pipeline: world generation, oracle dataset
building, navigation training, auxiliary training, evaluation, report
emission, and inference benchmarking. Every artifact records the hash of
the experiment configuration that produced it, and commands refuse to mix
artifacts from different configurations.

Run a stage as ``slimnav <stage>`` once the package is installed, or as
``python -m slimnav <stage>`` from a checkout with ``src`` on
``PYTHONPATH``. Both follow the same exit-code contract.

The configuration is the defaults below, then the JSON file given by
``--config``, then each ``--set section.key=VALUE`` in order. VALUE is
parsed as JSON and must match the field's type: a list for a tuple field,
an integer for an int field, a finite number for a float field, true or
false for a bool field, null only where the field allows it. A VALUE that
does not parse as JSON is a string, valid only for a string field
(``mode``, ``out_dir``).

Each field is declared once. The ``reward``, ``constraint``, ``curriculum``
and ``aux`` sections are the `auxtrain` dataclasses `RewardWeights`,
`ConstraintConfig`, `Curriculum` and `AuxConfig`; ``nav`` extends
`distill.DistillConfig` and ``sensor`` extends `worldsim.SensorConfig`, each
by the fields only the CLI reads (``nav`` also trains longer by default).
A field's annotation holds its type and, for a number, its legal range:
``Annotated[float, Range(0, 1, lo_open=True)]`` (`errors.Range`). Every
section checks those ranges when it is built (`errors.check_ranges`), so an
error names ``section.key``; `ExperimentConfig.validate` adds only the
checks that span fields.

Exit codes: 0 success, 2 configuration error or training that diverged
(non-finite weights), 3 missing/mismatched dependency artifact, 4
path-length constraint gate failed.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
import typing
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Annotated

import numpy as np

from . import distill, pathoracle, worldsim
from .auxtrain import (TIMEOUT, AuxConfig, ConstraintConfig, Curriculum,
                       EpisodeStep, EpisodeLog, RewardWeights, action_bounds,
                       compute_eta, decode_action, fly_tasks, format_percent,
                       length_ratio, success_rate, train_auxiliary)
from .errors import (ConfigError, ConstraintViolation, DependencyError,
                     LoadError, Range, TrainingError, check_ranges)
from .pathoracle import TaskSampler, build_graph, partition_regions, region_edges
from .slimnet import (MLPSpec, SlimMask, SlimmableMLP, active_widths, load_weights,
                      save_weights)
from .worldsim import (COLLIDED, OBS_WIDTH, REACHED, SensorConfig, VoxelGrid,
                       check_dims)

# artifact file names, relative to the output directory
CONFIG_FILE = "config.json"
WORLD_FILE = "world.txt"
PATHS_FILES = {"train": "train_paths.txt", "validation": "val_paths.txt",
               "test": "test_paths.txt"}
DATA_FILES = {"train": "train_data.bin", "validation": "val_data.bin",
              "test": "test_data.bin"}
NAV_WEIGHTS_FILE = "nav_weights.bin"
NAV_TRAIN_FILE = "nav_train.csv"
AUX_ACTOR_FILE = "aux_actor.bin"
AUX_CRITIC_FILES = ("aux_critic1.bin", "aux_critic2.bin")
AUX_EPISODES_FILE = "aux_episodes.csv"
AUX_UPDATES_FILE = "aux_updates.csv"
AUX_EVAL_FILE = "aux_eval.csv"
GATE_FILE = "gate.txt"
EVAL_SUCCESS_FILE = "eval_success.csv"
EVAL_RMSE_FILE = "eval_rmse.csv"
EVAL_EPISODES_FILE = "eval_episodes.csv"
BENCH_FILE = "bench.csv"
REPORT_FILES = {
    "success": "report_success.csv",
    "rmse": "report_rmse.csv",
    "heatmap": "report_heatmap.csv",
    "depth_bins": "report_depth_bins.csv",
    "summary": "report_summary.csv",
    "timing": "report_timing.csv",
}

# the episode table's columns in file order, each with the type it parses as
EPISODE_FIELDS = (("episode_id", int), ("t", int), ("x", float), ("y", float),
                  ("z", float), ("rho", float), ("p_f", int), ("p_d", int),
                  ("reward", float), ("m_active", int), ("fwd_depth", float),
                  ("outcome", str), ("opt_steps", int))
EPISODE_COLUMNS = ",".join(name for name, _ in EPISODE_FIELDS)


# configuration tree


@dataclass
class WorldSection:
    dims: tuple[int, int, int] = (64, 64, 8)
    resolution: Annotated[float, Range(0, lo_open=True)] = 1.0
    density: Annotated[float, Range(0, 1, hi_open=True)] = 0.1
    seed: Annotated[int, Range(0)] = 7
    vertical_locked: bool = True
    flight_z: Annotated[int, Range(1)] = 2   # above the floor shell
    goal_radius: Annotated[float, Range(0, lo_open=True)] = worldsim.DEFAULT_GOAL_RADIUS
    max_step: Annotated[float, Range(0, lo_open=True)] = worldsim.DEFAULT_MAX_STEP

    __post_init__ = check_ranges


@dataclass(frozen=True)
class SensorSection(SensorConfig):
    fifo_depth: Annotated[int, Range(1)] = 4


@dataclass
class OracleSection:
    seed: Annotated[int, Range(0)] = 0
    region_fractions: tuple[float, float, float] = (0.5, 0.25, 0.25)
    n_train_paths: Annotated[int, Range(1)] = 1600
    n_val_paths: Annotated[int, Range(1)] = 60
    n_test_paths: Annotated[int, Range(1)] = 60
    distances: Annotated[tuple[float, ...], Range(0, lo_open=True)] = \
        (5, 10, 15, 20, 25, 30, 35, 40, 45)
    sample_tolerance: Annotated[float, Range(0, 1, hi_open=True)] = 0.3
    label_jitter: Annotated[float, Range(0)] = 0.3
    clearance_weight: Annotated[float, Range(0)] = 0.5
    crowd_boost: Annotated[int, Range(1)] = 3

    __post_init__ = check_ranges


@dataclass
class NavSection(distill.DistillConfig):
    hidden: Annotated[tuple[int, ...], Range(1)] = (128, 128)
    output_scale: Annotated[float, Range(0, lo_open=True)] = 2.0
    max_epochs: Annotated[int, Range(1)] = 150
    patience: Annotated[int, Range(1)] = 20
    refine_rollouts: Annotated[int, Range(0)] = 900


@dataclass
class EvalSection:
    seed: Annotated[int, Range(0)] = 123
    buckets: Annotated[tuple[float, ...], Range(0, lo_open=True)] = (10, 20, 30, 40)
    episodes_per_bucket: Annotated[int, Range(1)] = 60
    rho_grid: Annotated[tuple[float, ...], Range(0, 1, lo_open=True)] = \
        (0.25, 0.5, 0.75, 1.0)
    adapt_episodes: Annotated[int, Range(1)] = 60
    adapt_distance: Annotated[float, Range(0, lo_open=True)] = 20.0
    heatmap_bin: Annotated[int, Range(1)] = 8
    depth_bin_width: Annotated[float, Range(0, lo_open=True)] = 0.1
    sample_tolerance: Annotated[float, Range(0, 1, hi_open=True)] = 0.2

    __post_init__ = check_ranges


@dataclass
class BenchSection:
    seed: Annotated[int, Range(0)] = 0
    sizes: Annotated[tuple[tuple[int, ...], ...], Range(1)] = \
        ((32,), (64, 64), (128, 128), (256, 256))
    aux_hidden: Annotated[tuple[int, ...], Range(1)] = (32, 32)
    n_observations: Annotated[int, Range(1)] = 200
    repeats: Annotated[int, Range(1)] = 5

    __post_init__ = check_ranges


@dataclass
class ExperimentConfig:
    mode: str = "C"
    out_dir: str = "runs/exp"
    world: WorldSection = field(default_factory=WorldSection)
    sensor: SensorSection = field(default_factory=SensorSection)
    oracle: OracleSection = field(default_factory=OracleSection)
    nav: NavSection = field(default_factory=NavSection)
    aux: AuxConfig = field(default_factory=AuxConfig)
    reward: RewardWeights = field(default_factory=RewardWeights)
    curriculum: Curriculum = field(default_factory=Curriculum)
    constraint: ConstraintConfig = field(default_factory=ConstraintConfig)
    eval: EvalSection = field(default_factory=EvalSection)
    bench: BenchSection = field(default_factory=BenchSection)

    # construction / serialization

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Build each section through its constructor, so every value is
        checked against its field's annotation and the sections' own checks
        run; the first bad name or value raises ConfigError."""
        hints = typing.get_type_hints(cls)
        kwargs = {}
        for key, val in data.items():
            if key not in hints:
                raise ConfigError(f"unknown config section or key {key!r}")
            if dataclasses.is_dataclass(hints[key]):
                kwargs[key] = _section(key, hints[key], val)
            else:
                kwargs[key] = _typed(key, val, hints[key])
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        """Every field as plain JSON data: tuples become lists, as
        from_dict reads them back."""
        return json.loads(json.dumps(dataclasses.asdict(self)))

    def config_hash(self) -> str:
        """Hash of every semantic field (out_dir excluded, so the same
        experiment written to two directories shares artifacts)."""
        data = self.to_dict()
        data.pop("out_dir")
        text = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def validate(self) -> None:
        """The checks that span fields. Each field's own range is declared in
        its annotation and checked when its section is built."""
        action_bounds(self.mode, self.nav.rho_min)  # rejects an unknown mode
        w = self.world
        try:
            check_dims(w.dims)
        except ConfigError as e:
            raise ConfigError(f"world.dims: {e}") from e
        try:
            region_edges(w.dims[0], self.oracle.region_fractions)
        except ConfigError as e:
            raise ConfigError(f"oracle.region_fractions: {e}") from e
        if w.flight_z >= w.dims[2] - 1:
            raise ConfigError(f"world.flight_z must be below the ceiling shell at "
                              f"{w.dims[2] - 1}, got {w.flight_z}")
        self._check_distances()
        self.nav_spec()

    def _check_distances(self) -> None:
        """Refuse a task distance d that no two voxel centres can be apart
        within the tolerance tol its stage samples at: d * (1 + tol) below
        one voxel, or d * (1 - tol) beyond the world's diagonal."""
        w, e, sampler = self.world, self.eval, pathoracle.SAMPLE_TOLERANCE
        far = w.resolution * math.sqrt(sum((n - 1) ** 2 for n in w.dims))
        gate = () if self.aux.gate_distance is None else (self.aux.gate_distance,)
        for key, distances, tol in (
                ("oracle.distances", self.oracle.distances, self.oracle.sample_tolerance),
                ("eval.buckets", e.buckets, e.sample_tolerance),
                ("eval.adapt_distance", (e.adapt_distance,), e.sample_tolerance),
                ("curriculum.start", (self.curriculum.start,), sampler),
                ("curriculum.maximum", (self.curriculum.maximum,), sampler),
                ("aux.gate_distance", gate, sampler)):
            for d in distances:
                if d * (1 + tol) < w.resolution or d * (1 - tol) > far:
                    raise ConfigError(
                        f"{key}: no two voxel centres of world.dims {w.dims} at "
                        f"world.resolution {w.resolution} are {d} m apart within "
                        f"tolerance {tol} (they are {w.resolution} to {far:.6g} m apart)")

    def nav_spec(self) -> MLPSpec:
        return MLPSpec(u=self.sensor.fifo_depth * OBS_WIDTH, q=self.nav.hidden,
                       v=3, output_activation="tanh",
                       output_scale=self.nav.output_scale)


def _section(name: str, cls, values):
    if not isinstance(values, dict):
        raise ConfigError(f"section {name!r} must be a table of keys")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, val in values.items():
        if key not in hints:
            raise ConfigError(f"unknown key {name}.{key}")
        kwargs[key] = _typed(f"{name}.{key}", val, hints[key])
    try:
        return cls(**kwargs)
    except ConfigError as e:  # a section's errors start with the field's name
        raise ConfigError(f"{name}.{e}") from e


def _typed(key: str, val, hint):
    """`val` checked against the annotation `hint`. Lists become tuples;
    everything else is kept as given (an int in a float field stays an int),
    so to_dict() returns the values read and the config hash follows them."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if not isinstance(val, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {val!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(val)
        elif len(val) != len(args):
            raise ConfigError(f"{key} needs {len(args)} entries, got {len(val)}")
        return tuple(_typed(f"{key}[{i}]", v, a)
                     for i, (v, a) in enumerate(zip(val, args)))
    if type(None) in args:
        if val is None:
            return None
        hint = next(a for a in args if a is not type(None))
    accepted = (int, float) if hint is float else hint
    if isinstance(val, bool) != (hint is bool) or not isinstance(val, accepted):
        raise ConfigError(f"{key} must be {hint.__name__}, got {val!r}")
    if hint is float and not math.isfinite(val):  # json reads NaN, Infinity
        raise ConfigError(f"{key} must be finite, got {val!r}")
    return val


def load_config(path: str | None, overrides) -> ExperimentConfig:
    data: dict = {}
    if path is not None:
        try:
            with open(path) as f:
                data = json.load(f)
        except FileNotFoundError as e:
            raise ConfigError(f"config file not found: {path}") from e
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config file {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        data.pop("hash", None)
    for item in overrides or []:
        key, eq, raw = item.partition("=")
        if not eq:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            val = raw  # bare strings need no quotes
        node = data
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: {p} is not a section")
        node[parts[-1]] = val
    return ExperimentConfig.from_dict(data)


def write_config_copy(cfg: ExperimentConfig) -> None:
    os.makedirs(cfg.out_dir, exist_ok=True)
    data = cfg.to_dict()
    data["hash"] = cfg.config_hash()
    with open(os.path.join(cfg.out_dir, CONFIG_FILE), "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


# artifact helpers


def _artifact(cfg: ExperimentConfig, name: str) -> str:
    return os.path.join(cfg.out_dir, name)


def _require(cfg: ExperimentConfig, name: str, producer: str) -> str:
    path = _artifact(cfg, name)
    if not os.path.exists(path):
        raise DependencyError(f"missing artifact {path}; run '{producer}' first")
    return path


def _check_hash(path: str, found: str, expected: str) -> None:
    if found != expected:
        raise DependencyError(
            f"{path} was built from config {found or '<none>'}, "
            f"current config is {expected}; regenerate it")


def _load(cfg: ExperimentConfig, name: str, producer: str, loader):
    """The artifact `name` read by `loader(path) -> (object, config hash)`;
    refuses a missing artifact or one built from another configuration."""
    path = _require(cfg, name, producer)
    obj, found = loader(path)
    _check_hash(path, found, cfg.config_hash())
    return obj


def _load_nav(cfg: ExperimentConfig) -> SlimmableMLP:
    net = _load(cfg, NAV_WEIGHTS_FILE, "train-nav", load_weights)
    if net.spec != cfg.nav_spec():
        raise DependencyError(f"{_artifact(cfg, NAV_WEIGHTS_FILE)} holds a "
                              f"different network shape; rerun train-nav")
    return net


def _load_actor(cfg: ExperimentConfig) -> SlimmableMLP:
    """The trained auxiliary actor, refused unless it reads the FIFO and
    emits the mode's action (`action_bounds`)."""
    net = _load(cfg, AUX_ACTOR_FILE, "train-aux", load_weights)
    low, _ = action_bounds(cfg.mode, cfg.nav.rho_min)
    if (net.spec.u, net.spec.v) != (cfg.sensor.fifo_depth * OBS_WIDTH, len(low)):
        raise DependencyError(f"{_artifact(cfg, AUX_ACTOR_FILE)} holds a "
                              f"different network shape; rerun train-aux")
    return net


def write_csv(path: str, header: str, rows, config_hash: str) -> None:
    """Each row is a tuple of values, written by `_fmt`; a caller that
    needs other text passes a string."""
    lines = [f"# config={config_hash}", header]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_csv(path: str, expected_hash: str) -> tuple[list[str], list[list[str]]]:
    """Returns (header columns, rows) after validating the config hash, the
    column header and each row's field count."""
    try:
        with open(path) as f:
            lines = [ln.rstrip("\n") for ln in f]
    except UnicodeDecodeError as e:
        raise LoadError(f"{path}: not a text file: {e}") from e
    if not lines or not lines[0].startswith("# config="):
        raise LoadError(f"{path}: missing config header line")
    _check_hash(path, lines[0][len("# config="):], expected_hash)
    if len(lines) < 2 or not lines[1]:
        raise LoadError(f"{path}: missing column header line")
    header = lines[1].split(",")
    rows = []
    for n, ln in enumerate(lines[2:], start=3):
        if ln:
            rows.append(ln.split(","))
            if len(rows[-1]) != len(header):
                raise LoadError(f"{path}: line {n} has {len(rows[-1])} fields, "
                                f"the header {len(header)}")
    return header, rows


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


# subcommands


def cmd_gen_world(cfg: ExperimentConfig) -> int:
    write_config_copy(cfg)
    w = cfg.world
    grid = worldsim.generate_world(w.dims, resolution=w.resolution,
                                   density=w.density, seed=w.seed)
    path = _artifact(cfg, WORLD_FILE)
    worldsim.save_world(grid, path, config_hash=cfg.config_hash())
    print(f"world {grid.dims[0]}x{grid.dims[1]}x{grid.dims[2]} "
          f"density {w.density} -> {path}")
    return 0


def _build_sampler(cfg: ExperimentConfig, grid: VoxelGrid) -> TaskSampler:
    graph = build_graph(grid, vertical_locked=cfg.world.vertical_locked)
    regions = partition_regions(grid, cfg.oracle.region_fractions)
    flight_z = cfg.world.flight_z if cfg.world.vertical_locked else None
    return TaskSampler(graph, regions, flight_z=flight_z)


def _draw_tasks(sampler: TaskSampler, region: str, distances, n: int,
                max_draws: int, rng, tolerance: float) -> list:
    """Up to `n` tasks in `region`, cycling through `distances`, from at most
    `max_draws` draws; a draw the region cannot supply is skipped."""
    tasks = []
    for i in range(max_draws):
        if len(tasks) == n:
            break
        d = float(distances[i % len(distances)])
        try:
            tasks.append(sampler.sample(region, d, rng, tolerance=tolerance))
        except ConfigError:
            continue
    return tasks


def _sample_tasks(cfg: ExperimentConfig, sampler: TaskSampler, region: str,
                  n: int, rng) -> list:
    o = cfg.oracle
    tasks = _draw_tasks(sampler, region, o.distances, n, 4 * n, rng,
                        o.sample_tolerance)
    if not tasks:
        raise ConfigError(f"could not sample any tasks in region {region!r}")
    return tasks


def _supervision_paths(cfg: ExperimentConfig, sampler: TaskSampler,
                       tasks) -> list:
    """Paths the datasets are labeled from: clearance-shaped re-plans of the
    sampled endpoints when shaping is on, the tasks' own shortest paths
    otherwise."""
    w = cfg.oracle.clearance_weight
    if w <= 0:
        return [t.path for t in tasks]
    return [pathoracle.astar(sampler.graph, t.spawn, t.goal, w)
            for t in tasks]


def cmd_oracle(cfg: ExperimentConfig) -> int:
    write_config_copy(cfg)
    grid = _load(cfg, WORLD_FILE, "gen-world", worldsim.load_world)
    sampler = _build_sampler(cfg, grid)
    o = cfg.oracle
    rng = np.random.default_rng(o.seed)
    counts = {"train": o.n_train_paths, "validation": o.n_val_paths,
              "test": o.n_test_paths}
    for region, n in counts.items():
        tasks = _sample_tasks(cfg, sampler, region, n, rng)
        paths = _supervision_paths(cfg, sampler, tasks)
        pathoracle.save_paths(paths, _artifact(cfg, PATHS_FILES[region]))
        # jitter and boosting shape the training distribution only; the
        # validation and test sets stay plain replays of the planned paths
        jitter = o.label_jitter if region == "train" else 0.0
        boost = o.crowd_boost if region == "train" else 1
        ds = pathoracle.label_dataset(grid, paths, depth=cfg.sensor.fifo_depth,
                                      max_step=cfg.world.max_step,
                                      sensor=cfg.sensor, jitter=jitter, rng=rng,
                                      crowd_boost=boost)
        pathoracle.save_dataset(ds, _artifact(cfg, DATA_FILES[region]),
                                config_hash=cfg.config_hash())
        print(f"{region}: {len(paths)} paths, {len(ds)} samples")
    return 0


def cmd_train_nav(cfg: ExperimentConfig) -> int:
    write_config_copy(cfg)
    train_ds = _load(cfg, DATA_FILES["train"], "oracle", pathoracle.load_dataset)
    val_ds = _load(cfg, DATA_FILES["validation"], "oracle",
                   pathoracle.load_dataset)
    spec = cfg.nav_spec()
    layout = worldsim.ObservationLayout(cfg.sensor.fifo_depth)
    t0 = time.time()
    net, report = distill.train_navigation(train_ds, val_ds, spec, cfg.nav,
                                           mode=cfg.mode, layout=layout)
    reports = [report]
    if cfg.nav.refine_rollouts > 0:
        # one round of on-policy relabeling: fly the freshly trained net,
        # label the states it actually visits, retrain on the union
        grid = _load(cfg, WORLD_FILE, "gen-world", worldsim.load_world)
        sampler = _build_sampler(cfg, grid)
        rng = np.random.default_rng(cfg.nav.seed + 31)
        tasks = _sample_tasks(cfg, sampler, "train",
                              cfg.nav.refine_rollouts, rng)
        rollout_ds = pathoracle.label_rollouts(
            grid, sampler.graph, tasks, net.forward,
            depth=cfg.sensor.fifo_depth, max_step=cfg.world.max_step,
            sensor=cfg.sensor, goal_radius=cfg.world.goal_radius,
            clearance_weight=cfg.oracle.clearance_weight,
            crowd_boost=cfg.oracle.crowd_boost)
        union = pathoracle.merge_datasets(train_ds, rollout_ds)
        net, report = distill.train_navigation(union, val_ds, spec, cfg.nav,
                                               mode=cfg.mode, layout=layout)
        reports.append(report)
    save_weights(net, _artifact(cfg, NAV_WEIGHTS_FILE),
                 config_hash=cfg.config_hash())
    rows = [(phase, e, tr, va)
            for phase, rep in enumerate(reports)
            for e, (tr, va) in enumerate(zip(rep.train_losses,
                                             rep.val_losses))]
    write_csv(_artifact(cfg, NAV_TRAIN_FILE),
              "phase,epoch,train_loss,val_loss", rows, cfg.config_hash())
    print(f"navigation trained: best epoch {report.best_epoch}, "
          f"val loss {report.val_losses[report.best_epoch - 1]:.6f}, "
          f"{time.time() - t0:.0f}s")
    return 0


def _flight(cfg: ExperimentConfig) -> dict:
    """The `run_episode` keywords every flight of this configuration
    shares."""
    return dict(depth=cfg.sensor.fifo_depth, rho_min=cfg.nav.rho_min,
                goal_radius=cfg.world.goal_radius, max_step=cfg.world.max_step,
                max_range=cfg.sensor.max_range)


def _episode_rows(logs) -> list[tuple]:
    """One row per step of `logs`, in `EPISODE_FIELDS` order."""
    rows = []
    for i, log in enumerate(logs):
        opt = log.optimal_steps if log.optimal_steps is not None else -1
        for t, s in enumerate(log.steps):
            rows.append((i, t, *map(float, s.position), float(s.rho), s.p_f,
                         s.p_d, float(s.reward), s.m_active,
                         float(s.mean_forward_depth), log.outcome, opt))
    return rows


def _episode_row(r: list[str], param_count: int
                 ) -> tuple[int, int, EpisodeStep, str, int]:
    """(episode id, t, step, outcome, optimal steps) of one episode CSV row;
    ValueError on a field that does not parse, a non-finite number, rho
    outside (0, 1], a power level the sensor lacks, an m_active outside
    [1, param_count] or an unknown outcome."""
    f = SimpleNamespace(**{n: kind(v) for (n, kind), v in zip(EPISODE_FIELDS, r)})
    if not all(math.isfinite(v) for v in vars(f).values() if isinstance(v, float)):
        raise ValueError("non-finite number")
    if not 0.0 < f.rho <= 1.0:
        raise ValueError(f"rho {f.rho} outside (0, 1]")
    if f.p_f not in worldsim.FORWARD_LEVELS or f.p_d not in worldsim.DOWNWARD_LEVELS:
        raise ValueError(f"power levels ({f.p_f}, {f.p_d}) outside the sensor's")
    if not 1 <= f.m_active <= param_count:
        raise ValueError(f"m_active {f.m_active} outside [1, {param_count}]")
    if f.outcome not in (REACHED, COLLIDED, TIMEOUT):
        raise ValueError(f"unknown outcome {f.outcome!r}")
    step = EpisodeStep(position=np.array([f.x, f.y, f.z]), rho=f.rho, p_f=f.p_f,
                       p_d=f.p_d, reward=f.reward, m_active=f.m_active,
                       mean_forward_depth=f.fwd_depth, mean_downward_depth=0.0)
    return f.episode_id, f.t, step, f.outcome, f.opt_steps


def _logs_from_rows(rows, path: str, param_count: int) -> list[EpisodeLog]:
    """Rebuild per-episode logs (the fields reports need) from the rows of
    the episode CSV `path`, flown by a navigation network of `param_count`
    parameters; LoadError on a row `_episode_row` rejects."""
    by_ep: dict[int, list] = {}
    for n, r in enumerate(rows, start=1):
        try:
            parsed = _episode_row(r, param_count)
        except ValueError as e:
            raise LoadError(f"{path}: episode row {n}: {e}") from e
        by_ep.setdefault(parsed[0], []).append(parsed)
    logs = []
    for ep in sorted(by_ep):
        rs = sorted(by_ep[ep], key=lambda p: p[1])
        steps = [p[2] for p in rs]
        _, _, _, outcome, opt = rs[0]
        logs.append(EpisodeLog(steps=steps, outcome=outcome,
                               spawn=steps[0].position, goal=steps[-1].position,
                               optimal_steps=None if opt < 0 else opt))
    return logs


def cmd_train_aux(cfg: ExperimentConfig) -> int:
    write_config_copy(cfg)
    grid = _load(cfg, WORLD_FILE, "gen-world", worldsim.load_world)
    nav = _load_nav(cfg)
    sampler = _build_sampler(cfg, grid)
    t0 = time.time()
    result = train_auxiliary(
        sampler, nav, cfg.mode, cfg.aux, cfg.reward, cfg.constraint,
        cfg.curriculum, **_flight(cfg))
    chash = cfg.config_hash()
    save_weights(result.agent.actor, _artifact(cfg, AUX_ACTOR_FILE), chash)
    save_weights(result.agent.critic1, _artifact(cfg, AUX_CRITIC_FILES[0]), chash)
    save_weights(result.agent.critic2, _artifact(cfg, AUX_CRITIC_FILES[1]), chash)
    write_csv(_artifact(cfg, AUX_EPISODES_FILE), EPISODE_COLUMNS,
              _episode_rows(result.episodes), chash)
    update_rows = [(i, u["env_steps"], u["curriculum_distance"], u["critic1"],
                    u["critic2"], u["q_mean"], u["actor"])
                   for i, u in enumerate(result.update_log)]
    write_csv(_artifact(cfg, AUX_UPDATES_FILE),
              "update,env_steps,distance,critic1_loss,critic2_loss,q_mean,actor_loss",
              update_rows, chash)
    eval_rows = [(e["episode"], e["env_steps"], e["distance"], e["success"],
                  e["mean_rho"]) for e in result.eval_history]
    write_csv(_artifact(cfg, AUX_EVAL_FILE),
              "episode,env_steps,distance,success_rate,mean_rho", eval_rows, chash)
    gate = result.gate
    with open(_artifact(cfg, GATE_FILE), "w") as f:
        f.write(f"# config={chash}\n{gate.summary()}\n")
        for v in gate.violations:
            f.write(f"violation: {v}\n")
    print(f"auxiliary trained in {time.time() - t0:.0f}s over "
          f"{result.env_steps} env steps")
    print(gate.summary())
    if not gate.ok:
        raise ConstraintViolation(
            f"path-length gate failed with {len(gate.violations)} violations; "
            f"see {_artifact(cfg, GATE_FILE)}")
    return 0


def cmd_eval(cfg: ExperimentConfig) -> int:
    write_config_copy(cfg)
    grid = _load(cfg, WORLD_FILE, "gen-world", worldsim.load_world)
    nav = _load_nav(cfg)
    actor = _load_actor(cfg)
    sampler = _build_sampler(cfg, grid)
    e = cfg.eval
    chash = cfg.config_hash()
    rng = np.random.default_rng(e.seed)

    # success vs distance at full width and max power (no adaptation)
    rows = []
    for d in e.buckets:
        tasks = _draw_tasks(sampler, "test", [d], e.episodes_per_bucket,
                            20 * e.episodes_per_bucket, rng, e.sample_tolerance)
        logs = fly_tasks(sampler, tasks, nav, cfg.mode, weights=cfg.reward,
                         max_steps=max(60, 5 * int(d)), **_flight(cfg))
        rate = success_rate(logs)
        rows.append((str(d), len(logs), rate, length_ratio(logs)))
        if tasks:
            print(f"distance {d}: success {rate:.3f} over {len(logs)} episodes")
        else:
            print(f"distance {d}: no tasks")
    write_csv(_artifact(cfg, EVAL_SUCCESS_FILE),
              "distance,episodes,success_rate,mean_length_ratio", rows, chash)

    # error grid on the held-out dataset
    test_ds = _load(cfg, DATA_FILES["test"], "oracle", pathoracle.load_dataset)
    layout = worldsim.ObservationLayout(cfg.sensor.fifo_depth)
    rows = []
    if cfg.mode == "C":
        for rho, rmse in distill.rmse_by_rho(nav, test_ds, e.rho_grid).items():
            rows.append((rho, len(test_ds), rmse))
        header = "rho,samples,rmse"
    else:
        for (p_f, p_d), rmse in distill.rmse_by_power(nav, test_ds,
                                                      layout).items():
            rows.append((p_f, p_d, len(test_ds), rmse))
        header = "p_f,p_d,samples,rmse"
    write_csv(_artifact(cfg, EVAL_RMSE_FILE), header, rows, chash)

    # adaptation episodes with the trained auxiliary policy
    # run_episode draws no random numbers, so the tasks are drawn up front
    tasks = _draw_tasks(sampler, "test", [e.adapt_distance], e.adapt_episodes,
                        e.adapt_episodes, rng, e.sample_tolerance)
    logs = fly_tasks(sampler, tasks, nav, cfg.mode, actor.forward,
                     weights=cfg.reward, max_steps=cfg.aux.max_episode_steps,
                     **_flight(cfg))
    write_csv(_artifact(cfg, EVAL_EPISODES_FILE), EPISODE_COLUMNS,
              _episode_rows(logs), chash)
    n_ok = sum(1 for l in logs if l.outcome == REACHED)
    print(f"adaptation episodes: {n_ok}/{len(logs)} reached")
    return 0


def cmd_report(cfg: ExperimentConfig) -> int:
    write_config_copy(cfg)
    chash = cfg.config_hash()
    nav = _load_nav(cfg)

    def copy_csv(src: str, table: str) -> None:
        header, rows = read_csv(src, chash)
        write_csv(_artifact(cfg, REPORT_FILES[table]), ",".join(header), rows, chash)

    # success vs distance and the error grid are straight copies
    copy_csv(_require(cfg, EVAL_SUCCESS_FILE, "eval"), "success")
    copy_csv(_require(cfg, EVAL_RMSE_FILE, "eval"), "rmse")

    # adaptation tables need the episode logs
    ep_path = _require(cfg, EVAL_EPISODES_FILE, "eval")
    ep_header, ep_rows = read_csv(ep_path, chash)
    if ",".join(ep_header) != EPISODE_COLUMNS:
        raise LoadError(f"{ep_path}: columns are not {EPISODE_COLUMNS}")
    logs = _logs_from_rows(ep_rows, ep_path, nav.spec.param_count)
    ok_logs = [l for l in logs if l.outcome == REACHED]

    def group_means(key) -> list:
        """Per key of a step, in key order: the key, the step count and the
        mean rho, p_f and p_d over the successful episodes' steps."""
        groups: dict = {}
        for log in ok_logs:
            for s in log.steps:
                groups.setdefault(key(s), []).append((s.rho, s.p_f, s.p_d))
        out = []
        for k in sorted(groups):
            vals = np.asarray(groups[k], dtype=float)
            means = (vals[:, i].mean() for i in range(3))
            out.append((k, (len(vals), *means)))
        return out

    # heatmap of mean adaptation per map cell
    bin_m = cfg.eval.heatmap_bin * cfg.world.resolution
    rows = [(bx, by, *stats) for (bx, by), stats in group_means(
        lambda s: (int(s.position[0] // bin_m), int(s.position[1] // bin_m)))]
    write_csv(_artifact(cfg, REPORT_FILES["heatmap"]),
              "x_bin,y_bin,steps,mean_rho,mean_p_f,mean_p_d", rows, chash)

    # adaptation vs forward clutter (normalized mean depth bins)
    width = cfg.eval.depth_bin_width
    rows = [(b * width, (b + 1) * width, *stats)
            for b, stats in group_means(
                lambda s: int(s.mean_forward_depth / width))]
    write_csv(_artifact(cfg, REPORT_FILES["depth_bins"]),
              "depth_lo,depth_hi,steps,mean_rho,mean_p_f,mean_p_d", rows, chash)

    # resource summary over successful adaptation episodes
    if ok_logs:
        eta = compute_eta(ok_logs, nav.spec)
        summary = (cfg.mode, eta.n_episodes, eta.mean_rho,
                   format_percent(eta.eta_m), eta.mean_p_f, eta.mean_p_d,
                   format_percent(eta.eta_w, 1))
    else:
        summary = (cfg.mode, 0, *["nan"] * 5)
    write_csv(_artifact(cfg, REPORT_FILES["summary"]),
              "mode,episodes,mean_rho,eta_m,mean_p_f,mean_p_d,eta_w",
              [summary], chash)

    # timing table mirrors the benchmark artifact when present
    if os.path.exists(_artifact(cfg, BENCH_FILE)):
        copy_csv(_artifact(cfg, BENCH_FILE), "timing")
    print(f"report bundle written to {cfg.out_dir}")
    return 0


def _bench_actor(cfg: ExperimentConfig) -> SlimmableMLP:
    """The auxiliary actor the benchmark times and takes its actions from:
    the trained one when its weights exist, otherwise a fresh seeded actor
    of the bench section's widths over the mode's action box."""
    if os.path.exists(_artifact(cfg, AUX_ACTOR_FILE)):
        return _load_actor(cfg)
    low, high = action_bounds(cfg.mode, cfg.nav.rho_min)
    spec = MLPSpec(u=cfg.sensor.fifo_depth * OBS_WIDTH, q=cfg.bench.aux_hidden,
                   v=len(low), output_activation="bounded",
                   output_low=tuple(low), output_high=tuple(high))
    return SlimmableMLP(spec, seed=cfg.bench.seed)


def cmd_bench(cfg: ExperimentConfig) -> int:
    """Time full-width inference against auxiliary-adapted inference on the
    first `bench.n_observations` FIFOs of the oracle's test data; speedup =
    (v - u) / v. The adapted step runs the actor, then the navigator
    through the sub-network of the (rho, power pair) its action decodes to
    (`decode_action`): slimmed to rho and fed only the inputs of the pair,
    gathered inside the timed step. Each distinct sub-network, keyed by
    (active widths, power pair) as a flight keys it, has its mask built and
    its blocks held once (`SlimmableMLP.hold`)."""
    write_config_copy(cfg)
    b = cfg.bench
    chash = cfg.config_hash()
    aux = _bench_actor(cfg)
    test = _load(cfg, DATA_FILES["test"], "oracle", pathoracle.load_dataset)
    obs = test.fifo_vectors[:b.n_observations]
    if len(obs) == 0:
        raise DependencyError(f"{_artifact(cfg, DATA_FILES['test'])} holds no "
                              f"observations to time; rerun oracle")
    low, high = action_bounds(cfg.mode, cfg.nav.rho_min)
    layout = worldsim.ObservationLayout(cfg.sensor.fifo_depth)
    actions = [decode_action(cfg.mode, aux.forward(x), low, high) for x in obs]
    mean_rho = float(np.mean([rho for rho, _ in actions]))
    rows = []
    for size in b.sizes:
        spec = dataclasses.replace(cfg.nav_spec(), q=size)
        nav = SlimmableMLP(spec, seed=b.seed)
        held = {}
        steps = []
        for rho, pair in actions:
            key = (active_widths(spec, rho), pair)
            if key not in held:
                held[key] = nav.hold(SlimMask(spec, rho, layout.input_mask(*pair)))
            steps.append(held[key])
        t_full = []
        t_slim = []
        for _ in range(b.repeats):
            t0 = time.perf_counter()
            for x in obs:
                nav.forward(x)
            t_full.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            for x, mask in zip(obs, steps):
                aux.forward(x)
                nav.forward(x, mask)
            t_slim.append(time.perf_counter() - t0)
        v = float(np.median(t_full))
        u = float(np.median(t_slim))
        speedup = (v - u) / v
        label = "x".join(str(h) for h in size)
        rows.append((label, v, u, mean_rho, speedup))
        print(f"size [{label}]: full {v * 1e3:.2f} ms, adapted {u * 1e3:.2f} ms, "
              f"speedup {speedup:+.3f}")
    write_csv(_artifact(cfg, BENCH_FILE),
              "hidden,t_full_s,t_adapted_s,mean_rho,speedup", rows, chash)
    return 0


# entry point


COMMANDS = {
    "gen-world": cmd_gen_world,
    "oracle": cmd_oracle,
    "train-nav": cmd_train_nav,
    "train-aux": cmd_train_aux,
    "eval": cmd_eval,
    "report": cmd_report,
    "bench": cmd_bench,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slimnav",
        description="adaptive drone navigation experiments on voxel worlds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON experiment configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       dest="overrides",
                       help="override a config key, e.g. world.density=0.2")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = load_config(args.config, args.overrides)
    return COMMANDS[args.command](cfg)


def entry() -> None:
    try:
        code = main()
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        code = 2
    except TrainingError as e:
        print(f"training error: {e}", file=sys.stderr)
        code = 2
    except (DependencyError, LoadError) as e:
        print(f"dependency error: {e}", file=sys.stderr)
        code = 3
    except ConstraintViolation as e:
        print(f"constraint violation: {e}", file=sys.stderr)
        code = 4
    sys.exit(code)


if __name__ == "__main__":
    entry()
