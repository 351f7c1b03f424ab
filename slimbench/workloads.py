"""The benchmark's four workloads: seeded inputs, the operations a run
repeats, their output checks and the digest of their outputs.

Every workload is a closed loop with one caller: each operation starts
when the previous one has returned. `setup(seed, scale)` builds all inputs
from the seed (the world, the tasks, the datasets) and loads the committed
network fixtures; `ops(inputs)` yields the operations in a fixed order, so
the same seed gives the same operation sequence on every run.

Only slimnav's public module functions are called. The loop-iteration
intervals are taken from the `policy` callable the benchmark hands to
`run_episode` and `label_rollouts`: the time between two consecutive calls
is one full iteration of the program's own loop.
"""
from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from slimnav import auxtrain, distill, pathoracle, slimnet, worldsim
from slimnav.errors import (ConfigError, LoadError, NoPathError, SensorError,
                            TrainingError)

# errors a slimnav call may raise on valid input; any other exception is a
# defect and ends the benchmark
OP_ERRORS = (ConfigError, LoadError, NoPathError, SensorError, TrainingError)

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# world and flight settings: the slimnav CLI defaults
RESOLUTION = 1.0
VERTICAL_LOCKED = True
FLIGHT_Z = 2
REGION_FRACTIONS = (0.5, 0.25, 0.25)
DEPTH = 4
MAX_STEP = worldsim.DEFAULT_MAX_STEP
GOAL_RADIUS = worldsim.DEFAULT_GOAL_RADIUS
MAX_RANGE = worldsim.DEFAULT_MAX_RANGE
SENSOR = worldsim.SensorConfig(3, 3, MAX_RANGE)
RHO_MIN = 0.25
CLEARANCE = 0.5
JITTER = 0.3
CROWD_BOOST = 3
# slimnav's oracle stage samples 5-45 m tasks; learn labels those. plan
# keeps to 5-15 m: beyond that one task's A* cost varies so much from world
# to world that its figures would measure the seed rather than the program.
ORACLE_DISTANCES = (5, 10, 15, 20, 25, 30, 35, 40, 45)
PLAN_DISTANCES = (5, 10, 15)
PLAN_TOLERANCE = 0.3
FLY_TOLERANCE = 0.2


@dataclass(frozen=True)
class Scale:
    """Input sizes. `FULL` is the benchmark; `TINY` serves the self-tests."""

    dims: tuple = (64, 64, 8)
    density: float = 0.1
    plan_worlds: int = 9
    plan_tasks: int = 108
    relabel_states: int = 16
    fly_worlds: int = 6
    learn_worlds: int = 3
    fly_buckets: tuple = (10, 20, 30, 40)
    fly_per_bucket: int = 2
    learn_train_samples: int = 256
    learn_val_samples: int = 64
    learn_hidden: tuple = (128, 128)
    learn_epochs: int = 2
    td3_updates: int = 60
    td3: auxtrain.TD3Config = field(default_factory=auxtrain.TD3Config)
    breakeven_widths: tuple = (64, 128, 256, 512)
    breakeven_fifos: int = 64
    breakeven_repeats: int = 5


FULL = Scale()
TINY = Scale(dims=(24, 24, 8), plan_worlds=2, plan_tasks=2, fly_worlds=2,
             learn_worlds=2, fly_buckets=(6, 10),
             fly_per_bucket=1, learn_train_samples=16, learn_val_samples=8,
             learn_hidden=(16, 16), learn_epochs=1, td3_updates=3,
             td3=auxtrain.TD3Config(batch_size=8, buffer_capacity=8),
             breakeven_widths=(16, 32), breakeven_fifos=4,
             breakeven_repeats=1)


class FixtureError(Exception):
    """A committed network fixture is missing or does not fit the inputs."""


class CheckError(Exception):
    """An output check failed."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


@dataclass
class Tally:
    """What a run measured: operation counts, check failures, the digest of
    the first `prefix` ops, and the timings of the two kinds of timed work.

    Every repeat of every input counts. The metrics are totals over the
    whole run and quantiles of all loop intervals: on a shared machine one
    repeat can be fast or slow by chance, while the run as a whole is
    steady."""

    prefix: int
    attempted: int = 0
    failed: int = 0
    check_errors: list = field(default_factory=list)
    intervals: list = field(default_factory=list)   # arrays of loop intervals
    loop_s: float = 0.0
    loop_n: int = 0
    work_s: float = 0.0
    work_n: float = 0.0
    ops_done: int = 0
    outputs: dict = field(default_factory=dict)
    keep_fifos: int = 0       # flight FIFOs to keep for the break-even table
    tracer: object = None     # set in the traced pass
    _digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def fold(self, *parts) -> None:
        """Add outputs to the digest while inside the digest prefix."""
        if self.ops_done < self.prefix:
            for p in parts:
                self._digest.update(p if isinstance(p, bytes) else
                                    np.ascontiguousarray(p).tobytes())

    def digest(self) -> str:
        return self._digest.hexdigest()

    def loop(self, seconds: float, n: int, intervals) -> None:
        """Record `n` loop iterations taking `seconds`."""
        self.loop_s += seconds
        self.loop_n += n
        self.intervals.append(np.asarray(intervals, dtype=float))

    def work(self, seconds: float, n: float) -> None:
        """Record `n` units of work taking `seconds`."""
        self.work_s += seconds
        self.work_n += n

    def loop_per_s(self) -> float:
        return self.loop_n / self.loop_s if self.loop_s else 0.0

    def loop_intervals(self) -> np.ndarray:
        return np.concatenate(self.intervals) if self.intervals else np.empty(0)

    def work_per_s(self) -> float:
        return self.work_n / self.work_s if self.work_s else 0.0

    def fail_check(self, err: CheckError) -> None:
        self.check_errors.append(str(err))
        self.failed += 1


class Timer:
    """Policy wrapper that records the interval between consecutive calls.

    With a tracer, each call is also a span named `span`; with `keep` > 0 the
    first `keep` inputs are kept."""

    def __init__(self, fn, tracer=None, span: str = "", keep: int = 0):
        self.fn = fn
        self.intervals: list = []
        self.tracer = tracer
        self.span = span
        self.keep = keep
        self.last = None
        self.calls = 0
        self.inputs: list = []

    def __call__(self, x):
        now = time.perf_counter()
        if self.last is not None:
            self.intervals.append(now - self.last)
        self.last = now
        self.calls += 1
        if len(self.inputs) < self.keep:
            self.inputs.append(np.array(x))
        if self.tracer is None:
            return self.fn(x)
        idx = self.tracer.open(self.span)
        try:
            return self.fn(x)
        finally:
            self.tracer.close(idx)


# set-up


@dataclass
class World:
    grid: worldsim.VoxelGrid
    graph: pathoracle.MapGraph
    sampler: pathoracle.TaskSampler


def make_worlds(seed: int, scale: Scale, n: int) -> list[World]:
    """`n` worlds drawn from the seed. Spreading a run's tasks over several
    worlds keeps one world's layout from setting its figures."""
    worlds = []
    for wseed in np.random.SeedSequence([seed, 0]).generate_state(n):
        grid = worldsim.generate_world(scale.dims, RESOLUTION, scale.density,
                                       seed=int(wseed))
        graph = pathoracle.build_graph(grid, vertical_locked=VERTICAL_LOCKED)
        regions = pathoracle.partition_regions(grid, REGION_FRACTIONS)
        worlds.append(World(grid, graph, pathoracle.TaskSampler(
            graph, regions, flight_z=FLIGHT_Z)))
    return worlds


def load_fixture(mode: str, name: str) -> slimnet.SlimmableMLP:
    """Load a committed network and refuse one whose input width is not
    OBS_WIDTH x FIFO depth or whose output does not fit its role."""
    path = FIXTURES / mode / name
    try:
        net, _ = slimnet.load_weights(path)
    except (OSError, LoadError) as e:
        raise FixtureError(f"{path}: {e}") from e
    want_u = worldsim.OBS_WIDTH * DEPTH
    want_v = 3 if name == "nav.bin" else (1 if mode == "C" else 2)
    if net.spec.u != want_u or net.spec.v != want_v:
        raise FixtureError(
            f"{path}: spec u={net.spec.u} v={net.spec.v}, expected "
            f"u={want_u} (OBS_WIDTH {worldsim.OBS_WIDTH} x depth {DEPTH}) "
            f"v={want_v}")
    return net


def sample_tasks(sampler, region: str, distances, rng, tolerance: float,
                 tries: int = 20) -> list:
    """One task per entry of `distances`, resampling a distance the region
    cannot supply up to `tries` times."""
    tasks = []
    for d in distances:
        for _ in range(tries):
            try:
                tasks.append(sampler.sample(region, float(d), rng,
                                            tolerance=tolerance))
                break
            except ConfigError:
                continue
        else:
            raise ConfigError(f"no {d} m task in region {region!r}")
    return tasks


def point(voxel) -> np.ndarray:
    return (np.asarray(voxel, dtype=float) + 0.5) * RESOLUTION


@dataclass
class PlanInputs:
    seed: int
    worlds: list
    nav: slimnet.SlimmableMLP
    io_path: Path
    scale: Scale

    def digest(self) -> str:
        return _digest(*[w.grid.occupancy for w in self.worlds],
                       *_net_arrays(self.nav))


@dataclass
class FlyTask:
    world: World
    task: pathoracle.Task
    max_steps: int


@dataclass
class FlyInputs:
    seed: int
    mode: str
    nav: slimnet.SlimmableMLP
    actor: slimnet.SlimmableMLP
    tasks: list
    scale: Scale

    def digest(self) -> str:
        return _digest(*[f.world.grid.occupancy for f in self.tasks],
                       *[np.asarray(f.task.path.waypoints) for f in self.tasks],
                       np.array([f.max_steps for f in self.tasks]),
                       *_net_arrays(self.nav), *_net_arrays(self.actor))


@dataclass
class LearnInputs:
    seed: int
    train: pathoracle.LabeledDataset
    val: pathoracle.LabeledDataset
    buffer: auxtrain.ReplayBuffer
    scale: Scale

    def digest(self) -> str:
        b = self.buffer
        return _digest(self.train.fifo_vectors, self.train.targets,
                       self.val.fifo_vectors, self.val.targets, b.states,
                       b.actions, b.rewards, b.next_states, b.dones)


def _net_arrays(net):
    return [*net.weights, *net.biases]


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def setup_plan(seed: int, scale: Scale, out_dir: Path) -> PlanInputs:
    return PlanInputs(seed, make_worlds(seed, scale, scale.plan_worlds),
                      load_fixture("C", "nav.bin"),
                      out_dir / f"plan-dataset-{seed}.bin", scale)


def setup_fly(mode: str):
    def setup(seed: int, scale: Scale, out_dir: Path) -> FlyInputs:
        nav = load_fixture(mode, "nav.bin")
        actor = load_fixture(mode, "actor.bin")
        rng = np.random.default_rng([seed, 2])
        tasks = []
        for world in make_worlds(seed, scale, scale.fly_worlds):
            distances = [d for d in scale.fly_buckets
                         for _ in range(scale.fly_per_bucket)]
            for task in sample_tasks(world.sampler, "test", distances, rng,
                                     FLY_TOLERANCE):
                tasks.append(FlyTask(world, task, fly_budget(task)))
        return FlyInputs(seed, mode, nav, actor, tasks, scale)
    return setup


def fly_budget(task) -> int:
    """Step budget of an episode: twice the optimal step count plus 10. A
    flight that long has already failed the path-length gate (beta 1.5);
    the eval stage's longer budget, max(60, 5 * distance), would let a few
    wandering flights make up most of a run's steps."""
    return 2 * task.path.steps + 10


def setup_learn(seed: int, scale: Scale, out_dir: Path) -> LearnInputs:
    """Train and validation datasets labeled as slimnav's oracle stage
    labels them, from tasks spread over the worlds, cut to fixed sizes: a
    training epoch costs about the same per batch whatever the batch's
    size, so a ragged last batch would make the rate depend on the seed."""
    rng = np.random.default_rng([seed, 3])
    worlds = make_worlds(seed, scale, scale.learn_worlds)
    per_path = label_paths(worlds, "train", scale.learn_train_samples, rng,
                           jitter=JITTER, crowd_boost=CROWD_BOOST)
    val = label_paths(worlds, "validation", scale.learn_val_samples, rng)
    return LearnInputs(seed, _merge(per_path, scale.learn_train_samples),
                       _merge(val, scale.learn_val_samples),
                       replay_pairs(per_path, rng), scale)


def label_paths(worlds, region: str, samples: int, rng, **labeling) -> list:
    """Label clearance paths of tasks drawn round-robin over the worlds and
    the oracle distances until they hold at least `samples` samples; one
    dataset per path."""
    parts, total, k = [], 0, 0
    while total < samples:
        world = worlds[k % len(worlds)]
        d = ORACLE_DISTANCES[k % len(ORACLE_DISTANCES)]
        k += 1
        t = sample_tasks(world.sampler, region, [d], rng, PLAN_TOLERANCE)[0]
        path = pathoracle.astar(world.graph, t.spawn, t.goal, CLEARANCE)
        parts.append(pathoracle.label_dataset(
            world.grid, [path], depth=DEPTH, max_step=MAX_STEP, sensor=SENSOR,
            rng=rng, **labeling))
        total += len(parts[-1])
    return parts


def _merge(parts, n: int) -> pathoracle.LabeledDataset:
    out = parts[0]
    for ds in parts[1:]:
        out = pathoracle.merge_datasets(out, ds)
    out.fifo_vectors = out.fifo_vectors[:n]
    out.targets = out.targets[:n]
    return out


def replay_pairs(per_path, rng) -> auxtrain.ReplayBuffer:
    """Transitions between consecutive labeled FIFOs of each path, with a
    seeded slimming-factor action and the mode-C reward for the labeled
    motion; the last FIFO of a path is terminal."""
    n = sum(len(ds) for ds in per_path)
    buf = auxtrain.ReplayBuffer(n, DEPTH * worldsim.OBS_WIDTH, 1)
    w = auxtrain.RewardWeights()
    for ds in per_path:
        x = ds.fifo_vectors
        for k in range(len(ds)):
            rho = float(rng.uniform(RHO_MIN, 1.0))
            last = k == len(ds) - 1
            terminal = worldsim.REACHED if last else worldsim.ACTIVE
            d = float(np.linalg.norm(ds.targets[k]))
            r = auxtrain.reward(d, terminal, rho, 3, 3, w)
            buf.add(x[k], [rho], r, x[k] if last else x[k + 1], last)
    return buf


# operations


def check_path(world: World, path, spawn, goal) -> None:
    wps = [tuple(int(c) for c in v) for v in path.waypoints]
    check(wps[0] == tuple(spawn) and wps[-1] == tuple(goal),
          f"path does not join {spawn} to {goal}")
    check(all(world.graph.is_vertex(v) for v in wps),
          "path leaves the free voxels")
    check(all(v[2] == FLIGHT_Z for v in wps), "path leaves the flight level")
    try:
        cost = pathoracle.path_cost(wps, RESOLUTION)
    except ValueError as e:
        raise CheckError(f"illegal hop: {e}") from e
    check(cost == path.length, f"length {path.length} != path_cost {cost}")


def check_round_trip(ds, back) -> None:
    f32 = lambda a: a.astype(np.float32).astype(np.float64)  # noqa: E731
    check((back.depth, back.p_f, back.p_d) == (ds.depth, ds.p_f, ds.p_d)
          and np.array_equal(back.fifo_vectors, f32(ds.fifo_vectors))
          and np.array_equal(back.targets, f32(ds.targets)),
          "dataset does not round-trip through save and load")


def oracle_task(inp: PlanInputs, j: int):
    """Oracle task j: sample with rejection by plain A*, re-plan with the
    clearance cost, label with jitter and crowd boost, save and load. It
    draws from its own rng, so every cycle repeats the same work."""
    n = len(inp.worlds)
    # world j mod n; successive rounds over the worlds shift the distances,
    # so every world gets several and every distance comes up equally often
    w = inp.worlds[j % n]
    distance = PLAN_DISTANCES[(j + j // n) % len(PLAN_DISTANCES)]
    rng = np.random.default_rng([inp.seed, 1, j])
    task = w.sampler.sample("train", distance, rng, tolerance=PLAN_TOLERANCE)
    path = pathoracle.astar(w.graph, task.spawn, task.goal, CLEARANCE)
    ds = pathoracle.label_dataset(w.grid, [path], depth=DEPTH,
                                  max_step=MAX_STEP, sensor=SENSOR,
                                  jitter=JITTER, rng=rng,
                                  crowd_boost=CROWD_BOOST)
    pathoracle.save_dataset(ds, inp.io_path)
    back, _ = pathoracle.load_dataset(inp.io_path)
    return w, task, path, ds, back


def plan_op(inp: PlanInputs, j: int, tally: Tally) -> None:
    """Oracle task j, then the relabeling rollout of the mode-C fixture on
    the same task, for at most `relabel_states` states."""
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        w, task, path, ds, back = oracle_task(inp, j)
    except OP_ERRORS:
        tally.failed += 1
        return
    tally.work(time.perf_counter() - t0, 1)
    try:
        check_path(w, task.path, task.spawn, task.goal)
        check_path(w, path, task.spawn, task.goal)
        check(path.length >= task.path.length,
              "clearance path shorter than the plain shortest path")
        check_round_trip(ds, back)
    except CheckError as e:
        tally.fail_check(e)
    tally.fold(np.asarray(task.path.waypoints), np.asarray(path.waypoints),
               inp.io_path.read_bytes())
    tally.attempted += 1
    timer = Timer(inp.nav.forward)
    t0 = time.perf_counter()
    try:
        rds = pathoracle.label_rollouts(
            w.grid, w.graph, [task], timer, depth=DEPTH, max_step=MAX_STEP,
            sensor=SENSOR, goal_radius=GOAL_RADIUS,
            clearance_weight=CLEARANCE, max_steps=inp.scale.relabel_states,
            crowd_boost=CROWD_BOOST)
    except OP_ERRORS:
        tally.failed += 1
        return
    tally.loop(time.perf_counter() - t0, timer.calls, timer.intervals)
    rows = np.concatenate([rds.fifo_vectors, rds.targets], axis=1)
    labeled = 1 + int(np.any(rows[1:] != rows[:-1], axis=1).sum())
    out = tally.outputs
    out["relabel_states"] = out.get("relabel_states", 0) + timer.calls
    out["relabel_labeled"] = out.get("relabel_labeled", 0) + labeled
    try:
        check(bool(np.isfinite(rds.targets).all()), "non-finite relabel target")
        check(bool((np.abs(rds.targets) <= MAX_STEP).all()),
              "relabel target beyond max_step")
    except CheckError as e:
        tally.fail_check(e)
    tally.fold(rds.fifo_vectors, rds.targets)


def plan_ops(inp: PlanInputs, tally: Tally):
    k = 0
    while True:
        yield lambda j=k % inp.scale.plan_tasks: plan_op(inp, j, tally)
        k += 1


def fly_op(inp: FlyInputs, k: int, tally: Tally) -> None:
    task, world, max_steps = inp.tasks[k].task, inp.tasks[k].world, inp.tasks[k].max_steps
    kept = tally.outputs.setdefault("fifos", [])
    timer = Timer(inp.actor.forward, tally.tracer, "auxtrain.policy",
                  max(0, tally.keep_fifos - len(kept)))
    tally.attempted += 1
    t0 = time.perf_counter()
    log = auxtrain.run_episode(
        world.grid, inp.nav, None, inp.mode, spawn=point(task.spawn),
        goal=point(task.goal), depth=DEPTH, rho_min=RHO_MIN,
        goal_radius=GOAL_RADIUS, max_step=MAX_STEP, max_range=MAX_RANGE,
        max_steps=max_steps, vertical_locked=VERTICAL_LOCKED, policy=timer,
        optimal_path=task.path)
    dt = time.perf_counter() - t0
    tally.loop(dt, log.path_steps, timer.intervals)
    tally.work(dt, 1)
    out = tally.outputs.setdefault("outcomes", {})
    out[log.outcome] = out.get(log.outcome, 0) + 1
    try:
        check_episode(inp, log, max_steps)
    except CheckError as e:
        tally.fail_check(e)
    kept.extend(timer.inputs)
    if tally.ops_done < tally.prefix:
        tally.outputs.setdefault("logs", []).append(log)
    tally.fold(np.array([s.position for s in log.steps]),
               np.array([(s.rho, s.p_f, s.p_d, s.reward, s.m_active)
                         for s in log.steps]), log.outcome.encode())


def check_episode(inp: FlyInputs, log, max_steps: int) -> None:
    check(log.outcome in (worldsim.REACHED, worldsim.COLLIDED, auxtrain.TIMEOUT),
          f"unknown outcome {log.outcome!r}")
    check(1 <= log.path_steps <= max_steps, "episode overran max_steps")
    if log.outcome == auxtrain.TIMEOUT:
        check(log.path_steps == max_steps, "timeout before the step budget")
    for s in log.steps:
        check(RHO_MIN <= s.rho <= 1.0, f"rho {s.rho} outside [{RHO_MIN}, 1]")
        check(s.p_f in worldsim.FORWARD_LEVELS and s.p_d in worldsim.DOWNWARD_LEVELS,
              f"power levels ({s.p_f}, {s.p_d}) out of range")
        if inp.mode == "C":
            check((s.p_f, s.p_d) == auxtrain.MAX_POWER, "mode C sensed below max power")
        else:
            check(s.rho == 1.0, "mode S slimmed the navigation network")


def fly_ops(inp: FlyInputs, tally: Tally):
    k = 0
    while True:
        yield lambda k=k: fly_op(inp, k % len(inp.tasks), tally)
        k += 1


def distill_op(inp: LearnInputs, mode: str, tally: Tally) -> None:
    s = inp.scale
    spec = slimnet.MLPSpec(u=DEPTH * worldsim.OBS_WIDTH, q=s.learn_hidden, v=3,
                           output_activation="tanh", output_scale=2.0)
    cfg = distill.DistillConfig(max_epochs=s.learn_epochs,
                                patience=s.learn_epochs, seed=inp.seed)
    batches = s.learn_epochs * math.ceil(len(inp.train) / cfg.batch_size)
    tally.attempted += batches
    t0 = time.perf_counter()
    try:
        net, rep = distill.train_navigation(
            inp.train, inp.val, spec, cfg, mode=mode,
            layout=worldsim.ObservationLayout(DEPTH))
    except TrainingError:
        tally.failed += batches
        return
    tally.work(time.perf_counter() - t0, s.learn_epochs * len(inp.train))
    losses = np.array(rep.train_losses + rep.val_losses)
    try:
        check(bool(np.isfinite(losses).all()), f"non-finite mode-{mode} loss")
        check(rep.stopped_epoch == s.learn_epochs, "training stopped early")
    except CheckError as e:
        tally.fail_check(e)
    tally.outputs[f"val_mse_{mode.lower()}"] = min(rep.val_losses)
    tally.fold(losses, *_net_arrays(net))


def td3_op(inp: LearnInputs, tally: Tally) -> None:
    s = inp.scale
    agent = auxtrain.TD3Agent(DEPTH * worldsim.OBS_WIDTH, [RHO_MIN], [1.0],
                              s.td3, seed=inp.seed)
    rng = np.random.default_rng([inp.seed, 4])
    losses, intervals = [], []
    for _ in range(s.td3_updates):
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            out = agent.update(inp.buffer, rng)
        except TrainingError:
            tally.failed += 1
            continue
        intervals.append(time.perf_counter() - t0)
        actor_updated = agent.update_count % s.td3.policy_delay == 0
        vals = [out["critic1"], out["critic2"], out["q_mean"]]
        losses.append(vals + ([out["actor"]] if actor_updated else []))
    # one actor update comes every `policy_delay` updates, so single update
    # times fall in two clusters; the loop interval is the mean update time
    # over each whole delay cycle, whose median is a steady figure
    d = s.td3.policy_delay
    cycles = np.asarray(intervals[:len(intervals) - len(intervals) % d])
    tally.loop(sum(intervals), len(intervals), cycles.reshape(-1, d).mean(axis=1))
    try:
        check(all(np.isfinite(v).all() for v in losses), "non-finite TD3 loss")
    except CheckError as e:
        tally.fail_check(e)
    tally.fold(np.concatenate([np.asarray(v) for v in losses]),
               *_net_arrays(agent.actor))


def learn_ops(inp: LearnInputs, tally: Tally):
    while True:
        yield lambda: distill_op(inp, "C", tally)
        yield lambda: distill_op(inp, "S", tally)
        yield lambda: td3_op(inp, tally)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: callable
    ops: callable
    prefix: callable          # inputs -> ops folded into the digest
    expected_spans: tuple     # spans the traced run must see called
    loop_unit: str
    work_unit: str


COMMON_FLY_SPANS = ("worldsim.sense", "worldsim.cast_rays", "worldsim.step",
                    "worldsim.segment_hits", "worldsim.fifo", "slimnet.mask",
                    "slimnet.active_params", "auxtrain.run_episode",
                    "auxtrain.policy")

WORKLOADS = {
    "plan": Workload(
        "plan", setup_plan, plan_ops, lambda inp: inp.scale.plan_tasks,
        ("worldsim.sense", "worldsim.cast_rays", "worldsim.step",
         "worldsim.segment_hits", "worldsim.fifo", "pathoracle.astar",
         "pathoracle.neighbors", "pathoracle.sample",
         "pathoracle.label_dataset", "pathoracle.label_rollouts",
         "pathoracle.dataset_io", "slimnet.forward_b1_rho", "slimnet.mask"),
        "relabel states", "oracle tasks"),
    "fly-c": Workload(
        "fly-c", setup_fly("C"), fly_ops, lambda inp: len(inp.tasks),
        COMMON_FLY_SPANS + ("slimnet.forward_b1_rho",),
        "env steps", "episodes"),
    "fly-s": Workload(
        "fly-s", setup_fly("S"), fly_ops, lambda inp: len(inp.tasks),
        COMMON_FLY_SPANS + ("slimnet.forward_b1_inputs",),
        "env steps", "episodes"),
    "learn": Workload(
        "learn", setup_learn, learn_ops, lambda inp: 3,
        ("slimnet.forward_batch", "slimnet.backward", "slimnet.adam",
         "slimnet.mask", "distill.train_navigation", "distill.batch_c",
         "distill.batch_s", "auxtrain.td3_update", "auxtrain.replay_sample"),
        "TD3 updates", "distillation samples"),
}


def run_ops(wl: Workload, inputs, seconds: float, max_ops=None, tracer=None,
            keep_fifos: int = 0) -> tuple[Tally, float]:
    """Run whole cycles of operations until `seconds` have passed, or
    exactly `max_ops` operations. A cycle is the digest prefix: every input
    once, so each run measures the same mix. Returns the tally and the wall
    time of the operations."""
    tally = Tally(prefix=wl.prefix(inputs), keep_fifos=keep_fifos,
                  tracer=tracer)
    stream = wl.ops(inputs, tally)
    busy = 0.0
    t0 = time.perf_counter()
    for op in stream:
        if max_ops is not None:
            if tally.ops_done >= max_ops:
                break
        elif _cycle_done(tally, t0, seconds):
            break
        t1 = time.perf_counter()
        op()
        busy += time.perf_counter() - t1
        tally.ops_done += 1
    return tally, busy


def run_paired(wl: Workload, inputs, ref_wl: Workload, ref_inputs,
               seconds: float) -> tuple[Tally, Tally]:
    """Like `run_ops`, but every operation runs twice in a row: on the
    program under test and on the reference copy (`ref_wl`, `ref_inputs`),
    the copy first on every other operation. Both tallies thus see the
    same machine at the same moments. Returns the two tallies."""
    tally = Tally(prefix=wl.prefix(inputs))
    ref = Tally(prefix=ref_wl.prefix(ref_inputs))
    pairs = zip(wl.ops(inputs, tally), ref_wl.ops(ref_inputs, ref))
    t0 = time.perf_counter()
    for op, ref_op in pairs:
        if _cycle_done(tally, t0, seconds):
            break
        for f in ((ref_op, op) if tally.ops_done % 2 else (op, ref_op)):
            f()
        tally.ops_done += 1
        ref.ops_done += 1
    return tally, ref


def _cycle_done(tally: Tally, t0: float, seconds: float) -> bool:
    """At the end of a whole cycle, once `seconds` have passed."""
    return (tally.ops_done % tally.prefix == 0 and tally.ops_done > 0
            and time.perf_counter() - t0 >= seconds)
