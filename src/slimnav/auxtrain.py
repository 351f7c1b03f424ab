"""Auxiliary-network training: reward shaping, TD3 with twin critics and a
delayed actor, episodes in both adaptation modes (flown through
`worldsim.Flight`), a distance curriculum, and resource-usage metrics.

Mode "C" adapts compute: the auxiliary actor emits a slimming factor rho for
the navigation network while sensing stays at max power. Mode "S" adapts
sensing: the actor emits the next (p_f, p_d) power levels while the
navigation network runs at full width with the matching input mask.

`AuxConfig`, `Curriculum`, `RewardWeights` and `ConstraintConfig` are also
the ``aux``, ``curriculum``, ``reward`` and ``constraint`` sections of the
CLI configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .errors import ConfigError, Range, check_ranges
from .slimnet import (Adam, MLPSpec, SlimMask, SlimmableMLP, active_params,
                      active_widths)
from .worldsim import (ACTIVE, COLLIDED, DEFAULT_GOAL_RADIUS, DEFAULT_MAX_RANGE,
                       DEFAULT_MAX_STEP, MAX_POWER, MIN_POWER, Flight,
                       OBS_WIDTH, ObservationLayout, REACHED, SensorConfig,
                       mean_depths)

TIMEOUT = "timeout"

POWER_SUM_MAX = float(sum(MAX_POWER))
# sub-networks whose weight blocks one episode holds at once. Mode-C flights
# of a 64x64 navigator meet about 6 widths per episode, at about 150 kB of
# blocks each: holding 2 copies blocks on 28% of the steps, against 21%
# with every width held, for about half the memory. Mode-S flights meet 2
# power pairs per episode, and lose nothing.
HELD_SUBNETS = 2


@dataclass(frozen=True)
class RewardWeights:
    """Per-step reward coefficients: collision and goal terminals, distance
    progress, time, compute (rho) and sensing (power sum) penalties."""

    collision: Annotated[float, Range(0)] = 10.0
    goal: Annotated[float, Range(0)] = 10.0
    progress: Annotated[float, Range(0)] = 1.0
    time: Annotated[float, Range(0)] = 0.1
    compute: Annotated[float, Range(0)] = 0.1
    sensing: Annotated[float, Range(0)] = 0.05

    __post_init__ = check_ranges


def reward(d: float, terminal: str, rho: float, p_f: float, p_d: float,
           w: RewardWeights) -> float:
    """Reward of one step: -collision / +goal on terminals, otherwise
    progress * tanh(d) - time - compute * rho - sensing * (p_f + p_d).

    Callers pass the step's decoded action (`decode_action`): its rho and
    its power pair, so mode C charges max power and mode S rho = 1.
    """
    if terminal == COLLIDED:
        return -w.collision
    if terminal == REACHED:
        return w.goal
    return w.progress * math.tanh(d) - w.time - w.compute * rho - w.sensing * (p_f + p_d)


class ReplayBuffer:
    """Ring buffer of transitions; oldest entries are evicted first. Batches
    are drawn uniformly without replacement. Stored as float32."""

    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        if capacity < 1:
            raise ConfigError(f"buffer capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.states = np.zeros((capacity, state_dim), dtype=np.float32)
        self.actions = np.zeros((capacity, action_dim), dtype=np.float32)
        self.rewards = np.zeros(capacity, dtype=np.float32)
        self.next_states = np.zeros((capacity, state_dim), dtype=np.float32)
        self.dones = np.zeros(capacity, dtype=np.float32)
        self.ptr = 0
        self.size = 0
        self._batches = {}      # batch size -> the float64 arrays sample fills

    def add(self, s, a, r, s2, done) -> None:
        i = self.ptr
        self.states[i] = s
        self.actions[i] = a
        self.rewards[i] = r
        self.next_states[i] = s2
        self.dones[i] = float(done)
        self.ptr = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng):
        """(states, actions, rewards, next_states, dones) of `batch_size`
        distinct transitions, as float64. The arrays are kept per batch size
        and refilled in place, so the next `sample` of that size overwrites
        a returned batch: a caller that keeps one past that copies it. Fresh
        arrays freed between calls can fault in about 236 new pages per
        default TD3 batch (128 x 428 inputs), 0.36-0.50 ms against 0.09 ms,
        depending on the allocator's state; kept ones never do. They hold
        0.9 MB for the life of the buffer, which adds about 1 MB (2%) to the
        learn benchmark's peak RSS."""
        if batch_size > self.size:
            raise ValueError(f"batch {batch_size} exceeds buffer size {self.size}")
        idx = rng.choice(self.size, size=batch_size, replace=False)
        columns = (self.states, self.actions, self.rewards, self.next_states, self.dones)
        batch = self._batches.get(batch_size)
        if batch is None:
            batch = self._batches[batch_size] = tuple(
                np.empty((batch_size, *c.shape[1:])) for c in columns)
        for c, out in zip(columns, batch):
            out[...] = c[idx]
        return batch


@dataclass
class TD3Config:
    gamma: Annotated[float, Range(0, 1, lo_open=True, hi_open=True)] = 0.99
    tau: Annotated[float, Range(0, 1, lo_open=True)] = 0.005
    policy_delay: Annotated[int, Range(1)] = 2
    exploration_steps: Annotated[int, Range(0)] = 2000
    action_noise_std: Annotated[float, Range(0)] = 0.1
    target_noise_std: Annotated[float, Range(0)] = 0.2
    target_noise_clip: Annotated[float, Range(0)] = 0.5
    batch_size: Annotated[int, Range(1)] = 128
    buffer_capacity: int = 100_000
    lr_actor: Annotated[float, Range(0, lo_open=True)] = 1e-3
    lr_critic: Annotated[float, Range(0, lo_open=True)] = 1e-3
    max_episode_steps: Annotated[int, Range(1)] = 200

    def __post_init__(self):
        check_ranges(self)
        if self.buffer_capacity < self.batch_size:
            raise ConfigError(f"buffer_capacity must hold one batch of "
                              f"batch_size {self.batch_size}, got {self.buffer_capacity}")


class TD3Agent:
    """Twin critics with clipped target noise, delayed deterministic actor,
    Polyak-averaged target copies of all three networks."""

    def __init__(self, state_dim: int, action_low, action_high,
                 cfg: TD3Config | None = None, actor_hidden=(32, 32),
                 critic_hidden=(64, 64), seed: int = 0):
        self.cfg = cfg or TD3Config()
        self.low = np.asarray(action_low, dtype=float)
        self.high = np.asarray(action_high, dtype=float)
        adim = self.low.size
        self.action_scale = 0.5 * (self.high - self.low)  # noise unit per dim
        actor_spec = MLPSpec(u=state_dim, q=tuple(actor_hidden), v=adim,
                             output_activation="bounded",
                             output_low=tuple(self.low), output_high=tuple(self.high))
        critic_spec = MLPSpec(u=state_dim + adim, q=tuple(critic_hidden), v=1)
        self.actor = SlimmableMLP(actor_spec, seed=seed)
        self.critic1 = SlimmableMLP(critic_spec, seed=seed + 1)
        self.critic2 = SlimmableMLP(critic_spec, seed=seed + 2)
        self.actor_target = self.actor.copy()
        self.critic1_target = self.critic1.copy()
        self.critic2_target = self.critic2.copy()
        self.opt_actor = Adam(self.actor, lr=self.cfg.lr_actor)
        self.opt_critic1 = Adam(self.critic1, lr=self.cfg.lr_critic)
        self.opt_critic2 = Adam(self.critic2, lr=self.cfg.lr_critic)
        self.update_count = 0
        self.state_dim = state_dim
        self.action_dim = adim

    def act(self, state) -> np.ndarray:
        return np.asarray(self.actor.forward(state), dtype=float)

    def noisy_act(self, state, rng) -> np.ndarray:
        a = self.act(state)
        a = a + rng.normal(0.0, self.cfg.action_noise_std, size=a.shape) * self.action_scale
        return np.clip(a, self.low, self.high)

    def random_action(self, rng) -> np.ndarray:
        return rng.uniform(self.low, self.high)

    def _polyak(self) -> None:
        tau = self.cfg.tau
        for net, tgt in ((self.actor, self.actor_target),
                         (self.critic1, self.critic1_target),
                         (self.critic2, self.critic2_target)):
            # in place, as tau * net + (1 - tau) * tgt rounded to float32
            p = tgt.params
            p *= 1.0 - tau
            p += tau * net.params
            p[:] = p.astype(np.float32)

    def update(self, buffer: ReplayBuffer, rng) -> dict:
        """One TD3 step: both critics regress the clipped double-Q target;
        every policy_delay updates the actor ascends critic1 and all targets
        are Polyak-averaged."""
        cfg = self.cfg
        s, a, r, s2, done = buffer.sample(cfg.batch_size, rng)
        n = s.shape[0]

        eps = rng.normal(0.0, cfg.target_noise_std, size=a.shape)
        eps = np.clip(eps, -cfg.target_noise_clip, cfg.target_noise_clip) * self.action_scale
        a2 = np.clip(self.actor_target.forward(s2) + eps, self.low, self.high)
        sa2 = np.concatenate([s2, a2], axis=1)
        q_next = np.minimum(self.critic1_target.forward(sa2)[:, 0],
                            self.critic2_target.forward(sa2)[:, 0])
        y = r + cfg.gamma * (1.0 - done) * q_next

        sa = np.concatenate([s, a], axis=1)
        losses = {}
        for name, critic, opt in (("critic1", self.critic1, self.opt_critic1),
                                  ("critic2", self.critic2, self.opt_critic2)):
            q, cache = critic.forward(sa, return_cache=True)
            err = q[:, 0] - y
            losses[name] = float(np.mean(err**2))
            grads = critic.backward(cache, (2.0 * err / n)[:, None])
            opt.step(grads)

        self.update_count += 1
        losses["q_mean"] = float(np.mean(y))
        losses["actor"] = float("nan")
        if self.update_count % cfg.policy_delay == 0:
            a_pi, cache_a = self.actor.forward(s, return_cache=True)
            sa_pi = np.concatenate([s, a_pi], axis=1)
            q, cache_q = self.critic1.forward(sa_pi, return_cache=True)
            losses["actor"] = float(-np.mean(q))
            dq = self.critic1.input_grad(cache_q, np.full((n, 1), -1.0 / n))
            grads_actor = self.actor.backward(cache_a, dq[:, self.state_dim:])
            self.opt_actor.step(grads_actor)
            self._polyak()
        return losses


@dataclass
class AuxConfig(TD3Config):
    """TD3 settings plus the training run around them: network widths, seed,
    env-step budget, how often and how long to evaluate, and the final
    gate's episode count and distance (None: the last curriculum distance)."""

    actor_hidden: Annotated[tuple[int, ...], Range(1)] = (32, 32)
    critic_hidden: Annotated[tuple[int, ...], Range(1)] = (64, 64)
    seed: Annotated[int, Range(0)] = 0
    # at least one env step: with none, nothing trains and the gate flies the
    # untrained actor
    total_env_steps: Annotated[int, Range(1)] = 30_000
    eval_every_episodes: Annotated[int, Range(1)] = 20
    eval_episodes: Annotated[int, Range(1)] = 10
    gate_episodes: Annotated[int, Range(1)] = 20
    gate_distance: Annotated[float | None, Range(0, lo_open=True)] = 20.0


@dataclass(frozen=True)
class Curriculum:
    """Spawn-goal distance schedule: starts small, advances by a fixed
    increment whenever evaluation success reaches the threshold, never
    decreases."""

    start: Annotated[float, Range(0, lo_open=True)] = 10.0
    increment: Annotated[float, Range(0)] = 10.0
    maximum: float = 40.0
    threshold: Annotated[float, Range(0, 1, lo_open=True)] = 0.8

    def __post_init__(self):
        check_ranges(self)
        if self.maximum < self.start:
            raise ConfigError(f"maximum must be >= start {self.start}, got {self.maximum}")

    def advance(self, distance: float, success: float) -> float:
        """The distance after an evaluation at `distance` with this success
        rate."""
        if success >= self.threshold:
            return float(min(distance + self.increment, self.maximum))
        return distance


@dataclass
class EpisodeStep:
    position: np.ndarray
    rho: float
    p_f: int
    p_d: int
    reward: float
    m_active: int
    mean_forward_depth: float
    mean_downward_depth: float


@dataclass
class EpisodeLog:
    steps: list
    outcome: str
    spawn: np.ndarray
    goal: np.ndarray
    optimal_steps: int | None = None
    optimal_length: float | None = None

    @property
    def path_steps(self) -> int:
        return len(self.steps)

    def mean_rho(self) -> float:
        return float(np.mean([s.rho for s in self.steps]))

    def mean_powers(self) -> tuple[float, float]:
        return (float(np.mean([s.p_f for s in self.steps])),
                float(np.mean([s.p_d for s in self.steps])))


def action_bounds(mode: str, rho_min: float) -> tuple[np.ndarray, np.ndarray]:
    """(low, high) of a mode's action: the slimming factor [rho_min]..[1] in
    mode C, the power pair MIN_POWER..MAX_POWER in mode S. `high` is the
    full action, full width at max power. ConfigError for any other mode."""
    if mode == "C":
        return np.array([rho_min]), np.array([1.0])
    if mode == "S":
        return np.array(MIN_POWER, dtype=float), np.array(MAX_POWER, dtype=float)
    raise ConfigError(f"mode must be 'C' or 'S', got {mode!r}")


def decode_action(mode: str, action, low, high) -> tuple[float, tuple[int, int]]:
    """The (rho, (p_f, p_d)) a mode's action asks for, over its
    `action_bounds` (low, high). Mode C clips rho and keeps MAX_POWER; mode S
    keeps rho = 1 and rounds, then clips, each power level (ValueError for
    a NaN level, OverflowError for an infinite one). A NaN rho stays NaN,
    for `SlimMask` to refuse."""
    if mode == "C":
        return min(max(float(action[0]), float(low[0])), float(high[0])), MAX_POWER
    # Python floats: rounding and clipping numpy scalars costs several times more
    (a_f, a_d), (lo_f, lo_d), (hi_f, hi_d) = (np.asarray(action, dtype=float).tolist(),
                                              low.tolist(), high.tolist())
    return 1.0, (int(min(max(round(a_f), lo_f), hi_f)),
                 int(min(max(round(a_d), lo_d), hi_d)))


def run_episode(grid, nav: SlimmableMLP, aux: SlimmableMLP | None = None,
                mode: str = "C", *, spawn, goal, weights: RewardWeights | None = None,
                depth: int = 4, rho_min: float = 0.25,
                goal_radius: float = DEFAULT_GOAL_RADIUS,
                max_step: float = DEFAULT_MAX_STEP,
                max_range: float = DEFAULT_MAX_RANGE,
                max_steps: int = 200, vertical_locked: bool = False,
                policy=None, transition_sink=None,
                optimal_path=None) -> EpisodeLog:
    """Closed-loop flight from spawn to goal.

    Each step senses at the current power pair (the first acquisition is
    always MAX_POWER), pushes the FIFO and asks the policy for an action,
    which `decode_action` turns into (rho, next pair). The navigation
    network runs slimmed to rho with the input mask of the sensed pair, the
    drone steps, and the reward charges rho and the next pair, at which the
    following acquisition senses. Mode C keeps MAX_POWER and so every input;
    mode S keeps rho = 1.

    Each step logs the mean depths (`worldsim.mean_depths`) of the newest
    observation, the first OBS_WIDTH entries of the flattened FIFO.

    What a step costs: one `worldsim.sense` (one `cast_rays` call over the
    sensed pair's rays), two batch-1 forwards (policy and navigator) and
    one `worldsim.step`. What an episode reuses: the sensor and input mask
    of a power pair while the pair holds, and one table of at most
    HELD_SUBNETS sub-networks keyed by (active widths, sensed pair), each a
    mask holding the navigator's contiguous weight blocks
    (`SlimmableMLP.hold`) and its active parameter count. The navigator is
    frozen during the flight, so a held key's forwards run on blocks copied
    once. A miss drops the oldest entry of a full table, then builds, holds
    and counts its key afresh; rho is checked (`slimnet.active_widths`)
    before the lookup. Nothing outlives the episode: the blocks go with it.

    `policy` maps the flattened FIFO to the raw continuous action; without
    it the aux network acts, and without that the full action
    (`action_bounds`' top). `transition_sink(s, a, r, s2, done)` receives
    every completed transition for replay-buffer filling.
    """
    low, high = action_bounds(mode, rho_min)
    if policy is None:
        policy = aux.forward if aux is not None else lambda x: high
    w = weights or RewardWeights()
    layout = ObservationLayout(depth)
    flight = Flight(grid, spawn, goal, depth, vertical_locked, goal_radius,
                    max_step)
    powers = MAX_POWER
    sensed = None
    # up to HELD_SUBNETS (active widths, sensed pair) keys -> (SlimMask
    # holding the navigator's blocks, active params), oldest first
    subnets = {}

    steps_log: list[EpisodeStep] = []
    pending = None
    outcome = TIMEOUT
    for _ in range(max_steps):
        if powers != sensed:
            sensed = powers
            sensor = SensorConfig(sensed[0], sensed[1], max_range)
            in_mask = layout.input_mask(*sensed)
        x = flight.observe(sensor)
        if pending is not None and transition_sink is not None:
            transition_sink(*pending, x, 0.0)
        pending = None

        action = np.asarray(policy(x), dtype=float)
        rho, powers = decode_action(mode, action, low, high)
        key = (active_widths(nav.spec, rho), sensed)
        if key not in subnets:
            if len(subnets) == HELD_SUBNETS:
                del subnets[next(iter(subnets))]
            subnets[key] = (nav.hold(SlimMask(nav.spec, rho, in_mask)),
                            active_params(nav.spec, rho, in_mask)[0])
        mask, m_act = subnets[key]

        prev_dist = flight.state.goal_distance()
        state = flight.move(nav.forward(x, mask))
        d = prev_dist - state.goal_distance()
        r = reward(d, state.terminal, rho, powers[0], powers[1], w)
        mean_f, mean_d = mean_depths(x[:OBS_WIDTH], sensor)
        steps_log.append(EpisodeStep(
            position=state.position.copy(), rho=rho,
            p_f=sensed[0], p_d=sensed[1], reward=r,
            m_active=m_act, mean_forward_depth=mean_f,
            mean_downward_depth=mean_d))

        if state.terminal != ACTIVE:
            outcome = state.terminal
            if transition_sink is not None:
                transition_sink(x, action, r, x, 1.0)
            break
        pending = (x, action, r)

    if pending is not None and transition_sink is not None:
        # timed out while active: sense once more to complete the transition
        x2 = flight.observe(SensorConfig(powers[0], powers[1], max_range))
        transition_sink(*pending, x2, 0.0)

    opt_steps = opt_len = None
    if optimal_path is not None:
        opt_steps, opt_len = optimal_path.steps, optimal_path.length
    return EpisodeLog(steps=steps_log, outcome=outcome,
                      spawn=np.asarray(spawn, dtype=float),
                      goal=np.asarray(goal, dtype=float),
                      optimal_steps=opt_steps, optimal_length=opt_len)


def fly_tasks(sampler, tasks, nav: SlimmableMLP, mode: str, policy=None,
              **flight) -> list[EpisodeLog]:
    """One `run_episode` per task on the sampler's grid: from the task's
    spawn to its goal, with the graph's vertical lock and the task's optimal
    path. `flight` holds `run_episode`'s other keywords. Every step flies
    the (rho, power pair) that `decode_action` reads from the policy's
    action; a static baseline is a constant `policy` (a constant rho or
    pair), and None flies the full action."""
    graph = sampler.graph
    grid = graph.grid
    return [run_episode(grid, nav, None, mode, spawn=grid.center_of(t.spawn),
                        goal=grid.center_of(t.goal),
                        vertical_locked=graph.vertical_locked, policy=policy,
                        optimal_path=t.path, **flight)
            for t in tasks]


def success_rate(logs) -> float:
    """Share of the episodes that reached the goal; nan without episodes,
    since an empty task list has no success rate, not a zero one."""
    if not logs:
        return float("nan")
    return float(np.mean([l.outcome == REACHED for l in logs]))


def length_ratio(logs) -> float:
    """Mean flown-to-optimal step count over the successful episodes that
    know their optimal path; nan when there are none."""
    ratios = [l.path_steps / l.optimal_steps for l in logs
              if l.outcome == REACHED and l.optimal_steps]
    return float(np.mean(ratios)) if ratios else float("nan")


@dataclass
class ConstraintConfig:
    """Path-length constraint: successful paths must satisfy
    steps <= beta * optimal_steps. alpha is the reserved slack weight for
    reporting how close a run sits to the bound."""

    alpha: Annotated[float, Range(0, 1)] = 0.5
    beta: Annotated[float, Range(1)] = 1.5

    __post_init__ = check_ranges


@dataclass
class GateReport:
    """Final evaluation on held-out tasks plus the length-constraint verdict."""

    ok: bool
    success_rate: float
    mean_rho: float
    mean_p_f: float
    mean_p_d: float
    distance: float
    beta: float
    episodes: list
    violations: list

    def summary(self) -> str:
        status = "pass" if self.ok else "FAIL"
        return (f"gate {status}: success {self.success_rate:.0%}, "
                f"mean rho {self.mean_rho:.3f}, mean p=({self.mean_p_f:.2f},"
                f"{self.mean_p_d:.2f}) at {self.distance:.0f} m")


@dataclass
class AuxTrainResult:
    agent: TD3Agent
    episodes: list
    eval_history: list
    update_log: list
    gate: GateReport
    env_steps: int


def check_gate(logs, beta: float) -> tuple[bool, list]:
    """Every episode must reach the goal within beta times the optimal step
    count. Returns (ok, human-readable violations)."""
    violations = []
    for i, log in enumerate(logs):
        if log.outcome != REACHED:
            violations.append(f"episode {i}: outcome {log.outcome} "
                              f"after {log.path_steps} steps")
        elif log.optimal_steps and log.path_steps > beta * log.optimal_steps:
            violations.append(f"episode {i}: {log.path_steps} steps vs optimal "
                              f"{log.optimal_steps} exceeds beta {beta}")
    return (not violations), violations


def train_auxiliary(sampler, nav: SlimmableMLP, mode: str, cfg: AuxConfig,
                    weights: RewardWeights, constraint: ConstraintConfig,
                    curriculum: Curriculum, *, depth: int = 4,
                    rho_min: float = 0.25,
                    goal_radius: float = DEFAULT_GOAL_RADIUS,
                    max_step: float = DEFAULT_MAX_STEP,
                    max_range: float = DEFAULT_MAX_RANGE) -> AuxTrainResult:
    """TD3-train the auxiliary actor against the frozen navigation network.

    Episodes run on tasks drawn from the train region at the curriculum
    distance; the curriculum advances on validation success. The final gate
    evaluates held-out test tasks and applies the path-length constraint;
    a failed gate is reported in the result, never hidden.
    """
    low, high = action_bounds(mode, rho_min)
    rng = np.random.default_rng(cfg.seed)
    state_dim = depth * OBS_WIDTH
    agent = TD3Agent(state_dim, low, high, cfg, actor_hidden=cfg.actor_hidden,
                     critic_hidden=cfg.critic_hidden, seed=cfg.seed)
    buffer = ReplayBuffer(cfg.buffer_capacity, state_dim, agent.action_dim)
    flight = dict(weights=weights, depth=depth, rho_min=rho_min,
                  goal_radius=goal_radius, max_step=max_step,
                  max_range=max_range, max_steps=cfg.max_episode_steps)
    distance = float(curriculum.start)
    episodes: list[EpisodeLog] = []
    eval_history: list[dict] = []
    update_log: list[dict] = []
    env_steps = 0

    def policy(x):
        if env_steps < cfg.exploration_steps:
            return agent.random_action(rng)
        return agent.noisy_act(x, rng)

    def sink(s, a, r, s2, done):
        nonlocal env_steps
        buffer.add(s, a, r, s2, done)
        env_steps += 1
        if env_steps >= cfg.exploration_steps and buffer.size >= cfg.batch_size:
            losses = agent.update(buffer, rng)
            update_log.append({"env_steps": env_steps,
                               "curriculum_distance": distance, **losses})

    def evaluate(region: str, dist: float, n: int) -> list[EpisodeLog]:
        # the deterministic actor draws nothing, so the tasks come first
        tasks = [sampler.sample(region, dist, rng) for _ in range(n)]
        return fly_tasks(sampler, tasks, nav, mode, agent.act, **flight)

    while env_steps < cfg.total_env_steps:
        task = sampler.sample("train", distance, rng)
        episodes += fly_tasks(sampler, [task], nav, mode, policy,
                              transition_sink=sink, **flight)
        if len(episodes) % cfg.eval_every_episodes == 0 and env_steps >= cfg.exploration_steps:
            logs = evaluate("validation", distance, cfg.eval_episodes)
            success = success_rate(logs)
            eval_history.append({"env_steps": env_steps, "episode": len(episodes),
                                 "distance": distance, "success": success,
                                 "mean_rho": float(np.mean([l.mean_rho() for l in logs]))})
            distance = curriculum.advance(distance, success)

    dist = cfg.gate_distance if cfg.gate_distance is not None else distance
    gate_logs = evaluate("test", dist, cfg.gate_episodes)
    ok, violations = check_gate(gate_logs, constraint.beta)
    gate = GateReport(ok=ok, success_rate=success_rate(gate_logs),
                      mean_rho=float(np.mean([l.mean_rho() for l in gate_logs])),
                      mean_p_f=float(np.mean([l.mean_powers()[0] for l in gate_logs])),
                      mean_p_d=float(np.mean([l.mean_powers()[1] for l in gate_logs])),
                      distance=dist, beta=constraint.beta,
                      episodes=gate_logs, violations=violations)
    return AuxTrainResult(agent=agent, episodes=episodes,
                          eval_history=eval_history, update_log=update_log,
                          gate=gate, env_steps=env_steps)


@dataclass
class EtaReport:
    """Resource usage over the successful episodes of a run: mean slimming
    factor and its parameter-count ratio, mean power levels and their share
    of the maximum power budget."""

    mean_rho: float
    eta_m: float
    mean_p_f: float
    mean_p_d: float
    eta_w: float
    n_episodes: int
    n_steps: int


def compute_eta(logs, spec: MLPSpec) -> EtaReport:
    """Aggregate resource metrics over successful episodes only:
    eta_m = mean logged active parameter count (the slimmed network in mode
    C, the input-masked one in mode S) / full parameter count,
    eta_w = (mean p_f + mean p_d) / max power sum."""
    succ = [l for l in logs if l.outcome == REACHED]
    if not succ:
        raise ValueError("no successful episodes to aggregate")
    steps = [s for log in succ for s in log.steps]
    mean_pf = float(np.mean([s.p_f for s in steps]))
    mean_pd = float(np.mean([s.p_d for s in steps]))
    return EtaReport(mean_rho=float(np.mean([s.rho for s in steps])),
                     eta_m=float(np.mean([s.m_active for s in steps])) / spec.param_count,
                     mean_p_f=mean_pf, mean_p_d=mean_pd,
                     eta_w=(mean_pf + mean_pd) / POWER_SUM_MAX,
                     n_episodes=len(succ), n_steps=len(steps))


def format_percent(x: float, decimals: int = 0) -> str:
    """Half-up percent formatting used in summary tables."""
    scaled = x * 100.0 * 10**decimals
    val = math.floor(scaled + 0.5) / 10**decimals
    return f"{val:.{decimals}f}%" if decimals else f"{int(val)}%"
