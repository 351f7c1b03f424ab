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

import numpy as np

from .errors import ConfigError
from .slimnet import Adam, MLPSpec, SlimMask, SlimmableMLP, active_params
from .worldsim import (ACTIVE, COLLIDED, DEFAULT_GOAL_RADIUS, DEFAULT_MAX_RANGE,
                       DEFAULT_MAX_STEP, MAX_POWER, MIN_POWER, Flight,
                       OBS_WIDTH, ObservationLayout, REACHED, SensorConfig,
                       mean_depths)

TIMEOUT = "timeout"

POWER_SUM_MAX = float(sum(MAX_POWER))


@dataclass(frozen=True)
class RewardWeights:
    """Per-step reward coefficients: collision and goal terminals, distance
    progress, time, compute (rho) and sensing (power sum) penalties."""

    collision: float = 10.0
    goal: float = 10.0
    progress: float = 1.0
    time: float = 0.1
    compute: float = 0.1
    sensing: float = 0.05

    def __post_init__(self):
        for name in ("collision", "goal", "progress", "time", "compute", "sensing"):
            if getattr(self, name) < 0:
                raise ConfigError(f"reward weight {name} must be >= 0")


def reward(d: float, terminal: str, rho: float, p_f: float, p_d: float,
           w: RewardWeights) -> float:
    """Reward of one step: -collision / +goal on terminals, otherwise
    progress * tanh(d) - time - compute * rho - sensing * (p_f + p_d).

    Callers fix the coefficient that their mode does not control (mode C
    passes max power, mode S passes rho = 1).
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
        if batch_size > self.size:
            raise ValueError(f"batch {batch_size} exceeds buffer size {self.size}")
        idx = rng.choice(self.size, size=batch_size, replace=False)
        return (self.states[idx].astype(np.float64),
                self.actions[idx].astype(np.float64),
                self.rewards[idx].astype(np.float64),
                self.next_states[idx].astype(np.float64),
                self.dones[idx].astype(np.float64))


@dataclass
class TD3Config:
    gamma: float = 0.99
    tau: float = 0.005
    policy_delay: int = 2
    exploration_steps: int = 2000
    action_noise_std: float = 0.1
    target_noise_std: float = 0.2
    target_noise_clip: float = 0.5
    batch_size: int = 128
    buffer_capacity: int = 100_000
    lr_actor: float = 1e-3
    lr_critic: float = 1e-3
    max_episode_steps: int = 200

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError(f"gamma must be in (0, 1), got {self.gamma}")
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError(f"tau must be in (0, 1], got {self.tau}")
        if self.policy_delay < 1:
            raise ConfigError(f"policy_delay must be >= 1, got {self.policy_delay}")
        if self.batch_size < 1 or self.buffer_capacity < self.batch_size:
            raise ConfigError("buffer must hold at least one batch")
        for name in ("action_noise_std", "target_noise_std", "target_noise_clip",
                     "exploration_steps"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.lr_actor <= 0 or self.lr_critic <= 0:
            raise ConfigError("lr_actor and lr_critic must be positive")
        if self.max_episode_steps < 1:
            raise ConfigError(f"max_episode_steps must be >= 1, "
                              f"got {self.max_episode_steps}")


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
            tgt.params[:] = (tau * net.params + (1.0 - tau) * tgt.params).astype(np.float32)

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
            gq = self.critic1.backward(cache_q, np.full((n, 1), -1.0 / n))
            da = gq.inputs[:, self.state_dim:]
            grads_actor = self.actor.backward(cache_a, da)
            self.opt_actor.step(grads_actor)
            self._polyak()
        return losses


@dataclass
class AuxConfig(TD3Config):
    """TD3 settings plus the training run around them: network widths, seed,
    env-step budget, how often and how long to evaluate, and the final
    gate's episode count and distance (None: the last curriculum distance)."""

    actor_hidden: tuple[int, ...] = (32, 32)
    critic_hidden: tuple[int, ...] = (64, 64)
    seed: int = 0
    total_env_steps: int = 30_000
    eval_every_episodes: int = 20
    eval_episodes: int = 10
    gate_episodes: int = 20
    gate_distance: float | None = 20.0

    def __post_init__(self):
        super().__post_init__()
        for name in ("eval_every_episodes", "eval_episodes", "gate_episodes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.gate_distance is not None and self.gate_distance <= 0:
            raise ConfigError(f"gate_distance must be positive, got {self.gate_distance}")
        for name in ("actor_hidden", "critic_hidden"):
            widths = getattr(self, name)
            if not widths or min(widths) < 1:
                raise ConfigError(f"{name} must be non-empty positive widths, "
                                  f"got {list(widths)}")


@dataclass(frozen=True)
class Curriculum:
    """Spawn-goal distance schedule: starts small, advances by a fixed
    increment whenever evaluation success reaches the threshold, never
    decreases."""

    start: float = 10.0
    increment: float = 10.0
    maximum: float = 40.0
    threshold: float = 0.8

    def __post_init__(self):
        if self.start <= 0 or self.increment < 0 or self.maximum < self.start:
            raise ConfigError("curriculum needs 0 < start <= maximum and increment >= 0")
        if not 0.0 < self.threshold <= 1.0:
            raise ConfigError(f"threshold must be in (0, 1], got {self.threshold}")

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


def power_levels(action) -> tuple[int, int]:
    """The power pair a mode-S action asks for: each entry rounded, then
    clipped to the sensor's levels."""
    return tuple(int(np.clip(round(a), lo, hi))
                 for a, lo, hi in zip(action, MIN_POWER, MAX_POWER))


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

    Mode C: sense at max power, push the FIFO, pick rho (clipped to the
    action box), run the navigation network slimmed to rho, step, reward
    with max-power sensing cost.

    Mode S: sense at the current power levels, push the FIFO, run the
    navigation network at full width with the matching input mask, pick the
    next levels (`power_levels`, applied at the next acquisition, the
    first one is max power), step, reward with rho = 1 and the freshly
    emitted levels.

    Each step logs the mean depths (`worldsim.mean_depths`) of the newest
    observation, the first OBS_WIDTH entries of the flattened FIFO.

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
    powers = MAX_POWER  # first acquisition is always max power

    steps_log: list[EpisodeStep] = []
    pending = None
    outcome = TIMEOUT
    for _ in range(max_steps):
        sensor = SensorConfig(powers[0], powers[1], max_range)
        x = flight.observe(sensor)
        if pending is not None and transition_sink is not None:
            transition_sink(*pending, x, 0.0)
        pending = None

        action = np.asarray(policy(x), dtype=float)
        if mode == "C":
            rho = float(np.clip(action[0], low[0], high[0]))
            mask = SlimMask(nav.spec, rho)
            m_act = active_params(nav.spec, rho)[0]
            emitted = MAX_POWER
        else:
            rho = 1.0
            in_mask = layout.input_mask(powers[0], powers[1])
            mask = SlimMask(nav.spec, 1.0, active_inputs=in_mask)
            m_act = active_params(nav.spec, 1.0, active_inputs=in_mask)[0]
            emitted = power_levels(action)

        prev_dist = flight.state.goal_distance()
        state = flight.move(nav.forward(x, mask))
        d = prev_dist - state.goal_distance()
        r = reward(d, state.terminal, rho, emitted[0], emitted[1], w)
        mean_f, mean_d = mean_depths(x[:OBS_WIDTH], sensor)
        steps_log.append(EpisodeStep(
            position=state.position.copy(), rho=rho,
            p_f=powers[0], p_d=powers[1], reward=r,
            m_active=m_act, mean_forward_depth=mean_f,
            mean_downward_depth=mean_d))
        powers = emitted

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
    path. `flight` holds `run_episode`'s other keywords. A static baseline
    is a constant `policy`; None flies the full action."""
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

    alpha: float = 0.5
    beta: float = 1.5

    def __post_init__(self):
        if self.beta < 1.0:
            raise ConfigError(f"beta must be >= 1, got {self.beta}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")


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
