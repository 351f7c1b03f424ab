"""Reward shaping, replay buffer, TD3 mechanics, episode execution in both
adaptation modes, curriculum, and usage metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from slimnav import auxtrain, pathoracle, worldsim
from slimnav.auxtrain import (AuxConfig, Curriculum, EpisodeLog, EpisodeStep,
                              ReplayBuffer, RewardWeights, TD3Agent, TD3Config,
                              action_bounds, check_gate, compute_eta,
                              decode_action, fly_tasks, format_percent,
                              length_ratio, reward, run_episode, success_rate,
                              train_auxiliary, ConstraintConfig)
from slimnav.errors import ConfigError
from slimnav.slimnet import (MLPSpec, SlimMask, SlimmableMLP, active_params,
                             active_widths)
from slimnav.worldsim import (ACTIVE, COLLIDED, MAX_POWER, MIN_POWER,
                              OBS_WIDTH, REACHED, ObservationLayout)

from action_reference import decode_action as reference_decode_action
from td3_toy import train_toy_agent


# ---------------------------------------------------------------------------
# reward arithmetic

def test_reward_weights_validation():
    with pytest.raises(ConfigError):
        RewardWeights(collision=-1.0)
    with pytest.raises(ConfigError):
        RewardWeights(sensing=-0.01)


def test_reward_branches():
    w = RewardWeights(collision=10, goal=10, progress=1, time=0.1,
                      compute=0.1, sensing=0.05)
    assert reward(5.0, COLLIDED, 1.0, 3, 3, w) == -10.0
    assert reward(-2.0, REACHED, 0.25, 1, 0, w) == 10.0
    # worked case: d=1, rho=0.5, p=(3,1)
    got = reward(1.0, ACTIVE, 0.5, 3, 1, w)
    want = math.tanh(1.0) - 0.1 - 0.1 * 0.5 - 0.05 * (3 + 1)
    assert got == pytest.approx(want, abs=1e-15)
    assert got == pytest.approx(0.41159415595576, abs=1e-12)
    # all non-terminal terms vanish except the time penalty
    assert reward(0.0, ACTIVE, 0.0, 0, 0, w) == pytest.approx(-0.1)


# ---------------------------------------------------------------------------
# replay buffer

def test_buffer_validation_and_fifo_eviction():
    with pytest.raises(ConfigError):
        ReplayBuffer(0, 2, 1)
    buf = ReplayBuffer(4, 1, 1)
    for i in range(6):
        buf.add([float(i)], [0.0], float(i), [0.0], 0.0)
    assert buf.size == 4
    # oldest two (0, 1) were evicted in insertion order
    assert sorted(buf.states[:, 0].tolist()) == [2.0, 3.0, 4.0, 5.0]
    assert buf.ptr == 2


def test_buffer_sampling_without_replacement():
    buf = ReplayBuffer(32, 1, 1)
    for i in range(32):
        buf.add([float(i)], [0.0], float(i), [0.0], 0.0)
    s, a, r, s2, done = buf.sample(32, np.random.default_rng(0))
    assert sorted(r.tolist()) == [float(i) for i in range(32)]
    assert s.dtype == np.float64
    with pytest.raises(ValueError):
        buf.sample(33, np.random.default_rng(0))


def test_buffer_sample_refills_kept_arrays():
    # each batch size has one set of float64 arrays that every sample
    # refills, with the values of fresh float64 copies of the drawn rows
    buf = ReplayBuffer(50, 3, 2)
    rng = np.random.default_rng(1)
    for _ in range(50):
        buf.add(rng.normal(size=3), rng.normal(size=2), rng.normal(),
                rng.normal(size=3), float(rng.uniform() < 0.3))
    draw, redraw = np.random.default_rng(2), np.random.default_rng(2)
    columns = (buf.states, buf.actions, buf.rewards, buf.next_states, buf.dones)

    def check(batch):
        idx = redraw.choice(buf.size, size=16, replace=False)
        for b, c in zip(batch, columns):
            assert b.dtype == np.float64
            assert b.tobytes() == c[idx].astype(np.float64).tobytes()

    first = buf.sample(16, draw)
    check(first)
    second = buf.sample(16, draw)
    check(second)
    assert all(s is f for s, f in zip(second, first))
    assert buf.sample(8, draw)[0].shape == (8, 3)
    assert buf.sample(16, draw)[0] is first[0]


def test_buffer_stores_float32():
    buf = ReplayBuffer(2, 1, 1)
    buf.add([math.pi], [math.e], math.tau, [1.0 / 3.0], 1.0)
    s, a, r, s2, done = buf.sample(1, np.random.default_rng(0))
    assert s[0, 0] == np.float32(math.pi)
    assert s[0, 0] != math.pi
    assert done[0] == 1.0


# ---------------------------------------------------------------------------
# TD3 agent

def test_td3_config_validation():
    with pytest.raises(ConfigError):
        TD3Config(gamma=1.0)
    with pytest.raises(ConfigError):
        TD3Config(tau=0.0)
    with pytest.raises(ConfigError):
        TD3Config(policy_delay=0)
    with pytest.raises(ConfigError):
        TD3Config(batch_size=256, buffer_capacity=128)
    for bad in (dict(action_noise_std=-0.1), dict(target_noise_std=-0.2),
                dict(target_noise_clip=-0.5), dict(lr_actor=0.0),
                dict(lr_critic=-1e-3), dict(exploration_steps=-1),
                dict(max_episode_steps=0)):
        with pytest.raises(ConfigError):
            TD3Config(**bad)
    # AuxConfig runs TD3Config's checks and its own
    for bad in (dict(action_noise_std=-0.1), dict(eval_every_episodes=0),
                dict(eval_episodes=0), dict(gate_episodes=0),
                dict(gate_distance=0.0), dict(actor_hidden=()),
                dict(critic_hidden=(0,)), dict(critic_hidden=(64, -1))):
        with pytest.raises(ConfigError):
            AuxConfig(**bad)
    AuxConfig(gate_distance=None, exploration_steps=0)


def test_actor_respects_action_bounds():
    agent = TD3Agent(3, [0.25], [1.0], TD3Config(batch_size=8), seed=0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = agent.act(rng.normal(size=3) * 5)
        assert 0.25 <= a[0] <= 1.0
    noisy = agent.noisy_act(rng.normal(size=3), rng)
    assert 0.25 <= noisy[0] <= 1.0


def test_random_action_uniform_within_bounds():
    agent = TD3Agent(2, [1.0, 0.0], [3.0, 3.0], TD3Config(batch_size=8), seed=0)
    rng = np.random.default_rng(1)
    draws = np.array([agent.random_action(rng) for _ in range(500)])
    assert draws[:, 0].min() >= 1.0 and draws[:, 0].max() <= 3.0
    assert draws[:, 1].min() >= 0.0 and draws[:, 1].max() <= 3.0
    assert stats.kstest(draws[:, 0], stats.uniform(1.0, 2.0).cdf).pvalue > 0.01
    assert stats.kstest(draws[:, 1], stats.uniform(0.0, 3.0).cdf).pvalue > 0.01


def filled_buffer(agent, n, seed):
    buf = ReplayBuffer(max(n, agent.cfg.batch_size), agent.state_dim,
                       agent.action_dim)
    rng = np.random.default_rng(seed)
    for _ in range(n):
        buf.add(rng.normal(size=agent.state_dim),
                rng.uniform(agent.low, agent.high),
                rng.normal(), rng.normal(size=agent.state_dim),
                0.0)
    return buf


def test_polyak_tau_one_copies_networks():
    cfg = TD3Config(tau=1.0, policy_delay=1, batch_size=16)
    agent = TD3Agent(4, [-1.0], [1.0], cfg, actor_hidden=(8,),
                     critic_hidden=(8,), seed=3)
    buf = filled_buffer(agent, 32, 0)
    agent.update(buf, np.random.default_rng(0))
    for net, tgt in ((agent.actor, agent.actor_target),
                     (agent.critic1, agent.critic1_target),
                     (agent.critic2, agent.critic2_target)):
        for p, q in zip(net.weights + net.biases, tgt.weights + tgt.biases):
            assert np.array_equal(p, q)


def test_actor_updates_only_on_delay():
    cfg = TD3Config(policy_delay=3, batch_size=16)
    agent = TD3Agent(4, [-1.0], [1.0], cfg, actor_hidden=(8,),
                     critic_hidden=(8,), seed=4)
    buf = filled_buffer(agent, 64, 1)
    rng = np.random.default_rng(2)
    before = [w.copy() for w in agent.actor.weights]
    l1 = agent.update(buf, rng)
    l2 = agent.update(buf, rng)
    assert math.isnan(l1["actor"]) and math.isnan(l2["actor"])
    assert all(np.array_equal(a, b) for a, b in zip(before, agent.actor.weights))
    l3 = agent.update(buf, rng)
    assert not math.isnan(l3["actor"])
    assert any(not np.array_equal(a, b)
               for a, b in zip(before, agent.actor.weights))


def test_done_transitions_regress_to_reward():
    # with done=1 everywhere the bootstrap is cut: critics regress to the
    # constant reward regardless of the target networks
    cfg = TD3Config(batch_size=32, policy_delay=10**9)
    agent = TD3Agent(2, [-1.0], [1.0], cfg, critic_hidden=(16, 16), seed=5)
    buf = ReplayBuffer(64, 2, 1)
    rng = np.random.default_rng(3)
    for _ in range(64):
        buf.add(rng.normal(size=2), rng.uniform(-1, 1, size=1), 2.5,
                rng.normal(size=2), 1.0)
    for _ in range(1500):
        agent.update(buf, rng)
    s, a, *_ = buf.sample(32, rng)
    q = agent.critic1.forward(np.concatenate([s, a], axis=1))
    assert np.allclose(q, 2.5, atol=0.2)


def test_td3_learns_toy_task_one_seed():
    initial, best, updates = train_toy_agent(seed=0, max_updates=5000)
    assert updates <= 5000
    assert best >= initial + 0.5 * abs(initial)


# ---------------------------------------------------------------------------
# curriculum

def test_curriculum_controller():
    with pytest.raises(ConfigError):
        Curriculum(start=0.0)
    with pytest.raises(ConfigError):
        Curriculum(threshold=0.0)
    cur = Curriculum(start=10, increment=10, maximum=40, threshold=0.8)
    assert cur.advance(10.0, 0.5) == 10.0   # below threshold: stays
    assert cur.advance(10.0, 0.8) == 20.0   # exactly at threshold: advances
    assert cur.advance(30.0, 1.0) == 40.0
    assert cur.advance(40.0, 1.0) == 40.0   # capped
    assert cur.advance(40.0, 0.0) == 40.0   # never decreases
    # integer settings still give float distances
    assert type(cur.advance(35.0, 1.0)) is float


# ---------------------------------------------------------------------------
# episode execution

@pytest.fixture(scope="module")
def small_world():
    grid = worldsim.generate_world((20, 20, 8), resolution=1.0)
    nav_spec = MLPSpec(u=4 * OBS_WIDTH, q=(16, 8), v=3,
                       output_activation="tanh", output_scale=2.0)
    nav = SlimmableMLP(nav_spec, seed=0)
    return grid, nav


def test_run_episode_rejects_bad_mode(small_world):
    grid, nav = small_world
    with pytest.raises(ConfigError):
        run_episode(grid, nav, mode="Q", spawn=[3.5, 3.5, 3.5],
                    goal=[10.5, 3.5, 3.5])


def test_run_episode_fixed_rho_accounting(small_world):
    grid, nav = small_world
    log = run_episode(grid, nav, mode="C", spawn=[3.5, 3.5, 3.5],
                      goal=[16.5, 16.5, 3.5], policy=lambda x: [0.5],
                      max_steps=6)
    assert 1 <= log.path_steps <= 6
    for s in log.steps:
        assert s.rho == 0.5
        assert (s.p_f, s.p_d) == (3, 3)
        assert s.m_active == active_params(nav.spec, 0.5)[0]


def test_run_episode_policy_min_rho_clipped(small_world):
    grid, nav = small_world
    log = run_episode(grid, nav, mode="C", spawn=[3.5, 3.5, 3.5],
                      goal=[16.5, 16.5, 3.5], rho_min=0.25,
                      policy=lambda x: np.array([-7.0]), max_steps=5)
    for s in log.steps:
        assert s.rho == 0.25
        assert s.m_active == active_params(nav.spec, 0.25)[0]


def _fifo_misses(keys, size):
    """Lookups of `keys` that miss a first-in-first-out table of `size`."""
    table, misses = [], 0
    for key in keys:
        if key not in table:
            misses += 1
            if len(table) == size:
                table.pop(0)
            table.append(key)
    return misses


# rhos of shared and distinct widths of (16, 8): 0.49 and 0.5 give (8, 4);
# power actions that round to shared and distinct pairs
_RHO_ACTIONS = [[0.25], [0.49], [0.5], [0.55], [0.9], [1.0]]
_POWER_ACTIONS = [[1.0, 0.0], [1.4, 0.2], [3.0, 3.0], [2.0, 2.0], [2.4, 7.0], [3.0, 1.0]]


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(["C", "S"]), picks=st.lists(st.integers(0, 5), max_size=12))
def test_run_episode_builds_one_mask_per_width_and_pair(small_world, mode, picks):
    # one table of HELD_SUBNETS (active widths, sensed pair) keys: each miss
    # builds one mask and copies its blocks once, each hit does neither
    grid, nav = small_world
    actions = iter([(_RHO_ACTIONS if mode == "C" else _POWER_ACTIONS)[i] for i in picks])
    built, sliced = [], []
    original = SlimmableMLP._active_layers
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(auxtrain, "SlimMask", lambda *a: built.append(a) or SlimMask(*a))
        mp.setattr(SlimmableMLP, "_active_layers",
                   lambda net, mask: sliced.append(net) or original(net, mask))
        log = run_episode(grid, nav, mode=mode, spawn=[3.5, 3.5, 3.5],
                          goal=[16.5, 16.5, 3.5], policy=lambda x: next(actions),
                          max_steps=len(picks))
    layout = ObservationLayout(4)
    keys = [(active_widths(nav.spec, s.rho), (s.p_f, s.p_d)) for s in log.steps]
    assert len(built) == len(sliced) == _fifo_misses(keys, auxtrain.HELD_SUBNETS)
    assert all(net is nav for net in sliced)
    for s in log.steps:
        assert s.m_active == active_params(nav.spec, s.rho, layout.input_mask(s.p_f, s.p_d))[0]


@pytest.mark.parametrize("mode,actions,slices", [
    # sensed pairs (3, 3), (1, 0), (3, 3), (1, 0), (1, 0) and (2, 2): two
    # held keys, then a third
    ("S", [[1.0, 0.0], [3.0, 3.0], [1.0, 0.0], [1.4, 0.2], [2.0, 2.0], [3.0, 3.0]], 3),
    # widths (8, 4) and (16, 8) of (16, 8) are reused; (9, 5) drops the
    # oldest blocks, so the next two steps copy theirs again
    ("C", [[0.5], [1.0], [0.5], [0.49], [1.0], [0.55], [0.5], [1.0]], 5)])
def test_run_episode_holds_the_last_two_subnetworks(small_world, monkeypatch, mode,
                                                    actions, slices):
    # the navigator's blocks are copied once per held (active widths,
    # sensed pair); every other forward of a held key runs on them
    assert auxtrain.HELD_SUBNETS == 2
    grid, nav = small_world
    sliced = []
    original = SlimmableMLP._active_layers
    monkeypatch.setattr(SlimmableMLP, "_active_layers",
                        lambda net, mask: sliced.append(net) or original(net, mask))
    it = iter(actions)
    log = run_episode(grid, nav, mode=mode, spawn=[3.5, 3.5, 3.5],
                      goal=[16.5, 16.5, 3.5], policy=lambda x: next(it),
                      max_steps=len(actions))
    assert log.path_steps == len(actions)
    assert len(sliced) == slices and all(net is nav for net in sliced)


@pytest.mark.parametrize("rho_min,bad,shown", [(0.25, math.nan, "nan"),
                                               (0.0, -1.0, "0.0")])
def test_run_episode_refuses_a_bad_rho_before_reusing_a_mask(small_world, rho_min,
                                                             bad, shown):
    # a NaN survives decode_action's clip, and rho_min 0 lets 0 through; each
    # raises SlimMask's error although a mask of earlier steps is at hand
    grid, nav = small_world
    rhos = iter([0.5, 1.0, bad])
    with pytest.raises(ValueError, match=rf"^rho must be in \(0, 1\], got {shown}$"):
        run_episode(grid, nav, mode="C", spawn=[3.5, 3.5, 3.5],
                    goal=[16.5, 16.5, 3.5], rho_min=rho_min,
                    policy=lambda x: [next(rhos)], max_steps=8)


def test_run_episode_sensing_mask_lags_one_step(small_world):
    grid, nav = small_world
    emitted = []

    def policy(x):
        emitted.append((1.0, 0.0) if len(emitted) % 2 == 0 else (2.4, 7.0))
        return np.asarray(emitted[-1])

    log = run_episode(grid, nav, mode="S", spawn=[3.5, 3.5, 3.5],
                      goal=[16.5, 16.5, 3.5], policy=policy, max_steps=4)
    # first acquisition is always max power; each later acquisition uses the
    # levels emitted (rounded and clipped) on the previous step
    assert (log.steps[0].p_f, log.steps[0].p_d) == (3, 3)
    want = [(1, 0), (2, 3), (1, 0)]
    for s, w in zip(log.steps[1:], want):
        assert (s.p_f, s.p_d) == w
    for s in log.steps:
        assert s.rho == 1.0


def test_run_episode_transition_chain(small_world):
    grid, nav = small_world
    transitions = []
    log = run_episode(grid, nav, mode="C", spawn=[3.5, 3.5, 3.5],
                      goal=[16.5, 16.5, 3.5], max_steps=5,
                      transition_sink=lambda *t: transitions.append(t))
    assert len(transitions) == log.path_steps
    for (s, a, r, s2, done), nxt in zip(transitions[:-1], transitions[1:]):
        assert done == 0.0
        assert np.array_equal(s2, nxt[0])
    s, a, r, s2, done = transitions[-1]
    if log.outcome == "timeout":
        assert done == 0.0
        assert not np.array_equal(s, s2)     # freshly sensed terminal state
    else:
        assert done == 1.0
    assert [t[2] for t in transitions] == [s.reward for s in log.steps]


def test_action_bounds_per_mode():
    low, high = action_bounds("C", 0.3)
    assert low.tolist() == [0.3] and high.tolist() == [1.0]
    low, high = action_bounds("S", 0.3)
    assert low.tolist() == [1.0, 0.0] and high.tolist() == [3.0, 3.0]
    with pytest.raises(ConfigError):
        action_bounds("Q", 0.3)
    # decoded to (rho, power pair)
    for mode, low_decoded in (("C", (0.3, MAX_POWER)), ("S", (1.0, MIN_POWER))):
        low, high = action_bounds(mode, 0.3)
        # the high corner is the full action in both modes
        assert decode_action(mode, high, low, high) == (1.0, MAX_POWER)
        assert decode_action(mode, low, low, high) == low_decoded
    low, high = action_bounds("C", 0.3)
    assert decode_action("C", [0.1], low, high) == (0.3, MAX_POWER)
    assert decode_action("C", [1.7], low, high) == (1.0, MAX_POWER)
    assert decode_action("C", [0.55], low, high) == (0.55, MAX_POWER)
    # mode S: rounded, then clipped to the sensor's levels
    low, high = action_bounds("S", 0.3)
    assert decode_action("S", [2.4, 7.0], low, high) == (1.0, (2, 3))
    assert decode_action("S", [-3.0, 0.6], low, high) == (1.0, (1, 1))


def _same_value(a, b) -> bool:
    """Equal in value and type, where NaN equals NaN."""
    if isinstance(a, tuple):
        return (isinstance(b, tuple) and len(a) == len(b)
                and all(map(_same_value, a, b)))
    return type(a) is type(b) and (a == b or (a != a and b != b))


def test_decode_action_equals_reference():
    edges = [-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.5, 3.5, 0.49999999999999994,
             2.5000000000000004, 7.0, -7.0, 1e300]
    for mode in ("C", "S"):
        low, high = action_bounds(mode, 0.25)
        dims = low.size
        actions = [np.array(a) for a in np.array(np.meshgrid(*[edges] * dims)).T.reshape(-1, dims)]
        actions += [list(a) for a in actions[:40]]      # callers may pass lists
        if mode == "C":
            actions += [np.array([math.nan]), np.array([math.inf]), np.array([-math.inf])]
        for a in actions:
            got = decode_action(mode, a, low, high)
            want = reference_decode_action(mode, a, low, high)
            assert _same_value(got, want), (mode, a, got, want)
    low, high = action_bounds("S", 0.25)
    for bad in (math.nan, math.inf, -math.inf):
        for a in ([bad, 2.0], [2.0, bad]):
            with pytest.raises(Exception) as want:
                reference_decode_action("S", np.array(a), low, high)
            with pytest.raises(want.type):
                decode_action("S", np.array(a), low, high)


def task_sampler():
    grid = worldsim.generate_world((20, 20, 8), resolution=1.0, density=0.05,
                                   seed=2)
    graph = pathoracle.build_graph(grid, vertical_locked=True)
    regions = pathoracle.partition_regions(grid, (0.6, 0.2, 0.2))
    return pathoracle.TaskSampler(graph, regions, flight_z=3)


def test_fly_tasks_is_run_episode_per_task(small_world):
    _, nav = small_world
    sampler = task_sampler()
    grid = sampler.graph.grid
    rng = np.random.default_rng(0)
    tasks = [sampler.sample("test", 6.0, rng) for _ in range(3)]
    for mode in ("C", "S"):
        got = fly_tasks(sampler, tasks, nav, mode, max_steps=12)
        want = [run_episode(grid, nav, mode=mode,
                            spawn=grid.center_of(t.spawn),
                            goal=grid.center_of(t.goal), max_steps=12,
                            vertical_locked=True, optimal_path=t.path)
                for t in tasks]
        assert [l.outcome for l in got] == [l.outcome for l in want]
        assert [l.optimal_steps for l in got] == [t.path.steps for t in tasks]
        for a, b in zip(got, want):
            assert [(s.position.tolist(), s.rho, s.p_f, s.p_d, s.reward, s.m_active)
                    for s in a.steps] == \
                   [(s.position.tolist(), s.rho, s.p_f, s.p_d, s.reward, s.m_active)
                    for s in b.steps]
        assert success_rate(got) == np.mean([l.outcome == REACHED for l in want])


def test_fly_tasks_constant_power_policy(small_world):
    # a static mode-S baseline: the first step senses at max power, every
    # later one at the constant pair, and each logs the parameter count of
    # the sub-network of the pair it sensed
    _, nav = small_world
    sampler = task_sampler()
    tasks = [sampler.sample("test", 6.0, np.random.default_rng(1))]
    layout = ObservationLayout(4)
    for pair in ((1, 0), (2, 3)):
        log, = fly_tasks(sampler, tasks, nav, "S", lambda x: pair, max_steps=6)
        sensed = [(s.p_f, s.p_d) for s in log.steps]
        assert len(sensed) >= 2
        assert sensed == [MAX_POWER] + [pair] * (len(sensed) - 1)
        assert [s.m_active for s in log.steps] == [
            active_params(nav.spec, 1.0, layout.input_mask(*p))[0]
            for p in sensed]
        assert all(s.rho == 1.0 for s in log.steps)


def test_run_episode_vertical_lock(small_world):
    grid, nav = small_world
    log = run_episode(grid, nav, mode="C", spawn=[3.5, 3.5, 3.5],
                      goal=[16.5, 16.5, 3.5], vertical_locked=True,
                      max_steps=8)
    for s in log.steps:
        assert s.position[2] == pytest.approx(3.5)


# ---------------------------------------------------------------------------
# gate checking and usage metrics

ETA_SPEC = MLPSpec(u=8, q=(4, 2), v=1)


def fake_log(outcome, n_steps, optimal_steps, rho=1.0, p_f=3, p_d=3,
             spec=ETA_SPEC, active_inputs=None):
    """An episode of identical steps whose m_active is what run_episode logs
    for `spec` at rho and the input mask."""
    m = active_params(spec, rho, active_inputs)[0]
    steps = [EpisodeStep(position=np.zeros(3), rho=rho, p_f=p_f, p_d=p_d,
                         reward=0.0, m_active=m, mean_forward_depth=0.0,
                         mean_downward_depth=0.0) for _ in range(n_steps)]
    return EpisodeLog(steps=steps, outcome=outcome, spawn=np.zeros(3),
                      goal=np.ones(3), optimal_steps=optimal_steps,
                      optimal_length=None if optimal_steps is None
                      else float(optimal_steps))


def test_check_gate():
    ok, v = check_gate([fake_log(REACHED, 10, 8), fake_log(REACHED, 12, 8)], 1.5)
    assert ok and v == []
    ok, v = check_gate([fake_log(REACHED, 13, 8)], 1.5)
    assert not ok and "exceeds beta" in v[0]
    ok, v = check_gate([fake_log(COLLIDED, 3, 8)], 1.5)
    assert not ok and "collided" in v[0]


def test_summaries_of_fake_logs():
    logs = [fake_log(REACHED, 10, 8), fake_log(REACHED, 12, 8),
            fake_log(COLLIDED, 3, 8), fake_log(REACHED, 5, None)]
    assert success_rate(logs) == 0.75
    assert length_ratio(logs) == pytest.approx((10 / 8 + 12 / 8) / 2)
    assert math.isnan(length_ratio([fake_log(COLLIDED, 3, 8)]))


def test_constraint_config_validation():
    with pytest.raises(ConfigError):
        ConstraintConfig(beta=0.9)


def test_compute_eta_table_values():
    spec = ETA_SPEC
    # craft step-level powers averaging (2.6, 2.2): five steps
    logs = [fake_log(REACHED, 1, 1, rho=1.0, p_f=f, p_d=d)
            for f, d in ((3, 3), (3, 3), (2, 2), (2, 2), (3, 1))]
    rep = compute_eta(logs, spec)
    assert rep.mean_p_f == pytest.approx(2.6)
    assert rep.mean_p_d == pytest.approx(2.2)
    assert rep.eta_w == pytest.approx(0.80)
    assert format_percent(rep.eta_w) == "80%"
    assert rep.eta_m == pytest.approx(1.0)    # rho stayed 1
    assert rep.n_episodes == 5 and rep.n_steps == 5


def test_compute_eta_rounding_case():
    spec = ETA_SPEC
    # means (2.9, 0.73): eta_w = 3.63 / 6 = 60.5%
    pairs = [(3, 1)] * 73 + [(3, 0)] * 17 + [(2, 0)] * 10
    logs = [fake_log(REACHED, 1, 1, p_f=f, p_d=d) for f, d in pairs]
    rep = compute_eta(logs, spec)
    assert rep.eta_w == pytest.approx(0.605)
    assert format_percent(rep.eta_w, 1) == "60.5%"
    assert format_percent(rep.eta_w) == "61%"


def test_compute_eta_ignores_failures_and_requires_success():
    spec = ETA_SPEC
    logs = [fake_log(REACHED, 2, 2, rho=0.5),
            fake_log(COLLIDED, 2, 2, rho=0.25, p_f=0, p_d=0)]
    rep = compute_eta(logs, spec)
    assert rep.mean_rho == pytest.approx(0.5)
    assert rep.eta_m == active_params(spec, 0.5)[0] / spec.param_count
    assert rep.n_episodes == 1
    with pytest.raises(ValueError):
        compute_eta([fake_log(COLLIDED, 2, 2)], spec)


def test_compute_eta_counts_input_masked_network():
    # mode S flies at rho 1, and eta_m reads the logged m_active of the
    # input-masked network, not the full one
    layout = worldsim.ObservationLayout(2)
    spec = MLPSpec(u=layout.depth * OBS_WIDTH, q=(16, 16), v=3)
    pairs = [(3, 3), (1, 0), (2, 1)]
    logs = [fake_log(REACHED, 2, 2, p_f=f, p_d=d, spec=spec,
                     active_inputs=layout.input_mask(f, d)) for f, d in pairs]
    rep = compute_eta(logs, spec)
    ms = [active_params(spec, 1.0, layout.input_mask(f, d))[0] for f, d in pairs]
    assert rep.mean_rho == 1.0
    assert rep.eta_m == pytest.approx(np.mean(ms) / spec.param_count)
    assert rep.eta_m < 1.0
    assert logs[0].steps[0].m_active == spec.param_count   # max power: all inputs


def test_format_percent_half_up():
    assert format_percent(0.805) == "81%"
    assert format_percent(0.804) == "80%"
    assert format_percent(0.5) == "50%"
    assert format_percent(0.12345, 1) == "12.3%"


# ---------------------------------------------------------------------------
# auxiliary training loop (structure smoke; learning is covered by the
# acceptance suite's long runs)

def test_train_auxiliary_smoke():
    sampler = task_sampler()
    nav = SlimmableMLP(MLPSpec(u=4 * OBS_WIDTH, q=(16, 8), v=3,
                               output_activation="tanh", output_scale=2.0),
                       seed=0)
    cfg = AuxConfig(batch_size=32, exploration_steps=150,
                    buffer_capacity=5000, max_episode_steps=25, seed=0,
                    total_env_steps=260, eval_every_episodes=8,
                    eval_episodes=2, gate_episodes=3, gate_distance=6.0,
                    actor_hidden=(8,), critic_hidden=(8,))
    res = train_auxiliary(sampler, nav, "C", cfg, RewardWeights(),
                          ConstraintConfig(),
                          Curriculum(start=6.0, maximum=6.0))
    assert res.env_steps >= 260
    # exploration draws rho from the mode-C action box
    rng = np.random.default_rng(0)
    draws = np.array([res.agent.random_action(rng) for _ in range(200)])
    assert draws.shape == (200, 1)
    assert np.all(draws >= 0.25) and np.all(draws <= 1.0)
    assert len(res.update_log) > 0
    assert res.gate.episodes and len(res.gate.episodes) == 3
    # an untrained navigation network cannot pass the gate; the failure is
    # reported, not hidden
    assert res.gate.ok == (len(res.gate.violations) == 0)
    assert "gate" in res.gate.summary()
    for log in res.episodes:
        for s in log.steps:
            assert 0.25 - 1e-12 <= s.rho <= 1.0 + 1e-12
