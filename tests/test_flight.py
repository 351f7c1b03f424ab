"""The closed-loop flight contract that `run_episode` and `label_rollouts`
share: sense at the current power levels, push the observation FIFO, hand
the flattened FIFO to the policy, then clamp and apply the motion.

The digests pin the exact bytes both produce on fixed worlds, tasks and
policies, so a refactor of the loop shows any change of behaviour, however
small. They were recorded with numpy 2.4 on x86-64; a BLAS that rounds the
network's matrix products differently changes them."""
import hashlib

import numpy as np
import pytest

from slimnav import pathoracle, worldsim
from slimnav.auxtrain import TIMEOUT, run_episode
from slimnav.slimnet import MLPSpec, SlimmableMLP
from slimnav.worldsim import (COLLIDED, DOWNWARD_RAYS, FORWARD_RAYS,
                              OBS_WIDTH, REACHED)

DEPTH = 4
GOAL = FORWARD_RAYS + DOWNWARD_RAYS     # goal features of the newest slot


def seeker(seed: int = 0) -> SlimmableMLP:
    """A navigation network that flies toward the goal: hidden pairs read
    +/- each goal-direction component of the newest observation, plus a
    small random part that makes the motion depend on the depths too."""
    spec = MLPSpec(u=DEPTH * OBS_WIDTH, q=(6,), v=3,
                   output_activation="tanh", output_scale=2.0)
    net = SlimmableMLP(spec, seed=seed)
    w0, w1 = net.weights
    w0 *= 0.05
    w1 *= 0.05
    for k in range(3):
        w0[GOAL + k, 2 * k] += 2.0
        w0[GOAL + k, 2 * k + 1] -= 2.0
        w1[2 * k, k] += 2.0
        w1[2 * k + 1, k] -= 2.0
    net.params[:] = net.params.astype(np.float32)
    return net


@pytest.fixture(scope="module")
def world():
    return worldsim.generate_world((24, 24, 8), resolution=1.0,
                                   density=0.15, seed=5)


@pytest.fixture(scope="module")
def nav():
    return seeker()


def sample_tasks(grid, locked: bool, n: int = 6, distance: float = 8.0,
                 seed: int = 7):
    graph = pathoracle.build_graph(grid, vertical_locked=locked)
    regions = pathoracle.partition_regions(grid, (0.5, 0.25, 0.25))
    sampler = pathoracle.TaskSampler(graph, regions,
                                     flight_z=3 if locked else None)
    rng = np.random.default_rng(seed)
    return graph, [sampler.sample("train", distance, rng) for _ in range(n)]


def sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# pinned outputs

ROLLOUT_DIGESTS = {
    (True, None): "f8671224adf2aa045a321c88014d5c570017578a350277260958e3c78b6ab812",
    (False, None): "b110d47d62ce90987dcb52f94789f74b799c2b48ad81390b9476204bfc87095a",
    (True, 2): "741e54484df14d5b0de3dc2960df2ec5ceec065de1dc62faf15021fdb5f96c06",
}


@pytest.mark.parametrize("locked,max_steps", list(ROLLOUT_DIGESTS))
def test_label_rollouts_pinned(world, nav, tmp_path, locked, max_steps):
    graph, tasks = sample_tasks(world, locked)
    ds = pathoracle.label_rollouts(world, graph, tasks, nav.forward,
                                   depth=DEPTH, clearance_weight=0.5,
                                   max_steps=max_steps, crowd_boost=3)
    pathoracle.save_dataset(ds, tmp_path / "ds.bin")
    got = sha((tmp_path / "ds.bin").read_bytes())
    assert got == ROLLOUT_DIGESTS[(locked, max_steps)]


def rho_policy(x):
    return np.array([2.0 * x[:FORWARD_RAYS].mean()])


def power_policy(x):
    return np.array([1.0 + 3.0 * x[0], 4.0 * x[FORWARD_RAYS]])


EPISODE_CASES = {
    "C-fixed": ("C", dict(policy=lambda x: [0.5])),
    "C-policy": ("C", dict(policy=rho_policy)),
    "S-policy": ("S", dict(policy=power_policy)),
    "S-default": ("S", {}),
}

EPISODE_DIGESTS = {
    "C-fixed": ("76e6ef46e9693dad1c585e9374e1992a96f6e39021d7505dd58a8c63a1599bbf",
               "19f3a8fc2468e3a89eb1e1835f30059a5778b9efb84a85b08ef487111aad19af"),
    "C-policy": ("d9f1ebe75d7ce18017535377937966bd38e2ee6d6ffd2c1ce81f385f16b5beb7",
                "db62bae5024b7c6b971ac26880a9443fedaf20ea660ff161f7699e40a01a2b84"),
    "S-policy": ("638abbbae1bc7f9a88dce0f1a3b42025e39b5806aef467b2d1b75bd03d04520e",
                "be221d10cf53050583a4a3fb6e9e9702360593d22837cfae02dfcbbc654eb27c"),
    "S-default": ("f3d35a1c62c6089572c59e401649b7793f925832d5c0fc571f36597bb9fe7da0",
                 "6f6381ddb947a6ac84fae91e6372db7bd3fe61056c3ba489c535e752b9805077"),
}


@pytest.mark.parametrize("case", list(EPISODE_CASES))
def test_run_episode_pinned(world, nav, case):
    mode, kw = EPISODE_CASES[case]
    steps, transitions, outcomes = [], [], set()
    for locked in (True, False):
        _, tasks = sample_tasks(world, locked)
        for task in tasks:
            log = run_episode(world, nav, None, mode,
                              spawn=world.center_of(task.spawn),
                              goal=world.center_of(task.goal), max_steps=3,
                              vertical_locked=locked,
                              transition_sink=lambda *t: transitions.append(t),
                              **kw)
            outcomes.add(log.outcome)
            steps.append(log.outcome.encode())
            for s in log.steps:
                steps += [s.position, np.array([s.rho, s.p_f, s.p_d, s.reward,
                                                s.m_active, s.mean_forward_depth,
                                                s.mean_downward_depth])]
    assert TIMEOUT in outcomes and outcomes & {REACHED, COLLIDED}
    flat = [np.concatenate([np.ravel(v) for v in t]) for t in transitions]
    assert (sha(*steps), sha(*flat)) == EPISODE_DIGESTS[case]


# ---------------------------------------------------------------------------
# one input contract

@pytest.mark.parametrize("locked", [True, False])
def test_rollout_and_episode_feed_policies_the_same_fifo(world, nav, locked):
    """Relabeling flies the navigator exactly as an episode at full width
    does, so both hand their policy the same FIFO vectors, byte for byte."""
    graph, tasks = sample_tasks(world, locked, n=4, seed=3)
    for task in tasks:
        seen_rollout, seen_episode = [], []

        def fly(x):
            seen_rollout.append(x)
            return nav.forward(x)

        def full_width(x):
            seen_episode.append(x)
            return np.array([1.0])

        pathoracle.label_rollouts(world, graph, [task], fly, depth=DEPTH,
                                  max_steps=20)
        run_episode(world, nav, None, "C", spawn=world.center_of(task.spawn),
                    goal=world.center_of(task.goal), depth=DEPTH,
                    max_steps=20, vertical_locked=locked, policy=full_width)
        assert len(seen_rollout) == len(seen_episode) > 1
        for a, b in zip(seen_rollout, seen_episode):
            assert a.tobytes() == b.tobytes()


def test_flight_observe_then_move():
    grid = worldsim.generate_world((16, 16, 8), resolution=1.0)
    flight = worldsim.Flight(grid, (8.5, 8.5, 3.5), (12.5, 8.5, 3.5), depth=2,
                             vertical_locked=True)
    x = flight.observe(worldsim.SensorConfig(1, 0))
    assert x[:OBS_WIDTH].tobytes() == worldsim.sense(
        grid, flight.state, worldsim.SensorConfig(1, 0)).tobytes()
    assert not x[OBS_WIDTH:].any() and not x[OBS_WIDTH - 3:OBS_WIDTH].any()  # cold start
    # clamped per axis to max_step, z dropped by the vertical lock
    state = flight.move([5.0, -0.5, 3.0])
    assert state is flight.state and state.terminal == worldsim.ACTIVE
    assert np.array_equal(state.position, (10.5, 8.0, 3.5))
    assert np.array_equal(flight.last_action, (1.0, -0.25, 0.0))
    x2 = flight.observe(worldsim.SensorConfig(3, 3))
    assert np.array_equal(x2[OBS_WIDTH - 3:OBS_WIDTH], flight.last_action)
    assert x2[OBS_WIDTH:].tobytes() == x[:OBS_WIDTH].tobytes()   # newest first


def test_flight_nan_motion_collides_in_place():
    grid = worldsim.generate_world((16, 16, 8), resolution=1.0)
    flight = worldsim.Flight(grid, (8.5, 8.5, 3.5), (12.5, 8.5, 3.5), depth=1)
    flight.observe(worldsim.SensorConfig(1, 0))
    state = flight.move([np.inf, -np.inf, 0.0])     # clamped, so it flies
    assert state.terminal == worldsim.ACTIVE
    assert np.array_equal(state.position, (10.5, 6.5, 3.5))
    flight.observe(worldsim.SensorConfig(1, 0))
    state = flight.move([0.5, np.nan, 0.0])
    assert state.terminal == COLLIDED and state.step_count == 2
    assert np.array_equal(state.position, (10.5, 6.5, 3.5))


@pytest.mark.parametrize("mode", ["C", "S"])
def test_run_episode_nan_motion_ends_collided(world, nav, mode):
    broken = seeker()
    broken.params[:] = np.nan
    _, tasks = sample_tasks(world, True, n=1)
    spawn = world.center_of(tasks[0].spawn)
    log = run_episode(world, broken, None, mode, spawn=spawn,
                      goal=world.center_of(tasks[0].goal), depth=DEPTH,
                      vertical_locked=True, optimal_path=tasks[0].path)
    assert log.outcome == COLLIDED and len(log.steps) == 1
    assert np.array_equal(log.steps[0].position, spawn)
    assert np.isfinite(log.steps[0].reward)
