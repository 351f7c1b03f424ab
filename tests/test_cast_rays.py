"""The loop-free `cast_rays` against the stepwise DDA it replaced: exact
equality, no tolerance, on random worlds, origins, directions and ranges."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dda_reference import dda_cast_rays
from slimnav import worldsim
from slimnav.errors import SensorError
from slimnav.worldsim import (DOWNWARD_LEVELS, DOWNWARD_RAYS, FORWARD_LEVELS,
                              FORWARD_RAYS, DroneState, SensorConfig,
                              VoxelGrid, cast_rays,
                              downward_level_indices, forward_level_indices,
                              forward_ray_directions, generate_world, sense,
                              _DOWN_DIRS)


@st.composite
def grids(draw):
    """Enclosed procedural worlds, and open random grids whose rays can
    leave through any face."""
    res = draw(st.sampled_from([1.0, 0.5, 0.25, 0.3]))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        dims = (draw(st.integers(16, 24)), draw(st.integers(16, 24)),
                draw(st.integers(8, 10)))
        return generate_world(dims, resolution=res,
                              density=draw(st.sampled_from([0.0, 0.1, 0.3])),
                              seed=seed)
    dims = tuple(draw(st.integers(1, 12)) for _ in range(3))
    rng = np.random.default_rng(seed)
    occ = rng.random(dims) < draw(st.sampled_from([0.0, 0.05, 0.2]))
    return VoxelGrid(dims=dims, resolution=res, occupancy=occ)


@st.composite
def origins(draw, grid):
    """A point in a free voxel: its centre, a face, edge or corner (integer
    voxel coordinates on some axes), or anywhere inside it."""
    free = np.argwhere(~grid.occupancy)
    if free.size == 0:
        free = np.zeros((1, 3), dtype=int)
    v = free[draw(st.integers(0, len(free) - 1))].astype(float)
    kind = draw(st.sampled_from(["centre", "boundary", "random"]))
    if kind == "centre":
        frac = np.full(3, 0.5)
    elif kind == "boundary":
        frac = np.array([draw(st.sampled_from([0.0, 0.5, 1.0])) for _ in range(3)])
    else:
        frac = np.array([draw(st.floats(0.0, 1.0, exclude_max=True)) for _ in range(3)])
    return (v + frac) * grid.resolution


# subnormal components, whose reciprocal overflows, have their own test
# below: the reference returns NaN for them
unit = st.floats(-1.0, 1.0, allow_subnormal=False)
axis_aligned = st.sampled_from([tuple(s if i == a else 0.0 for i in range(3))
                                for a in range(3) for s in (1.0, -1.0)])
diagonal = st.tuples(*[st.sampled_from([1.0, -1.0, 0.0, -0.0])] * 3).filter(
    lambda d: sum(c != 0 for c in d) >= 2)
directions = st.lists(st.one_of(axis_aligned, diagonal, st.tuples(unit, unit, unit)
                                .filter(lambda d: any(d))),
                      min_size=1, max_size=40)


def first_crossing(grid, origin, direction):
    """Time of the ray's first voxel-boundary crossing, computed the way the
    traversal computes it."""
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    voxel = np.floor(origin / grid.resolution)
    ts = [((voxel[a] + (d[a] > 0)) * grid.resolution - origin[a]) * (1.0 / d[a])
          for a in range(3) if d[a] != 0]
    return min(ts)


def reference(grid, origin, dirs, max_range):
    """The stepwise DDA's depths. cast_rays scales a direction whose norm
    underflows to 0 by its largest |component| first, where the reference
    would reject it, so the reference gets it scaled."""
    ref_dirs = np.array(dirs, dtype=float, ndmin=2)
    tiny = np.linalg.norm(ref_dirs, axis=1) == 0
    ref_dirs[tiny] /= np.abs(ref_dirs[tiny]).max(axis=1, keepdims=True)
    return dda_cast_rays(grid, origin, ref_dirs, max_range)


def assert_same(grid, origin, dirs, max_range):
    try:
        want = reference(grid, origin, dirs, max_range)
    except SensorError:
        with pytest.raises(SensorError):
            cast_rays(grid, origin, dirs, max_range)
        return
    if not max_range > 0:       # the reference returns depths of max_range
        with pytest.raises(ValueError, match="max_range must be positive"):
            cast_rays(grid, origin, dirs, max_range)
        return
    got = cast_rays(grid, origin, dirs, max_range)
    assert got.dtype == want.dtype and got.shape == want.shape
    # bit for bit: array_equal alone would let -0.0 stand for 0.0
    assert got.tobytes() == want.tobytes(), (origin, dirs, max_range, got, want)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cast_rays_equals_dda(data):
    grid = data.draw(grids())
    origin = data.draw(origins(grid))
    dirs = np.array(data.draw(directions))
    with np.errstate(all="ignore"):
        first = first_crossing(grid, origin, dirs[0])
    if grid.occupied_at(origin) or not math.isfinite(first):
        first = 1.0
    max_range = data.draw(st.one_of(
        st.sampled_from([first, first / 2, math.nextafter(first, math.inf), 100.0]),
        st.floats(0.0, 2.0 * max(grid.dims) * grid.resolution)))
    assert_same(grid, origin, dirs, max_range)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cast_rays_equals_dda_on_sense_rays(data):
    grid = data.draw(grids())
    origin = data.draw(origins(grid))
    heading = data.draw(st.floats(-math.pi, math.pi))
    dirs = np.concatenate([forward_ray_directions(heading), _DOWN_DIRS])
    assert len(dirs) == 100
    assert_same(grid, origin, dirs, data.draw(st.sampled_from([0.7, 5.0, 17.3, 100.0])))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cast_rays_per_ray_origins_equal_one_call_per_origin(data):
    """A batch of rays from 1-12 origins, one origin per ray, gives each
    origin's depths of its own reference call, bit for bit; an origin the
    reference refuses makes the batch name that origin's first row."""
    grid = data.draw(grids())
    groups = [(data.draw(origins(grid)), np.array(data.draw(directions)))
              for _ in range(data.draw(st.integers(1, 12)))]
    max_range = data.draw(st.one_of(
        st.sampled_from([0.7, 5.0, 17.3, 100.0]),
        st.floats(0.0, 2.0 * max(grid.dims) * grid.resolution, exclude_min=True)))
    starts = np.cumsum([0] + [len(d) for _, d in groups])
    batch_origins = np.concatenate([np.tile(o, (len(d), 1)) for o, d in groups])
    batch_dirs = np.concatenate([d for _, d in groups])
    want = []
    for (o, d), row in zip(groups, starts):
        try:
            want.append(reference(grid, o, d, max_range))
        except SensorError:
            with pytest.raises(SensorError, match=rf"\(row {row}\) is "):
                cast_rays(grid, batch_origins, batch_dirs, max_range)
            return
    got = cast_rays(grid, batch_origins, batch_dirs, max_range)
    assert got.tobytes() == np.concatenate(want).tobytes()
    # one origin for every ray is the same as that origin on every row
    o, d = groups[0]
    assert (cast_rays(grid, o, d, max_range).tobytes()
            == cast_rays(grid, np.tile(o, (len(d), 1)), d, max_range).tobytes())


def test_cast_rays_input_contract():
    grid = generate_world((16, 16, 8), seed=0)
    free, x = (8.5, 8.5, 4.5), [(1.0, 0.0, 0.0)]
    # the reference would return depths of max_range (or of -5)
    for bad in (0.0, -0.0, -5.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match="max_range must be positive"):
            cast_rays(grid, free, x, bad)
    for point in ((-0.5, 8.5, 4.5), (16.0, 8.5, 4.5), (8.5, 8.5, 1e300),
                  (math.nan, 8.5, 4.5), (8.5, -math.inf, 4.5)):
        with pytest.raises(SensorError, match=r"\] is outside the grid$"):
            cast_rays(grid, point, x)
    with pytest.raises(SensorError, match=r"\] is inside an occupied voxel$"):
        cast_rays(grid, (0.5, 8.5, 4.5), x)
    # a batch names its first offending row
    rows = np.tile(free, (6, 1))
    rows[4] = (8.5, 8.5, -1.0)
    with pytest.raises(SensorError, match=r"\(row 4\) is outside the grid$"):
        cast_rays(grid, rows, x * 6)
    rows[2] = (8.5, 8.5, 7.5)
    with pytest.raises(SensorError, match=r"\(row 2\) is inside an occupied voxel$"):
        cast_rays(grid, rows, x * 6)
    for shape in ((2, 3), (6, 2), (4,), (1, 6, 3)):
        with pytest.raises(ValueError, match="origin must have shape"):
            cast_rays(grid, np.full(shape, 8.5), x * 6)


@pytest.mark.parametrize("budget", [1, 150, 500, 100_000])
def test_sense_poses_equals_sense_at_each_pose(monkeypatch, budget):
    """Casting many poses' rays together changes no depth: the batches of
    any ray budget give each pose's `sense` vector, bit for bit."""
    monkeypatch.setattr(worldsim, "SENSE_BATCH_RAYS", budget)
    grid = generate_world((32, 32, 8), density=0.2, seed=4)
    rng = np.random.default_rng(budget)
    free = np.argwhere(~grid.occupancy)
    positions, goals = [], []
    while len(positions) < 9:
        pos = grid.center_of(free[rng.integers(len(free))]) + rng.uniform(-0.5, 0.5, 3)
        if not grid.occupied_at(pos):
            positions.append(pos)
            goals.append(grid.center_of(free[rng.integers(len(free))]))
    goals[0] = positions[0] + (0.0, 0.0, 2.0)     # straight above: heading +x
    goals[1] = positions[1]                       # at the goal
    lasts = rng.uniform(-1, 1, (len(positions), 3))
    for p_f, p_d in ((3, 3), (2, 2), (1, 0), (1, 3)):
        config = SensorConfig(p_f, p_d, max_range=7.0 if p_d == 2 else 100.0)
        got = worldsim.sense_poses(grid, positions, goals, config, lasts)
        want = [sense(grid, DroneState(position=p, goal=g), config, last_action=a)
                for p, g, a in zip(positions, goals, lasts)]
        assert got.tobytes() == np.array(want).tobytes()


def test_cast_rays_zero_rays():
    grid = generate_world((16, 16, 8), seed=0)
    got = cast_rays(grid, (8.5, 8.5, 4.5), np.empty((0, 3)))
    want = dda_cast_rays(grid, (8.5, 8.5, 4.5), np.empty((0, 3)))
    assert got.shape == want.shape == (0,) and got.dtype == want.dtype


def test_cast_rays_overflowing_reciprocal_counts_as_zero():
    # the reference returns NaN here: 1/d overflows to -inf, and the origin
    # on a y boundary makes (boundary - origin) * inv = 0 * inf
    grid = generate_world((16, 16, 8), seed=0)
    o = np.array([8.25, 8.0, 4.5])
    tiny = (1.0, -5e-324, 0.0)
    with np.errstate(all="ignore"):
        assert np.isnan(dda_cast_rays(grid, o, [tiny])[0])
    assert cast_rays(grid, o, [tiny])[0] == dda_cast_rays(grid, o, [(1.0, 0.0, 0.0)])[0]


def test_cast_rays_overflowing_crossing_sum_is_silent():
    # 1/d is finite but huge, so the running sum of y crossing times
    # overflows to inf: a crossing the ray never makes, not a warning
    grid = generate_world((32, 32, 8))
    o, dirs = (8.3, 8.3, 4.3), [[1.0, 1e-307, 0.0], [0.0, 1.0, 0.0]]
    want = dda_cast_rays(grid, o, dirs, 100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cast_rays(grid, o, dirs, 100.0)
    assert got.tobytes() == want.tobytes()


def test_cast_rays_direction_norm_under_and_overflow():
    # both norms leave the floats (2e-307 squared is 0, 1e308 squared is
    # inf), but each direction is finite and nonzero
    grid = generate_world((32, 32, 8))
    o = (8.3, 8.3, 4.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cast_rays(grid, o, [[0.0, 0.0, 2e-307], [1e308, 1e308, 0.0]])
        want = cast_rays(grid, o, [[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    assert got.tobytes() == want.tobytes()


def two_call_sense(grid, state, config):
    """`sense`'s depths from two reference traversals, one of the forward
    rays and one of the downward rays."""
    to_goal = state.goal - state.position
    heading = 0.0
    if math.hypot(to_goal[0], to_goal[1]) > 1e-9:
        heading = math.atan2(to_goal[1], to_goal[0])
    f_idx = forward_level_indices(config.p_f)
    d_idx = downward_level_indices(config.p_d)
    forward = np.zeros(FORWARD_RAYS)
    forward[f_idx] = dda_cast_rays(grid, state.position, forward_ray_directions(heading)[f_idx],
                                   config.max_range) / config.max_range
    downward = np.zeros(DOWNWARD_RAYS)
    if d_idx.size:
        downward[d_idx] = dda_cast_rays(grid, state.position, _DOWN_DIRS[d_idx],
                                        config.max_range) / config.max_range
    return forward, downward


@pytest.mark.parametrize("p_f", FORWARD_LEVELS)
@pytest.mark.parametrize("p_d", DOWNWARD_LEVELS)
def test_sense_equals_two_call_composition(p_f, p_d):
    grid = generate_world((32, 32, 8), density=0.2, seed=4)
    rng = np.random.default_rng(p_f * 10 + p_d)
    free = np.argwhere(~grid.occupancy)
    for _ in range(5):
        pos = grid.center_of(free[rng.integers(len(free))]) + rng.uniform(-0.5, 0.5, 3)
        pos = np.where(rng.random(3) < 0.3, np.round(pos), pos)   # some on boundaries
        if grid.occupied_at(pos):
            continue
        goal = grid.center_of(free[rng.integers(len(free))])
        config = SensorConfig(p_f, p_d, max_range=float(rng.choice([5.0, 100.0])))
        state = DroneState(position=pos, goal=goal)
        v = sense(grid, state, config)
        forward, downward = two_call_sense(grid, state, config)
        assert v[:FORWARD_RAYS].tobytes() == forward.tobytes()
        assert v[FORWARD_RAYS:FORWARD_RAYS + DOWNWARD_RAYS].tobytes() == downward.tobytes()
