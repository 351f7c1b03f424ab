"""The loop-free `cast_rays` against the stepwise DDA it replaced: exact
equality, no tolerance, on random worlds, origins, directions and ranges."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dda_reference import dda_cast_rays
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


def assert_same(grid, origin, dirs, max_range):
    # cast_rays scales a direction whose norm underflows to 0 by its largest
    # |component| first, where the reference would reject it
    ref_dirs = np.array(dirs, dtype=float, ndmin=2)
    tiny = np.linalg.norm(ref_dirs, axis=1) == 0
    ref_dirs[tiny] /= np.abs(ref_dirs[tiny]).max(axis=1, keepdims=True)
    try:
        want = dda_cast_rays(grid, origin, ref_dirs, max_range)
    except SensorError:
        with pytest.raises(SensorError):
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
        st.floats(0.0, 2.0 * float(grid.extent().max()))))
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
        obs = sense(grid, state, config)
        forward, downward = two_call_sense(grid, state, config)
        assert obs.forward_depths.tobytes() == forward.tobytes()
        assert obs.downward_depths.tobytes() == downward.tobytes()
        assert np.array_equal(np.flatnonzero(obs.forward_mask), forward_level_indices(p_f))
        assert np.array_equal(np.flatnonzero(obs.downward_mask), downward_level_indices(p_d))
