"""World model: generation, persistence, ray casting, motion, FIFO."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slimnav.errors import ConfigError, LoadError, SensorError
from slimnav.worldsim import (ACTIVE, COLLIDED, DOWNWARD_LEVELS, DOWNWARD_RAYS,
                              DroneState, FifoQueue, FORWARD_LEVELS,
                              FORWARD_RAYS, MAX_POWER, MAX_VOXELS, MIN_POWER,
                              OBS_WIDTH, ObservationLayout, REACHED, SensorConfig,
                              VoxelGrid, cast_rays, clamp_motion,
                              downward_level_indices, forward_level_indices,
                              generate_world, load_world, mean_depths,
                              save_world, segment_hits, sense, step,
                              forward_ray_directions, _aim, _DOWN_DIRS,
                              _DOWNWARD_IDX, _FORWARD_IDX)


@pytest.fixture(scope="module")
def empty():
    return generate_world((16, 16, 8), resolution=1.0, density=0.0, seed=0)


@pytest.fixture(scope="module")
def world():
    return generate_world((32, 32, 8), resolution=1.0, density=0.15, seed=3)


# --- generation ---

def test_generate_world_is_deterministic():
    a = generate_world((24, 24, 8), density=0.2, seed=11)
    b = generate_world((24, 24, 8), density=0.2, seed=11)
    assert np.array_equal(a.occupancy, b.occupancy)
    c = generate_world((24, 24, 8), density=0.2, seed=12)
    assert not np.array_equal(a.occupancy, c.occupancy)


def test_generate_world_shell_is_solid(world):
    occ = world.occupancy
    assert occ[0].all() and occ[-1].all()
    assert occ[:, 0].all() and occ[:, -1].all()
    assert occ[:, :, 0].all() and occ[:, :, -1].all()


def interior_occupied(grid) -> int:
    return int(np.count_nonzero(grid.occupancy[1:-1, 1:-1, 1:-1]))


def test_generate_world_density_zero_means_empty_interior(empty):
    assert interior_occupied(empty) == 0


def test_generate_world_density_scales_occupancy():
    lo = generate_world((32, 32, 8), density=0.1, seed=5)
    hi = generate_world((32, 32, 8), density=0.4, seed=5)
    assert interior_occupied(lo) < interior_occupied(hi)


def test_generate_world_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        generate_world((8, 8, 8))
    with pytest.raises(ConfigError):
        generate_world((16, 16, 8), density=1.5)
    with pytest.raises(ConfigError):
        generate_world((16, 16, 8), resolution=0.0)
    # the smallest world above the cap, refused before anything is allocated
    with pytest.raises(ConfigError, match=f"more than {MAX_VOXELS}"):
        generate_world((1024, 1024, 32))


def test_voxel_lookups(empty):
    assert empty.voxel_of((1.5, 2.9, 3.0)) == (1, 2, 3)
    assert empty.occupied_at(empty.center_of((0, 5, 5)))       # shell
    assert not empty.occupied_at(empty.center_of((5, 5, 3)))
    assert empty.occupied_at(empty.center_of((-1, 5, 5)))      # out of bounds is solid
    assert empty.occupied_at((-0.5, 5.0, 5.0))


def test_non_finite_point_is_solid_and_in_no_voxel(empty):
    # solid like a point outside the grid, with no warning (warnings fail
    # the suite); a finite point far outside is solid too
    for p in ((math.nan, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, -math.inf)):
        assert empty.occupied_at(p)
        with pytest.raises(ValueError, match="no voxel holds"):
            empty.voxel_of(p)
    assert empty.occupied_at((1e300, 5.0, 5.0))
    assert not empty.occupied_at((5.5, 5.5, 3.5))


# --- persistence ---

def test_world_round_trip(tmp_path, world):
    p = tmp_path / "w.txt"
    save_world(world, p, config_hash="cafe0123")
    back, found = load_world(p)
    assert found == "cafe0123"
    assert back.dims == world.dims
    assert back.resolution == world.resolution
    assert back.seed == world.seed and back.density == world.density
    assert np.array_equal(back.occupancy, world.occupancy)


def test_load_world_rejects_malformed(tmp_path):
    p = tmp_path / "w.txt"
    p.write_text("WRONG 4 4 4 1.0\n")
    with pytest.raises(LoadError):
        load_world(p)
    p.write_text("NAVIWORLD v1 16 16 8 1.0\n# seed=0 density=0.0\n10 1\n")
    with pytest.raises(LoadError):          # run length short of 16*16*8
        load_world(p)
    p.write_text("NAVIWORLD v1 16 16 8 1.0\n# seed=0 density=0.0\n2048 7\n")
    with pytest.raises(LoadError):          # bit must be 0/1
        load_world(p)
    p.write_text("NAVIWORLD v1 4096 4096 1 1.0\n")   # MAX_VOXELS, no runs
    with pytest.raises(LoadError, match="occupancy has 0 voxels"):
        load_world(p)                       # refused before allocating
    # runs that cover a 10^15-voxel header: refused at the header, before
    # the runs are read
    p.write_text("NAVIWORLD v1 100000 100000 100000 1.0\n1000000000000000 0\n")
    with pytest.raises(LoadError, match=f"more than {MAX_VOXELS}"):
        load_world(p)
    for text in (b"NAVIWORLD v1 16 16 8 1.0\n# seed=x density=0.0\n2048 0\n",
                 b"NAVIWORLD v1 16 16 8 1.0\n# seed=0 density=dense\n2048 0\n",
                 b"NAVIWORLD v1 -16 16 8 1.0\n# seed=0 density=0.0\n2048 0\n",
                 b"NAVIWORLD v1 16 16 8 0.0\n# seed=0 density=0.0\n2048 0\n",
                 b"NAVIWORLD v1 16 16 8 inf\n# seed=0 density=0.0\n2048 0\n",
                 b"NAVIWORLD v1 16 16 8 1.0\n# seed=0 density=nan\n2048 0\n",
                 b"NAVIWORLD v1 16 16 8 1.0\n# seed=\xff density=0.0\n2048 0\n"):
        p.write_bytes(text)
        with pytest.raises(LoadError):
            load_world(p)


# --- ray casting ---

def brute_force_depth(grid, origin, direction, max_range, ds=0.002):
    """Independent reference: dense sampling along the ray."""
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    for t in np.arange(ds, max_range + ds, ds):
        if grid.occupied_at(origin + t * direction):
            return t
    return max_range


def test_cast_ray_exact_axis_hit(empty):
    # from x=8.5 toward +x: wall voxel starts at x=15, so depth = 6.5
    (d,) = cast_rays(empty, (8.5, 8.0, 4.0), [(1.0, 0.0, 0.0)])
    assert d == pytest.approx(6.5, abs=1e-9)


def test_cast_rays_match_brute_force(world):
    rng = np.random.default_rng(0)
    origins = []
    while len(origins) < 5:
        p = rng.uniform(2, 30, size=3)
        p[2] = rng.uniform(2, 6)
        if not world.occupied_at(p):
            origins.append(p)
    for origin in origins:
        dirs = rng.normal(size=(6, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        got = cast_rays(world, origin, dirs, max_range=40.0)
        for k in range(len(dirs)):
            want = brute_force_depth(world, origin, dirs[k], 40.0)
            assert abs(got[k] - want) < 0.01, (origin, dirs[k])


def test_cast_rays_cap_and_errors(empty):
    x = [(1.0, 0.0, 0.0)]
    assert cast_rays(empty, (8.0, 8.0, 4.0), x, max_range=3.0)[0] == 3.0
    with pytest.raises(SensorError):
        cast_rays(empty, (0.5, 0.5, 0.5), x)   # inside the shell
    with pytest.raises(ValueError):
        cast_rays(empty, (8.0, 8.0, 4.0), [(0.0, 0.0, 0.0)])
    for bad in ((np.nan, 0.0, 1.0), (np.inf, 0.0, 0.0)):
        with pytest.raises(ValueError):
            cast_rays(empty, (8.0, 8.0, 4.0), [bad])
    with pytest.raises(ValueError):
        cast_rays(empty, (8.0, 8.0, 4.0), x, max_range=float("nan"))


def test_single_origin_sensor_errors_name_the_origin():
    # an open grid: voxel 0 is free, so a point on its low face is inside
    occ = np.zeros((4, 4, 4), dtype=bool)
    occ[2, 1, 1] = True
    grid = VoxelGrid(dims=(4, 4, 4), resolution=0.5, occupancy=occ)
    x = [(1.0, 0.0, 0.0)]
    for point in ((-0.0, 0.0, 0.0), (1.99, 1.99, 1.99), (0.999, 0.5, 0.5)):
        cast_rays(grid, point, x)           # inside, free: no error
    for point, what in (((1.0, 0.5, 0.5), "inside an occupied voxel"),
                        ((1.2, 0.74, 0.99), "inside an occupied voxel"),
                        ((2.0, 0.5, 0.5), "outside the grid"),
                        ((-1e-300, 0.5, 0.5), "outside the grid"),
                        ((0.5, 1e300, 0.5), "outside the grid"),
                        ((0.5, 0.5, math.nan), "outside the grid"),
                        ((-math.inf, 0.5, 0.5), "outside the grid")):
        with pytest.raises(SensorError) as e:
            cast_rays(grid, point, x)
        assert str(e.value) == f"ray origin {list(point)} is {what}"


# --- segments and motion ---

def test_segment_hits_free_and_blocked(empty):
    assert segment_hits(empty, (3.0, 3.0, 3.0), (2.0, 0.0, 0.0)) is None
    assert segment_hits(empty, (3.0, 3.0, 3.0), (0.0, 0.0, 0.0)) is None
    hit = segment_hits(empty, (13.8, 8.0, 4.0), (2.0, 0.0, 0.0))
    assert hit is not None and hit[0] >= 15.0  # first sample in the wall


def test_clamp_motion():
    d = clamp_motion((5.0, -3.0, 1.0), max_step=2.0)
    assert np.allclose(d, (2.0, -2.0, 1.0))
    d = clamp_motion((1.0, 1.0, 1.5), max_step=2.0, vertical_locked=True)
    assert d[2] == 0.0


@given(st.lists(st.floats(-10, 10), min_size=3, max_size=3))
@settings(max_examples=50, deadline=None)
def test_clamp_motion_bounds(delta):
    d = clamp_motion(delta, max_step=2.0)
    assert np.all(np.abs(d) <= 2.0)
    assert np.allclose(clamp_motion(d, max_step=2.0), d)


def test_clamp_motion_equals_np_clip():
    # the scalar clip keeps np.clip's bytes on the edge values too
    edges = [0.0, -0.0, 2.0, -2.0, 2.5, -7.0, 1e-300, math.nan, math.inf, -math.inf]
    rng = np.random.default_rng(7)
    for _ in range(300):
        delta = rng.choice(edges, size=3)
        for max_step in (2.0, 2, 0.5):
            for locked in (False, True):
                want = np.clip(delta, -max_step, max_step)
                if locked:
                    want[2] = 0.0
                got = clamp_motion(list(delta), max_step, locked)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_step_reaches_goal(empty):
    s = DroneState(position=(5.0, 5.0, 4.0), goal=(10.0, 5.0, 4.0))
    s = step(empty, s, (2.0, 0.0, 0.0))
    assert s.terminal == ACTIVE and s.step_count == 1
    s = step(empty, s, (2.0, 0.0, 0.0))
    assert s.terminal == REACHED       # within default goal radius 2
    with pytest.raises(ValueError):
        step(empty, s, (1.0, 0.0, 0.0))


def test_step_collides_on_swept_segment(empty):
    s = DroneState(position=(14.4, 8.0, 4.0), goal=(3.0, 8.0, 4.0))
    s2 = step(empty, s, (1.5, 0.0, 0.0))
    assert s2.terminal == COLLIDED
    assert s2.position[0] >= 15.0      # parked at the first blocked sample


def test_step_vertical_lock(empty):
    s = DroneState(position=(5.0, 5.0, 4.0), goal=(12.0, 5.0, 4.0),
                   vertical_locked=True)
    s = step(empty, s, (1.0, 0.0, 1.5))
    assert s.position[2] == 4.0


# --- sensing ---

def test_power_level_indices_are_nested():
    f1, f2, f3 = (set(forward_level_indices(k)) for k in (1, 2, 3))
    assert f1 < f2 < f3 and len(f1) == 16 and len(f2) == 36 and len(f3) == 64
    d0, d1, d2, d3 = (set(downward_level_indices(k)) for k in (0, 1, 2, 3))
    assert d0 == set() and d1 < d2 < d3
    assert len(d1) == 4 and len(d2) == 16 and len(d3) == 36
    with pytest.raises(ValueError):
        forward_level_indices(0)
    with pytest.raises(ValueError):
        downward_level_indices(4)


def test_sensor_config_validation():
    with pytest.raises(ConfigError):
        SensorConfig(0, 3)
    with pytest.raises(ConfigError):
        SensorConfig(3, 4)
    with pytest.raises(ConfigError):
        SensorConfig(3, 3, max_range=0.0)


def test_sense_vector_layout(empty):
    s = DroneState(position=(8.0, 8.0, 4.0), goal=(12.0, 8.0, 4.0))
    v = sense(empty, s, SensorConfig(3, 3), last_action=(0.1, -0.2, 0.0))
    assert v.shape == (OBS_WIDTH,)
    assert OBS_WIDTH == FORWARD_RAYS + DOWNWARD_RAYS + 7
    g = FORWARD_RAYS + DOWNWARD_RAYS
    assert np.allclose(v[g:g + 3], (1.0, 0.0, 0.0))     # unit goal direction
    assert v[g + 3] == pytest.approx(4.0 / 100.0)       # normalized distance
    assert np.allclose(v[g + 4:], (0.1, -0.2, 0.0))


def test_sense_depths_normalized_and_masked(empty):
    s = DroneState(position=(8.0, 8.0, 4.0), goal=(12.0, 8.0, 4.0))
    v = sense(empty, s, SensorConfig(1, 0))
    acquired = ObservationLayout(1).slot_mask(1, 0)[:FORWARD_RAYS + DOWNWARD_RAYS]
    assert acquired[:FORWARD_RAYS].sum() == 16 and not acquired[FORWARD_RAYS:].any()
    depths = v[:FORWARD_RAYS + DOWNWARD_RAYS]
    assert np.all(depths[~acquired] == 0.0)
    assert np.all((depths[acquired] > 0.0) & (depths[acquired] <= 1.0))


def test_mean_depths_over_acquired_rays(world):
    # bit for bit the mean of the acquired entries, at every power pair
    for pos, goal in (((16.5, 16.5, 4.0), (20.5, 12.5, 4.0)),
                      ((5.3, 27.1, 2.2), (30.5, 2.5, 6.5)),
                      ((24.9, 9.6, 5.5), (24.9, 9.6, 1.5))):
        s = DroneState(position=pos, goal=goal)
        for p_f, p_d in ((f, d) for f in FORWARD_LEVELS for d in DOWNWARD_LEVELS):
            config = SensorConfig(p_f, p_d)
            v = sense(world, s, config)
            fwd, down = mean_depths(v, config)
            assert type(fwd) is float and type(down) is float
            want = v[forward_level_indices(p_f)].mean()
            assert fwd > 0.0 and np.float64(fwd).tobytes() == want.tobytes()
            if p_d == 0:
                assert math.isnan(down)
            else:
                want = v[FORWARD_RAYS + downward_level_indices(p_d)].mean()
                assert down > 0.0 and np.float64(down).tobytes() == want.tobytes()


def test_sense_forward_fov_tracks_goal_direction(empty):
    # an obstacle between the drone and the goal shows up in the central
    # forward rays no matter which way the goal lies
    grid = generate_world((16, 16, 8), density=0.0, seed=0)
    grid.occupancy[8, 11, 1:7] = True   # pillar north of center
    pos = (8.5, 8.5, 4.0)
    toward = sense(grid, DroneState(position=pos, goal=(8.5, 14.0, 4.0)),
                   SensorConfig(3, 0))
    away = sense(grid, DroneState(position=pos, goal=(8.5, 2.0, 4.0)),
                 SensorConfig(3, 0))
    assert toward[:FORWARD_RAYS].min() < 0.04     # level 3 acquires every forward ray
    assert away[:FORWARD_RAYS].min() > 0.04


def test_aim_directions_are_the_acquired_rows_of_the_full_sets():
    # per pair, only the acquired forward square is computed and the
    # downward rows come from a table; both keep the bytes of the full sets
    rng = np.random.default_rng(8)
    position = np.array([10.5, 10.5, 3.5])
    goals = [position + (0.0, 0.0, 4.0)]        # straight above: heading 0
    goals += [position + rng.uniform(-20.0, 20.0, size=3) for _ in range(40)]
    for goal in goals:
        to_goal = goal - position
        heading = (math.atan2(to_goal[1], to_goal[0])
                   if math.hypot(to_goal[0], to_goal[1]) > 1e-9 else 0.0)
        for p_f in FORWARD_LEVELS:
            for p_d in DOWNWARD_LEVELS:
                dirs, _, _ = _aim(position, goal, SensorConfig(p_f, p_d))
                want = np.concatenate([forward_ray_directions(heading)[_FORWARD_IDX[p_f]],
                                       _DOWN_DIRS[_DOWNWARD_IDX[p_d]]])
                assert dirs.shape == want.shape and dirs.tobytes() == want.tobytes()
    for heading in rng.uniform(-4.0, 4.0, size=40):
        full = forward_ray_directions(heading)
        assert full.shape == (FORWARD_RAYS, 3)
        for p_f in FORWARD_LEVELS:
            got = forward_ray_directions(heading, p_f)
            assert got.tobytes() == full[_FORWARD_IDX[p_f]].tobytes()


def test_sense_rejects_terminal_state(empty):
    s = DroneState(position=(8.0, 8.0, 4.0), goal=(9.0, 8.0, 4.0),
                   terminal=COLLIDED)
    with pytest.raises(ValueError):
        sense(empty, s, SensorConfig(3, 3))


# --- FIFO and layout ---

def test_fifo_cold_start_and_order():
    q = FifoQueue(3, width=2)
    assert np.all(q.flatten() == 0.0)
    q.push((1.0, 1.0)).push((2.0, 2.0))
    flat = q.flatten()
    assert np.allclose(flat, (2, 2, 1, 1, 0, 0))   # newest slot first
    q.push((3.0, 3.0)).push((4.0, 4.0))
    assert np.allclose(q.flatten(), (4, 4, 3, 3, 2, 2))  # oldest evicted


def test_fifo_validation_and_copy():
    with pytest.raises(ConfigError):
        FifoQueue(0)
    q = FifoQueue(2, width=3)
    with pytest.raises(ValueError):
        q.push((1.0, 2.0))
    # flatten hands out a copy: a caller that keeps or edits it cannot
    # change the queue
    flat = q.flatten()
    flat[0] = 1.0
    assert np.all(q.flatten() == 0.0)


def test_fifo_push_leaves_earlier_flattens_alone():
    # push shifts the slots in place; what flatten() returned before must
    # not move with them, nor may a pushed vector edited afterwards
    q = FifoQueue(3, width=2)
    seen = []
    for k in range(1, 6):
        vec = np.array([k, -k], dtype=float)
        seen.append(q.push(vec).flatten())
        vec[:] = 99.0
    want = [[1, -1, 0, 0, 0, 0], [2, -2, 1, -1, 0, 0], [3, -3, 2, -2, 1, -1],
            [4, -4, 3, -3, 2, -2], [5, -5, 4, -4, 3, -3]]
    assert [f.tolist() for f in seen] == want


def test_observation_layout_masks():
    layout = ObservationLayout(4)
    full = layout.slot_mask(3, 3)
    small = layout.slot_mask(1, 0)
    assert full.sum() == FORWARD_RAYS + DOWNWARD_RAYS + 7
    assert small.sum() == 16 + 7
    assert np.all(full[small])                      # nested
    assert small[FORWARD_RAYS + DOWNWARD_RAYS:].all()  # goal features always on
    assert layout.slot_mask(*MIN_POWER).tobytes() == small.tobytes()
    assert layout.slot_mask(*MAX_POWER).tobytes() == full.tobytes()


def test_input_mask_tiles_slot_mask():
    layout = ObservationLayout(3)
    pairs = [(p_f, p_d) for p_f in FORWARD_LEVELS for p_d in DOWNWARD_LEVELS]
    assert len(pairs) == 12
    for p_f, p_d in pairs:
        got = layout.input_mask(p_f, p_d)
        assert got.shape == (layout.depth * OBS_WIDTH,) and got.dtype == bool
        assert np.array_equal(got, np.tile(layout.slot_mask(p_f, p_d), layout.depth))
