"""Motion-graph, search, sampling, labeling, and file-format tests.

The optimality checks compare A* against an independently written Dijkstra
(no heuristic, its own adjacency code) so a shared bug cannot hide."""

import hashlib
import heapq
import math

import numpy as np
import pytest

from slimnav import pathoracle, worldsim
from slimnav.errors import ConfigError, LoadError, NoPathError
from slimnav.pathoracle import (LabeledDataset, OptimalPath, Region, Task,
                                TaskSampler, astar, build_graph, crowding_mask,
                                label_dataset, label_rollouts, merge_datasets,
                                partition_regions, path_cost, save_dataset,
                                load_dataset, save_paths, load_paths)
from slimnav.worldsim import OBS_WIDTH

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# independent reference: Dijkstra over the same free-space motion rules,
# written from scratch (different traversal, no heuristic, own corner rule)

def dijkstra_cost(grid, start, goal, vertical_locked):
    free = ~grid.occupancy
    res = grid.resolution

    def edges(v):
        x, y, z = v
        deltas = [(dx, dy, 0) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                  if (dx, dy) != (0, 0)]
        if not vertical_locked:
            deltas += [(0, 0, 1), (0, 0, -1)]
        for dx, dy, dz in deltas:
            w = (x + dx, y + dy, z + dz)
            if not (0 <= w[0] < grid.dims[0] and 0 <= w[1] < grid.dims[1]
                    and 0 <= w[2] < grid.dims[2]):
                continue
            if not free[w]:
                continue
            if dx and dy and not (free[x + dx, y, z] and free[x, y + dy, z]):
                continue
            p = (np.asarray(v, dtype=float) + 0.5) * res
            q = (np.asarray(w, dtype=float) + 0.5) * res
            if worldsim.segment_hits(grid, p, q - p) is not None:
                continue
            yield w, res * math.sqrt(dx * dx + dy * dy + dz * dz)

    dist = {start: 0.0}
    heap = [(0.0, start)]
    done = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        if v == goal:
            return d
        for w, c in edges(v):
            nd = d + c
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return None


@pytest.fixture(scope="module")
def world():
    return worldsim.generate_world((24, 24, 8), resolution=1.0,
                                   density=0.15, seed=5)


@pytest.fixture(scope="module")
def graph(world):
    return build_graph(world)


@pytest.fixture(scope="module")
def flat_graph(world):
    return build_graph(world, vertical_locked=True)


def free_vertices(graph):
    return np.argwhere(graph.free)


# ---------------------------------------------------------------------------
# graph structure

def test_build_graph_moves(graph, flat_graph):
    assert len(graph.moves) == 10
    assert len(flat_graph.moves) == 8
    assert all(dz == 0 for _, _, dz, _ in flat_graph.moves)
    for dx, dy, dz, cost in graph.moves:
        assert cost == pytest.approx(math.sqrt(dx * dx + dy * dy + dz * dz))


def test_corner_rule_blocks_grazing_diagonal():
    grid = worldsim.generate_world((16, 16, 8), resolution=1.0)
    grid.occupancy[5, 5, 3] = True
    g = build_graph(grid)
    # diagonal from (4,4) to (5,5) would graze the block at (5,5)... pick a
    # pair whose shared orthogonal neighbor is the block:
    # moving (4,5) -> (5,6)? the rule: diagonal (dx,dy) from v needs
    # (v+dx, v.y) and (v.x, v+dy) free. From (4,4) the diagonal (1,1)
    # lands on the occupied voxel itself; use (4,5) -> (5,4) instead whose
    # corner (5,5) is blocked.
    nbrs = {w for w, _ in g.neighbors((4, 5, 3))}
    assert (5, 4, 3) not in nbrs          # corner (5,5) occupied
    assert (4, 4, 3) in nbrs              # straight moves unaffected
    assert (3, 4, 3) in nbrs              # opposite diagonal is clear


def test_neighbors_respect_occupancy_and_bounds():
    grid = worldsim.generate_world((16, 16, 8), resolution=1.0)
    g = build_graph(grid)
    nbrs = {w for w, _ in g.neighbors((1, 1, 1))}
    # next to the shell: no moves into walls
    assert all(g.is_vertex(w) for w in nbrs)
    assert (0, 1, 1) not in nbrs
    center = {w for w, _ in g.neighbors((8, 8, 4))}
    assert len(center) == 10


def test_crowding_marks_obstacle_ring():
    grid = worldsim.generate_world((16, 16, 8), resolution=1.0)
    grid.occupancy[8, 8, 4] = True
    g = build_graph(grid)
    crowd = g.crowding
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if (dx, dy) == (0, 0):
                continue
            assert crowd[8 + dx, 8 + dy, 4]
    assert not crowd[8, 8 + 3, 4]          # two voxels out is clear
    assert crowd[1, 1, 4]                  # shell walls crowd the rim
    assert not crowd[4, 4, 4]


# ---------------------------------------------------------------------------
# path cost arithmetic

def test_path_cost_counts_hops():
    wps = [(1, 1, 1), (2, 1, 1), (3, 2, 1), (3, 2, 2)]
    assert path_cost(wps, 1.0) == pytest.approx(2.0 + SQRT2)
    assert path_cost(wps, 0.5) == pytest.approx(0.5 * (2.0 + SQRT2))


def test_path_cost_rejects_illegal_hop():
    with pytest.raises(ValueError):
        path_cost([(0, 0, 0), (2, 0, 0)], 1.0)
    with pytest.raises(ValueError):
        path_cost([(0, 0, 0), (1, 1, 1)], 1.0)


def test_optimal_path_points_are_voxel_centers():
    p = OptimalPath(waypoints=[(1, 2, 3), (2, 2, 3)], length=1.0)
    grid = worldsim.VoxelGrid(dims=(16, 16, 8), resolution=2.0,
                              occupancy=np.zeros((16, 16, 8), dtype=bool))
    pts = grid.center_of(p.waypoints)
    assert np.allclose(pts[0], [3.0, 5.0, 7.0])
    assert p.steps == 1


# ---------------------------------------------------------------------------
# A* search

def test_astar_trivial_and_unreachable():
    grid = worldsim.generate_world((16, 16, 8), resolution=1.0)
    g = build_graph(grid)
    p = astar(g, (3, 3, 3), (3, 3, 3))
    assert p.waypoints == [(3, 3, 3)] and p.length == 0.0 and p.steps == 0
    with pytest.raises(NoPathError):
        astar(g, (0, 0, 0), (3, 3, 3))    # start inside the shell
    # seal a pocket and ask for a path into it
    grid2 = worldsim.generate_world((16, 16, 8), resolution=1.0)
    grid2.occupancy[4:7, 4:7, :] = True
    grid2.occupancy[5, 5, 4] = False
    g2 = build_graph(grid2)
    with pytest.raises(NoPathError):
        astar(g2, (2, 2, 4), (5, 5, 4))


def test_astar_deterministic(graph):
    verts = free_vertices(graph)
    s, t = tuple(verts[10]), tuple(verts[-10])
    p1 = astar(graph, s, t)
    p2 = astar(graph, s, t)
    assert p1.waypoints == p2.waypoints
    assert p1.expanded == p2.expanded


def test_astar_waypoints_are_legal_edges(graph):
    verts = free_vertices(graph)
    rng = np.random.default_rng(0)
    for _ in range(5):
        s = tuple(verts[int(rng.integers(len(verts)))])
        t = tuple(verts[int(rng.integers(len(verts)))])
        try:
            p = astar(graph, s, t)
        except NoPathError:
            continue
        assert p.waypoints[0] == s and p.waypoints[-1] == t
        for a, b in zip(p.waypoints[:-1], p.waypoints[1:]):
            assert b in {w for w, _ in graph.neighbors(a)}
        assert p.length == path_cost(p.waypoints, graph.grid.resolution)


@pytest.mark.parametrize("locked", [False, True])
def test_astar_matches_independent_dijkstra(world, locked):
    g = build_graph(world, vertical_locked=locked)
    free = g.free.copy()
    if locked:
        keep = np.zeros_like(free)
        keep[:, :, 4] = free[:, :, 4]
        free = keep
    verts = np.argwhere(free)
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 25:
        s = tuple(verts[int(rng.integers(len(verts)))])
        t = tuple(verts[int(rng.integers(len(verts)))])
        ref = dijkstra_cost(world, s, t, locked)
        if ref is None:
            with pytest.raises(NoPathError):
                astar(g, s, t)
            continue
        p = astar(g, s, t)
        assert p.length == pytest.approx(ref, abs=1e-9)
        checked += 1


def test_astar_clearance_weight_zero_is_plain(graph):
    verts = free_vertices(graph)
    s, t = tuple(verts[40]), tuple(verts[-40])
    assert astar(graph, s, t).waypoints == astar(graph, s, t, 0.0).waypoints


def test_astar_clearance_weight_validation(graph):
    verts = free_vertices(graph)
    with pytest.raises(ConfigError):
        astar(graph, tuple(verts[0]), tuple(verts[1]), -0.1)


def test_astar_shaped_prefers_clear_lane():
    # a thick wall pierced by a 1-voxel tunnel at y=8, open space past the
    # wall end at y=14: the plain path squeezes through the tunnel, the
    # shaped one pays a little extra length to go around
    grid = worldsim.generate_world((24, 24, 8), resolution=1.0)
    grid.occupancy[11:14, 1:14, 1:7] = True
    grid.occupancy[11:14, 8, 1:7] = False
    g = build_graph(grid, vertical_locked=True)
    s, t = (4, 8, 3), (20, 8, 3)
    plain = astar(g, s, t)
    shaped = astar(g, s, t, clearance_weight=4.0)
    assert (12, 8, 3) in plain.waypoints           # through the tunnel
    assert (12, 8, 3) not in shaped.waypoints      # around the wall
    assert shaped.length > plain.length            # metric lengths, honest
    # the shaped route's own objective must still beat the tunnel route's
    crowd = g.crowding
    def shaped_cost(p):
        pen = sum(4.0 for v in p.waypoints[1:] if crowd[v[0], v[1], v[2]])
        return p.length + pen
    assert shaped_cost(shaped) <= shaped_cost(plain)


def test_astar_shaped_length_still_metric(graph):
    verts = free_vertices(graph)
    rng = np.random.default_rng(3)
    for _ in range(5):
        s = tuple(verts[int(rng.integers(len(verts)))])
        t = tuple(verts[int(rng.integers(len(verts)))])
        try:
            p = astar(graph, s, t, clearance_weight=0.7)
        except NoPathError:
            continue
        assert p.length == path_cost(p.waypoints, graph.grid.resolution)
        assert p.length >= astar(graph, s, t).length - 1e-9


# ---------------------------------------------------------------------------
# regions and task sampling

def test_partition_regions_cover_and_order():
    grid = worldsim.generate_world((40, 16, 8), resolution=1.0)
    regions = partition_regions(grid, (0.5, 0.25, 0.25))
    assert [r.name for r in regions] == ["train", "validation", "test"]
    assert regions[0].x_lo == 0 and regions[-1].x_hi == 40
    for a, b in zip(regions[:-1], regions[1:]):
        assert a.x_hi == b.x_lo
    assert regions[0].x_hi == 20


def test_partition_regions_validation():
    grid = worldsim.generate_world((16, 16, 8), resolution=1.0)
    with pytest.raises(ConfigError):
        partition_regions(grid, (0.5, 0.5))
    with pytest.raises(ConfigError):
        partition_regions(grid, (0.7, 0.2, 0.2))
    with pytest.raises(ConfigError):
        partition_regions(grid, (0.9, 0.05, 0.05))   # slab too narrow


def test_sampler_requires_flight_z_when_locked(world, flat_graph):
    regions = partition_regions(world, (0.5, 0.25, 0.25))
    with pytest.raises(ConfigError):
        TaskSampler(flat_graph, regions)


def test_sampler_task_properties(world, flat_graph):
    regions = partition_regions(world, (0.5, 0.25, 0.25))
    sampler = TaskSampler(flat_graph, regions, flight_z=3)
    rng = np.random.default_rng(1)
    region = {r.name: r for r in regions}["train"]
    for _ in range(8):
        task = sampler.sample("train", 8.0, rng, tolerance=0.3)
        assert region.x_lo <= task.spawn[0] < region.x_hi
        assert region.x_lo <= task.goal[0] < region.x_hi
        assert task.spawn[2] == 3 and task.goal[2] == 3
        d = task.distance(world.resolution)
        assert 8.0 * 0.7 - 1e-9 <= d <= 8.0 * 1.3 + 1e-9
        assert task.path.waypoints[0] == task.spawn
        assert task.path.waypoints[-1] == task.goal
        assert task.region == "train"


def test_sampler_deterministic(world, flat_graph):
    regions = partition_regions(world, (0.5, 0.25, 0.25))
    sampler = TaskSampler(flat_graph, regions, flight_z=3)
    t1 = sampler.sample("test", 6.0, np.random.default_rng(9))
    t2 = sampler.sample("test", 6.0, np.random.default_rng(9))
    assert (t1.spawn, t1.goal) == (t2.spawn, t2.goal)


def test_sampler_impossible_distance(world, flat_graph):
    regions = partition_regions(world, (0.5, 0.25, 0.25))
    sampler = TaskSampler(flat_graph, regions, flight_z=3)
    with pytest.raises(ConfigError):
        sampler.sample("test", 500.0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# labeling

def goal_block(vec):
    g = worldsim.FORWARD_RAYS + worldsim.DOWNWARD_RAYS
    return vec[g:g + 4]


def action_block(vec):
    return vec[-3:]


def test_label_dataset_shapes_and_cold_start(world, flat_graph):
    regions = partition_regions(world, (0.5, 0.25, 0.25))
    sampler = TaskSampler(flat_graph, regions, flight_z=3)
    rng = np.random.default_rng(2)
    paths = [sampler.sample("train", 6.0, rng).path for _ in range(3)]
    ds = label_dataset(world, paths, depth=4)
    assert len(ds) == sum(p.steps for p in paths)
    assert ds.fifo_vectors.shape == (len(ds), 4 * OBS_WIDTH)
    assert ds.targets.shape == (len(ds), 3)
    # first sample of each path: slots 1..3 still zero, slot 0 populated
    first = ds.fifo_vectors[0].reshape(4, OBS_WIDTH)
    assert np.any(first[0] != 0.0)
    assert np.all(first[1:] == 0.0)
    # its action features are the zero cold-start command
    assert np.all(action_block(first[0]) == 0.0)


def test_label_dataset_targets_follow_waypoints(world, flat_graph):
    regions = partition_regions(world, (0.5, 0.25, 0.25))
    sampler = TaskSampler(flat_graph, regions, flight_z=3)
    task = sampler.sample("train", 6.0, np.random.default_rng(4))
    ds = label_dataset(world, [task.path], depth=2, max_step=2.0)
    pts = world.center_of(task.path.waypoints)
    for k in range(len(ds)):
        want = np.clip(pts[k + 1] - pts[k], -2.0, 2.0)
        assert np.allclose(ds.targets[k], want)
    assert np.all(np.abs(ds.targets) <= 2.0 + 1e-12)
    # second sample's newest slot carries the previous normalized command
    second = ds.fifo_vectors[1].reshape(2, OBS_WIDTH)
    assert np.allclose(action_block(second[0]), ds.targets[0] / 2.0)


def test_label_dataset_jitter(world, flat_graph):
    regions = partition_regions(world, (0.5, 0.25, 0.25))
    sampler = TaskSampler(flat_graph, regions, flight_z=3)
    task = sampler.sample("train", 8.0, np.random.default_rng(6))
    plain = label_dataset(world, [task.path], depth=2)
    jit = label_dataset(world, [task.path], depth=2, jitter=0.3,
                        rng=np.random.default_rng(0))
    # same sample count; the first waypoint is never perturbed
    assert len(jit) == len(plain)
    assert np.allclose(jit.fifo_vectors[0], plain.fifo_vectors[0])
    if len(jit) > 1:
        assert not np.allclose(jit.targets[1:], plain.targets[1:])
    with pytest.raises(ConfigError):
        label_dataset(world, [task.path], depth=2, jitter=-0.1)


def test_label_dataset_empty_paths_raise(world):
    with pytest.raises(ConfigError):
        label_dataset(world, [], depth=4)


def test_label_dataset_crowd_boost(world, flat_graph):
    regions = partition_regions(world, (0.5, 0.25, 0.25))
    sampler = TaskSampler(flat_graph, regions, flight_z=3)
    rng = np.random.default_rng(13)
    paths = [sampler.sample("train", 8.0, rng).path for _ in range(4)]
    plain = label_dataset(world, paths, depth=2)
    boosted = label_dataset(world, paths, depth=2, crowd_boost=3)
    # every sample sensed in a crowded voxel gains two extra copies
    crowd = crowding_mask(world.occupancy)
    n_crowded = sum(1 for p in paths for v in p.waypoints[:-1]
                    if crowd[v[0], v[1], v[2]])
    assert n_crowded > 0
    assert len(boosted) == len(plain) + 2 * n_crowded
    # boosting adds exact copies, never new rows
    rows_plain = np.unique(np.hstack([plain.fifo_vectors, plain.targets]),
                           axis=0)
    rows_boost = np.unique(np.hstack([boosted.fifo_vectors, boosted.targets]),
                           axis=0)
    assert np.array_equal(rows_plain, rows_boost)
    with pytest.raises(ConfigError):
        label_dataset(world, paths, depth=2, crowd_boost=0)
    with pytest.raises(ConfigError):
        label_dataset(world, paths, depth=2, crowd_boost=1.5)


# sha256 of the `save_dataset` bytes of two jittered, crowd-boosted
# `label_dataset` calls that share one rng (as the oracle stage shares one
# across its regions), of that rng's state after them, and of a plain replay
# of all the paths. Recorded with numpy 2.4 on x86-64.
LABEL_DIGESTS = {
    (1.0, True, 3, 3): "fbc4cd6d563ba0e0",
    (1.0, True, 2, 2): "7cccdbcdce68a26b",
    (1.0, True, 1, 0): "9ad0cc8d408eb08d",
    (1.0, False, 3, 3): "6448f82babba21a4",
    (1.0, False, 2, 2): "b938ce9476184fd0",
    (1.0, False, 1, 0): "b7778ea41dd525dd",
    (0.5, True, 3, 3): "a2439055cc40e54b",
    (0.5, True, 2, 2): "5d0e15e4896f9726",
    (0.5, True, 1, 0): "c73e3469e2e6efe2",
    (0.5, False, 3, 3): "8756381384849944",
    (0.5, False, 2, 2): "b518befa24eda2eb",
    (0.5, False, 1, 0): "f90a5d3800847b78",
}


@pytest.mark.parametrize("res,locked,p_f,p_d", list(LABEL_DIGESTS))
def test_label_dataset_pinned(tmp_path, res, locked, p_f, p_d):
    grid = worldsim.generate_world((24, 24, 8), resolution=res,
                                   density=0.15, seed=5)
    sampler = TaskSampler(build_graph(grid, vertical_locked=locked),
                          partition_regions(grid, (0.5, 0.25, 0.25)),
                          flight_z=3 if locked else None)
    rng = np.random.default_rng(11)
    paths = [sampler.sample("train", 8.0 * res, rng).path for _ in range(5)]
    # a one-waypoint path yields no sample; waypoint lists are accepted too
    paths[2:2] = [[paths[0].waypoints[0]], paths[1].waypoints]
    sensor = worldsim.SensorConfig(p_f, p_d, max_range=100.0 if p_d else 6.0)
    h = hashlib.sha256()
    for part in (paths[:3], paths[3:]):
        ds = label_dataset(grid, part, depth=4, sensor=sensor, jitter=0.3,
                           rng=rng, crowd_boost=3)
        save_dataset(ds, tmp_path / "ds.bin")
        h.update((tmp_path / "ds.bin").read_bytes())
    h.update(repr(rng.bit_generator.state).encode())
    plain = label_dataset(grid, paths, depth=2, sensor=sensor)
    save_dataset(plain, tmp_path / "ds.bin")
    h.update((tmp_path / "ds.bin").read_bytes())
    assert h.hexdigest()[:16] == LABEL_DIGESTS[(res, locked, p_f, p_d)]


def test_label_dataset_boosts_where_the_whole_grid_is_crowded():
    # an open grid, so sensed voxels lie on its faces too: the boost reads
    # the crowding of the box around the sensed voxels, which must equal
    # the whole grid's crowding there
    rng = np.random.default_rng(3)
    occ = rng.random((10, 9, 4)) < 0.3
    occ[0, 0, 1] = occ[9, 8, 2] = occ[0, 8, 3] = False
    grid = worldsim.VoxelGrid(dims=(10, 9, 4), resolution=0.5, occupancy=occ)
    crowd = pathoracle.crowding_mask(occ)
    free = np.argwhere(~occ)
    paths = [[(0, 0, 1), (9, 8, 2), (0, 8, 3), (4, 4, 0)]]
    paths += [[tuple(v) for v in free[rng.choice(len(free), 5)]] for _ in range(6)]
    seen = set()
    for path in paths:
        reps = [3 if crowd[v] else 1 for v in path[:-1]]
        seen.update(reps)
        plain = label_dataset(grid, [path], depth=2)
        boosted = label_dataset(grid, [path], depth=2, crowd_boost=3)
        assert np.array_equal(boosted.fifo_vectors,
                              np.repeat(plain.fifo_vectors, reps, axis=0))
    assert seen == {1, 3}


def test_label_rollouts_crowd_boost(world, flat_graph):
    regions = partition_regions(world, (0.5, 0.25, 0.25))
    sampler = TaskSampler(flat_graph, regions, flight_z=3)
    rng = np.random.default_rng(14)
    crowd = flat_graph.crowding
    task = None
    for _ in range(40):
        t = sampler.sample("train", 8.0, rng)
        if crowd[t.spawn[0], t.spawn[1], t.spawn[2]]:
            task = t
            break
    assert task is not None

    def lazy_policy(x):
        return np.zeros(3)        # hovers at the crowded spawn voxel

    plain = label_rollouts(world, flat_graph, [task], lazy_policy, depth=2,
                           max_steps=5)
    boosted = label_rollouts(world, flat_graph, [task], lazy_policy, depth=2,
                             max_steps=5, crowd_boost=4)
    assert len(plain) == 5
    assert len(boosted) == 20
    with pytest.raises(ConfigError):
        label_rollouts(world, flat_graph, [task], lazy_policy, depth=2,
                       max_steps=5, crowd_boost=-2)


def test_label_rollouts_oracle_policy(world, flat_graph):
    regions = partition_regions(world, (0.5, 0.25, 0.25))
    sampler = TaskSampler(flat_graph, regions, flight_z=3)
    rng = np.random.default_rng(11)
    tasks = [sampler.sample("train", 6.0, rng) for _ in range(3)]
    ds_parts = []
    for task in tasks:
        # drive label_rollouts with a policy that flies the optimal hops
        pts = world.center_of(task.path.waypoints)
        state_k = {"k": 0}

        def policy(x, pts=pts, state_k=state_k):
            k = min(state_k["k"], len(pts) - 2)
            state_k["k"] += 1
            return np.clip(pts[k + 1] - pts[k], -2.0, 2.0)

        ds = label_rollouts(world, flat_graph, [task], policy, depth=4)
        ds_parts.append(ds)
        assert np.all(np.abs(ds.targets) <= 2.0 + 1e-12)
        # the episode terminates early once inside the goal radius, so the
        # rollout covers a prefix of the replayed waypoints; shortest paths
        # tie, so compare optimality, not identity: every label must be the
        # first hop of some shortest path from the visited voxel
        replay = label_dataset(world, [task.path], depth=4)
        assert 0 < len(ds) <= len(replay)
        res = world.resolution
        gv = task.goal
        for k in range(len(ds)):
            v = world.voxel_of(pts[k])
            w = world.voxel_of(pts[k] + ds.targets[k])   # hops never clip
            edge = res * math.hypot(w[0] - v[0], w[1] - v[1])
            rest = astar(flat_graph, w, gv).length
            assert astar(flat_graph, v, gv).length == pytest.approx(edge + rest)
    merged = merge_datasets(ds_parts[0], ds_parts[1])
    assert len(merged) == len(ds_parts[0]) + len(ds_parts[1])


def test_label_rollouts_budget_and_goal_voxel(world, flat_graph):
    regions = partition_regions(world, (0.5, 0.25, 0.25))
    sampler = TaskSampler(flat_graph, regions, flight_z=3)
    task = sampler.sample("train", 8.0, np.random.default_rng(12))

    def lazy_policy(x):
        return np.zeros(3)        # hovers forever

    ds = label_rollouts(world, flat_graph, [task], lazy_policy, depth=4,
                        max_steps=7)
    assert len(ds) == 7           # one labeled state per budgeted step
    assert np.allclose(ds.fifo_vectors[1].reshape(4, -1)[0][:worldsim.FORWARD_RAYS],
                       ds.fifo_vectors[2].reshape(4, -1)[1][:worldsim.FORWARD_RAYS])
    # a task already inside the goal radius produces no labels at all
    t0 = Task(spawn=task.goal, goal=task.goal,
              path=OptimalPath(waypoints=[task.goal], length=0.0))
    with pytest.raises(ConfigError):
        label_rollouts(world, flat_graph, [t0], lazy_policy, depth=4)


def test_label_rollouts_zero_budget_flies_no_steps(world, flat_graph):
    # max_steps=0 is a budget of no steps, not the default budget
    regions = partition_regions(world, (0.5, 0.25, 0.25))
    sampler = TaskSampler(flat_graph, regions, flight_z=3)
    task = sampler.sample("train", 8.0, np.random.default_rng(12))
    calls = []

    def lazy_policy(x):
        calls.append(x)
        return np.zeros(3)

    with pytest.raises(ConfigError, match="no rollout states"):
        label_rollouts(world, flat_graph, [task], lazy_policy, depth=4,
                       max_steps=0)
    assert calls == []
    assert len(label_rollouts(world, flat_graph, [task], lazy_policy, depth=4,
                              max_steps=None)) >= 60     # the default budget


def test_merge_datasets_rejects_mismatch():
    a = LabeledDataset(fifo_vectors=np.zeros((2, 4 * OBS_WIDTH)),
                       targets=np.zeros((2, 3)), depth=4)
    b = LabeledDataset(fifo_vectors=np.zeros((2, 2 * OBS_WIDTH)),
                       targets=np.zeros((2, 3)), depth=2)
    with pytest.raises(ConfigError):
        merge_datasets(a, b)
    c = LabeledDataset(fifo_vectors=np.ones((3, 4 * OBS_WIDTH)),
                       targets=np.ones((3, 3)), depth=4)
    m = merge_datasets(a, c)
    assert len(m) == 5
    assert np.all(m.fifo_vectors[:2] == 0.0) and np.all(m.fifo_vectors[2:] == 1.0)


# ---------------------------------------------------------------------------
# file formats

def test_paths_round_trip(tmp_path):
    paths = [[(1, 2, 3), (2, 2, 3), (3, 3, 3)], [(5, 5, 5)]]
    file = tmp_path / "paths.txt"
    save_paths(paths, file)
    assert load_paths(file) == paths
    # OptimalPath inputs serialize identically
    save_paths([OptimalPath(waypoints=paths[0], length=1.0 + SQRT2)], file)
    assert load_paths(file) == [paths[0]]


def test_paths_bad_line(tmp_path):
    file = tmp_path / "bad.txt"
    file.write_text("1 2 3\n4 5\n")
    with pytest.raises(LoadError):
        load_paths(file)
    for text in (b"1 2 3\n4 5 x\n", b"1 2 3\n4 5 6.5\n", b"1 2 3\n4 5 \xff\n"):
        file.write_bytes(text)
        with pytest.raises(LoadError):
            load_paths(file)


def test_dataset_round_trip(tmp_path, world, flat_graph):
    regions = partition_regions(world, (0.5, 0.25, 0.25))
    sampler = TaskSampler(flat_graph, regions, flight_z=3)
    rng = np.random.default_rng(8)
    paths = [sampler.sample("train", 5.0, rng).path for _ in range(2)]
    ds = label_dataset(world, paths, depth=3)
    file = tmp_path / "ds.bin"
    save_dataset(ds, file, config_hash="deadbeef01234567")
    loaded, h = load_dataset(file)
    assert h == "deadbeef01234567"
    assert loaded.depth == 3 and loaded.p_f == 3 and loaded.p_d == 3
    assert loaded.obs_width == OBS_WIDTH
    # one float32 round trip is lossy against float64 sources, but a second
    # save/load of the already-quantized data is byte-identical
    file2 = tmp_path / "ds2.bin"
    save_dataset(loaded, file2, config_hash="deadbeef01234567")
    assert file.read_bytes() == file2.read_bytes()
    assert np.allclose(loaded.fifo_vectors, ds.fifo_vectors, atol=1e-6)
    assert np.allclose(loaded.targets, ds.targets, atol=1e-6)


def test_dataset_rejects_corruption(tmp_path):
    ds = LabeledDataset(fifo_vectors=np.zeros((2, 2 * OBS_WIDTH)),
                        targets=np.zeros((2, 3)), depth=2)
    file = tmp_path / "ds.bin"
    save_dataset(ds, file)
    raw = file.read_bytes()
    (tmp_path / "trunc.bin").write_bytes(raw[:-5])
    with pytest.raises(LoadError):
        load_dataset(tmp_path / "trunc.bin")
    (tmp_path / "magic.bin").write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(LoadError):
        load_dataset(tmp_path / "magic.bin")
    # header fields that are not counts
    head, _, body = raw.partition(b"\n")
    fields = head.split(b" ")
    for k, bad in ((2, b"wide"), (3, b"0"), (6, b"-1"), (6, b"1e3")):
        mangled = fields[:k] + [bad] + fields[k + 1:]
        (tmp_path / "field.bin").write_bytes(b" ".join(mangled) + b"\n" + body)
        with pytest.raises(LoadError):
            load_dataset(tmp_path / "field.bin")
    # power levels the sensor lacks: fields 4 and 5 are p_f and p_d
    for k, bad in ((4, b"9"), (4, b"0"), (5, b"-2"), (5, b"4")):
        mangled = fields[:k] + [bad] + fields[k + 1:]
        (tmp_path / "power.bin").write_bytes(b" ".join(mangled) + b"\n" + body)
        with pytest.raises(LoadError, match="power levels"):
            load_dataset(tmp_path / "power.bin")
    # non-finite record values, in a FIFO feature and in a target
    for bad, at in ((np.nan, 0), (np.inf, len(body) - 4), (-np.inf, len(body) - 4)):
        mangled = bytearray(body)
        mangled[at:at + 4] = np.array([bad], dtype="<f4").tobytes()
        (tmp_path / "value.bin").write_bytes(head + b"\n" + bytes(mangled))
        with pytest.raises(LoadError):
            load_dataset(tmp_path / "value.bin")
