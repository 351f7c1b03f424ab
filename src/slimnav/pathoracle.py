"""Optimal-path supervision: free-space motion graphs over the voxel world,
A* search, map partitioning into train/validation/test slabs, and labeling
of observation FIFOs with expert motions, either along replayed optimal
paths or at the states a policy visits when flown closed loop through
`worldsim.Flight`."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from . import worldsim
from .errors import ConfigError, LoadError, NoPathError
from .worldsim import FifoQueue, MAX_POWER, OBS_WIDTH, SensorConfig, VoxelGrid

SQRT2 = math.sqrt(2.0)

REGION_NAMES = ("train", "validation", "test")

# spawn draws a TaskSampler makes before it gives up on a task
SAMPLE_TRIES = 60
SAMPLE_TOLERANCE = 0.3     # default relative tolerance of a task's distance

DATASET_MAGIC = "NAVIDATA v1"

# 8-connected horizontal moves plus straight up/down when vertical is unlocked
HORIZONTAL_MOVES = tuple((dx, dy, 0) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                         if (dx, dy) != (0, 0))
VERTICAL_MOVES = ((0, 0, 1), (0, 0, -1))


def _shift(a: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """out[x, y] = a[x + dx, y + dy] over the first two axes; False where
    x + dx or y + dy falls outside a."""
    nx, ny = a.shape[:2]
    out = np.zeros_like(a)
    out[max(-dx, 0):nx - max(dx, 0), max(-dy, 0):ny - max(dy, 0)] = \
        a[max(dx, 0):nx - max(-dx, 0), max(dy, 0):ny - max(-dy, 0)]
    return out


def crowding_mask(occupancy: np.ndarray) -> np.ndarray:
    """True where the same-z 8-neighborhood touches an obstacle — the voxels
    where a drifting flight can clip a wall."""
    crowd = np.zeros_like(occupancy)
    for dx, dy, _ in HORIZONTAL_MOVES:
        crowd |= _shift(occupancy, dx, dy)
    return crowd


def edge_table(free: np.ndarray, moves, z: int) -> np.ndarray:
    """Edges out of slice z: `[m, x, y]` is True where (x, y, z) is free and
    move m from it lands on a free voxel, and, for a diagonal, both
    orthogonal neighbours are free too (otherwise the edge grazes an
    obstacle corner with zero clearance).

    That is the whole edge test. The drone's collision test, `segment_hits`,
    samples a move from one voxel centre to the next at spacing
    <= resolution/2; every sample rounds into the start voxel, the target
    voxel or, on a diagonal, one of the two corner voxels, so it never
    blocks an edge these lookups admit."""
    nz = free.shape[2]
    here = free[:, :, z]
    table = np.zeros((len(moves),) + here.shape, dtype=bool)
    for m, (dx, dy, dz, _) in enumerate(moves):
        if not 0 <= z + dz < nz:
            continue
        table[m] = here & _shift(free[:, :, z + dz], dx, dy)
        if dx != 0 and dy != 0:
            table[m] &= _shift(here, dx, 0) & _shift(here, 0, dy)
    return table


@dataclass
class MapGraph:
    """Vertices are free voxels (one per voxel center); edges connect
    neighbors whose center-to-center segment passes the same collision test
    the drone motion uses. `neighbors` reads the edges from one table per
    z slice (`edge_table`), built on the first visit to the slice and
    cached."""

    grid: VoxelGrid
    vertical_locked: bool
    free: np.ndarray
    moves: tuple
    _crowding: np.ndarray | None = field(default=None, repr=False)
    _edges: dict = field(default_factory=dict, repr=False)

    def is_vertex(self, v) -> bool:
        return self.grid.in_bounds(v) and bool(self.free[v[0], v[1], v[2]])

    @property
    def crowding(self) -> np.ndarray:
        """True where the same-z 8-neighborhood touches an obstacle. Input
        to the clearance-shaped search cost."""
        if self._crowding is None:
            self._crowding = crowding_mask(self.grid.occupancy)
        return self._crowding

    def edges(self, z: int) -> np.ndarray:
        """`edges(z)[m, x, y]`: whether move m from free vertex (x, y, z)
        is an edge."""
        table = self._edges.get(z)
        if table is None:
            table = self._edges[z] = edge_table(self.free, self.moves, z)
        return table

    def neighbors(self, v):
        """(neighbour, move cost) of free vertex v, in `moves` order."""
        x, y, z = v
        for (dx, dy, dz, cost), ok in zip(self.moves,
                                          self.edges(z)[:, x, y].tolist()):
            if ok:
                yield (x + dx, y + dy, z + dz), cost


def build_graph(grid: VoxelGrid, vertical_locked: bool = False) -> MapGraph:
    res = grid.resolution
    moves = [(dx, dy, dz, res * math.sqrt(dx * dx + dy * dy + dz * dz))
             for dx, dy, dz in HORIZONTAL_MOVES]
    if not vertical_locked:
        moves += [(dx, dy, dz, res) for dx, dy, dz in VERTICAL_MOVES]
    return MapGraph(grid=grid, vertical_locked=vertical_locked,
                    free=~grid.occupancy, moves=tuple(moves))


@dataclass
class OptimalPath:
    waypoints: list
    length: float
    expanded: int = 0

    @property
    def steps(self) -> int:
        return len(self.waypoints) - 1


def path_cost(waypoints, resolution: float) -> float:
    """Canonical cost of a waypoint chain: counts orthogonal and diagonal
    hops, then forms n_orth * res + n_diag * (res * sqrt(2)). Keeping one
    fixed expression makes equal-cost paths compare exactly equal."""
    n_orth = n_diag = 0
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        step = tuple(sorted(abs(b[i] - a[i]) for i in range(3)))
        if step == (0, 0, 1):
            n_orth += 1
        elif step == (0, 1, 1) and b[2] == a[2]:
            n_diag += 1
        else:
            raise ValueError(f"illegal hop {a} -> {b}")
    return n_orth * resolution + n_diag * (resolution * SQRT2)


def _euclid(a, b, resolution: float) -> float:
    return resolution * math.sqrt((a[0] - b[0])**2 + (a[1] - b[1])**2 + (a[2] - b[2])**2)


def astar(graph: MapGraph, start, goal,
          clearance_weight: float = 0.0) -> OptimalPath:
    """A* with the Euclidean heuristic. Ties on f are broken by lower h,
    then lexicographic vertex, so expansion order is deterministic.

    With clearance_weight > 0 the search cost adds that penalty for every
    crowded vertex entered (an obstacle in its same-z 8-neighborhood), so
    the path keeps a lane of clearance wherever one exists at acceptable
    extra length. The penalty only shapes the search; the returned length
    is always the metric length of the waypoint chain. The default weight
    of zero is the plain shortest-path oracle."""
    start, goal = tuple(start), tuple(goal)
    for name, v in (("start", start), ("goal", goal)):
        if not graph.is_vertex(v):
            raise NoPathError(f"{name} voxel {v} is not a free vertex")
    if clearance_weight < 0:
        raise ConfigError(
            f"clearance_weight must be >= 0, got {clearance_weight}")
    crowding = graph.crowding if clearance_weight > 0 else None
    res = graph.grid.resolution
    h0 = _euclid(start, goal, res)
    heap = [(h0, h0, start)]
    g = {start: 0.0}
    came: dict = {}
    closed = set()
    expanded = 0
    while heap:
        _, _, v = heapq.heappop(heap)
        if v in closed:
            continue
        closed.add(v)
        expanded += 1
        if v == goal:
            waypoints = [v]
            while v in came:
                v = came[v]
                waypoints.append(v)
            waypoints.reverse()
            return OptimalPath(waypoints=waypoints,
                               length=path_cost(waypoints, res),
                               expanded=expanded)
        gv = g[v]
        for w, cost in graph.neighbors(v):
            ng = gv + cost
            if crowding is not None and crowding[w[0], w[1], w[2]]:
                ng += clearance_weight
            if w not in g or ng < g[w]:
                g[w] = ng
                came[w] = v
                hw = _euclid(w, goal, res)
                heapq.heappush(heap, (ng + hw, hw, w))
    raise NoPathError(f"no path from {start} to {goal}")


@dataclass(frozen=True)
class Region:
    name: str
    x_lo: int
    x_hi: int


def region_edges(nx: int, fractions) -> list[int]:
    """x edges of the train/validation/test slabs of a map `nx` voxels long.
    ConfigError unless the fractions are three positive numbers summing to
    1 and every slab is at least 2 voxels wide."""
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != len(REGION_NAMES):
        raise ConfigError(f"expected {len(REGION_NAMES)} fractions, got {len(fractions)}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must sum to 1, got {fractions}")
    if any(f <= 0.0 for f in fractions):
        raise ConfigError(f"every region needs a positive fraction, got {fractions}")
    edges = [0]
    acc = 0.0
    for f in fractions:
        acc += f
        edges.append(int(round(acc * nx)))
    edges[-1] = nx
    for name, lo, hi in zip(REGION_NAMES, edges[:-1], edges[1:]):
        if hi - lo < 2:
            raise ConfigError(f"region {name!r} slab [{lo},{hi}) is too narrow")
    return edges


def partition_regions(grid: VoxelGrid, fractions) -> tuple[Region, ...]:
    """Split the map into train/validation/test slabs along x
    (`region_edges`)."""
    edges = region_edges(grid.dims[0], fractions)
    return tuple(Region(name=name, x_lo=lo, x_hi=hi)
                 for name, lo, hi in zip(REGION_NAMES, edges[:-1], edges[1:]))


@dataclass
class Task:
    """A spawn/goal pair inside one region, with its optimal path."""

    spawn: tuple
    goal: tuple
    path: OptimalPath
    region: str = ""

    def distance(self, resolution: float) -> float:
        return _euclid(self.spawn, self.goal, resolution)


class TaskSampler:
    """Draws spawn/goal tasks of a requested separation within a region."""

    def __init__(self, graph: MapGraph, regions, flight_z: int | None = None):
        self.graph = graph
        self.regions = {r.name: r for r in regions}
        self.flight_z = flight_z
        self._verts: dict[str, np.ndarray] = {}
        free = graph.free.copy()
        if graph.vertical_locked:
            if flight_z is None:
                raise ConfigError("vertical_locked graphs need a flight_z level")
            keep = np.zeros_like(free)
            keep[:, :, flight_z] = free[:, :, flight_z]
            free = keep
        for r in regions:
            ids = np.argwhere(free[r.x_lo:r.x_hi])
            ids[:, 0] += r.x_lo
            self._verts[r.name] = ids

    def sample(self, region: str, distance: float, rng,
               tolerance: float = SAMPLE_TOLERANCE) -> Task:
        """Random task whose spawn-goal separation is within
        distance * (1 +- tolerance). Raises ConfigError when the region
        cannot supply one in SAMPLE_TRIES spawn draws."""
        verts = self._verts[region]
        if len(verts) < 2:
            raise ConfigError(f"region {region!r} has too few free vertices")
        res = self.graph.grid.resolution
        lo, hi = distance * (1 - tolerance), distance * (1 + tolerance)
        for _ in range(SAMPLE_TRIES):
            s = verts[int(rng.integers(len(verts)))]
            d = np.linalg.norm((verts - s).astype(float), axis=1) * res
            cand = np.flatnonzero((d >= lo) & (d <= hi))
            if cand.size == 0:
                continue
            gidx = verts[int(cand[int(rng.integers(cand.size))])]
            try:
                path = astar(self.graph, tuple(s), tuple(gidx))
            except NoPathError:
                continue
            return Task(spawn=tuple(int(c) for c in s),
                        goal=tuple(int(c) for c in gidx), path=path, region=region)
        raise ConfigError(
            f"could not sample a {distance:.0f} m task in region {region!r} "
            f"after {SAMPLE_TRIES} tries")


@dataclass
class LabeledDataset:
    """Expert supervision: flattened observation FIFOs and the optimal next
    motion at each step of each optimal path."""

    fifo_vectors: np.ndarray
    targets: np.ndarray
    depth: int
    p_f: int = MAX_POWER[0]
    p_d: int = MAX_POWER[1]

    def __len__(self) -> int:
        return self.fifo_vectors.shape[0]

    @property
    def obs_width(self) -> int:
        return self.fifo_vectors.shape[1] // self.depth


def _check_crowd_boost(crowd_boost) -> int:
    if int(crowd_boost) != crowd_boost or crowd_boost < 1:
        raise ConfigError(
            f"crowd_boost must be a positive integer, got {crowd_boost}")
    return int(crowd_boost)


def label_dataset(grid: VoxelGrid, paths, depth: int,
                  max_step: float = worldsim.DEFAULT_MAX_STEP,
                  sensor: SensorConfig | None = None,
                  jitter: float = 0.0, rng=None,
                  crowd_boost: int = 1) -> LabeledDataset:
    """Replay each optimal path, sensing at every waypoint at the given
    (default max) power levels, and record (FIFO, next motion delta) pairs.
    A path with W waypoints yields W - 1 samples.

    With jitter > 0, each interior waypoint is sensed from a position
    perturbed horizontally by U(-jitter, jitter) per axis (kept only if
    free), and the target is corrected to point at the next waypoint from
    the perturbed position. A policy imitating the replayed paths drifts
    off the waypoint lattice at flight time; perturbed sensing supervises
    exactly those off-lattice states, which plain replay never visits.

    With crowd_boost > 1, samples sensed from a crowded voxel (obstacle in
    the same-z 8-neighborhood) are duplicated that many times. Collisions
    happen almost exclusively in crowded voxels, yet most samples come from
    open space; boosting makes the regression loss pay proportionally more
    attention where a wrong motion actually costs a crash.

    Every pose is known before any depth is read, so the poses are sensed
    in bounded batches (`worldsim.sense_poses`), not one `sense` call each;
    the samples are the same, bit for bit."""
    if sensor is None:
        sensor = SensorConfig()
    if jitter < 0:
        raise ConfigError(f"jitter must be >= 0, got {jitter}")
    if jitter > 0 and rng is None:
        rng = np.random.default_rng(0)
    crowd_boost = _check_crowd_boost(crowd_boost)
    # walk every pose first (the rng draws come in path order), then sense
    # them all in batches, then fill each path's FIFO
    positions, goals, lasts, targets, steps = [], [], [], [], []
    for path in paths:
        pts = grid.center_of(path.waypoints if isinstance(path, OptimalPath)
                             else path)
        last = np.zeros(3)
        steps.append(len(pts) - 1)
        for k in range(len(pts) - 1):
            pos = pts[k]
            if jitter > 0 and k > 0:
                for _ in range(8):
                    cand = pts[k].copy()
                    cand[:2] += rng.uniform(-jitter, jitter, size=2)
                    if not grid.occupied_at(cand):
                        pos = cand
                        break
            target = np.clip(pts[k + 1] - pos, -max_step, max_step)
            positions.append(pos)
            goals.append(pts[-1])
            lasts.append(last)
            targets.append(target)
            last = target / max_step
    if not positions:
        raise ConfigError("no paths supplied, dataset would be empty")
    obs = worldsim.sense_poses(grid, positions, goals, sensor, lasts)
    reps = np.ones(len(positions), dtype=np.int64)
    if crowd_boost > 1:
        # the crowding of the box the sensed voxels span, one voxel wider on
        # each side, is the whole grid's crowding at those voxels
        vox = np.floor(np.asarray(positions) / grid.resolution).astype(np.int64)
        lo = np.maximum(vox.min(axis=0) - 1, 0)
        hi = vox.max(axis=0) + 2
        crowd = crowding_mask(grid.occupancy[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]])
        v = vox - lo
        reps[crowd[v[:, 0], v[:, 1], v[:, 2]]] = crowd_boost
    xs, ys = [], []
    start = 0
    for n in steps:
        fifo = FifoQueue(depth, OBS_WIDTH)
        for i in range(start, start + n):
            fifo.push(obs[i])
            for _ in range(reps[i]):
                xs.append(fifo.flatten())
                ys.append(targets[i])
        start += n
    return LabeledDataset(fifo_vectors=np.asarray(xs), targets=np.asarray(ys),
                          depth=depth, p_f=sensor.p_f, p_d=sensor.p_d)


def label_rollouts(grid: VoxelGrid, graph: MapGraph, tasks, policy, depth: int,
                   max_step: float = worldsim.DEFAULT_MAX_STEP,
                   sensor: SensorConfig | None = None,
                   goal_radius: float = worldsim.DEFAULT_GOAL_RADIUS,
                   clearance_weight: float = 0.0,
                   max_steps: int | None = None,
                   crowd_boost: int = 1) -> LabeledDataset:
    """Fly the policy closed-loop over the tasks and label every visited
    state with the first hop of a fresh shortest path from its voxel to the
    goal (clipped to the step bound).

    Path replay supervises only states on the planned paths; a partially
    trained policy drifts off that set within a few steps and then flies
    unsupervised. Rollout labeling closes the loop: the states come from
    the policy, the corrections from the planner. States in the goal voxel,
    or ones the planner cannot reach the goal from, yield no sample; the
    episode simply continues until terminal or the step budget (default
    max(60, 5 * spawn-goal distance)). crowd_boost duplicates samples taken
    in crowded voxels, as in label_dataset."""
    if sensor is None:
        sensor = SensorConfig()
    crowd_boost = _check_crowd_boost(crowd_boost)
    res = grid.resolution
    hops: dict = {}

    def first_hop(v, gv):
        key = (v, gv)
        if key not in hops:
            try:
                p = astar(graph, v, gv, clearance_weight)
            except NoPathError:
                p = None
            hops[key] = None if p is None or p.steps == 0 else \
                grid.center_of(p.waypoints[1])
        return hops[key]

    xs, ys = [], []
    for task in tasks:
        gv = tuple(task.goal)
        flight = worldsim.Flight(grid, grid.center_of(task.spawn),
                                 grid.center_of(task.goal), depth,
                                 graph.vertical_locked, goal_radius, max_step)
        budget = max(60, int(5 * task.distance(res))) if max_steps is None else max_steps
        for _ in range(budget):
            x = flight.observe(sensor)
            pos = flight.state.position
            v = grid.voxel_of(pos)
            if v != gv:
                nxt = first_hop(v, gv)
                if nxt is not None:
                    reps = crowd_boost if graph.crowding[v[0], v[1], v[2]] \
                        else 1
                    target = np.clip(nxt - pos, -max_step, max_step)
                    for _ in range(reps):
                        xs.append(x)
                        ys.append(target)
            if flight.move(policy(x)).terminal != worldsim.ACTIVE:
                break
    if not xs:
        raise ConfigError("no rollout states to label, dataset would be empty")
    return LabeledDataset(fifo_vectors=np.asarray(xs), targets=np.asarray(ys),
                          depth=depth, p_f=sensor.p_f, p_d=sensor.p_d)


def merge_datasets(a: LabeledDataset, b: LabeledDataset) -> LabeledDataset:
    """Concatenate two datasets with matching depth and power levels."""
    if (a.depth, a.p_f, a.p_d) != (b.depth, b.p_f, b.p_d):
        raise ConfigError("datasets disagree on depth or power levels")
    return LabeledDataset(
        fifo_vectors=np.concatenate([a.fifo_vectors, b.fifo_vectors]),
        targets=np.concatenate([a.targets, b.targets]),
        depth=a.depth, p_f=a.p_f, p_d=a.p_d)


# file formats

def save_paths(paths, file) -> None:
    """Plain text: one `i j k` waypoint per line, blank line between paths."""
    blocks = []
    for p in paths:
        wps = p.waypoints if isinstance(p, OptimalPath) else p
        blocks.append("\n".join(f"{v[0]} {v[1]} {v[2]}" for v in wps))
    with open(file, "w") as f:
        f.write("\n\n".join(blocks) + "\n")


def load_paths(file) -> list[list[tuple[int, int, int]]]:
    """Inverse of save_paths. Raises LoadError on malformed input."""
    try:
        with open(file) as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise LoadError(f"{file}: not a text file: {e}") from e
    paths = []
    for block in text.split("\n\n"):
        block = block.strip()
        if not block:
            continue
        wps = []
        for ln in block.splitlines():
            try:
                i, j, k = (int(x) for x in ln.split())
            except ValueError as e:     # a non-integer or not 3 fields
                raise LoadError(f"{file}: bad waypoint line {ln!r}") from e
            wps.append((i, j, k))
        paths.append(wps)
    return paths


def save_dataset(ds: LabeledDataset, path, config_hash: str = "") -> None:
    """Header line with layout fields, then fixed-width little-endian float32
    records of (fifo vector, target motion)."""
    n, w = ds.fifo_vectors.shape
    header = f"{DATASET_MAGIC} {ds.obs_width} {ds.depth} {ds.p_f} {ds.p_d} {n} {config_hash}\n"
    rec = np.concatenate([ds.fifo_vectors, ds.targets], axis=1)
    with open(path, "wb") as f:
        f.write(header.encode())
        f.write(np.ascontiguousarray(rec, dtype="<f4").tobytes())


def load_dataset(path) -> tuple[LabeledDataset, str]:
    """Inverse of save_dataset; returns the dataset and the recorded config
    hash. Raises LoadError on malformed input, non-finite values included."""
    with open(path, "rb") as f:
        header = f.readline().decode(errors="replace").rstrip("\n")
        blob = f.read()
    parts = header.split()
    if " ".join(parts[:2]) != DATASET_MAGIC or len(parts) not in (7, 8):
        raise LoadError(f"{path}: bad dataset header {header!r}")
    try:
        obs_width, depth, p_f, p_d, n = (int(x) for x in parts[2:7])
    except ValueError as e:
        raise LoadError(f"{path}: bad dataset header {header!r}") from e
    if min(obs_width, depth) < 1 or n < 0:
        raise LoadError(f"{path}: bad dataset header {header!r}")
    config_hash = parts[7] if len(parts) == 8 else ""
    width = obs_width * depth + 3
    if len(blob) != 4 * n * width:
        raise LoadError(f"{path}: expected {4 * n * width} bytes, got {len(blob)}")
    rec = np.frombuffer(blob, dtype="<f4").reshape(n, width)
    if not np.isfinite(rec).all():     # before the cast, which warns on a signaling NaN
        raise LoadError(f"{path}: non-finite dataset values")
    rec = rec.astype(np.float64)
    ds = LabeledDataset(fifo_vectors=rec[:, :obs_width * depth].copy(),
                        targets=rec[:, obs_width * depth:].copy(),
                        depth=depth, p_f=p_f, p_d=p_d)
    return ds, config_hash
