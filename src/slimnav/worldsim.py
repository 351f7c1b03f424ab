"""Voxel flight world: procedural occupancy grids, depth-ray sensing, drone
motion with segment collision checks, the observation FIFO, and the
closed-loop flight that ties sensing, FIFO and motion together.

World frame: the grid spans [0, n*resolution) meters on each axis, voxel
(i, j, k) covers [i*res, (i+1)*res) x ... ; the outermost voxel shell is
always occupied so the volume is enclosed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LoadError, SensorError

# drone terminal states
ACTIVE = "active"
COLLIDED = "collided"
REACHED = "reached"

FORWARD_GRID = 8          # 8x8 ray directions over a 90 deg square FOV
DOWNWARD_GRID = 6         # 6x6 ray directions over a 90 deg cone below
FORWARD_RAYS = FORWARD_GRID**2
DOWNWARD_RAYS = DOWNWARD_GRID**2
GOAL_FEATURES = 4         # unit goal direction (3) + normalized distance (1)
ACTION_FEATURES = 3       # previous motion command, normalized by max step
OBS_WIDTH = FORWARD_RAYS + DOWNWARD_RAYS + GOAL_FEATURES + ACTION_FEATURES

MIN_DIMS = (16, 16, 8)
DEFAULT_MAX_RANGE = 100.0
DEFAULT_GOAL_RADIUS = 2.0
DEFAULT_MAX_STEP = 2.0
DISTANCE_SCALE = 100.0    # goal distance normalization, meters

WORLD_MAGIC = "NAVIWORLD v1"

FORWARD_LEVELS = (1, 2, 3)
DOWNWARD_LEVELS = (0, 1, 2, 3)


def forward_level_indices(level: int) -> np.ndarray:
    """Ray indices (into the 8x8 grid, row major) acquired at forward power level.

    Levels acquire nested central squares: 1 -> 4x4, 2 -> 6x6, 3 -> all 8x8.
    """
    if level not in FORWARD_LEVELS:
        raise ValueError(f"forward power level must be in {FORWARD_LEVELS}, got {level}")
    margin = 3 - level
    rows = range(margin, FORWARD_GRID - margin)
    return np.array([r * FORWARD_GRID + c for r in rows for c in rows], dtype=int)


def downward_level_indices(level: int) -> np.ndarray:
    """Ray indices (into the 6x6 grid) acquired at downward power level.

    Level 0 acquires nothing; 1 -> 2x2, 2 -> 4x4, 3 -> all 6x6. Nested.
    """
    if level not in DOWNWARD_LEVELS:
        raise ValueError(f"downward power level must be in {DOWNWARD_LEVELS}, got {level}")
    if level == 0:
        return np.empty(0, dtype=int)
    margin = 3 - level
    rows = range(margin, DOWNWARD_GRID - margin)
    return np.array([r * DOWNWARD_GRID + c for r in rows for c in rows], dtype=int)


_FORWARD_IDX = {k: forward_level_indices(k) for k in FORWARD_LEVELS}
_DOWNWARD_IDX = {k: downward_level_indices(k) for k in DOWNWARD_LEVELS}

# angular offsets across the square FOV, endpoints included
_FWD_ANGLES = np.deg2rad(np.linspace(-45.0, 45.0, FORWARD_GRID))
_DOWN_TAN = np.tan(np.deg2rad(np.linspace(-45.0, 45.0, DOWNWARD_GRID)))


def forward_ray_directions(heading: float) -> np.ndarray:
    """Unit directions (64, 3) of the forward sensor, row major over
    (elevation, azimuth), azimuth measured relative to `heading` (radians)."""
    az = heading + _FWD_ANGLES
    el = _FWD_ANGLES
    cos_el = np.cos(el)[:, None]
    dirs = np.empty((FORWARD_GRID, FORWARD_GRID, 3))
    dirs[:, :, 0] = cos_el * np.cos(az)[None, :]
    dirs[:, :, 1] = cos_el * np.sin(az)[None, :]
    dirs[:, :, 2] = np.tile(np.sin(el)[:, None], (1, FORWARD_GRID))
    return dirs.reshape(-1, 3)


def _downward_ray_directions() -> np.ndarray:
    tx, ty = np.meshgrid(_DOWN_TAN, _DOWN_TAN, indexing="ij")
    dirs = np.stack([tx, ty, -np.ones_like(tx)], axis=-1).reshape(-1, 3)
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


_DOWN_DIRS = _downward_ray_directions()


@dataclass
class VoxelGrid:
    """Enclosed boolean occupancy grid with a fixed metric resolution."""

    dims: tuple[int, int, int]
    resolution: float
    occupancy: np.ndarray
    seed: int = 0
    density: float = 0.0

    def extent(self) -> np.ndarray:
        return np.array(self.dims, dtype=float) * self.resolution

    def voxel_of(self, point) -> tuple[int, int, int]:
        v = np.floor(np.asarray(point, dtype=float) / self.resolution).astype(int)
        return (int(v[0]), int(v[1]), int(v[2]))

    def center_of(self, v) -> np.ndarray:
        """Metric centre of voxel `v` (or of each row of an index array);
        the inverse of `voxel_of`."""
        return (np.asarray(v, dtype=float) + 0.5) * self.resolution

    def in_bounds(self, v) -> bool:
        return all(0 <= v[a] < self.dims[a] for a in range(3))

    def occupied_voxel(self, v) -> bool:
        if not self.in_bounds(v):
            return True  # outside the grid counts as solid
        return bool(self.occupancy[v[0], v[1], v[2]])

    def occupied_at(self, point) -> bool:
        return self.occupied_voxel(self.voxel_of(point))


def generate_world(dims, resolution: float = 1.0, density: float = 0.0,
                   seed: int = 0) -> VoxelGrid:
    """Procedural world: enclosed shell plus axis-aligned cuboid obstacles.

    `density` is the target fraction of interior columns containing an
    obstacle. Pure function of (dims, resolution, density, seed).
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d < m for d, m in zip(dims, MIN_DIMS)):
        raise ConfigError(f"world dims must be at least {MIN_DIMS}, got {dims}")
    if not 0.0 <= density <= 1.0:
        raise ConfigError(f"density must be in [0, 1], got {density}")
    if resolution <= 0:
        raise ConfigError(f"resolution must be positive, got {resolution}")
    nx, ny, nz = dims
    occ = np.zeros(dims, dtype=bool)
    occ[0, :, :] = occ[-1, :, :] = True
    occ[:, 0, :] = occ[:, -1, :] = True
    occ[:, :, 0] = occ[:, :, -1] = True

    rng = np.random.default_rng(seed)
    interior_columns = (nx - 2) * (ny - 2)
    target = int(round(density * interior_columns))
    covered = np.zeros((nx, ny), dtype=bool)
    count = 0
    attempts = 0
    max_attempts = 60 * target + 100
    while count < target and attempts < max_attempts:
        attempts += 1
        wx = int(rng.integers(2, min(6, nx - 2) + 1))
        wy = int(rng.integers(2, min(6, ny - 2) + 1))
        x0 = int(rng.integers(1, nx - 1 - wx + 1))
        y0 = int(rng.integers(1, ny - 1 - wy + 1))
        h = int(rng.integers(1, nz - 1))  # obstacle rises from the floor
        occ[x0:x0 + wx, y0:y0 + wy, 1:1 + h] = True
        covered[x0:x0 + wx, y0:y0 + wy] = True
        count = int(np.count_nonzero(covered))
    return VoxelGrid(dims=dims, resolution=float(resolution), occupancy=occ,
                     seed=int(seed), density=float(density))


def save_world(grid: VoxelGrid, path, config_hash: str = "") -> None:
    """Write a grid as text: header line, metadata comment, then run-length
    encoded occupancy (C order), one `count value` pair per line."""
    nx, ny, nz = grid.dims
    flat = grid.occupancy.reshape(-1)
    lines = [f"{WORLD_MAGIC} {nx} {ny} {nz} {grid.resolution!r}"]
    meta = f"# seed={grid.seed} density={grid.density!r}"
    if config_hash:
        meta += f" config={config_hash}"
    lines.append(meta)
    # run-length encode
    change = np.flatnonzero(np.diff(flat.astype(np.int8)))
    starts = np.concatenate([[0], change + 1])
    ends = np.concatenate([change + 1, [flat.size]])
    for s, e in zip(starts, ends):
        lines.append(f"{e - s} {int(flat[s])}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_world(path) -> tuple[VoxelGrid, str]:
    """Inverse of save_world; returns the grid and the recorded config hash.
    Raises LoadError on malformed input."""
    try:
        with open(path) as f:
            lines = [ln.strip() for ln in f if ln.strip()]
    except UnicodeDecodeError as e:
        raise LoadError(f"{path}: not a text file: {e}") from e
    if not lines:
        raise LoadError(f"{path}: empty world file")
    head = lines[0].split()
    if " ".join(head[:2]) != WORLD_MAGIC:
        raise LoadError(f"{path}: bad magic {lines[0]!r}, expected {WORLD_MAGIC!r}")
    if len(head) != 6:
        raise LoadError(f"{path}: malformed header {lines[0]!r}")
    try:
        nx, ny, nz = int(head[2]), int(head[3]), int(head[4])
        resolution = float(head[5])
    except ValueError as e:
        raise LoadError(f"{path}: malformed header fields: {e}") from e
    if min(nx, ny, nz) < 1 or not 0 < resolution < math.inf:
        raise LoadError(f"{path}: malformed header {lines[0]!r}")
    seed, density, config_hash = 0, 0.0, ""
    body = lines[1:]
    if body and body[0].startswith("#"):
        for tok in body[0][1:].split():
            key, _, val = tok.partition("=")
            try:
                if key == "seed":
                    seed = int(val)
                elif key == "density":
                    density = float(val)
            except ValueError as e:
                raise LoadError(f"{path}: bad metadata {tok!r}") from e
            if not math.isfinite(density):
                raise LoadError(f"{path}: bad metadata {tok!r}")
            if key == "config":
                config_hash = val
        body = body[1:]
    total = nx * ny * nz
    flat = np.empty(total, dtype=bool)
    pos = 0
    for ln in body:
        parts = ln.split()
        try:
            n, bit = int(parts[0]), int(parts[1])
        except (IndexError, ValueError) as e:
            raise LoadError(f"{path}: bad run line {ln!r}") from e
        if bit not in (0, 1) or n <= 0 or pos + n > total:
            raise LoadError(f"{path}: invalid run {ln!r}")
        flat[pos:pos + n] = bool(bit)
        pos += n
    if pos != total:
        raise LoadError(f"{path}: occupancy has {pos} voxels, expected {total}")
    grid = VoxelGrid(dims=(nx, ny, nz), resolution=resolution,
                     occupancy=flat.reshape((nx, ny, nz)), seed=seed,
                     density=density)
    return grid, config_hash


@dataclass
class DroneState:
    position: np.ndarray
    goal: np.ndarray
    step_count: int = 0
    terminal: str = ACTIVE
    vertical_locked: bool = False

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.goal = np.asarray(self.goal, dtype=float)

    def goal_distance(self) -> float:
        return float(np.linalg.norm(self.goal - self.position))


@dataclass(frozen=True)
class SensorConfig:
    """Depth sensor power levels: forward in {1,2,3}, downward in {0,..,3}."""

    p_f: int = 3
    p_d: int = 3
    max_range: float = DEFAULT_MAX_RANGE

    def __post_init__(self):
        if self.p_f not in FORWARD_LEVELS:
            raise ConfigError(f"p_f must be in {FORWARD_LEVELS}, got {self.p_f}")
        if self.p_d not in DOWNWARD_LEVELS:
            raise ConfigError(f"p_d must be in {DOWNWARD_LEVELS}, got {self.p_d}")
        if self.max_range <= 0:
            raise ConfigError(f"max_range must be positive, got {self.max_range}")


@dataclass
class Observation:
    """One sensing snapshot. Depths are normalized by max_range; entries of
    unacquired rays are left at 0 and flagged false in the masks."""

    forward_depths: np.ndarray
    forward_mask: np.ndarray
    downward_depths: np.ndarray
    downward_mask: np.ndarray
    goal_vector: np.ndarray
    goal_distance: float
    last_action: np.ndarray

    def vector(self) -> np.ndarray:
        out = np.empty(OBS_WIDTH)
        out[:FORWARD_RAYS] = self.forward_depths
        out[FORWARD_RAYS:FORWARD_RAYS + DOWNWARD_RAYS] = self.downward_depths
        g = FORWARD_RAYS + DOWNWARD_RAYS
        out[g:g + 3] = self.goal_vector
        out[g + 3] = self.goal_distance
        out[g + 4:] = self.last_action
        return out

    def mean_forward_depth(self) -> float:
        if not self.forward_mask.any():
            return float("nan")
        return float(self.forward_depths[self.forward_mask].mean())

    def mean_downward_depth(self) -> float:
        if not self.downward_mask.any():
            return float("nan")
        return float(self.downward_depths[self.downward_mask].mean())


def cast_rays(grid: VoxelGrid, origin, directions, max_range: float = DEFAULT_MAX_RANGE) -> np.ndarray:
    """Distance along each (unit) direction to the first occupied voxel, in
    meters, capped at max_range.

    Voxel traversal (Amanatides & Woo 1987) without a per-step loop. A ray
    leaves its voxel at a sequence of boundary crossings; on each axis the
    next crossing time is the previous one plus `|1/d| * res`. A ray's
    crossings of all three axes are taken in time order, the lowest axis
    first on ties (an edge or a corner crossed exactly), and the ray stops
    at the first crossing that is past `max_range` (depth `max_range`) or
    enters a voxel that is occupied or outside the grid (depth: that
    crossing's time). Crossing times are summed one term at a time, so the
    depths equal, bit for bit, those of stepping the rays one crossing at a
    time. Work and memory are bounded by the crossings the farthest-reaching
    ray of the call makes before it leaves the grid or passes `max_range`:
    at most `sum(dims)` per ray. A direction component so small that its
    reciprocal overflows counts as zero, and a direction whose norm under-
    or overflows is divided by its largest |component| before it is
    normalised.

    Raises SensorError if the origin sits inside an occupied voxel, and
    ValueError for a zero or non-finite direction or a NaN max_range.
    """
    origin = np.asarray(origin, dtype=float)
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if grid.occupied_at(origin):
        raise SensorError(f"ray origin {origin.tolist()} is inside an occupied voxel")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(dirs, axis=1)
    odd = ~(np.isfinite(norms) & (norms > 0))
    if odd.any():
        big = np.abs(dirs[odd]).max(axis=1)
        if not np.all(np.isfinite(dirs[odd]).all(axis=1) & (big > 0)):
            raise ValueError("ray direction must be nonzero and finite")
        dirs = dirs.copy()
        dirs[odd] /= big[:, None]
        norms[odd] = np.linalg.norm(dirs[odd], axis=1)
    if math.isnan(max_range):
        raise ValueError("max_range must be a number")
    dirs = dirs / norms[:, None]
    n = dirs.shape[0]
    if n == 0:
        return np.empty(0)

    res = grid.resolution
    dims = np.array(grid.dims, dtype=np.int64)
    voxel = np.floor(origin / res).astype(np.int64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        t_delta = np.abs(inv) * res
        moving = np.isfinite(t_delta)          # the axes a ray crosses at all
        step = np.where(moving, np.where(dirs > 0, 1, -1), 0)
        t_first = ((voxel + (step > 0)) * res - origin) * inv
        t_first[~moving] = np.inf
        # crossings per axis up to and including the one that leaves the
        # grid; a ray needs them only up to its earliest exit or max_range,
        # and one more absorbs the rounding of this estimate
        exits = np.where(step > 0, dims - voxel, voxel + 1)
        t_leave = t_first + (exits - 1) * t_delta
        t_leave[~moving] = np.inf
        t_end = np.minimum(t_leave.min(axis=1), max_range)
        reach = np.floor((t_end[:, None] - t_first) / t_delta) + 2
        need = np.where(moving, np.clip(reach, 1, exits), 0).max(axis=0).astype(np.int64)

    # row r holds ray r's crossing times, axis by axis, each a running sum
    m = int(need.sum())
    start = np.concatenate(([0], np.cumsum(need)[:-1]))
    times = np.repeat(t_delta, need, axis=1)
    times[:, start[need > 0]] = t_first[:, need > 0]
    # a sum that overflows to inf is a crossing the ray never makes
    with np.errstate(over="ignore"):
        for a in range(3):
            block = times[:, start[a]:start[a] + need[a]]
            np.cumsum(block, axis=1, out=block)
    order = np.argsort(times, axis=1, kind="stable")
    order += (np.arange(n) * m)[:, None]       # flat positions in `times`

    # flat index of the voxel each crossing enters, valid up to the first
    # crossing that leaves the grid (clipped beyond it)
    stride = np.array([dims[1] * dims[2], dims[2], 1])
    flat = np.cumsum(np.repeat(step * stride, need, axis=1).reshape(-1)[order], axis=1)
    flat += int(voxel @ stride)
    occ = grid.occupancy.reshape(-1)
    hit = occ[np.clip(flat, 0, occ.size - 1, out=flat)]
    first = hit.argmax(axis=1)
    rows = np.arange(n)
    depth = np.where(hit[rows, first], times.reshape(-1)[order[rows, first]], np.inf)
    # the crossing that leaves the grid stops a ray too; any crossing at or
    # after it in time order has a clipped voxel but cannot be earlier
    last = start + np.minimum(exits, need) - 1 + (rows * m)[:, None]
    t_exit = np.where(exits <= need, times.reshape(-1)[last], np.inf).min(axis=1)
    np.minimum(depth, t_exit, out=depth)
    depth[depth > max_range] = max_range
    return depth


def segment_hits(grid: VoxelGrid, start, delta):
    """First blocked sample point along start -> start+delta, or None.

    Samples at spacing <= resolution/2, endpoint included, start excluded.
    Shared by drone motion and the motion-graph edge test.
    """
    start = np.asarray(start, dtype=float)
    delta = np.asarray(delta, dtype=float)
    length = float(np.linalg.norm(delta))
    if length == 0.0:
        return None
    n = max(1, int(math.ceil(length / (grid.resolution / 2.0))))
    ts = np.arange(1, n + 1) / n
    pts = start[None, :] + ts[:, None] * delta[None, :]
    v = np.floor(pts / grid.resolution).astype(np.int64)
    dims = np.array(grid.dims, dtype=np.int64)
    inb = np.all((v >= 0) & (v < dims[None, :]), axis=1)
    blocked = ~inb
    if inb.any():
        vi = v[inb]
        blocked[inb] = grid.occupancy[vi[:, 0], vi[:, 1], vi[:, 2]]
    if not blocked.any():
        return None
    return pts[int(np.argmax(blocked))]


def clamp_motion(delta, max_step: float = DEFAULT_MAX_STEP,
                 vertical_locked: bool = False) -> np.ndarray:
    d = np.clip(np.asarray(delta, dtype=float), -max_step, max_step)
    if vertical_locked:
        d[2] = 0.0
    return d


def step(grid: VoxelGrid, state: DroneState, delta,
         goal_radius: float = DEFAULT_GOAL_RADIUS,
         max_step: float = DEFAULT_MAX_STEP) -> DroneState:
    """Apply one motion command and return the successor state.

    The command is clamped per component to [-max_step, max_step] (z forced
    to 0 when vertical motion is locked). The swept segment is collision
    checked at <= resolution/2 spacing; the first blocked sample stops the
    drone there with terminal "collided".
    """
    if state.terminal != ACTIVE:
        raise ValueError(f"cannot step a terminal state ({state.terminal})")
    d = clamp_motion(delta, max_step, state.vertical_locked)
    hit = segment_hits(grid, state.position, d)
    if hit is not None:
        return DroneState(position=hit, goal=state.goal.copy(),
                          step_count=state.step_count + 1, terminal=COLLIDED,
                          vertical_locked=state.vertical_locked)
    pos = state.position + d
    reached = float(np.linalg.norm(pos - state.goal)) <= goal_radius
    return DroneState(position=pos, goal=state.goal.copy(),
                      step_count=state.step_count + 1,
                      terminal=REACHED if reached else ACTIVE,
                      vertical_locked=state.vertical_locked)


def sense(grid: VoxelGrid, state: DroneState, config: SensorConfig,
          last_action=None) -> Observation:
    """Acquire depth rays at the configured power levels plus goal features.

    The forward FOV is centered on the horizontal direction toward the goal
    (falls back to +x when directly above/below). `last_action` is the
    previous motion command already normalized to [-1, 1].
    """
    if state.terminal != ACTIVE:
        raise ValueError(f"cannot sense from a terminal state ({state.terminal})")
    pos = state.position
    to_goal = state.goal - pos
    dist = float(np.linalg.norm(to_goal))
    goal_vec = to_goal / dist if dist > 0 else np.zeros(3)
    heading = 0.0
    if math.hypot(to_goal[0], to_goal[1]) > 1e-9:
        heading = math.atan2(to_goal[1], to_goal[0])

    f_idx = _FORWARD_IDX[config.p_f]
    d_idx = _DOWNWARD_IDX[config.p_d]
    dirs = np.concatenate([forward_ray_directions(heading)[f_idx], _DOWN_DIRS[d_idx]])
    depths = cast_rays(grid, pos, dirs, config.max_range) / config.max_range

    forward = np.zeros(FORWARD_RAYS)
    fmask = np.zeros(FORWARD_RAYS, dtype=bool)
    forward[f_idx] = depths[:f_idx.size]
    fmask[f_idx] = True

    downward = np.zeros(DOWNWARD_RAYS)
    dmask = np.zeros(DOWNWARD_RAYS, dtype=bool)
    downward[d_idx] = depths[f_idx.size:]
    dmask[d_idx] = True

    la = np.zeros(3) if last_action is None else np.asarray(last_action, dtype=float)
    return Observation(forward_depths=forward, forward_mask=fmask,
                       downward_depths=downward, downward_mask=dmask,
                       goal_vector=goal_vec, goal_distance=dist / DISTANCE_SCALE,
                       last_action=la)


class FifoQueue:
    """Fixed-depth queue of observation vectors, newest slot first.

    Slots start zero filled, so early inputs have a cold-start prefix.
    """

    def __init__(self, depth: int, width: int = OBS_WIDTH):
        if depth < 1:
            raise ConfigError(f"fifo depth must be >= 1, got {depth}")
        self.depth = int(depth)
        self.width = int(width)
        self.slots = np.zeros((self.depth, self.width))

    def push(self, vec) -> "FifoQueue":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.width,):
            raise ValueError(f"expected vector of width {self.width}, got {vec.shape}")
        slots = np.empty_like(self.slots)
        slots[0] = vec
        slots[1:] = self.slots[:-1]
        self.slots = slots
        return self

    def flatten(self) -> np.ndarray:
        return self.slots.reshape(-1).copy()


class Flight:
    """One closed-loop flight from spawn to goal: the drone state, its
    observation FIFO and the last applied motion.

    Each step of a flight is `observe` (sense, then push the FIFO), a
    policy reading the flattened FIFO, then `move`. Every closed-loop
    caller goes through this pair, so the navigator sees the same inputs
    whether it is being relabeled or adapted.
    """

    def __init__(self, grid: VoxelGrid, spawn, goal, depth: int,
                 vertical_locked: bool = False,
                 goal_radius: float = DEFAULT_GOAL_RADIUS,
                 max_step: float = DEFAULT_MAX_STEP):
        self.grid = grid
        self.state = DroneState(position=spawn, goal=goal,
                                vertical_locked=vertical_locked)
        self.fifo = FifoQueue(depth)
        self.last_action = np.zeros(3)
        self.goal_radius = goal_radius
        self.max_step = max_step

    def observe(self, config: SensorConfig) -> tuple[np.ndarray, Observation]:
        """Sense at `config`, push the observation, and return the flattened
        FIFO together with the observation."""
        obs = sense(self.grid, self.state, config, last_action=self.last_action)
        self.fifo.push(obs.vector())
        return self.fifo.flatten(), obs

    def move(self, motion) -> DroneState:
        """Apply one motion command (clamped as `step` clamps it) and return
        the new state. The clamped command, normalized by max_step, is the
        last action of the next observation."""
        self.state = step(self.grid, self.state, motion,
                          goal_radius=self.goal_radius, max_step=self.max_step)
        self.last_action = clamp_motion(motion, self.max_step,
                                        self.state.vertical_locked) / self.max_step
        return self.state


@dataclass(frozen=True)
class ObservationLayout:
    """Structure of the flattened FIFO input: `depth` stacked observation
    slots, each OBS_WIDTH wide."""

    depth: int = 4

    @property
    def total_width(self) -> int:
        return self.depth * OBS_WIDTH

    def slot_mask(self, p_f: int, p_d: int) -> np.ndarray:
        """Active-entry mask of a single observation at the given power levels.
        Goal and last-action features are always active."""
        mask = np.zeros(OBS_WIDTH, dtype=bool)
        mask[_FORWARD_IDX[p_f]] = True
        d_idx = _DOWNWARD_IDX[p_d]
        if d_idx.size:
            mask[FORWARD_RAYS + d_idx] = True
        mask[FORWARD_RAYS + DOWNWARD_RAYS:] = True
        return mask
