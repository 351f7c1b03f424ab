"""Voxel flight world: procedural occupancy grids, depth-ray sensing, drone
motion with segment collision checks, the observation FIFO, and the
closed-loop flight that ties sensing, FIFO and motion together.

This is the one module that knows the sensor: its power levels, the rays
each level acquires, where their depths sit in an observation vector, and
which network inputs those rays are (`ObservationLayout.input_mask`).

World frame: the grid spans [0, n*resolution) meters on each axis, voxel
(i, j, k) covers [i*res, (i+1)*res) x ... ; the outermost voxel shell is
always occupied so the volume is enclosed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .errors import ConfigError, LoadError, Range, SensorError, check_ranges

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
# Most voxels a world may hold: its masks and edge tables cost about 13
# bytes per voxel, so this caps them near 200 MB, 512x above the largest
# world configured here (64x64x8). Checked before anything is allocated.
MAX_VOXELS = 2**24
DEFAULT_MAX_RANGE = 100.0
DEFAULT_GOAL_RADIUS = 2.0
DEFAULT_MAX_STEP = 2.0
# rays per cast_rays call when sensing many poses: enough to share the
# call's fixed cost, few enough to keep its memory small
SENSE_BATCH_RAYS = 400
DISTANCE_SCALE = 100.0    # goal distance normalization, meters

WORLD_MAGIC = "NAVIWORLD v1"

FORWARD_LEVELS = (1, 2, 3)
DOWNWARD_LEVELS = (0, 1, 2, 3)
# the (p_f, p_d) power pairs of the fewest and of the most rays
MIN_POWER = (min(FORWARD_LEVELS), min(DOWNWARD_LEVELS))
MAX_POWER = (max(FORWARD_LEVELS), max(DOWNWARD_LEVELS))


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
# the entries of an observation vector that hold the rays a (p_f, p_d) pair
# acquires, forward rays first
_RAY_COLUMNS = {(f, d): np.concatenate([_FORWARD_IDX[f], FORWARD_RAYS + _DOWNWARD_IDX[d]])
                for f in FORWARD_LEVELS for d in DOWNWARD_LEVELS}

# angular offsets across the square FOV, endpoints included
_FWD_ANGLES = np.deg2rad(np.linspace(-45.0, 45.0, FORWARD_GRID))
_DOWN_TAN = np.tan(np.deg2rad(np.linspace(-45.0, 45.0, DOWNWARD_GRID)))


_FWD_COS_EL = np.cos(_FWD_ANGLES)[:, None]
_FWD_SIN_EL = np.sin(_FWD_ANGLES)[:, None]
# the rows, and the columns, of the 8x8 grid that forward_level_indices(k) acquires
_FWD_SQUARE = {k: slice(3 - k, FORWARD_GRID - 3 + k) for k in FORWARD_LEVELS}


def forward_ray_directions(heading: float, level: int = MAX_POWER[0]) -> np.ndarray:
    """Unit directions of the forward rays acquired at power `level` (the
    central square of the 8x8 grid; all 64 at the top level), row major
    over (elevation, azimuth), azimuth measured relative to `heading`
    (radians)."""
    sq = _FWD_SQUARE[level]
    az = heading + _FWD_ANGLES      # the whole row, as the full set takes its cosines
    cos_el = _FWD_COS_EL[sq]
    n = len(cos_el)
    dirs = np.empty((n, n, 3))
    dirs[:, :, 0] = cos_el * np.cos(az)[sq]
    dirs[:, :, 1] = cos_el * np.sin(az)[sq]
    dirs[:, :, 2] = _FWD_SIN_EL[sq]
    return dirs.reshape(-1, 3)


def _downward_ray_directions() -> np.ndarray:
    tx, ty = np.meshgrid(_DOWN_TAN, _DOWN_TAN, indexing="ij")
    dirs = np.stack([tx, ty, -np.ones_like(tx)], axis=-1).reshape(-1, 3)
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


_DOWN_DIRS = _downward_ray_directions()
# the downward directions each level acquires
_DOWN_LEVEL_DIRS = {k: _DOWN_DIRS[_DOWNWARD_IDX[k]] for k in DOWNWARD_LEVELS}


@dataclass
class VoxelGrid:
    """Enclosed boolean occupancy grid with a fixed metric resolution."""

    dims: tuple[int, int, int]
    resolution: float
    occupancy: np.ndarray
    seed: int = 0
    density: float = 0.0

    def voxel_of(self, point) -> tuple[int, int, int]:
        """Voxel holding `point`, inside the grid or not. ValueError for a
        non-finite point, which no voxel holds."""
        x, y, z = (np.asarray(point, dtype=float) / self.resolution).tolist()
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ValueError(f"no voxel holds the point {np.asarray(point).tolist()}")
        return (math.floor(x), math.floor(y), math.floor(z))

    def center_of(self, v) -> np.ndarray:
        """Metric centre of voxel `v` (or of each row of an index array);
        the inverse of `voxel_of`."""
        return (np.asarray(v, dtype=float) + 0.5) * self.resolution

    def in_bounds(self, v) -> bool:
        return all(0 <= v[a] < self.dims[a] for a in range(3))

    def occupied_at(self, point) -> bool:
        """Whether `point` lies in an occupied voxel. A point outside the
        grid counts as solid, and so does a non-finite one."""
        x, y, z = (np.asarray(point, dtype=float) / self.resolution).tolist()
        nx, ny, nz = self.dims
        if not (0 <= x < nx and 0 <= y < ny and 0 <= z < nz):   # NaN fails too
            return True
        return bool(self.occupancy[int(x), int(y), int(z)])


def check_dims(dims) -> None:
    """ConfigError unless `dims` holds three sizes of at least MIN_DIMS
    whose product is at most MAX_VOXELS."""
    if len(dims) != 3 or any(d < m for d, m in zip(dims, MIN_DIMS)):
        raise ConfigError(f"dims must be at least {MIN_DIMS}, got {dims}")
    if math.prod(dims) > MAX_VOXELS:
        raise ConfigError(f"dims {dims} hold more than {MAX_VOXELS} voxels")


def generate_world(dims, resolution: float = 1.0, density: float = 0.0,
                   seed: int = 0) -> VoxelGrid:
    """Procedural world: enclosed shell plus axis-aligned cuboid obstacles.

    `density` is the target fraction of interior columns containing an
    obstacle. Pure function of (dims, resolution, density, seed).
    """
    dims = tuple(int(d) for d in dims)
    check_dims(dims)
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
    if nx * ny * nz > MAX_VOXELS:
        raise LoadError(f"{path}: header declares {nx * ny * nz} voxels, "
                        f"more than {MAX_VOXELS}")
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
    # the runs must cover the header's voxels exactly before any are allocated
    total = nx * ny * nz
    bits, counts = [], []
    pos = 0
    for ln in body:
        parts = ln.split()
        try:
            n, bit = int(parts[0]), int(parts[1])
        except (IndexError, ValueError) as e:
            raise LoadError(f"{path}: bad run line {ln!r}") from e
        if bit not in (0, 1) or n <= 0 or pos + n > total:
            raise LoadError(f"{path}: invalid run {ln!r}")
        bits.append(bit)
        counts.append(n)
        pos += n
    if pos != total:
        raise LoadError(f"{path}: occupancy has {pos} voxels, expected {total}")
    flat = np.repeat(np.array(bits, dtype=bool), counts)
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
        d = self.goal - self.position
        return math.sqrt(d.dot(d))


@dataclass(frozen=True)
class SensorConfig:
    """Depth sensor power levels: forward in FORWARD_LEVELS, downward in
    DOWNWARD_LEVELS."""

    p_f: int = MAX_POWER[0]
    p_d: int = MAX_POWER[1]
    max_range: Annotated[float, Range(0, lo_open=True)] = DEFAULT_MAX_RANGE

    def __post_init__(self):
        check_ranges(self)
        if self.p_f not in FORWARD_LEVELS:
            raise ConfigError(f"p_f must be in {FORWARD_LEVELS}, got {self.p_f}")
        if self.p_d not in DOWNWARD_LEVELS:
            raise ConfigError(f"p_d must be in {DOWNWARD_LEVELS}, got {self.p_d}")


def _origin_voxels(grid: VoxelGrid, origin: np.ndarray) -> np.ndarray:
    """Voxel of the origin `(3,)`, or of each origin `(n, 3)`, as int64.
    Raises SensorError for the first origin outside the grid or inside an
    occupied voxel, naming its row when there is one origin per ray."""
    if origin.ndim == 1:
        x, y, z = (origin / grid.resolution).tolist()
        nx, ny, nz = grid.dims
        # int() is floor on a point inside the grid; NaN fails the test
        if 0 <= x < nx and 0 <= y < ny and 0 <= z < nz and \
                not grid.occupancy[int(x), int(y), int(z)]:
            return np.array((int(x), int(y), int(z)), dtype=np.int64)
    cell = np.floor(origin / grid.resolution)
    if origin.ndim == 2 and (cell >= 0).all() and (cell < grid.dims).all():  # NaN fails
        voxel = cell.astype(np.int64)
        if not grid.occupancy[tuple(voxel.T)].any():
            return voxel
    rows = cell.reshape(-1, 3)
    inside = np.all((rows >= 0) & (rows < grid.dims), axis=1)
    bad = ~inside
    bad[inside] = grid.occupancy[tuple(rows[inside].astype(np.int64).T)]
    r = int(np.argmax(bad))
    what = "inside an occupied voxel" if inside[r] else "outside the grid"
    row = f" (row {r})" if origin.ndim == 2 else ""
    raise SensorError(f"ray origin {origin.reshape(-1, 3)[r].tolist()}{row} is {what}")


def cast_rays(grid: VoxelGrid, origin, directions, max_range: float = DEFAULT_MAX_RANGE) -> np.ndarray:
    """Distance along each (unit) direction to the first occupied voxel, in
    meters, capped at max_range. `origin` is one point `(3,)` that every
    ray starts from, or one point per ray `(n, 3)`.

    Voxel traversal (Amanatides & Woo 1987) without a per-step loop. A ray
    leaves its voxel at a sequence of boundary crossings; on each axis the
    next crossing time is the previous one plus `|1/d| * res`. A ray's
    crossings of all three axes are taken in time order, the lowest axis
    first on ties (an edge or a corner crossed exactly), and the ray stops
    at the first crossing that is past `max_range` (depth `max_range`) or
    enters a voxel that is occupied or outside the grid (depth: that
    crossing's time). Crossing times are summed one term at a time, so the
    depths equal, bit for bit, those of stepping the rays one crossing at a
    time, whichever rays share a call.

    Each ray's work is bounded by its own crossings: on each axis, those up
    to where it leaves the grid or passes `max_range`, plus one, and never
    more than that axis's `dims`. Memory grows with the number of rays in
    the call times their mean crossing count, plus the crossings of the
    longest columns beyond twice that mean. A direction component so small
    that its reciprocal overflows counts as zero, and a direction whose
    norm under- or overflows is divided by its largest |component| before
    it is normalised.

    What a call costs: a fixed part of about 60 numpy calls, whatever the
    ray count, plus a part that grows with the crossings, of which the
    stable sort into time order is the largest. On a 2-vCPU x86-64 VM
    (numpy 2.4, one BLAS thread) a sensor call from one origin takes about
    0.15 ms at 16 rays and 0.25 ms at 100, so casting many poses' rays in
    one call (`sense_poses`) shares the fixed part.

    Raises SensorError if an origin is outside the grid or inside an
    occupied voxel (naming the first such row of a per-ray origin), and
    ValueError for an origin of another shape, a zero or non-finite
    direction, or a max_range that is NaN or not positive.
    """
    origin = np.asarray(origin, dtype=float)
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if origin.shape != (3,) and origin.shape != (len(dirs), 3):
        raise ValueError(f"origin must have shape (3,) or ({len(dirs)}, 3), "
                         f"got {origin.shape}")
    voxel = _origin_voxels(grid, origin)
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(dirs * dirs, 1))   # np.linalg.norm's sum
    odd = ~(np.isfinite(norms) & (norms > 0))
    if odd.any():
        big = np.abs(dirs[odd]).max(axis=1)
        if not np.all(np.isfinite(dirs[odd]).all(axis=1) & (big > 0)):
            raise ValueError("ray direction must be nonzero and finite")
        dirs = dirs.copy()
        dirs[odd] /= big[:, None]
        norms[odd] = np.linalg.norm(dirs[odd], axis=1)
    if not max_range > 0:
        raise ValueError(f"max_range must be positive, got {max_range}")
    dirs = dirs / norms[:, None]
    n = dirs.shape[0]
    if n == 0:
        return np.empty(0)

    res = grid.resolution
    dims = np.array(grid.dims, dtype=np.int64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        t_delta = np.abs(inv) * res
        # the axes a ray crosses at all; sensor rays move on every axis
        still = ~np.isfinite(t_delta)
        still = still if still.any() else None
        step = np.where(dirs > 0, 1, -1)
        if still is not None:
            step[still] = 0
        t_first = ((voxel + (step > 0)) * res - origin) * inv
        # crossings per axis up to and including the one that leaves the
        # grid; a ray needs them only up to its earliest exit or max_range,
        # and one more absorbs the rounding of this estimate (a NaN from
        # an overflowed first crossing asks for one)
        exits = np.where(step > 0, dims - voxel, voxel + 1)
        t_leave = t_first + (exits - 1) * t_delta
        if still is not None:
            t_first[still] = np.inf
            t_leave[still] = np.inf
        # a row's minimum, one column at a time: cheaper than min(axis=1)
        # over three entries, and a minimum does not depend on the order
        t_end = np.minimum(np.minimum(t_leave[:, 0], t_leave[:, 1]),
                           np.minimum(t_leave[:, 2], max_range))
        reach = np.floor((t_end[:, None] - t_first) / t_delta) + 2
        count = np.fmin(np.fmax(reach, 1), exits)
        if still is not None:
            count[still] = 0
    # column c = 3r + a lists ray r's crossings of axis a
    count = count.astype(np.int64).reshape(-1)
    ends = count.cumsum()
    per_ray = count[0::3] + count[1::3] + count[2::3]
    ray_ends = ends[2::3]
    total = int(ends[-1])

    # a column's crossing times are the running sums t_first, t_first +
    # t_delta, ..., one cumsum down the rows of a block of columns. Every
    # column gets the rows `head` (about twice the mean count, so most
    # columns end there); the longer ones continue in `tail` from their
    # last head row, so the additions stay in order
    ncol = 3 * n
    k = int(count.max())
    s = min(k, 2 * total // ncol + 1)
    long = np.flatnonzero(count > s)
    buf = np.empty(s * ncol + (k - s + 1) * long.size)
    head = buf[:s * ncol].reshape(s, ncol)
    tail = buf[s * ncol:].reshape(k - s + 1, long.size)
    head[0] = t_first.reshape(-1)
    head[1:] = t_delta.reshape(-1)
    # a sum that overflows to inf is a crossing the ray never makes
    with np.errstate(over="ignore"):
        head.cumsum(axis=0, out=head)
        tail[0] = head[s - 1, long]
        tail[1:] = t_delta.reshape(-1)[long]
        tail.cumsum(axis=0, out=tail)
    # crossing j of column c, for every column in turn: row j of `head`,
    # or for j >= s, row j - s + 1 of `tail`
    col = np.arange(ncol).repeat(count)
    j = np.arange(total) - (ends - count).repeat(count)
    at = j * ncol + col
    if long.size:
        slot = np.zeros(ncol, dtype=np.int64)
        slot[long] = np.arange(long.size)
        later = np.flatnonzero(j >= s)
        at[later] = s * ncol + (j[later] - s + 1) * long.size + slot[col[later]]
    # keyed (ray, time): a ray's crossings are contiguous and axis-major,
    # so a stable sort merges them in time order with ties lowest-axis-first
    key = np.empty(total, dtype=complex)
    key.real = np.arange(n).repeat(per_ray)
    key.imag = buf[at]
    order = key.argsort(kind="stable")

    # flat index of the voxel each crossing enters. The crossing that
    # leaves the grid, the last of its column when the column reaches the
    # grid's edge, also adds `leave`: that puts it and every later
    # crossing of its ray past the last voxel, and stops the ray there
    occ = grid.occupancy.reshape(-1)
    leave = 4 * occ.size        # more than a ray's own steps can undo
    stride = np.array([dims[1] * dims[2], dims[2], 1])
    moves = (step * stride).reshape(-1)[col]
    moves[ends[count == exits.reshape(-1)] - 1] += leave
    flat = moves[order].cumsum()
    # each ray restarts from its origin
    restart = voxel @ stride - np.concatenate(([0], flat[ray_ends[:-1] - 1]))
    flat += restart.repeat(per_ray)
    inside = np.minimum(flat, occ.size - 1)
    stop = occ[inside]
    stop |= flat > inside
    first = np.minimum.reduceat(np.where(stop, np.arange(total), total),
                                ray_ends - per_ray)
    depth = np.full(n, np.inf)
    found = first < total
    depth[found] = key.imag[order[first[found]]]
    depth[depth > max_range] = max_range
    return depth


def segment_hits(grid: VoxelGrid, start, delta):
    """First blocked sample point along start -> start+delta, or None.

    Samples at spacing <= resolution/2, endpoint included, start excluded:
    with n = ceil(|delta| / (resolution/2)) samples, sample i (1..n) is
    start + (i/n) * delta. A sample outside the grid counts as blocked.
    The collision test of drone motion. It blocks none of the motion
    graph's edges (see `pathoracle.edge_table`).

    A call is one Python loop over its samples, at most 7 for a motion of
    max_step 2 m at resolution 1, each a few float operations and at most
    one occupancy lookup; the loop stops at the first blocked sample.
    """
    delta = np.asarray(delta, dtype=float)
    length = math.sqrt(delta.dot(delta))     # np.linalg.norm's arithmetic
    if length == 0.0:
        return None
    res = grid.resolution
    n = max(1, int(math.ceil(length / (res / 2.0))))
    sx, sy, sz = np.asarray(start, dtype=float).tolist()
    dx, dy, dz = delta.tolist()
    nx, ny, nz = grid.dims
    occ = grid.occupancy
    for i in range(1, n + 1):
        t = i / n
        x, y, z = sx + t * dx, sy + t * dy, sz + t * dz
        u, v, w = x / res, y / res, z / res
        # int() is floor on a point inside the grid
        if not (0 <= u < nx and 0 <= v < ny and 0 <= w < nz) or \
                occ[int(u), int(v), int(w)]:
            return np.array((x, y, z))
    return None


def clamp_motion(delta, max_step: float = DEFAULT_MAX_STEP,
                 vertical_locked: bool = False) -> np.ndarray:
    """The motion command `delta` (x, y, z) clipped per component to
    [-max_step, max_step], z set to 0 when vertical motion is locked. A NaN
    component stays NaN, as under np.clip; the clip runs on Python floats,
    which costs a fraction of np.clip on three values."""
    x, y, z = np.asarray(delta, dtype=float).tolist()
    lo = -max_step
    return np.array((min(max(x, lo), max_step), min(max(y, lo), max_step),
                     0.0 if vertical_locked else min(max(z, lo), max_step)), dtype=float)


def step(grid: VoxelGrid, state: DroneState, delta,
         goal_radius: float = DEFAULT_GOAL_RADIUS,
         max_step: float = DEFAULT_MAX_STEP) -> DroneState:
    """Apply one motion command and return the successor state.

    The command is clamped per component to [-max_step, max_step] (z forced
    to 0 when vertical motion is locked). The swept segment is collision
    checked at <= resolution/2 spacing; the first blocked sample stops the
    drone there with terminal "collided". A command with a NaN component
    (clamping has already bounded +-inf) moves nothing and also ends the
    flight "collided", at the current position: a navigator that emits a
    non-finite motion has failed the flight.
    """
    if state.terminal != ACTIVE:
        raise ValueError(f"cannot step a terminal state ({state.terminal})")
    d = clamp_motion(delta, max_step, state.vertical_locked)
    if np.isfinite(d).all():
        hit = segment_hits(grid, state.position, d)
    else:
        hit = state.position.copy()
    if hit is not None:
        return DroneState(position=hit, goal=state.goal.copy(),
                          step_count=state.step_count + 1, terminal=COLLIDED,
                          vertical_locked=state.vertical_locked)
    pos = state.position + d
    to_goal = pos - state.goal
    reached = math.sqrt(to_goal.dot(to_goal)) <= goal_radius
    return DroneState(position=pos, goal=state.goal.copy(),
                      step_count=state.step_count + 1,
                      terminal=REACHED if reached else ACTIVE,
                      vertical_locked=state.vertical_locked)


def _aim(position, goal, config: SensorConfig):
    """Ray directions at the configured power levels (forward rays first),
    unit goal direction and goal distance of the sensor at `position`
    aimed toward `goal`."""
    to_goal = goal - position
    dist = math.sqrt(to_goal.dot(to_goal))     # np.linalg.norm's arithmetic
    goal_vec = to_goal / dist if dist > 0 else np.zeros(3)
    heading = 0.0
    gx, gy, _ = to_goal.tolist()
    if math.hypot(gx, gy) > 1e-9:
        heading = math.atan2(gy, gx)
    dirs = np.concatenate([forward_ray_directions(heading, config.p_f),
                           _DOWN_LEVEL_DIRS[config.p_d]])
    return dirs, goal_vec, dist


def sense(grid: VoxelGrid, state: DroneState, config: SensorConfig,
          last_action=None) -> np.ndarray:
    """The OBS_WIDTH observation vector of the drone at `state`: the
    one-pose `sense_poses`. `last_action` is the previous motion command
    already normalized to [-1, 1] (zero if None)."""
    if state.terminal != ACTIVE:
        raise ValueError(f"cannot sense from a terminal state ({state.terminal})")
    last = np.zeros((1, 3)) if last_action is None else [last_action]
    return sense_poses(grid, state.position[None], state.goal[None], config, last)[0]


def sense_poses(grid: VoxelGrid, positions, goals, config: SensorConfig,
                last_actions) -> np.ndarray:
    """The observation vectors of P poses, as a (P, OBS_WIDTH) array: row p is
    sensed at positions[p] toward goals[p], with last_actions[p] as the
    previous command.

    A row holds the depths of the rays acquired at the configured power
    levels, normalized by max_range (forward rays first, then downward; an
    unacquired ray's entry is 0), then the unit goal direction, the goal
    distance over DISTANCE_SCALE, and the last action. The forward FOV is
    centered on the horizontal direction toward the goal (+x when the goal
    is straight above or below).

    The rays of consecutive poses go to `cast_rays` together, at most
    SENSE_BATCH_RAYS per call (and at least one pose), so the fixed cost
    of a call is shared while its memory stays bounded. A call of one pose
    casts from its single origin, which is cheaper than one per ray."""
    positions = np.asarray(positions, dtype=float)
    cols = _RAY_COLUMNS[config.p_f, config.p_d]
    rays = cols.size
    batch = max(1, SENSE_BATCH_RAYS // rays)
    g = FORWARD_RAYS + DOWNWARD_RAYS
    out = np.zeros((len(positions), OBS_WIDTH))
    for lo in range(0, len(positions), batch):
        hi = min(lo + batch, len(positions))
        dirs = []
        for p in range(lo, hi):
            d, goal_vec, dist = _aim(positions[p], goals[p], config)
            dirs.append(d)
            out[p, g:g + 3] = goal_vec
            out[p, g + 3] = dist / DISTANCE_SCALE
        origin = (positions[lo] if hi - lo == 1
                  else np.repeat(positions[lo:hi], rays, axis=0))
        depths = cast_rays(grid, origin, np.concatenate(dirs),
                           config.max_range) / config.max_range
        out[lo:hi, cols] = depths.reshape(hi - lo, rays)
    out[:, g + 4:] = last_actions
    return out


def mean_depths(obs, config: SensorConfig) -> tuple[float, float]:
    """Mean normalized depth of the forward and of the downward rays that
    the observation vector `obs` acquired at `config`'s power levels; the
    downward mean is nan at a level that acquires no rays."""
    # np.mean's arithmetic: the sum over the count
    f_idx, d_idx = _FORWARD_IDX[config.p_f], _DOWNWARD_IDX[config.p_d]
    down = (float(np.add.reduce(obs[FORWARD_RAYS + d_idx])) / d_idx.size
            if d_idx.size else float("nan"))
    return float(np.add.reduce(obs[f_idx])) / f_idx.size, down


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
        self.slots[1:] = self.slots[:-1]      # numpy copies overlapping rows safely
        self.slots[0] = vec
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

    def observe(self, config: SensorConfig) -> np.ndarray:
        """Sense at `config`, push the observation, and return the flattened
        FIFO, whose first OBS_WIDTH entries are that observation."""
        self.fifo.push(sense(self.grid, self.state, config, last_action=self.last_action))
        return self.fifo.flatten()

    def move(self, motion) -> DroneState:
        """Apply one motion command (clamped as `step` clamps it) and return
        the new state. The clamped command, normalized by max_step, is the
        last action of the next observation. `step` clamps it once more,
        which changes nothing and costs about a microsecond: every flight
        moves through `step`, the one step rule."""
        d = clamp_motion(motion, self.max_step, self.state.vertical_locked)
        self.state = step(self.grid, self.state, d,
                          goal_radius=self.goal_radius, max_step=self.max_step)
        self.last_action = d / self.max_step
        return self.state


@dataclass(frozen=True)
class ObservationLayout:
    """Structure of the flattened FIFO input: `depth` stacked observation
    slots, each OBS_WIDTH wide."""

    depth: int = 4

    def slot_mask(self, p_f: int, p_d: int) -> np.ndarray:
        """Active-entry mask of a single observation at the given power levels.
        Goal and last-action features are always active."""
        mask = np.zeros(OBS_WIDTH, dtype=bool)
        mask[_RAY_COLUMNS[p_f, p_d]] = True
        mask[FORWARD_RAYS + DOWNWARD_RAYS:] = True
        return mask

    def input_mask(self, p_f: int, p_d: int) -> np.ndarray:
        """Active-input mask of a FIFO of observations acquired at (p_f,
        p_d): the slot mask tiled across all `depth` slots."""
        return np.tile(self.slot_mask(p_f, p_d), self.depth)
