"""Reference voxel traversal: the lockstep DDA loop that `cast_rays` used
before it became loop-free (Amanatides & Woo 1987, "A Fast Voxel Traversal
Algorithm for Ray Tracing"). Kept verbatim so the fast path can be tested
against it for exact equality."""
import numpy as np

from slimnav.errors import SensorError
from slimnav.worldsim import DEFAULT_MAX_RANGE, VoxelGrid


def dda_cast_rays(grid: VoxelGrid, origin, directions, max_range: float = DEFAULT_MAX_RANGE) -> np.ndarray:
    """Distance along each (unit) direction to the first occupied voxel, in
    meters, capped at max_range. Voxel traversal, all rays marched in lockstep.

    Raises SensorError if the origin sits inside an occupied voxel.
    """
    origin = np.asarray(origin, dtype=float)
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if grid.occupied_at(origin):
        raise SensorError(f"ray origin {origin.tolist()} is inside an occupied voxel")
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(norms == 0):
        raise ValueError("ray direction must be nonzero")
    dirs = dirs / norms[:, None]

    res = grid.resolution
    occ = grid.occupancy
    n = dirs.shape[0]
    voxel = np.tile(np.floor(origin / res).astype(np.int64), (n, 1))
    nonzero = dirs != 0.0
    step = np.where(dirs > 0, 1, -1)
    step[~nonzero] = 0
    safe = np.where(nonzero, dirs, 1.0)
    inv = np.where(nonzero, 1.0 / safe, np.inf)
    next_boundary = (voxel + (step > 0)) * res
    t_max = np.full_like(dirs, np.inf)
    t_max[nonzero] = ((next_boundary - origin) * np.where(nonzero, inv, 1.0))[nonzero]
    t_delta = np.where(nonzero, np.abs(inv) * res, np.inf)

    depth = np.full(n, float(max_range))
    alive = np.ones(n, dtype=bool)
    dims = np.array(grid.dims, dtype=np.int64)
    while True:
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        tm = t_max[idx]
        ax = np.argmin(tm, axis=1)
        t_cross = tm[np.arange(idx.size), ax]
        over = t_cross > max_range
        alive[idx[over]] = False
        sub = idx[~over]
        if sub.size == 0:
            continue
        axk = ax[~over]
        voxel[sub, axk] += step[sub, axk]
        t_max[sub, axk] += t_delta[sub, axk]
        v = voxel[sub]
        inb = np.all((v >= 0) & (v < dims[None, :]), axis=1)
        hit = ~inb
        if inb.any():
            vi = v[inb]
            hit[inb] = occ[vi[:, 0], vi[:, 1], vi[:, 2]]
        if hit.any():
            depth[sub[hit]] = t_cross[~over][hit]
            alive[sub[hit]] = False
    return depth
