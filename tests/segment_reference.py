"""Reference segment test: the vectorised `segment_hits` that the drone's
collision test used before it became a scalar loop. Kept verbatim so the
fast path can be tested against it for exact equality."""
import math

import numpy as np

from slimnav.worldsim import VoxelGrid


def vector_segment_hits(grid: VoxelGrid, start, delta):
    """First blocked sample point along start -> start+delta, or None.

    Samples at spacing <= resolution/2, endpoint included, start excluded.
    The collision test of drone motion. It blocks none of the motion
    graph's edges (see `pathoracle.edge_table`).
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
