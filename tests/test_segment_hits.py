"""The scalar `segment_hits` against the vectorised one it replaced: the same
None or the same point, bit for bit, on random grids, starts and motions."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from segment_reference import vector_segment_hits
from slimnav.worldsim import VoxelGrid, generate_world, segment_hits


@st.composite
def grids(draw):
    """Open random grids, whose segments can leave through any face, at
    resolutions other than 1 too."""
    res = draw(st.sampled_from([1.0, 0.5, 0.25, 0.3, 2.0, 1.7]))
    dims = tuple(draw(st.integers(1, 10)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    occ = rng.random(dims) < draw(st.sampled_from([0.0, 0.1, 0.3, 0.6]))
    return VoxelGrid(dims=dims, resolution=res, occupancy=occ)


@st.composite
def starts(draw, grid):
    """A point inside the grid, on a voxel face, edge or corner, or outside
    it (on some axes)."""
    kind = draw(st.sampled_from(["inside", "face", "outside"]))
    point = []
    for n in grid.dims:
        v = draw(st.integers(0, n - 1))
        if kind == "inside":
            frac = draw(st.floats(0.0, 1.0, exclude_max=True))
        elif kind == "face":
            frac = draw(st.sampled_from([0.0, 0.5, 1.0]))
        else:
            v, frac = draw(st.sampled_from([-2, -1, n, n + 1])), draw(st.floats(0.0, 1.0))
        point.append((v + frac) * grid.resolution)
    return np.array(point)


@st.composite
def deltas(draw, grid):
    """Zero, tiny, negative and multi-voxel motions, and axis-aligned ones."""
    kind = draw(st.sampled_from(["zero", "tiny", "voxels", "axis"]))
    if kind == "zero":
        return np.zeros(3)
    if kind == "tiny":
        return np.array([draw(st.floats(-1e-9, 1e-9)) for _ in range(3)])
    span = 6 * grid.resolution
    d = np.array([draw(st.floats(-span, span)) for _ in range(3)])
    if kind == "axis":       # along one axis or within one plane
        for a in draw(st.sets(st.integers(0, 2), min_size=1, max_size=2)):
            d[a] = 0.0
    return d


def assert_same(grid, start, delta):
    want = vector_segment_hits(grid, start, delta)
    got = segment_hits(grid, start, delta)
    if want is None:
        assert got is None
    else:
        assert got is not None and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_segment_hits_equals_vectorised_reference(data):
    grid = data.draw(grids())
    start = data.draw(starts(grid))
    for _ in range(4):
        assert_same(grid, start, data.draw(deltas(grid)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_segment_hits_equals_reference_on_flight_motions(data):
    # drone motions: from free points of an enclosed world, up to max_step
    # (2 m) per axis, as `step` checks them
    res = data.draw(st.sampled_from([1.0, 0.5, 0.3]))
    grid = generate_world((16, 16, 8), resolution=res, density=0.3,
                          seed=data.draw(st.integers(0, 2**16)))
    free = np.argwhere(~grid.occupancy)
    v = free[data.draw(st.integers(0, len(free) - 1))]
    frac = np.array([data.draw(st.floats(0.0, 1.0, exclude_max=True)) for _ in range(3)])
    start = (v + frac) * res
    delta = np.array([data.draw(st.floats(-2.0, 2.0)) for _ in range(3)])
    assert_same(grid, start, delta)
