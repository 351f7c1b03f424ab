"""The cached edge table of `MapGraph` against the per-edge `neighbors` it
replaced (`graph_reference.py`): equal neighbour lists on every free vertex,
and equal A* results, on seeded worlds at several resolutions."""
import numpy as np
import pytest

from graph_reference import ReferenceGraph, reference_neighbors
from slimnav.errors import NoPathError
from slimnav.pathoracle import astar, build_graph
from slimnav.worldsim import VoxelGrid, generate_world

RESOLUTIONS = (1.0, 0.5, 0.3, 0.7)


def open_grid(resolution, seed):
    """Random occupancy with no enclosing wall, so moves and segment samples
    can leave the grid through any face."""
    occ = np.random.default_rng(seed).random((17, 16, 4)) < 0.2
    return VoxelGrid(dims=occ.shape, resolution=resolution, occupancy=occ)


def worlds():
    for i, res in enumerate(RESOLUTIONS):
        yield pytest.param(generate_world((18, 16, 8), resolution=res,
                                          density=0.15, seed=11 + i),
                           id=f"world-{res}")
        yield pytest.param(open_grid(res, 7 + i), id=f"open-{res}")


@pytest.mark.parametrize("locked", [True, False], ids=["locked", "unlocked"])
@pytest.mark.parametrize("grid", worlds())
def test_neighbors_equal_reference_on_every_free_vertex(grid, locked):
    graph = build_graph(grid, vertical_locked=locked)
    for v in map(tuple, np.argwhere(graph.free).tolist()):
        assert list(graph.neighbors(v)) == list(reference_neighbors(graph, v)), v


@pytest.mark.parametrize("locked", [True, False], ids=["locked", "unlocked"])
@pytest.mark.parametrize("grid", worlds())
def test_astar_equals_reference_search(grid, locked):
    graph = build_graph(grid, vertical_locked=locked)
    ref = ReferenceGraph(graph.grid, locked, graph.free, graph.moves)
    verts = np.argwhere(graph.free)
    if locked:
        verts = verts[verts[:, 2] == verts[len(verts) // 2, 2]]
    rng = np.random.default_rng(3)
    for _ in range(6):
        s, g = (tuple(verts[i].tolist()) for i in rng.choice(len(verts), 2))
        for weight in (0.0, 0.5):
            try:
                want = astar(ref, s, g, weight)
            except NoPathError:
                with pytest.raises(NoPathError):
                    astar(graph, s, g, weight)
                continue
            got = astar(graph, s, g, weight)
            assert got.waypoints == want.waypoints
            assert got.length == want.length
            assert got.expanded == want.expanded


def test_edge_table_is_built_once_per_slice():
    graph = build_graph(generate_world((16, 16, 8), density=0.1, seed=2))
    assert graph.edges(3) is graph.edges(3)
    assert set(graph._edges) == {3}
    list(graph.neighbors((5, 5, 4)))
    assert set(graph._edges) == {3, 4}
