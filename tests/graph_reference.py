"""Reference motion-graph edges: the per-edge `MapGraph.neighbors` body that
ran one `segment_hits` call per candidate edge before the edges came from a
cached table per z slice. Kept verbatim so the table can be tested against
it for exact equality."""
from slimnav import worldsim
from slimnav.pathoracle import MapGraph


def reference_neighbors(graph: MapGraph, v):
    p = graph.grid.center_of(v)
    for dx, dy, dz, cost in graph.moves:
        w = (v[0] + dx, v[1] + dy, v[2] + dz)
        if not graph.is_vertex(w):
            continue
        if dx != 0 and dy != 0:
            # diagonals need both orthogonal neighbors free, otherwise the
            # edge grazes an obstacle corner with zero clearance
            if not (graph.free[v[0] + dx, v[1], v[2]] and
                    graph.free[v[0], v[1] + dy, v[2]]):
                continue
        if worldsim.segment_hits(graph.grid, p, graph.grid.center_of(w) - p) is not None:
            continue
        yield w, cost


class ReferenceGraph(MapGraph):
    """A MapGraph whose `neighbors` is the reference, so `astar` over it is
    the reference search."""

    def neighbors(self, v):
        return reference_neighbors(self, v)
