"""Oracle: the cube complex that stores its edges, as dual.py built it
before a complex became its 0-cube list.

StoredEdgeComplex keeps one Orientation per 0-cube, one adjacency dict
per vertex and the sorted, deduplicated edge triples; stored_edge_dual
is the flip walk that appended each edge it found.  The tests build the
same complexes both ways and compare every derived view.

It is also the one complex that may leave out induced edges: the tests
build hand-made and edge-dropped complexes as StoredEdgeComplex, and
is_median_complex judges them by dual.is_median_set on their 0-cubes
plus the check for left-out edges.

It also keeps what only the tests read off a complex: breadth-first
distances along a complex's edges, and a simplicial complex's degree
sequence.
"""

from cubecrys.dual import (
    COMPLEX_FORMAT,
    MembershipError,
    Orientation,
    _member_clauses,
    is_median_set,
)
from cubecrys.sgnperm import SimplicialComplex


class StoredEdgeComplex:
    """0-cubes, single-wall edges, and the implicit flag structure.

    Vertices are indexed in discovery order; edges are triples
    (u, v, wall) with u < v.
    """

    def __init__(self, num_walls, orientations, edges, wallspace=None):
        orientations = tuple(orientations)
        if not orientations:
            raise ValueError("a complex needs at least one 0-cube")
        bits = [o.bits for o in orientations]
        index = dict(zip(bits, range(len(bits))))
        if len(index) != len(bits):
            raise ValueError("duplicate 0-cubes")
        if any(o.n != num_walls for o in orientations):
            raise ValueError("orientation width differs from wall count")
        canon_edges = []
        adjacency = [{} for _ in bits]
        for u, v, wall in edges:
            if not (0 <= u < len(bits) and 0 <= v < len(bits)):
                raise ValueError("edge (%d, %d) has an endpoint outside "
                                 "the %d 0-cubes" % (u, v, len(bits)))
            if bits[u] ^ bits[v] != 1 << wall:
                raise ValueError(
                    "edge (%d, %d) does not flip exactly wall %d" % (u, v, wall))
            if u > v:
                u, v = v, u
            canon_edges.append((u, v, wall))
            adjacency[u][wall] = v
            adjacency[v][wall] = u
        seen = bytearray(len(bits))
        seen[0] = 1
        stack = [0]
        while stack:
            for nb in adjacency[stack.pop()].values():
                if not seen[nb]:
                    seen[nb] = 1
                    stack.append(nb)
        if 0 in seen:
            raise ValueError("1-skeleton is not connected")
        self.num_walls = num_walls
        self.orientations = orientations
        self.edges = tuple(dict.fromkeys(sorted(canon_edges)))
        self.wallspace = wallspace
        self._index = index
        self._adjacency = adjacency

    def vertex_count(self) -> int:
        return len(self.orientations)

    def edge_count(self) -> int:
        return len(self.edges)

    def index_of(self, x: Orientation) -> int:
        if x.n != self.num_walls or x.bits not in self._index:
            raise MembershipError(
                "orientation %r is not a 0-cube of this complex" % (x,))
        return self._index[x.bits]

    def neighbors(self, idx: int) -> dict:
        return dict(self._adjacency[idx])

    def to_json_dict(self) -> dict:
        if self.wallspace is not None:
            walls_json = [w.to_json_dict() for w in self.wallspace.walls]
        else:
            walls_json = []
        return {
            "format": COMPLEX_FORMAT,
            "walls": walls_json,
            "zero_cubes": [o.to_bitstring() for o in self.orientations],
            "edges": [[u, v] for u, v, _ in self.edges],
        }


def bfs_distances(c, start: int) -> list:
    """Breadth-first distances from 0-cube `start` along the edges of c,
    a walked dual or a StoredEdgeComplex; -1 marks an unreached 0-cube.
    A real search over c.neighbors, not a count of separating walls."""
    dist = [-1] * c.vertex_count()
    dist[start] = 0
    queue = [start]
    for at in queue:
        step = dist[at] + 1
        for nb in c.neighbors(at).values():
            if dist[nb] < 0:
                dist[nb] = step
                queue.append(nb)
    return dist


def degree_sequence(c) -> tuple:
    """The sorted vertex degrees of a SimplicialComplex."""
    return tuple(sorted(map(c.degree, c.vertices)))


def stored_edge_walk(forbid, start, within=None):
    """(queue, edges): the flip walk that lists each flip (u, v, j) with
    u < v once, or None once it leaves `within`."""
    flips = [(j, 1 << j, rules) for j, rules in enumerate(forbid)]
    queue = [start]
    index = {start: 0}
    edges = []
    for head, bits in enumerate(queue):
        for j, bit, rules in flips:
            flipped = bits ^ bit
            rule0, rule1 = rules[1] if flipped & bit else rules[0]
            if flipped & rule1 or ~flipped & rule0:
                continue
            v = index.get(flipped)
            if v is None:
                if within is not None and flipped not in within:
                    return None
                v = index[flipped] = len(queue)
                queue.append(flipped)
            if v > head:
                edges.append((head, v, j))
    return queue, edges


def window_clauses(ws):
    """(forbid, base): the clause table of ws's pairwise side tests, in
    _flip_closure's layout, and the base point's bitmask."""
    nwalls = len(ws.walls)
    forbid = [[[0, 1 << j], [1 << j, 0]] for j in range(nwalls)]
    for i in range(nwalls):
        for j in range(i + 1, nwalls):
            for si in (0, 1):
                for sj in (0, 1):
                    if not ws.sides_compatible(i, si, j, sj):
                        forbid[i][si][sj] |= 1 << j
                        forbid[j][sj][si] |= 1 << i
    base = sum(1 << i for i in range(nwalls) if ws.base_side(i))
    return forbid, base


def stored_edge_dual(ws) -> StoredEdgeComplex:
    """The dual of ws with every edge the walk found stored."""
    nwalls = len(ws.walls)
    queue, edges = stored_edge_walk(*window_clauses(ws))
    return StoredEdgeComplex(nwalls, [Orientation(b, nwalls) for b in queue],
                             edges, wallspace=ws)


def stored_is_median_graph(c: StoredEdgeComplex) -> bool:
    """The linear median check on the stored edges."""
    closure = stored_edge_walk(_member_clauses(c._index, c.num_walls),
                               c.orientations[0].bits, within=c._index)
    return closure is not None and len(closure[1]) == c.edge_count()


def stored_link_of_vertex(c: StoredEdgeComplex, v: Orientation):
    """The flag complex of edges at v, read off the adjacency dicts."""
    at = c.index_of(v)
    adjacent = c.neighbors(at)
    flippable = sorted(adjacent)
    edges = []
    for a in range(len(flippable)):
        for b in range(a + 1, len(flippable)):
            i, j = flippable[a], flippable[b]
            corner = v.bits ^ (1 << i) ^ (1 << j)
            if corner not in c._index:
                continue
            corner_idx = c._index[corner]
            ni, nj = adjacent[i], adjacent[j]
            if (c._adjacency[ni].get(j) == corner_idx
                    and c._adjacency[nj].get(i) == corner_idx):
                edges.append((i, j))
    return SimplicialComplex(flippable, edges)


def left_out_edges(c) -> set:
    """The pairs (u, v, wall), u < v, of c's 0-cubes that differ on one
    wall but are not an edge of c."""
    bits = [o.bits for o in c.orientations]
    induced = {(u, v, j) for u, b in enumerate(bits)
               for j in range(c.num_walls)
               if (v := c._index.get(b ^ 1 << j, -1)) > u}
    return induced - set(c.edges)


def is_median_complex(c) -> bool:
    """The median verdict on any complex: no induced edge left out, and
    the 0-cubes a median set by dual.is_median_set."""
    return not left_out_edges(c) and is_median_set(c._index, c.num_walls)
