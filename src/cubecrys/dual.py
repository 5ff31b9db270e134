"""Dual cube complexes of finite wallspaces.

A finite wallspace is a rational window with finitely many affine
walls.  The dual complex has one 0-cube per consistent orientation: a
choice of one open side per wall such that all chosen sides pairwise
meet.  Edges join orientations differing on a single wall, and higher
cubes are implicit in the flag structure (cliques of pairwise
flippable walls at a vertex).

Consistency of a pair of chosen sides is decided exactly: for affine
walls by one closed-form minimax test (the smaller of two affine
functions is positive somewhere in the window box exactly when every
convex combination of them is, and only n + 2 combinations need
checking), run on integers: the window and both sides of each wall are
scaled to integers once, by positive factors.  Orientations are
enumerated by breadth-first wall flipping from the base point's
orientation, never by scanning all 2^W side choices.

A complex is stored as its 0-cube bitmasks and the induced edges it
leaves out.  Two 0-cubes of a dual are joined exactly when they differ
on one wall (its 1-skeleton is the subgraph of the hypercube induced on
its 0-cubes; Chepoi), so for a dual that set is empty, and edges,
adjacency, links and the JSON layout are derived on demand.  The JSON
edge list is an IndexPairs over the sorted edge keys u * V + v, which
json_text renders from the keys in one join, with no [u, v] list per
edge.

A complex is in turn the dual of its own hyperplanes: two hyperplane
sides meet exactly when some 0-cube lies on both, so their
compatibility table is the table of one- and two-wall clauses that the
0-cubes satisfy.  The median check and the crossing test read that one
table, and the one flip walk that enumerates duals walks it.  The
duality round trip holds exactly when the 1-skeleton is a median graph
(Roller; Chepoi), so duality_check is the median check.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm
from operator import add, gt, xor

from cubecrys.exactlin import (
    IndexPairs,
    dimension_from_json,
    format_rational,
    from_format,
    parse_rational,
    read_json,
    vector_from_json,
    vector_to_json,
    write_json,
)
from cubecrys.sgnperm import SimplicialComplex
from cubecrys.walls import GeometricWall, InternalError

WALL_CAP = 24

WALLS_FORMAT = "cubecrys-walls/1"
COMPLEX_FORMAT = "cubecrys-complex/1"


class WallCapError(ValueError):
    """More walls than the enumeration cap allows."""


class WallspaceError(ValueError):
    """The wall data does not describe a valid finite wallspace."""


class MembershipError(KeyError):
    """An orientation is not a 0-cube of the complex at hand."""


class CrossingConditionError(ValueError):
    """The hypothesis of the union construction fails."""


# ---------------------------------------------------------------------------
# Exact meeting of two open halfspaces in the window box


def _integer_window(window):
    """(scale, box): the window box times the lcm of its denominators."""
    scale = lcm(*(x.denominator for bounds in window for x in bounds))
    return scale, tuple((int(lo * scale), int(hi * scale))
                        for lo, hi in window)


def _integer_halfspace(a, b, scale):
    """<a, x> + b > 0 over x = y / scale, as int (A, B): <A, y> + B > 0.

    The halfspace in y is multiplied by the lcm of the denominators, a
    positive integer, so its side of every point is unchanged.
    """
    b = b * scale
    m = lcm(b.denominator, *(e.denominator for e in a))
    return tuple(int(e * m) for e in a), int(b * m)


def _feasible(window, f, g) -> bool:
    """Do the open halfspaces f > 0 and g > 0 meet the closed window?

    The window is a box of int (lo, hi) pairs, and f and g are int pairs
    (a, b) standing for <a, x> + b.  The window is compact and convex,
    so by the minimax theorem
    max_x min(f, g) = min over t in [0, 1] of max_x (t f + (1 - t) g).
    The inner maximum takes each axis at the end of its interval that
    the sign of t a_i + (1 - t) c_i picks, so it is convex and piecewise
    linear in t and bends only where such a coefficient changes sign:
    at t = c_i / (c_i - a_i) for a_i c_i < 0.  The sides meet exactly
    when it is positive at t = 0, at t = 1 and at every such break.
    With t = p / q in lowest terms, q times it is an integer.
    """
    (a, b), (c, d) = f, g
    breaks = set()
    for ai, ci in zip(a, c):
        if ai * ci < 0:
            p, q = abs(ci), abs(ci) + abs(ai)
            r = gcd(p, q)
            breaks.add((p // r, q // r))
    for p, q in ((0, 1), (1, 1), *breaks):
        s = q - p
        value = p * b + s * d
        for ai, ci, (lo, hi) in zip(a, c, window):
            k = p * ai + s * ci
            value += k * (hi if k > 0 else lo)
        if value <= 0:
            return False
    return True


def _wall_sides(wall: GeometricWall, scale):
    """(minus, plus): the two open sides of a wall as int halfspaces
    over the window scaled by `scale`."""
    plus = _integer_halfspace(wall.normal, -wall.offset, scale)
    return (tuple(-e for e in plus[0]), -plus[1]), plus


# ---------------------------------------------------------------------------
# Wallspaces


class FiniteWallspace:
    """A rational window box, finitely many affine walls and a base point.

    Every wall splits the window, and the base point lies in the window
    on no wall.  Side tests run on integers: the window scaled once by
    the lcm of its denominators, and both sides of each wall as int
    halfspaces over it.
    """

    __slots__ = ("dimension", "window", "walls", "base_point", "_box",
                 "_sides")

    def __init__(self, dimension, window, walls, base_point):
        if len(walls) > WALL_CAP:
            raise WallCapError(
                "at most %d walls supported, got %d" % (WALL_CAP, len(walls)))
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "walls", tuple(walls))
        object.__setattr__(self, "base_point", base_point)
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("FiniteWallspace is immutable")

    @staticmethod
    def geometric(dimension, window, walls, base_point) -> "FiniteWallspace":
        """The wallspace on a window of (lo, hi) pairs and a base point,
        each entry read by exactlin.parse_rational."""
        window = tuple((parse_rational(lo), parse_rational(hi))
                       for lo, hi in window)
        return FiniteWallspace(dimension, window, walls,
                               vector_from_json(base_point))

    def _validate(self):
        n = self.dimension
        if len(self.window) != n:
            raise WallspaceError("window must give one (lo, hi) pair per axis")
        for lo, hi in self.window:
            if not lo < hi:
                raise WallspaceError("degenerate window interval [%s, %s]"
                                     % (lo, hi))
        scale, box = _integer_window(self.window)
        if len(set(self.walls)) != len(self.walls):
            raise WallspaceError("walls must be pairwise distinct "
                                 "after canonicalization")
        sides = []
        for w in self.walls:
            if not isinstance(w, GeometricWall):
                raise WallspaceError("geometric wallspace needs GeometricWall "
                                     "entries")
            if len(w.normal) != n:
                raise WallspaceError("wall normal has wrong dimension")
            sides.append(_wall_sides(w, scale))
            for h in sides[-1]:
                if not _feasible(box, h, h):
                    raise WallspaceError(
                        "wall %r does not split the window" % (w,))
        object.__setattr__(self, "_box", box)
        object.__setattr__(self, "_sides", tuple(sides))
        p = self.base_point
        if len(p) != n:
            raise WallspaceError("base point has wrong dimension")
        for (lo, hi), x in zip(self.window, p):
            if not (lo <= x <= hi):
                raise WallspaceError("base point lies outside the window")
        for w in self.walls:
            if w.side(p) == 0:
                raise WallspaceError("base point lies on wall %r" % (w,))

    # -- side primitives ----------------------------------------------

    def base_side(self, i: int) -> int:
        """0 or 1: which side of wall i the base point lies on."""
        return 1 if self.walls[i].side(self.base_point) > 0 else 0

    def sides_compatible(self, i: int, si: int, j: int, sj: int) -> bool:
        """Do the chosen open sides of walls i and j meet?"""
        if i == j:
            return si == sj
        return _feasible(self._box, self._sides[i][si], self._sides[j][sj])

    def to_json_dict(self) -> dict:
        return {
            "format": WALLS_FORMAT,
            "dimension": self.dimension,
            "window": [[format_rational(lo), format_rational(hi)]
                       for lo, hi in self.window],
            "walls": [w.to_json_dict() for w in self.walls],
            "base_point": vector_to_json(self.base_point),
        }


def wallspace_from_json_dict(d: dict) -> FiniteWallspace:
    return from_format(d, WALLS_FORMAT, WallspaceError, lambda d: (
        FiniteWallspace.geometric(
            dimension=dimension_from_json(d["dimension"], WallspaceError),
            window=[(parse_rational(lo), parse_rational(hi))
                    for lo, hi in d["window"]],
            walls=[_wall_from_json(w) for w in d["walls"]],
            base_point=vector_from_json(d["base_point"]),
        )))


def _wall_from_json(w) -> GeometricWall:
    """A wall from its JSON object {"normal": [...], "offset": "p/q"}."""
    return GeometricWall(vector_from_json(w["normal"]),
                         parse_rational(w["offset"]))


def save_wallspace(ws: FiniteWallspace, path) -> None:
    write_json(path, ws.to_json_dict())


def load_wallspace(path) -> FiniteWallspace:
    return wallspace_from_json_dict(read_json(path, WallspaceError))


# ---------------------------------------------------------------------------
# Orientations and the dual complex


class Orientation:
    """One side choice per wall, packed as a bit vector.

    Bit i set means the plus side of wall i.  Equality and hashing are
    by value, so orientations can key dictionaries.
    """

    __slots__ = ("bits", "n")

    def __init__(self, bits: int, n: int):
        if bits < 0 or bits >> n:
            raise ValueError("orientation bits out of range for %d walls" % n)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("Orientation is immutable")

    def side(self, i: int) -> int:
        return (self.bits >> i) & 1

    def flip(self, i: int) -> "Orientation":
        return Orientation(self.bits ^ (1 << i), self.n)

    def to_bitstring(self) -> str:
        # bin() of bits with a 1 above wall n - 1, read backwards
        # without its "0b1": "" for no walls.
        return bin(self.bits | 1 << self.n)[:2:-1]

    @staticmethod
    def from_bitstring(s: str) -> "Orientation":
        bits = 0
        for i, ch in enumerate(s):
            if ch == "1":
                bits |= 1 << i
            elif ch != "0":
                raise ValueError("bitstring must be over {0, 1}")
        return Orientation(bits, len(s))

    def __eq__(self, other):
        return (isinstance(other, Orientation)
                and self.bits == other.bits and self.n == other.n)

    def __hash__(self):
        return hash((self.bits, self.n))

    def __repr__(self):
        return "Orientation(%s)" % self.to_bitstring()


class CubeComplex:
    """0-cubes, single-wall edges, and the implicit flag structure.

    A complex is its list of 0-cube bitmasks (bit i set: the plus side
    of wall i), indexed in the order given, and the set of induced edges
    it leaves out.  Two 0-cubes that differ on one wall are joined by an
    edge unless that set holds the pair; it is empty for every dual,
    whose 1-skeleton is the subgraph of the hypercube induced on its
    0-cubes.  Edges (u, v, wall) with u < v, adjacency, links and the
    JSON layout are derived on demand.  Cubes above dimension one are
    never stored: a k-cube at a vertex is a k-clique of pairwise
    jointly flippable walls, which link_of_vertex exposes.

    The constructor checks its arguments: distinct 0-cubes of one width,
    edges that flip exactly the wall they name, a connected 1-skeleton.
    Repeated and reversed edges count once.
    """

    def __init__(self, num_walls, orientations, edges, wallspace=None,
                 wall_json=None):
        orientations = tuple(orientations)
        if not orientations:
            raise ValueError("a complex needs at least one 0-cube")
        bits = [o.bits for o in orientations]
        index = dict(zip(bits, range(len(bits))))
        if len(index) != len(bits):
            raise ValueError("duplicate 0-cubes")
        if any(o.n != num_walls for o in orientations):
            raise ValueError("orientation width differs from wall count")
        count = len(bits)
        given = set()
        adjacency = [[] for _ in bits]
        for u, v, wall in edges:
            if not (0 <= u < count and 0 <= v < count):
                raise ValueError("edge endpoint out of range: %r" % ((u, v),))
            if bits[u] ^ bits[v] != 1 << wall:
                raise ValueError(
                    "edge (%d, %d) does not flip exactly wall %d" % (u, v, wall))
            if u > v:
                u, v = v, u
            given.add(u * count + v)
            adjacency[u].append(v)
            adjacency[v].append(u)
        seen = bytearray(count)
        seen[0] = 1
        stack = [0]
        while stack:
            for nb in adjacency[stack.pop()]:
                if not seen[nb]:
                    seen[nb] = 1
                    stack.append(nb)
        if 0 in seen:
            raise ValueError("1-skeleton is not connected")
        realized = 0
        for u, v in map(divmod, given, repeat(count)):
            realized |= bits[u] ^ bits[v]
        self._setup(num_walls, bits, index, len(given), realized,
                    wallspace, wall_json)
        self._missing = frozenset(self._edge_keys()) - given

    @classmethod
    def _walked(cls, num_walls, bits, index, edge_count, realized,
                wallspace):
        """The complex on a flip walk's 0-cubes, unchecked: the walk's
        breadth-first order makes them distinct, of one width, connected
        and joined by single flips, and it joins every induced pair."""
        c = cls.__new__(cls)
        c._setup(num_walls, bits, index, edge_count, realized, wallspace,
                 None)
        return c

    def _setup(self, num_walls, bits, index, edge_count, realized,
               wallspace, wall_json):
        self.num_walls = num_walls
        self.wallspace = wallspace
        self.wall_json = wall_json
        self._bits = bits
        self._index = index
        self._edge_count = edge_count
        self._realized = realized
        self._orientations = _Orientations(bits, num_walls)
        # Keys u * V + v (u < v, V 0-cubes) of the induced edges left out.
        self._missing = frozenset()

    @property
    def orientations(self) -> "_Orientations":
        """The 0-cubes as Orientations, in index order."""
        return self._orientations

    @property
    def edges(self) -> tuple:
        """Every edge (u, v, wall), u < v, in sorted order."""
        bits = self._bits
        return tuple((u, v, (bits[u] ^ bits[v]).bit_length() - 1)
                     for u, v in map(divmod, self._edge_keys(),
                                     repeat(len(bits))))

    def _edge_keys(self) -> list:
        """The edges as sorted keys u * V + v with u < v.

        Per wall, one dict lookup per 0-cube finds the other end of its
        edge across that wall, if any; the lookups and the u < v filter
        run in C.
        """
        bits = self._bits
        count = len(bits)
        get = self._index.get
        us = list(range(count))
        starts = [u * count for u in us]
        keys = []
        for j in range(self.num_walls):
            ends = list(map(get, map(xor, bits, repeat(1 << j)), repeat(-1)))
            later = list(map(gt, ends, us))
            keys += map(add, compress(starts, later), compress(ends, later))
        if self._missing:
            keys = [k for k in keys if k not in self._missing]
        keys.sort()
        return keys

    def _joined(self, u: int, v: int) -> bool:
        """Is the induced pair of 0-cubes u and v an edge?"""
        if u > v:
            u, v = v, u
        return u * len(self._bits) + v not in self._missing

    def vertex_count(self) -> int:
        return len(self._bits)

    def edge_count(self) -> int:
        return self._edge_count

    def index_of(self, x: Orientation) -> int:
        if x.n != self.num_walls or x.bits not in self._index:
            raise MembershipError(
                "orientation %r is not a 0-cube of this complex" % (x,))
        return self._index[x.bits]

    def contains(self, x: Orientation) -> bool:
        return x.n == self.num_walls and x.bits in self._index

    def realized_walls(self) -> list:
        return [j for j in range(self.num_walls) if self._realized >> j & 1]

    def neighbors(self, idx: int) -> dict:
        """Map wall -> neighbor index at the given vertex."""
        b = self._bits[idx]
        get = self._index.get
        missing = self._missing
        out = {}
        for j in range(self.num_walls):
            nb = get(b ^ 1 << j)
            if nb is not None and (not missing or self._joined(idx, nb)):
                out[j] = nb
        return out

    def bfs_distances(self, start: int) -> list:
        bits = self._bits
        get = self._index.get
        flips = [1 << j for j in range(self.num_walls)]
        missing = self._missing
        dist = [-1] * len(bits)
        dist[start] = 0
        queue = [start]
        for at in queue:
            step = dist[at] + 1
            for nb in map(get, map(xor, repeat(bits[at]), flips)):
                if nb is not None and dist[nb] < 0 and (
                        not missing or self._joined(at, nb)):
                    dist[nb] = step
                    queue.append(nb)
        return dist

    def to_json_dict(self) -> dict:
        """The complex file's dict.  Its "edges" is an IndexPairs over
        the sorted edge keys: it equals the list of [u, v] rows, and
        json_text renders it in one join without making them, but
        json.dumps needs default=list to write it."""
        if self.wall_json is not None:
            walls_json = self.wall_json
        elif self.wallspace is not None:
            walls_json = [w.to_json_dict() for w in self.wallspace.walls]
        else:
            walls_json = []
        # Orientation.to_bitstring, on the bare bitmasks.
        top = 1 << self.num_walls
        count = len(self._bits)
        return {
            "format": COMPLEX_FORMAT,
            "walls": walls_json,
            "zero_cubes": [bin(b | top)[:2:-1] for b in self._bits],
            "edges": IndexPairs(self._edge_keys(), count),
        }


class _Orientations(Sequence):
    """The 0-cubes of a complex as Orientations, each made when read."""

    __slots__ = ("_bits", "_n")

    def __init__(self, bits, n):
        self._bits = bits
        self._n = n

    def __len__(self):
        return len(self._bits)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(Orientation, self._bits[k], repeat(self._n)))
        return Orientation(self._bits[k], self._n)


class ComplexFormatError(ValueError):
    """A complex file does not match the documented layout."""


def complex_from_json_dict(d: dict) -> CubeComplex:
    return from_format(d, COMPLEX_FORMAT, ComplexFormatError, _complex_from)


def _complex_from(d: dict) -> CubeComplex:
    zero = list(d["zero_cubes"])
    if not zero:
        raise ComplexFormatError("a complex needs at least one 0-cube")
    if any(type(s) is not str for s in zero):
        raise TypeError("a 0-cube must be a bitstring")
    width = len(zero[0])
    orientations = [Orientation.from_bitstring(s) for s in zero]
    if any(o.n != width for o in orientations):
        raise ComplexFormatError("0-cube bitstrings differ in length")
    walls = d.get("walls", [])
    if not isinstance(walls, list):
        raise ComplexFormatError('"walls" must be a list')
    if walls and len(walls) != width:
        raise ComplexFormatError(
            '"walls" lists %d walls, but the 0-cubes have %d bits'
            % (len(walls), width))
    if len({len(_wall_from_json(w).normal) for w in walls}) > 1:
        raise ComplexFormatError("wall normals differ in length")
    edges = []
    for u, v in d["edges"]:
        if not (type(u) is type(v) is int):
            raise TypeError("edge endpoint is not an integer: %r" % ((u, v),))
        if not (0 <= u < len(zero) and 0 <= v < len(zero)):
            raise ComplexFormatError("edge endpoint out of range: %r" % ((u, v),))
        x = orientations[u].bits ^ orientations[v].bits
        if x == 0 or x & (x - 1):
            raise ComplexFormatError(
                "edge %r does not flip exactly one wall" % ((u, v),))
        edges.append((u, v, x.bit_length() - 1))
    return CubeComplex(width, orientations, edges, wall_json=list(walls))


def save_complex(c: CubeComplex, path) -> None:
    write_json(path, c.to_json_dict())


def load_complex(path) -> CubeComplex:
    return complex_from_json_dict(read_json(path, ComplexFormatError))


def _member_clauses(members, nwalls: int) -> list:
    """The one- and two-wall clauses that every bitmask of members meets.

    Bit k of forbid[j][s][t] is set when no member has side s on wall j
    and side t on wall k (k == j gives the clauses on wall j alone).
    For the 0-cubes of a complex this is the compatibility table of its
    hyperplanes: two sides meet exactly when a 0-cube lies on both.
    """
    full = (1 << nwalls) - 1
    # ok[j][s][t] has bit k set when some member has side s on wall j
    # and side t on wall k.
    ok = [[[0, 0], [0, 0]] for _ in range(nwalls)]
    for bits in members:
        for j, row in enumerate(ok):
            seen = row[bits >> j & 1]
            seen[0] |= full & ~bits
            seen[1] |= bits
    return [[(full & ~t0, full & ~t1) for t0, t1 in row] for row in ok]


def _flip_closure(forbid, start: int, within=None):
    """All bitmasks reached from start by flips that meet every clause.

    Bit k of forbid[j][s][t] is set when side s of wall j rules out
    side t of wall k.  start must meet every clause, so a flip of wall
    j is tested against wall j's clauses only.  Returns (queue, index,
    edges, realized): queue[k] is the k-th bitmask reached in
    breadth-first order and index[queue[k]] == k; edges counts the flips
    between reached bitmasks, each once; realized has bit j set when
    some flip crosses wall j.  Returns None as soon as a bitmask outside
    `within` is reached.
    """
    flips = [(1 << j, *minus, *plus) for j, (minus, plus) in enumerate(forbid)]
    queue = [start]
    index = {start: 0}
    found = 0
    realized = 0
    for bits in queue:
        for bit, minus0, minus1, plus0, plus1 in flips:
            flipped = bits ^ bit
            if flipped & bit:
                if flipped & plus1 or ~flipped & plus0:
                    continue
            elif flipped & minus1 or ~flipped & minus0:
                continue
            found += 1
            if flipped not in index:
                if within is not None and flipped not in within:
                    return None
                index[flipped] = len(queue)
                queue.append(flipped)
                # A wall that some flip crosses is crossed on the
                # breadth-first tree too: a tree path joins the flip's
                # two ends.
                realized |= bit
    # Both ends of a flip meet every clause, so it is found from each.
    return queue, index, found >> 1, realized


def dual_complex(ws: FiniteWallspace) -> CubeComplex:
    """All consistent orientations, found by breadth-first wall flipping.

    Starting from the orientation realized by the base point, a wall is
    flipped whenever the flipped side remains compatible with every
    other chosen side.  For finite geometric wallspaces the flip graph
    on consistent orientations is connected, so this enumerates all of
    them without touching the 2^W search space.
    """
    nwalls = len(ws.walls)

    # Per-wall bitmasks from the pairwise compatibility tables:
    # forbid[j][s][t] has bit k set when (wall j, side s) and (wall k,
    # side t) do not meet.  A side meets itself, never the other side.
    forbid = [[[0, 1 << j], [1 << j, 0]] for j in range(nwalls)]
    for i in range(nwalls):
        for j in range(i + 1, nwalls):
            for si in (0, 1):
                for sj in (0, 1):
                    if not ws.sides_compatible(i, si, j, sj):
                        forbid[i][si][sj] |= 1 << j
                        forbid[j][sj][si] |= 1 << i

    base_bits = 0
    for i in range(nwalls):
        if ws.base_side(i):
            base_bits |= 1 << i

    # The search walks int bitmasks; queue[k] is 0-cube k.
    queue, index, edges, realized = _flip_closure(forbid, base_bits)
    if realized != (1 << nwalls) - 1:
        missing = [j for j in range(nwalls) if not realized >> j & 1]
        raise InternalError(
            "walls %r produced no edge; the flip graph looks disconnected"
            % (missing,))
    return CubeComplex._walked(nwalls, queue, index, edges, realized, ws)


def distance(c: CubeComplex, x: Orientation, y: Orientation) -> int:
    """Number of walls on which x and y differ (= graph distance)."""
    c.index_of(x)
    c.index_of(y)
    return (x.bits ^ y.bits).bit_count()


def median(c: CubeComplex, x: Orientation, y: Orientation, z: Orientation) -> Orientation:
    """The wallwise majority vote of three 0-cubes.

    The result lies on a geodesic between each pair; for complexes
    built by dual_complex it is always a 0-cube.
    """
    for o in (x, y, z):
        c.index_of(o)
    bits = (x.bits & y.bits) | (x.bits & z.bits) | (y.bits & z.bits)
    result = Orientation(bits, c.num_walls)
    if not c.contains(result):
        raise InternalError(
            "majority vote %r is not a 0-cube; the complex is not median"
            % (result,))
    return result


def is_median_graph(c: CubeComplex) -> bool:
    """Is the 1-skeleton a median graph?  Time O(V * W).

    A connected set of 0-cubes spans a median graph exactly when it
    carries every hypercube edge between its members and is closed
    under the wallwise majority vote.  Majority-closed sets are the
    solution sets of the one- and two-wall clauses they satisfy
    (Schaefer).  Every edge of c is a flip between two solutions, so
    the flip walk from one 0-cube reaches them all, and the set is
    majority-closed exactly when the walk never leaves it.
    """
    members = c._index
    closure = _flip_closure(_member_clauses(c._bits, c.num_walls),
                            c._bits[0], within=members)
    # The walk counts each hypercube edge between members once; all of
    # them must be edges of c.
    return closure is not None and closure[2] == c.edge_count()


def duality_check(c: CubeComplex) -> bool:
    """Dualizing the complex's own hyperplanes must give back the complex.

    This is is_median_graph (Roller; Chepoi).  The complex is connected
    and each edge flips one wall, so an unrealized wall has the same
    side on every 0-cube: projecting onto the realized walls is
    injective, and the one-wall clauses of the unrealized walls forbid
    flipping them.  Every edge of c is a flip between two 0-cubes that
    both meet every clause, so the dual's walk from 0-cube 0 reaches
    all 0-cubes, and the edges it finds are all the hypercube edges
    between them, a superset of c.edges.  The edge sets are equal
    exactly when their counts are, which is the median test.
    """
    return is_median_graph(c)


def union_orientation(c: CubeComplex, x: Orientation, y: Orientation,
                      z: Orientation) -> Orientation:
    """Combine two separations with crossing separators.

    Requires the walls separating x from y to be disjoint from, and to
    pairwise cross, the walls separating x from z.  The result agrees
    with y on the first set, with z on the second, and with x
    elsewhere; its separators from x are exactly the union, so
    d(x, result) = d(x, y) + d(x, z).
    """
    for o in (x, y, z):
        c.index_of(o)
    s1 = x.bits ^ y.bits
    s2 = x.bits ^ z.bits
    overlap = s1 & s2
    if overlap:
        shared = [i for i in range(c.num_walls) if overlap >> i & 1]
        raise CrossingConditionError(
            "separator sets are not disjoint; both flip walls %r" % (shared,))
    set1 = [i for i in range(c.num_walls) if s1 >> i & 1]
    set2 = [i for i in range(c.num_walls) if s2 >> i & 1]
    forbid = _member_clauses(c._index, c.num_walls)
    for i in set1:
        for j in set2:
            # Walls i and j cross when a 0-cube shows each side pair,
            # so that none of the four clauses rules j out.
            if any(rule >> j & 1 for rules in forbid[i] for rule in rules):
                raise CrossingConditionError(
                    "walls %d and %d do not cross" % (i, j))
    result = Orientation(x.bits ^ s1 ^ s2, c.num_walls)
    if not c.contains(result):
        raise InternalError(
            "union orientation %r is not a 0-cube despite crossing "
            "separators" % (result,))
    return result


def link_of_vertex(c: CubeComplex, v: Orientation) -> SimplicialComplex:
    """The flag complex of edges at a vertex.

    Link vertices are the walls flippable at v; two are adjacent when
    the corresponding square exists (the double flip is again a
    0-cube connected by the four boundary edges).
    """
    at = c.index_of(v)
    adjacent = c.neighbors(at)
    flippable = sorted(adjacent)
    edges = []
    for a in range(len(flippable)):
        for b in range(a + 1, len(flippable)):
            i, j = flippable[a], flippable[b]
            corner = c._index.get(v.bits ^ (1 << i) ^ (1 << j))
            if corner is not None and (
                    not c._missing or (c._joined(adjacent[i], corner)
                                       and c._joined(adjacent[j], corner))):
                edges.append((i, j))
    return SimplicialComplex(flippable, edges)


# ---------------------------------------------------------------------------
# Seeded wallspace generation (for property sweeps and fuzzing)


def seeded_wallspaces(count: int = 50, seed: int = 0, max_walls: int = 10,
                      dimension: int = 2) -> list:
    """Deterministic pseudo-random geometric wallspaces.

    Produces `count` wallspaces with between 3 and max_walls distinct
    walls, each genuinely splitting a fixed window, with a base point
    on no wall.  Fully determined by the seed.
    """
    rng = random.Random(seed)
    window = tuple((Fraction(-6), Fraction(6)) for _ in range(dimension))
    scale, box = _integer_window(window)
    out = []
    while len(out) < count:
        target = rng.randrange(3, max_walls + 1)
        walls = []
        seen = set()
        attempts = 0
        while len(walls) < target and attempts < 300:
            attempts += 1
            normal = [rng.randrange(-3, 4) for _ in range(dimension)]
            if all(x == 0 for x in normal):
                continue
            offset = Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3)))
            wall = GeometricWall(normal, offset)
            if wall in seen:
                continue
            if not all(_feasible(box, h, h) for h in _wall_sides(wall, scale)):
                continue
            seen.add(wall)
            walls.append(wall)
        if len(walls) < 3:
            continue
        base = None
        for _ in range(500):
            candidate = tuple(Fraction(rng.randrange(-550, 551), 97)
                              for _ in range(dimension))
            if all(w.side(candidate) != 0 for w in walls):
                base = candidate
                break
        if base is None:
            continue
        out.append(FiniteWallspace.geometric(dimension, window, walls, base))
    return out
