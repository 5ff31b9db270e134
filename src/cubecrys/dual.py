"""Dual cube complexes of finite wallspaces.

A finite wallspace is a rational window with finitely many affine
walls.  The dual complex has one 0-cube per consistent orientation: a
choice of one open side per wall such that all chosen sides pairwise
meet.  Edges join orientations differing on a single wall, and higher
cubes are implicit in the flag structure (cliques of pairwise
flippable walls at a vertex).

Consistency of a pair of chosen sides is decided exactly: for affine
walls by a closed-form minimax test (the smaller of two affine
functions is positive somewhere in the window box exactly when every
convex combination of them is, and only n + 2 combinations need
checking), run on integers: the window and both sides of each wall are
scaled to integers once, by positive factors; one pass of it decides
a pair of sides and the opposite pair.  Orientations are
enumerated by breadth-first wall flipping from the base point's
orientation, never by scanning all 2^W side choices, and only outward:
flip distance between 0-cubes is the number of walls they differ on,
so a wall on which an orientation already differs from the base
point's is never flipped back.  The table holds one- and two-wall
clauses only, so the flips a 0-cube allows are an AND over its walls'
sides: the walk builds three tables over chunks of the bitmask once,
and at each 0-cube ANDs three lookups and steps along exactly the
flips they allow, its edges.

A complex is the dual that the flip walk enumerated, stored as its
0-cube bitmasks and its edges by source: one out-degree per 0-cube
and one target index per edge.  Two 0-cubes of a dual are joined
exactly when they differ on one wall (its 1-skeleton is the subgraph
of the hypercube induced on its 0-cubes; Chepoi), so adjacency and
links are derived on demand.  Every edge is an outward flip from its
lower-indexed end, so the walk keeps the edges grouped by source in
index order and sorts only a group whose targets arrive out of order.
The JSON edge list is an IndexPairs over those two columns, which
dump_json renders in one join over index-string tables made once,
with no [u, v] list per edge and no sort.  The complex file is
written, never read.

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
from array import array
from collections import deque
from fractions import Fraction
from functools import cache
from operator import mul

from cubecrys.exactlin import (
    IndexPairs,
    dimension_from_json,
    format_rational,
    from_format,
    integral,
    json_array,
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


def _feasible(window, f, g) -> tuple:
    """(f > 0 and g > 0 meet the closed window, f < 0 and g < 0 do),
    for two functions that each split the window.

    The window is a box of int (lo, hi) pairs, and f and g are int pairs
    (a, b) standing for <a, x> + b.  The window is compact and convex,
    so by the minimax theorem
    max_x min(f, g) = min over t in [0, 1] of max_x (t f + (1 - t) g).
    The inner maximum takes each axis at the end of its interval that
    the sign of t a_i + (1 - t) c_i picks, so it is convex and piecewise
    linear in t and bends only where such a coefficient changes sign:
    at t = c_i / (c_i - a_i) for a_i c_i < 0.  The sides meet exactly
    when it is positive at t = 0, at t = 1 and at every such break; at
    t = 0 and t = 1 it is the maximum of g or f alone, which is positive
    for a function that splits the window, so only the breaks are read.
    -f and -g bend at the same t, and their maximum there is minus the
    minimum, which takes each axis at its other end.  With
    t = p / (p + s), p + s > 0 times each value is an integer of the
    same sign, so a break is read unreduced.  No break: (True, True).
    """
    (a, b), (c, d) = f, g
    plus = minus = True
    for ai, ci in zip(a, c):
        if ai * ci >= 0:
            continue
        p, s = abs(ci), abs(ai)
        top = bottom = p * b + s * d
        for aj, cj, (lo, hi) in zip(a, c, window):
            k = p * aj + s * cj
            top += k * (hi if k > 0 else lo)
            bottom += k * (lo if k > 0 else hi)
        plus = plus and top > 0
        minus = minus and bottom < 0
        if not (plus or minus):
            break
    return plus, minus


def _extremes(window, h) -> tuple:
    """(max, min) of the int function h = (a, b), <a, x> + b, over the
    int window box: each axis at the end its coefficient's sign picks."""
    a, b = h
    top = bottom = b
    for ai, (lo, hi) in zip(a, window):
        top += ai * (hi if ai > 0 else lo)
        bottom += ai * (lo if ai > 0 else hi)
    return top, bottom


def _wall_sides(wall: GeometricWall, scale):
    """(minus, plus): the two open sides of a wall as int halfspaces
    (A, B), <A, y> + B > 0, over the window scaled by `scale`.

    With offset p/q, <normal, x> > p/q over x = y / scale is
    <q normal, y> - scale p > 0: a positive multiple, so every point
    keeps its side.
    """
    p, q = wall.offset.numerator, wall.offset.denominator
    a = tuple(q * e for e in wall.normal)
    return (tuple(-e for e in a), scale * p), (a, -scale * p)


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
                 "_sides", "_base")

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
        each read by exactlin.vector_from_json."""
        window = tuple((lo, hi) for lo, hi in map(vector_from_json, window))
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
        scale, box = integral(self.window)
        if not all(isinstance(w, GeometricWall) for w in self.walls):
            raise WallspaceError("geometric wallspace needs GeometricWall "
                                 "entries")
        if len(set(self.walls)) != len(self.walls):
            raise WallspaceError("walls must be pairwise distinct "
                                 "after canonicalization")
        sides = []
        for w in self.walls:
            if len(w.normal) != n:
                raise WallspaceError("wall normal has wrong dimension")
            sides.append(_wall_sides(w, scale))
            top, bottom = _extremes(box, sides[-1][1])
            if not top > 0 > bottom:
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
        # The base point y = scale * p in the scaled window, as ints
        # P = c y over the lcm c of y's denominators: it lies on the
        # plus side (A, B) of a wall when <A, P> + B c > 0.
        c, (point,) = integral(([x * scale for x in p],))
        base = 0
        for i, (w, (_, (a, b))) in enumerate(zip(self.walls, sides)):
            value = sum(map(mul, a, point)) + b * c
            if value == 0:
                raise WallspaceError("base point lies on wall %r" % (w,))
            if value > 0:
                base |= 1 << i
        object.__setattr__(self, "_base", base)

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
            window=d["window"],
            walls=[GeometricWall(w["normal"], w["offset"])
                   for w in json_array(d["walls"], '"walls"')],
            base_point=d["base_point"],
        )))


def save_wallspace(ws: FiniteWallspace, path) -> None:
    write_json(path, ws.to_json_dict())


def load_wallspace(file) -> FiniteWallspace:
    return wallspace_from_json_dict(read_json(file, WallspaceError))


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
    """The dual that dual_complex walked: 0-cubes, single-wall edges,
    and the implicit flag structure.

    A complex is its list of 0-cube bitmasks (bit i set: the plus side
    of wall i) in the walk's breadth-first order, and the walk's edges
    (u, v), u < v, in sorted order as two columns: the out-degree of
    each 0-cube u in an array("l") and the targets v in one list.  Its
    1-skeleton is the subgraph of the hypercube induced on its 0-cubes:
    two 0-cubes that differ on one wall are joined.  Adjacency and links
    are derived on demand.  Cubes above dimension one are never stored:
    a k-cube at a vertex is a k-clique of pairwise jointly flippable
    walls, which link_of_vertex exposes.

    The constructor checks nothing: the walk makes the 0-cubes
    distinct, of one width and connected, and keeps every induced pair
    once, and dual_complex refuses a walk in which some wall labels no
    edge.
    """

    def __init__(self, wallspace, bits, index, degrees, targets):
        self.num_walls = len(wallspace.walls)
        self.wallspace = wallspace
        self._bits = bits
        self._index = index
        self._degrees = degrees
        self._targets = targets

    def vertex_count(self) -> int:
        return len(self._bits)

    def edge_count(self) -> int:
        return len(self._targets)

    def index_of(self, x: Orientation) -> int:
        if x.n != self.num_walls or x.bits not in self._index:
            raise MembershipError(
                "orientation %r is not a 0-cube of this complex" % (x,))
        return self._index[x.bits]

    def contains(self, x: Orientation) -> bool:
        return x.n == self.num_walls and x.bits in self._index

    def neighbors(self, idx: int) -> dict:
        """Map wall -> neighbor index at the given vertex."""
        b = self._bits[idx]
        get = self._index.get
        out = {}
        for j in range(self.num_walls):
            nb = get(b ^ 1 << j)
            if nb is not None:
                out[j] = nb
        return out

    def to_json_dict(self) -> dict:
        """The complex file's dict.  Its "edges" is an IndexPairs over
        the edge columns, which dump_json renders as the sorted list of
        [u, v] rows in one join without making them."""
        # Orientation.to_bitstring, on the bare bitmasks.
        top = 1 << self.num_walls
        return {
            "format": COMPLEX_FORMAT,
            "walls": [w.to_json_dict() for w in self.wallspace.walls],
            "zero_cubes": [bin(b | top)[:2:-1] for b in self._bits],
            "edges": IndexPairs(self._degrees, self._targets,
                                len(self._bits)),
        }


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


# Walls per chunk of a bitmask in the flip walk's tables: a table over
# a chunk of w walls has 2^w entries, all made up front when
# w <= CHUNK_BITS, so every width up to 3 * CHUNK_BITS = WALL_CAP walls
# is built whole.
CHUNK_BITS = 8


class _LazyChunk(dict):
    """A chunk table too wide to build up front: each entry is made on
    its first read, so it holds at most one entry per 0-cube."""

    __slots__ = ("_make",)

    def __init__(self, make):
        super().__init__()
        self._make = make

    def __missing__(self, x):
        self[x] = value = self._make(x)
        return value


@cache
def _singles(low: int, n: int) -> list:
    """singles[x], for x < 2^n, is the tuple of the bits 1 << (low + i)
    for the set bits i of x, in wall order.  The same for every walk,
    so kept: n <= CHUNK_BITS and low is 0 or one or two chunk widths,
    so there are fewer than 80 such lists."""
    singles = [()]
    for i in range(low, low + n):
        singles += [s + (1 << i,) for s in singles]
    return singles


def _chunk_tables(allow, low: int, full: int):
    """(masks, singles) over walls low, low + 1, ... of allow:
    masks[x] is the AND of allow[low + i][bit i of x] over the chunk
    (full for an empty chunk), and singles[x] is the tuple of the bits
    1 << (low + i) for the set bits i of x, in wall order."""
    n = len(allow)
    if n <= CHUNK_BITS:
        masks = [full]
        for sides in allow:
            masks = [m & a for a in sides for m in masks]
        return masks, _singles(low, n)

    def mask(x):
        out = full
        for i, a in enumerate(allow):
            out &= a[x >> i & 1]
        return out

    return (_LazyChunk(mask), _LazyChunk(
        lambda x: tuple(1 << (low + i) for i in range(n) if x >> i & 1)))


def _flip_closure(forbid, start: int, within=None):
    """All bitmasks reached from start by flips that meet every clause.

    Bit k of forbid[j][s][t] is set when side s of wall j rules out
    side t of wall k, and the table is symmetric: bit j of forbid[k][t][s]
    is then set too.  start must meet every clause, so a flip of wall j
    need only meet wall j's clauses, and a flip between two reached
    bitmasks is valid, as both ends meet every clause.

    Only outward flips are tried: a wall on which the bitmask at hand
    already differs from start is never flipped back.  The reached
    bitmasks are the solutions of the table that are flip-connected to
    start.  Solutions of 2-clauses are closed under the wallwise
    majority (Schaefer), so on them flip distance is Hamming distance:
    map each point p of a path from u to v to maj(u, v, p); the images
    are solutions in the interval between u and v, consecutive images
    differ on at most one wall, and the first image other than u is one
    wall of u ^ v nearer v.  So the bitmask at breadth-first level d
    differs from start on d walls, and a flip toward start lands either
    on level d - 1, where the walk already kept that flip, or on a
    non-solution.  An outward flip lands on level d + 1, so it is never
    a back edge.

    An outward flip gives wall j the side that start lacks, so whether
    bitmask b allows it depends on each other wall k of b alone: side
    b_k of wall k must not rule it out, which is bit j of
    forbid[k][b_k][1 - start_j] (the clause read through its
    transpose).  Wall j's own bit allows it when b_j is still start's
    side and no one-wall clause rules out the other side.  So the
    allowed flips of b are the AND over the walls k of allow[k][b_k],
    made once per walk from the 4 W clause masks; it is read as the AND
    of three tables over chunks of b's bits, and the flips it allows are
    read off per-chunk tuples of single bits (_singles, the same for
    every walk).  Each 0-cube thus costs three lookups and one step per
    edge, whatever the number of walls.  A chunk of more than CHUNK_BITS
    walls (only for tables wider than WALL_CAP) is filled as it is read.

    The walk keeps each edge once, from its lower-indexed end: a flip
    from level d to level d + 1 is outward from its level-d end, and
    breadth-first order lists level d before level d + 1.  So the edges
    arrive grouped by source in queue order.  A group's targets arrive
    in wall order; one comparison per edge spots a group whose targets
    are out of index order, and only such a group is sorted.

    Returns (queue, index, degrees, targets, realized): queue[k] is the
    k-th bitmask reached in breadth-first order and index[queue[k]] ==
    k; degrees[k], in an array("l"), is the number of edges from 0-cube
    k to higher-indexed ones, and targets lists their other ends,
    sorted within each group, so the edges (u, v), u < v, in sorted
    order are degrees[u] rows of u each, beside targets; realized has
    bit j set when some flip crosses wall j.  With `within`, the walk
    only checks membership: degrees and targets stay empty, and None is
    returned as soon as a bitmask outside `within` is reached.
    """
    nwalls = len(forbid)
    full = (1 << nwalls) - 1
    outward1 = full & ~start
    # allow[k][s]: the walls whose outward flip side s of wall k allows.
    allow = []
    for k, ((r00, r01), (r10, r11)) in enumerate(forbid):
        # Bit j of rule0 (rule1): side 0 (1) of wall k rules out wall
        # j's outward side.  Bit k itself: the one-wall clause on wall
        # k's outward side, read where wall k is still on start's side.
        rule0 = r01 & outward1 | r00 & start
        rule1 = r11 & outward1 | r10 & start
        bit = 1 << k
        if start & bit:
            allow.append((full & ~(rule0 | bit),
                          full & ~(rule1 & ~bit | rule0 & bit)))
        else:
            allow.append((full & ~(rule0 & ~bit | rule1 & bit),
                          full & ~(rule1 | bit)))
    width = min(CHUNK_BITS, -(-nwalls // 3))
    mid, high = width, 2 * width
    part = (1 << width) - 1
    (t0, s0), (t1, s1), (t2, s2) = (
        _chunk_tables(allow[:mid], 0, full),
        _chunk_tables(allow[mid:high], mid, full),
        _chunk_tables(allow[high:], high, full))
    queue = [start]
    index = {start: 0}
    get = index.get
    degrees = array("l")
    targets = []
    if within is None:
        keep, close = targets.append, degrees.append
    else:
        # A zero-length deque drops what it is given.
        keep = close = deque(maxlen=0).append
    realized = 0
    for bits in queue:
        allowed = t0[bits & part] & t1[bits >> mid & part] & t2[bits >> high]
        realized |= allowed
        mark = len(targets)
        last = -1
        tangled = False
        for bit in (s0[allowed & part] + s1[allowed >> mid & part]
                    + s2[allowed >> high]):
            flipped = bits ^ bit
            to = get(flipped)
            if to is None:
                if within is not None and flipped not in within:
                    return None
                to = index[flipped] = len(queue)
                queue.append(flipped)
            elif to < last:
                tangled = True
            last = to
            keep(to)
        close(len(targets) - mark)
        if tangled:
            targets[mark:] = sorted(targets[mark:])
    return queue, index, degrees, targets, realized


def _window_clauses(ws: FiniteWallspace) -> list:
    """forbid[j][s][t] has bit k set when (wall j, side s) and (wall k,
    side t) do not meet; a side meets itself, never the other side.
    A wall's minus side is minus its plus side, and every wall splits
    the window, so two _feasible calls decide the four side pairs of
    two walls."""
    box, sides = ws._box, ws._sides
    forbid = [[[0, 1 << j], [1 << j, 0]] for j in range(len(sides))]
    for i, (_, plus) in enumerate(sides):
        for j in range(i + 1, len(sides)):
            for sj, side in enumerate(sides[j]):
                # Sides (1, sj) and (0, 1 - sj) of walls i and j.
                same, opposite = _feasible(box, plus, side)
                for si, tj, met in ((1, sj, same), (0, 1 - sj, opposite)):
                    if not met:
                        forbid[i][si][tj] |= 1 << j
                        forbid[j][tj][si] |= 1 << i
    return forbid


def dual_complex(ws: FiniteWallspace) -> CubeComplex:
    """All consistent orientations, found by breadth-first wall flipping.

    Starting from the orientation realized by the base point, a wall is
    flipped whenever the flipped side remains compatible with every
    other chosen side.  For finite geometric wallspaces the flip graph
    on consistent orientations is connected, so this enumerates all of
    them without touching the 2^W search space.
    """
    nwalls = len(ws.walls)
    # The search walks int bitmasks from the base point's; queue[k] is
    # 0-cube k.
    queue, index, degrees, targets, realized = _flip_closure(
        _window_clauses(ws), ws._base)
    if realized != (1 << nwalls) - 1:
        missing = [j for j in range(nwalls) if not realized >> j & 1]
        raise InternalError(
            "walls %r produced no edge; the flip graph looks disconnected"
            % (missing,))
    return CubeComplex(ws, queue, index, degrees, targets)


def distance(c: CubeComplex, x: Orientation, y: Orientation) -> int:
    """Number of walls on which x and y differ (= graph distance: the
    0-cubes are majority-closed, so a path from x to y mapped by
    maj(x, y, .) shortens to one that flips each separating wall once;
    see _flip_closure)."""
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


def is_median_set(members, nwalls: int) -> bool:
    """Do the bitmasks of members, over nwalls walls, span a median
    graph in the hypercube?  Time O(V * W).

    members is a nonempty set or dict of bitmasks that the hypercube
    edges between them connect.  Such a set spans a median graph
    exactly when it is closed under the wallwise majority vote.
    Majority-closed sets are the solution sets of the one- and two-wall
    clauses they satisfy (Schaefer).  Every hypercube edge between
    members is a flip between two solutions, so the flip walk from one
    member reaches them all, and the set is majority-closed exactly
    when the walk never leaves it.
    """
    return _flip_closure(_member_clauses(members, nwalls),
                         next(iter(members)), within=members) is not None


def is_median_graph(c: CubeComplex) -> bool:
    """Is the 1-skeleton a median graph?  Time O(V * W).

    The 1-skeleton is the subgraph of the hypercube induced on the
    connected 0-cubes, so this is is_median_set on them.
    """
    return is_median_set(c._index, c.num_walls)


def duality_check(c: CubeComplex) -> bool:
    """Dualizing the complex's own hyperplanes must give back the complex.

    This is is_median_graph (Roller; Chepoi).  Every wall of c labels
    an edge, so its hyperplanes are its walls.  Every edge of c is a
    flip between two 0-cubes that both meet every clause, so the dual's
    walk from 0-cube 0 reaches all 0-cubes, and the edges it finds are
    all the hypercube edges between them, which are c's edges.  So the
    round trip holds exactly when the walk finds no other 0-cube, which
    is the median test.
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
    0-cube, so all four boundary edges are there).
    """
    flippable = sorted(c.neighbors(c.index_of(v)))
    edges = []
    for a in range(len(flippable)):
        for b in range(a + 1, len(flippable)):
            i, j = flippable[a], flippable[b]
            if (v.bits ^ (1 << i) ^ (1 << j)) in c._index:
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
    scale, box = integral(window)
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
            top, bottom = _extremes(box, _wall_sides(wall, scale)[1])
            if not top > 0 > bottom:
                continue
            seen.add(wall)
            walls.append(wall)
        if len(walls) < 3:
            continue
        for _ in range(500):
            base = tuple(Fraction(rng.randrange(-550, 551), 97)
                         for _ in range(dimension))
            try:
                ws = FiniteWallspace.geometric(dimension, window, walls, base)
            except WallspaceError:
                # The base point lies on a wall; draw another.
                continue
            out.append(ws)
            break
    return out
