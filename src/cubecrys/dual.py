"""Dual cube complexes of finite wallspaces.

A finite wallspace is a rational window with finitely many affine
walls.  It is read on ints: every rational entry of a walls file
becomes an int pair (exactlin.rational_pair), the walls are made
primitive and the window, the walls and the base point are checked on
ints, and a Fraction is built only for the window, the base point and
the wall offsets that reports print.  The dual complex has one 0-cube
per consistent orientation: a
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
sides: _flip_tables builds two tables over the two halves of the
bitmask once, and at each 0-cube the walk ANDs two lookups and steps
along exactly the flips they allow, its edges.

A complex is the dual that the flip walk enumerated, stored as its
0-cube bitmasks and its edges by source: one out-degree per 0-cube
and one target index per edge.  Two 0-cubes of a dual are joined
exactly when they differ on one wall (its 1-skeleton is the subgraph
of the hypercube induced on its 0-cubes; Chepoi), so adjacency and
links are derived on demand.  Every edge is an outward flip from its
lower-indexed end, so the walk keeps the edges grouped by source in
index order and sorts only a group whose targets arrive out of order.
The JSON edge list is an IndexPairs over those two columns, which
dump_json renders in joins of PAIRS_SLICE rows over index-string
tables made once, with no [u, v] list per edge and no sort.  The
0-cubes are read as one column per wall, _digit_columns: the V ASCII
digits of the wall's bit in every 0-cube, as one bytes made by C-level
passes over an array of the bitmasks.  The JSON 0-cube list is a
DigitColumns over those columns, which dump_json renders by strided
slice assignment into a repeated template row, with no string per
0-cube.  The complex file is written, never read.

A complex is in turn the dual of its own hyperplanes: two hyperplane
sides meet exactly when some 0-cube lies on both, so their
compatibility table is the table of one- and two-wall clauses that the
0-cubes satisfy.  It is read off one V-bit int column per wall side,
int(digits, 2) of the same digit columns: two sides meet exactly when
their columns AND to a nonzero int, so it takes 4 W^2 C-level ANDs and
no Python step per 0-cube.  The median check and the crossing test
read that one table.  The median check builds the same allowed-flip
tables on it as the walk does and scans the 0-cubes once: the 0-cubes
are majority-closed exactly when no flip that the tables allow leads
out of them.  It walks nothing and keeps nothing.  The duality round
trip holds exactly when the 1-skeleton is a median graph (Roller;
Chepoi), so duality_check is the median check.
"""

from __future__ import annotations

import math
import random
import reprlib
import sys
from array import array
from fractions import Fraction
from functools import cache
from itertools import chain, product, starmap
from operator import and_, mul

from cubecrys.exactlin import (
    DigitColumns,
    IndexPairs,
    dimension_from_json,
    format_rational,
    from_format,
    json_array,
    rational_pair,
    read_json,
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
    a = tuple([q * e for e in wall.normal])
    return (tuple([-e for e in a]), scale * p), (a, -scale * p)


# ---------------------------------------------------------------------------
# Wallspaces


class FiniteWallspace:
    """A rational window box, finitely many affine walls and a base point.

    Every wall splits the window, and the base point lies in the window
    on no wall.  The window is one (lo, hi) pair per axis and the base
    point one entry per axis, each entry read by exactlin.rational_pair
    as an int pair, and every check runs on ints: the window scaled
    once by the lcm of its denominators, both sides of each wall as int
    halfspaces over it, and the base point over the lcm of its own
    denominators.  window and base_point are kept as Fractions, which
    reports print.
    """

    __slots__ = ("dimension", "window", "walls", "base_point", "_box",
                 "_sides", "_base")

    def __init__(self, dimension, window, walls, base_point):
        bounds = []
        for i, pair in enumerate(json_array(window, '"window"')):
            if type(pair) not in (list, tuple) or len(pair) != 2:
                raise ValueError('"window" entry %d must be a [lo, hi] pair, '
                                 "not %s" % (i, reprlib.repr(pair)))
            bounds.append((rational_pair(pair[0]), rational_pair(pair[1])))
        point = [rational_pair(x)
                 for x in json_array(base_point, '"base_point"')]
        if len(walls) > WALL_CAP:
            raise WallCapError(
                "at most %d walls supported, got %d" % (WALL_CAP, len(walls)))
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "window", tuple([
            (Fraction(*lo), Fraction(*hi)) for lo, hi in bounds]))
        object.__setattr__(self, "walls", tuple(walls))
        object.__setattr__(self, "base_point", tuple([
            Fraction(*x) for x in point]))
        self._validate(bounds, point)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteWallspace is immutable")

    def _validate(self, bounds, point):
        """The checks, on the int pairs (p, q) of the window's bounds and
        of the base point's entries."""
        n = self.dimension
        if len(bounds) != n:
            raise WallspaceError("window must give one (lo, hi) pair per axis")
        for ((a, b), (c, d)), (lo, hi) in zip(bounds, self.window):
            if not a * d < c * b:
                raise WallspaceError("degenerate window interval [%s, %s]"
                                     % (lo, hi))
        scale = math.lcm(*[q for pair in bounds for _, q in pair])
        box = tuple([(a * (scale // b), c * (scale // d))
                     for (a, b), (c, d) in bounds])
        if not all(isinstance(w, GeometricWall) for w in self.walls):
            raise WallspaceError("geometric wallspace needs GeometricWall "
                                 "entries")
        if len({(w.normal, w.offset.numerator, w.offset.denominator)
                for w in self.walls}) != len(self.walls):
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
        if len(point) != n:
            raise WallspaceError("base point has wrong dimension")
        # y = scale x in the scaled window, for x = p/q on each axis.
        for (lo, hi), (p, q) in zip(box, point):
            if not lo * q <= scale * p <= hi * q:
                raise WallspaceError("base point lies outside the window")
        # The base point as ints P = c y over the lcm c of the q: it lies
        # on the plus side (A, B) of a wall when <A, P> + B c > 0.
        c = math.lcm(*[q for _, q in point])
        point = [scale * p * (c // q) for p, q in point]
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
        FiniteWallspace(
            dimension=dimension_from_json(d["dimension"], WallspaceError),
            window=d["window"],
            walls=_walls_from_json(d["walls"]),
            base_point=d["base_point"],
        )))


def _walls_from_json(data) -> list:
    """The GeometricWall of each entry of a walls file's "walls"."""
    walls = []
    for i, w in enumerate(json_array(data, '"walls"')):
        if type(w) is not dict:
            raise ValueError('"walls" entry %d must be an object with '
                             '"normal" and "offset", not %s'
                             % (i, reprlib.repr(w)))
        walls.append(GeometricWall(w["normal"], w["offset"]))
    return walls


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
        """The complex file's dict.  Its "zero_cubes" is a DigitColumns
        over one digit column per wall (_digit_columns), which dump_json
        renders as the list of Orientation.to_bitstring strings without
        making them, and its "edges" an IndexPairs over the edge
        columns, which dump_json renders as the sorted list of [u, v]
        rows in joins of PAIRS_SLICE rows without making them."""
        return {
            "format": COMPLEX_FORMAT,
            "walls": [w.to_json_dict() for w in self.wallspace.walls],
            "zero_cubes": DigitColumns(
                list(_digit_columns(self._bits, self.num_walls)),
                len(self._bits)),
            "edges": IndexPairs(self._degrees, self._targets,
                                len(self._bits)),
        }


# _PLUS_DIGITS[r] maps a byte to the ASCII digit of its bit r, and
# _DIGITS maps the bytes 0 and 1 to the digits.
_PLUS_DIGITS = [bytes(48 | x >> r & 1 for x in range(256)) for r in range(8)]
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _digit_columns(members, nwalls: int):
    """For each wall j in order, the ASCII digit ("0" or "1") of bit j
    of every bitmask of members, in order, as one bytes.

    members is an iterable of bitmasks below 2^32, read into an array
    at the call; the columns are made as they are read, by C-level
    passes over its bytes: a strided slice, the bytes that hold bit j
    of each member, and a translate to ASCII digits.  Nothing is made
    per member but its bytes in the array and its digit in each column.
    """
    raw = array("I", members).tobytes()
    size = array("I").itemsize
    little = sys.byteorder == "little"
    # The byte that holds bit j of each member, in native order.
    return (raw[j >> 3 if little else size - 1 - (j >> 3)::size]
            .translate(_PLUS_DIGITS[j & 7]) for j in range(nwalls))


def _member_clauses(members, nwalls: int) -> list:
    """The one- and two-wall clauses that every bitmask of members meets.

    Bit k of forbid[j][s][t] is set when no member has side s on wall j
    and side t on wall k (k == j gives the clauses on wall j alone).
    For the 0-cubes of a complex this is the compatibility table of its
    hyperplanes: two sides meet exactly when a 0-cube lies on both.

    members is a nonempty collection of V bitmasks below 2^32.  Each
    side of each wall is read as a column, the V-bit int with a bit set
    for each member on that side: int(digits, 2) of the wall's
    _digit_columns column, one wall at a time, and its complement.
    Some member has side s on wall j and side t on wall k exactly when
    those two columns AND to a nonzero int, so the table is 4 W^2 ANDs,
    streamed through one C-level map into one byte each; a (j, s, t)
    row of W of them is read as one W-bit field of the int those bytes
    spell.  Nothing is made per member but its bytes in the array and
    its bit in each column, and no AND is kept.
    """
    every = (1 << len(members)) - 1
    plus = [int(digits, 2) for digits in _digit_columns(members, nwalls)]
    minus = [every ^ column for column in plus]
    # Byte (2 j + s) 2W + t W + k: does side s of wall j meet side t of
    # wall k?  Reversed, byte i is bit i of met.
    met = bytes(map(bool, starmap(and_, product(
        chain.from_iterable(zip(minus, plus)), minus + plus))))
    met = int(met[::-1].translate(_DIGITS) or b"0", 2)
    full = (1 << nwalls) - 1
    rows = [full ^ met >> f * nwalls & full for f in range(4 * nwalls)]
    return [[(rows[i], rows[i + 1]), (rows[i + 2], rows[i + 3])]
            for i in range(0, 4 * nwalls, 4)]


# Walls per chunk of a bitmask in the allowed-flip tables: a table over
# a chunk of w walls has 2^w entries, all made up front.  A table has
# at most WALL_CAP = 2 * CHUNK_BITS walls (FiniteWallspace and
# is_median_set refuse more), and a chunk at most half of them, so
# no chunk table has more than 2^CHUNK_BITS entries.
CHUNK_BITS = 12


@cache
def _singles(low: int, n: int) -> list:
    """singles[x], for x < 2^n, is the tuple of the bits 1 << (low + i)
    for the set bits i of x, in wall order.  The same for every walk,
    so kept: n <= CHUNK_BITS and low is 0 or the first chunk's width,
    so there are fewer than 40 such lists, of at most 4,096 tuples."""
    singles = [()]
    for i in range(low, low + n):
        singles += [s + (1 << i,) for s in singles]
    return singles


def _flip_tables(forbid, start: int) -> tuple:
    """(width, tables): the outward flips from start that a bitmask b
    meeting every clause allows, as two lookups over chunks of b.

    Bit k of forbid[j][s][t] is set when side s of wall j rules out
    side t of wall k, and the table is symmetric: bit j of forbid[k][t][s]
    is then set too.  An outward flip gives wall j the side that start
    lacks; b allows it when no side b_k of another wall rules it out,
    which is bit j of forbid[k][b_k][1 - start_j], and wall j's own bit
    allows it when b_j is still start's side and no one-wall clause
    rules out the other side.  So b allows the AND over the walls k of
    allow[k][b_k], made once from the 4 W clause masks.  tables holds
    (masks, singles) for each of two chunks, the first width =
    ceil(W / 2) walls and the rest: masks[x] is that AND over the
    chunk's walls with sides x, and singles[x] the tuple of the chunk's
    single bits set in x, in wall order (_singles).  So b allows exactly
    the flips in t0[b & part] & t1[b >> width], part = 2^width - 1,
    read off the two singles.
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
    width = -(-nwalls // 2)
    tables = []
    for low in (0, width):
        chunk = allow[low:low + width]
        masks = [full]
        for sides in chunk:
            masks = [m & a for a in sides for m in masks]
        tables.append((masks, _singles(low, len(chunk))))
    return width, tables


def _flip_closure(forbid, start: int):
    """All bitmasks reached from start by flips that meet every clause.

    forbid is a symmetric clause table that start meets (_flip_tables),
    so a flip of wall j need only meet wall j's clauses, and a flip
    between two reached bitmasks is valid, as both ends meet every
    clause.

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
    a back edge.  At each bitmask the walk ANDs the two lookups of
    _flip_tables and steps along exactly the flips they allow: two
    lookups and one step per edge, whatever the number of walls.

    The walk keeps each edge once, from its lower-indexed end: a flip
    from level d to level d + 1 is outward from its level-d end, and
    breadth-first order lists level d before level d + 1.  So the edges
    arrive grouped by source in queue order, as many as the source's
    allowed flips, their mask's popcount.  A group's targets arrive in
    wall order; one comparison per edge spots a group whose targets are
    out of index order, and only such a group is sorted.

    Returns (queue, index, degrees, targets, realized): queue[k] is the
    k-th bitmask reached in breadth-first order and index[queue[k]] ==
    k; degrees[k], in an array("l"), is the number of edges from 0-cube
    k to higher-indexed ones, and targets lists their other ends,
    sorted in each group, so the edges (u, v), u < v, in sorted
    order are degrees[u] rows of u each, beside targets; realized has
    bit j set when some flip crosses wall j.
    """
    width, ((t0, s0), (t1, s1)) = _flip_tables(forbid, start)
    part = (1 << width) - 1
    queue = [start]
    index = {start: 0}
    get = index.get
    degrees = array("l")
    targets = []
    keep, close = targets.append, degrees.append
    realized = 0
    for bits in queue:
        allowed = t0[bits & part] & t1[bits >> width]
        realized |= allowed
        close(allowed.bit_count())
        last = -1
        tangled = False
        for bit in s0[allowed & part] + s1[allowed >> width]:
            flipped = bits ^ bit
            to = get(flipped)
            if to is None:
                to = index[flipped] = len(queue)
                queue.append(flipped)
            elif to < last:
                tangled = True
            last = to
            keep(to)
        if tangled:
            mark = len(targets) - degrees[-1]
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
    graph in the hypercube?  Time O(V * W); WallCapError above WALL_CAP
    walls.

    members is a nonempty set or dict of bitmasks that the hypercube
    edges between them connect.  Such a set spans a median graph
    exactly when it is closed under the wallwise majority vote.
    Majority-closed sets are the solution sets of the one- and two-wall
    clauses they satisfy (Schaefer).  The scan builds _flip_tables on
    the members' clauses from any member as start, and answers False as
    soon as some member allows a flip to a non-member.  It is exact.
    Majority-closed members are all the solutions of their clauses, and
    an allowed flip lands on a solution.  Otherwise some maj(x, y, z)
    is no member, and maj(x, y, .) maps a path of members from z to x
    onto flips between solutions, so the flip component of start among
    the solutions is larger than the members.  _flip_closure's outward
    walk reaches all of it, so it first leaves the members by an allowed
    flip from a member, which the scan reads.
    """
    if nwalls > WALL_CAP:
        raise WallCapError(
            "at most %d walls supported, got %d" % (WALL_CAP, nwalls))
    width, ((t0, s0), (t1, s1)) = _flip_tables(
        _member_clauses(members, nwalls), next(iter(members)))
    part = (1 << width) - 1
    for bits in members:
        allowed = t0[bits & part] & t1[bits >> width]
        for bit in s0[allowed & part] + s1[allowed >> width]:
            if bits ^ bit not in members:
                return False
    return True


def is_median_graph(c: CubeComplex) -> bool:
    """Is the 1-skeleton a median graph?  Time O(V * W).

    The 1-skeleton is the subgraph of the hypercube induced on the
    connected 0-cubes, so this is is_median_set's scan of them; a
    complex has at most WALL_CAP walls.
    """
    return is_median_set(c._index, c.num_walls)


def duality_check(c: CubeComplex) -> bool:
    """Dualizing the complex's own hyperplanes must give back the complex.

    This is is_median_graph (Roller; Chepoi).  Every wall of c labels
    an edge, so its hyperplanes are its walls.  Every edge of c is a
    flip between two 0-cubes that both meet every clause, so the dual's
    walk from 0-cube 0 reaches all 0-cubes, and the edges it finds are
    all the hypercube edges between them, which are c's edges.  So the
    round trip holds exactly when that walk finds no other 0-cube,
    which is when no allowed flip leaves the 0-cubes: the median scan.
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

# Rounds that seeded_wallspaces may spend per wallspace asked for.  A
# round fails only when 300 wall draws give fewer than 3 walls or 500
# base points all lie on a wall: dimensions 1-4, max_walls 3-12 and
# seeds 0-39 spend no failed round at count = 50.
SEEDED_ROUNDS_PER_SPACE = 4


def seeded_wallspaces(count: int = 50, seed: int = 0, max_walls: int = 10,
                      dimension: int = 2) -> list:
    """Deterministic pseudo-random geometric wallspaces.

    Produces `count` wallspaces with between 3 and max_walls distinct
    walls, each genuinely splitting a fixed window, with a base point
    on no wall.  Fully determined by the seed.  Each round draws one
    wall set and up to 500 base points, and drops the set when it has
    fewer than 3 walls or every base point lies on a wall; after
    SEEDED_ROUNDS_PER_SPACE * count rounds a ValueError names the seed,
    count and rounds spent.
    """
    rng = random.Random(seed)
    # The window [-6, 6]^n, which is its own int box (scale 1).
    window = ((-6, 6),) * dimension
    out = []
    rounds = 0
    while len(out) < count:
        if rounds == SEEDED_ROUNDS_PER_SPACE * count:
            raise ValueError(
                "seeded_wallspaces(seed=%r) made %d of count=%d wallspaces "
                "in %d rounds" % (seed, len(out), count, rounds))
        rounds += 1
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
            top, bottom = _extremes(window, _wall_sides(wall, 1)[1])
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
                ws = FiniteWallspace(dimension, window, walls, base)
            except WallspaceError:
                # The base point lies on a wall; draw another.
                continue
            out.append(ws)
            break
    return out
