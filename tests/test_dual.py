"""Tests for finite wallspaces and their dual cube complexes."""

import hashlib
import json
import random
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecrys.boundary import is_isomorphic
from cubecrys.dual import (
    CrossingConditionError,
    CubeComplex,
    FiniteWallspace,
    MembershipError,
    Orientation,
    WALL_CAP,
    WallCapError,
    WallspaceError,
    _feasible,
    _flip_closure,
    _member_clauses,
    distance,
    dual_complex,
    duality_check,
    is_median_graph,
    is_median_set,
    link_of_vertex,
    load_wallspace,
    median,
    save_wallspace,
    seeded_wallspaces,
    union_orientation,
    wallspace_from_json_dict,
)
from cubecrys.exactlin import IndexPairs, integral, json_text, write_json
from cubecrys.sgnperm import build_Qn
from cubecrys.walls import GeometricWall
from stored_edge_complex import (
    StoredEdgeComplex,
    is_median_complex,
    left_out_edges,
    stored_edge_dual,
    stored_edge_walk,
    stored_is_median_graph,
    stored_link_of_vertex,
    window_clauses,
)
from test_cli import (
    fourteen_crossing_lines,
    spatial_arrangement,
    ten_crossing_lines,
)


def vertical(offset):
    return GeometricWall([1, 0], Fraction(offset))


def horizontal(offset):
    return GeometricWall([0, 1], Fraction(offset))


def plane_space(walls, base, window=((-2, 2), (-2, 2))):
    return FiniteWallspace.geometric(2, window, walls, base)


def fourier_motzkin_feasible(constraints, nvars: int) -> bool:
    """Oracle: the Fourier-Motzkin elimination that _feasible replaced.

    Each constraint is (coeffs, rhs, strict) for sum(c*x) <= / < rhs.
    Exact over Fractions.
    """
    cons = [(tuple(Fraction(c) for c in coeffs), Fraction(rhs), strict)
            for coeffs, rhs, strict in constraints]
    for var in range(nvars):
        pos, neg, rest = [], [], []
        for coeffs, rhs, strict in cons:
            c = coeffs[var]
            if c > 0:
                pos.append((coeffs, rhs, strict))
            elif c < 0:
                neg.append((coeffs, rhs, strict))
            else:
                rest.append((coeffs, rhs, strict))
        combined = rest
        for pc, pr, ps in pos:
            for nc, nr, ns in neg:
                a = pc[var]
                b = -nc[var]
                coeffs = tuple(pc[i] / a + nc[i] / b for i in range(nvars))
                combined.append((coeffs, pr / a + nr / b, ps or ns))
        cons = list(dict.fromkeys(combined))
    for _, rhs, strict in cons:
        if rhs < 0 or (strict and rhs == 0):
            return False
    return True


def fraction_feasible(window, f, g) -> bool:
    """Oracle: the minimax test over Fractions that _feasible replaced.

    The window holds rational (lo, hi) pairs and f, g rational (a, b)
    pairs for <a, x> + b; the breaks t are Fractions.
    """
    (a, b), (c, d) = f, g
    breaks = {Fraction(ci, ci - ai) for ai, ci in zip(a, c) if ai * ci < 0}
    for t in (0, 1, *breaks):
        s = 1 - t
        value = t * b + s * d
        for ai, ci, (lo, hi) in zip(a, c, window):
            k = t * ai + s * ci
            value += k * (hi if k > 0 else lo)
        if value <= 0:
            return False
    return True


def fraction_halfspace(wall, side):
    """Side 1 (plus) or 0 (minus) of a wall as rational (a, b)."""
    if side:
        return wall.normal, -wall.offset
    return tuple(-e for e in wall.normal), wall.offset


def test_feasibility_elimination():
    feasible = fourier_motzkin_feasible
    # x > 0 and x < 1 meet; x > 0 and x < 0 do not.
    assert feasible([((1,), Fraction(1), True), ((-1,), Fraction(0), True)], 1)
    assert not feasible([((1,), Fraction(0), True), ((-1,), Fraction(0), True)], 1)
    # Closed versus open at the shared boundary value.
    assert feasible([((1,), Fraction(0), False), ((-1,), Fraction(0), False)], 1)
    assert not feasible([((1,), Fraction(0), False), ((-1,), Fraction(0), True)], 1)
    # Two dimensions: the strip 0 < x < 1 with y unconstrained.
    assert feasible([((1, 0), Fraction(1), True), ((-1, 0), Fraction(0), True)], 2)


def three_verdicts(window, f, g):
    """_feasible, and both oracles, on f > 0, g > 0 in the closed window.

    f and g are (coefficients, offset) pairs for <a, x> + b; entries may
    be anything Fraction accepts.  _feasible gets the window scaled to
    integers the way FiniteWallspace scales it, and each side, over the
    scaled window, times the lcm of its denominators.
    """
    window = tuple((Fraction(lo), Fraction(hi)) for lo, hi in window)
    f, g = ((tuple(map(Fraction, a)), Fraction(b)) for a, b in (f, g))
    scale, box = integral(window)

    def ints(a, b):
        *a, b = integral(((*a, b * scale),))[1][0]
        return tuple(a), b

    integer = _feasible(box, ints(*f), ints(*g))
    n = len(window)
    cons = []
    for k, (lo, hi) in enumerate(window):
        unit = tuple(int(i == k) for i in range(n))
        cons.append((unit, hi, False))
        cons.append((tuple(-e for e in unit), -lo, False))
    for a, b in (f, g):
        cons.append((tuple(-e for e in a), b, True))
    return (integer, fraction_feasible(window, f, g),
            fourier_motzkin_feasible(cons, n))


def random_halfspace_pair(rng, n):
    """f and g with small coefficients, often equal, parallel or sparse."""
    def coeffs():
        return tuple(rng.choice((0, 0, rng.randrange(-3, 4)))
                     for _ in range(n))

    def offset():
        return Fraction(rng.randrange(-12, 13), rng.choice((1, 2, 3)))

    f = (coeffs(), offset())
    shape = rng.randrange(4)
    if shape == 0:
        g = f
    elif shape == 1:
        scale = Fraction(rng.choice((-3, -2, -1, 1, 2)), rng.choice((1, 2)))
        g = (tuple(scale * e for e in f[0]), offset())
    else:
        g = (coeffs(), offset())
    return f, g


def test_closed_form_feasibility_agrees_with_fourier_motzkin():
    rng = random.Random(5)
    met = 0
    for _ in range(5000):
        n = rng.randrange(1, 5)
        window = []
        for _ in range(n):
            lo = Fraction(rng.randrange(-6, 5), rng.choice((1, 2)))
            window.append((lo, lo + Fraction(rng.randrange(1, 9),
                                             rng.choice((1, 2)))))
        f, g = random_halfspace_pair(rng, n)
        closed, fraction, oracle = three_verdicts(window, f, g)
        assert closed == fraction == oracle, (window, f, g)
        met += closed
    assert 1000 < met < 4000
    square = ((-1, 1), (-1, 1))
    hand = [
        # x + y > 2 touches the square only at its corner (1, 1).
        (square, ((1, 1), -2), ((1, 1), -2), False),
        (square, ((1, 1), -2), ((0, 0), 1), False),
        (square, ((1, 1), "-19/10"), ((1, 1), "-19/10"), True),
        # x > 0 and -x > 0 never meet.
        (((-1, 1),), ((1,), 0), ((-1,), 0), False),
        # x > 3 and 8 - 3x > 0 are disjoint, yet each is positive at its
        # own end of [1/2, 7/2]: only the break t = 3/4 rules them out.
        ((("1/2", "7/2"),), ((1,), -3), ((-3,), 8), False),
        ((("1/2", "7/2"),), ((1,), -2), ((-3,), 8), True),
    ]
    for window, f, g, expected in hand:
        assert three_verdicts(window, f, g) == (expected,) * 3


def test_integer_side_test_on_windows_with_thirds_and_fifths():
    rng = random.Random(11)
    met = 0
    for _ in range(600):
        n = rng.randrange(1, 4)
        window = []
        for _ in range(n):
            lo = Fraction(rng.randrange(-18, 15), rng.choice((1, 3, 5)))
            window.append((lo, lo + Fraction(rng.randrange(1, 20),
                                             rng.choice((2, 3, 5)))))
        f, g = random_halfspace_pair(rng, n)
        closed, fraction, oracle = three_verdicts(window, f, g)
        assert closed == fraction == oracle, (window, f, g)
        met += closed
    assert 100 < met < 500


def test_integer_side_table_matches_the_fraction_table():
    # Every side pair of seeded wallspaces in dimensions 1-4, through
    # FiniteWallspace's integer sides and through the Fraction test.
    pairs = 0
    for dimension in range(1, 5):
        for ws in seeded_wallspaces(count=10, seed=dimension, max_walls=7,
                                    dimension=dimension):
            assert all(isinstance(x, int) for bounds in ws._box
                       for x in bounds)
            for i, wi in enumerate(ws.walls):
                for j, wj in enumerate(ws.walls):
                    for si in (0, 1):
                        for sj in (0, 1):
                            pairs += 1
                            assert ws.sides_compatible(i, si, j, sj) == (
                                si == sj if i == j else fraction_feasible(
                                    ws.window, fraction_halfspace(wi, si),
                                    fraction_halfspace(wj, sj)))
    assert pairs > 2000


# -- wallspace validation ---------------------------------------------


def test_geometric_wallspace_accepts_a_crossing_pair():
    ws = plane_space([vertical(0), horizontal(0)], ["1/2", "1/3"])
    assert ws.base_side(0) == 1
    assert ws.base_side(1) == 1


def test_wall_outside_the_window_is_rejected():
    with pytest.raises(WallspaceError, match="split"):
        plane_space([vertical(5)], ["1/2", "1/3"])


def test_base_point_on_a_wall_is_rejected():
    with pytest.raises(WallspaceError, match="on wall"):
        plane_space([vertical(0), horizontal(0)], [0, "1/3"])


def fraction_base_sides(walls, point):
    """Oracle: the base point's bit per wall by GeometricWall.side, or
    the first wall it lies on."""
    sides = [w.side(point) for w in walls]
    if 0 in sides:
        return walls[sides.index(0)]
    return [int(side > 0) for side in sides]


def test_integer_base_sides_match_the_fraction_side_test():
    # Seeded base points; and, for each wall, the point on it that
    # differs from the base point on one axis, and the two points one
    # 1/97 step from it along that axis.
    checked = on_wall = 0
    for dimension in range(1, 5):
        for ws in seeded_wallspaces(count=6, seed=90 + dimension,
                                    max_walls=7, dimension=dimension):
            p = ws.base_point
            points = [p]
            for w in ws.walls:
                k = next(k for k, e in enumerate(w.normal) if e)
                gap = w.offset - sum(e * x for e, x in zip(w.normal, p))
                foot = p[k] + gap / w.normal[k]
                for step in (-1, 0, 1):
                    q = list(p)
                    q[k] = foot + Fraction(step, 97)
                    points.append(tuple(q))
            for q in points:
                if any(not lo <= x <= hi for (lo, hi), x in zip(ws.window, q)):
                    continue
                expected = fraction_base_sides(ws.walls, q)
                if isinstance(expected, GeometricWall):
                    with pytest.raises(WallspaceError) as info:
                        FiniteWallspace(dimension, ws.window, ws.walls, q)
                    assert str(info.value) == (
                        "base point lies on wall %r" % (expected,))
                    on_wall += 1
                    continue
                built = FiniteWallspace(dimension, ws.window, ws.walls, q)
                assert [built.base_side(i)
                        for i in range(len(ws.walls))] == expected
                assert built._base == sum(bit << i for i, bit
                                          in enumerate(expected))
                checked += 1
    assert checked > 200 and on_wall > 50, (checked, on_wall)


def test_base_point_outside_the_window_is_rejected():
    with pytest.raises(WallspaceError, match="outside"):
        plane_space([vertical(0)], [3, 0])


def test_duplicate_walls_are_rejected():
    # Same wall written with two different normal scalings.
    dup = GeometricWall([-2, 0], Fraction(0))
    with pytest.raises(WallspaceError, match="distinct"):
        plane_space([vertical(0), dup], ["1/2", "1/3"])


def test_degenerate_window_is_rejected():
    with pytest.raises(WallspaceError, match="degenerate"):
        FiniteWallspace.geometric(2, [(0, 0), (-1, 1)],
                                  [vertical(0)], [1, 0])


def test_wall_cap():
    walls = [vertical(Fraction(i, 7)) for i in range(-12, 13)]
    assert len(walls) == WALL_CAP + 1
    with pytest.raises(WallCapError):
        plane_space(walls, ["13/7", 0], window=((-2, 2), (-2, 2)))


# -- orientations -----------------------------------------------------


def test_orientation_basics():
    o = Orientation.from_bitstring("0110")
    assert o.n == 4
    assert [o.side(i) for i in range(4)] == [0, 1, 1, 0]
    assert o.flip(0).to_bitstring() == "1110"
    assert o.flip(0).flip(0) == o
    with pytest.raises(ValueError):
        Orientation(16, 4)
    with pytest.raises(ValueError):
        Orientation.from_bitstring("01x0")
    with pytest.raises(AttributeError):
        o.bits = 3


def test_to_bitstring_matches_the_per_bit_join():
    for n in range(7):
        for bits in range(1 << n):
            o = Orientation(bits, n)
            assert o.to_bitstring() == "".join(
                "1" if o.side(i) else "0" for i in range(n))


@given(st.lists(st.sampled_from("01"), min_size=0, max_size=20))
def test_orientation_bitstring_round_trip(chars):
    s = "".join(chars)
    o = Orientation.from_bitstring(s)
    assert o.to_bitstring() == s
    assert Orientation.from_bitstring(o.to_bitstring()) == o


# -- small duals with known shapes ------------------------------------


def test_dual_of_a_crossing_pair_is_a_square():
    ws = plane_space([vertical(0), horizontal(0)], ["1/2", "1/3"])
    c = dual_complex(ws)
    assert c.vertex_count() == 4
    assert c.edge_count() == 4
    assert {o.to_bitstring() for o in c.orientations} == {"00", "01", "10", "11"}


def test_dual_of_parallel_walls_is_a_path():
    for k in range(1, 6):
        walls = [vertical(Fraction(2 * i + 1 - k, k)) for i in range(k)]
        ws = plane_space(walls, ["39/20", 0])
        c = dual_complex(ws)
        assert c.vertex_count() == k + 1
        assert c.edge_count() == k
        degrees = sorted(len(c.neighbors(i)) for i in range(k + 1))
        assert degrees == ([1, 1] + [2] * (k - 1) if k > 1 else [1, 1])


def test_dual_of_a_grid():
    for k1, k2 in ((1, 1), (2, 1), (2, 3)):
        walls = ([vertical(Fraction(2 * i + 1 - k1, k1)) for i in range(k1)]
                 + [horizontal(Fraction(2 * i + 1 - k2, k2)) for i in range(k2)])
        ws = plane_space(walls, ["39/20", "39/20"])
        c = dual_complex(ws)
        assert c.vertex_count() == (k1 + 1) * (k2 + 1)
        assert c.edge_count() == k1 * (k2 + 1) + k2 * (k1 + 1)
        assert is_median_graph(c)


def brute_force_masks(ws):
    """Every pairwise-consistent side choice, by exhaustive scan."""
    nwalls = len(ws.walls)
    found = set()
    for bits in range(1 << nwalls):
        if all(ws.sides_compatible(i, bits >> i & 1, j, bits >> j & 1)
               for i in range(nwalls) for j in range(i + 1, nwalls)):
            found.add(bits)
    return found


def test_dual_matches_the_exhaustive_scan():
    for ws in seeded_wallspaces(count=6, seed=3, max_walls=7):
        c = dual_complex(ws)
        expected = brute_force_masks(ws)
        assert {o.bits for o in c.orientations} == expected
        expected_edges = set()
        for b in expected:
            for j in range(len(ws.walls)):
                other = b ^ (1 << j)
                if other in expected:
                    edge = (min(b, other), max(b, other), j)
                    expected_edges.add(edge)
        got = {(min(c.orientations[u].bits, c.orientations[v].bits),
                max(c.orientations[u].bits, c.orientations[v].bits), w)
               for u, v, w in c.edges}
        assert got == expected_edges


def crossed_walls(c):
    """The walls that label some edge of c, sorted."""
    return sorted({wall for _, _, wall in c.edges})


def test_every_wall_is_realized_by_some_edge():
    for ws in seeded_wallspaces(count=5, seed=8, max_walls=8):
        c = dual_complex(ws)
        assert crossed_walls(c) == list(range(len(ws.walls)))


# -- metric structure -------------------------------------------------


def grid_complex():
    walls = [vertical("-1/2"), vertical("1/2"),
             horizontal("-1/2"), horizontal("1/2")]
    return dual_complex(plane_space(walls, ["39/20", "39/20"]))


def test_distance_counts_separating_walls():
    c = grid_complex()
    center = Orientation.from_bitstring("1010")
    corner = Orientation.from_bitstring("0000")
    assert distance(c, center, center) == 0
    assert distance(c, center, corner) == 2
    assert distance(c, corner, corner.flip(0)) == 1


def test_distance_agrees_with_the_edge_graph():
    for ws in seeded_wallspaces(count=5, seed=21, max_walls=7):
        c = dual_complex(ws)
        for start in range(c.vertex_count()):
            bfs = c.bfs_distances(start)
            o = c.orientations[start]
            for j, d in enumerate(bfs):
                assert d == distance(c, o, c.orientations[j])


def test_membership_errors():
    c = grid_complex()
    inside = c.orientations[0]
    outside = Orientation.from_bitstring("0101")  # x < -1/2 and x > 1/2
    assert not c.contains(outside)
    with pytest.raises(MembershipError):
        c.index_of(outside)
    with pytest.raises(MembershipError):
        distance(c, inside, outside)
    with pytest.raises(MembershipError):
        median(c, inside, inside, Orientation(0, 3))


def test_median_is_the_majority_vote():
    c = grid_complex()
    x = Orientation.from_bitstring("0000")
    y = Orientation.from_bitstring("1110")
    z = Orientation.from_bitstring("1011")
    m = median(c, x, y, z)
    assert m == Orientation.from_bitstring("1010")
    assert distance(c, x, m) + distance(c, m, y) == distance(c, x, y)
    assert distance(c, x, m) + distance(c, m, z) == distance(c, x, z)
    assert distance(c, y, m) + distance(c, m, z) == distance(c, y, z)
    assert median(c, x, x, z) == x


def hexagon_complex():
    """A 6-cycle over three walls; a valid complex but not median."""
    strings = ["000", "100", "110", "111", "011", "001"]
    orientations = [Orientation.from_bitstring(s) for s in strings]
    edges = []
    for u in range(6):
        v = (u + 1) % 6
        wall = (orientations[u].bits ^ orientations[v].bits).bit_length() - 1
        edges.append((u, v, wall))
    return StoredEdgeComplex(3, orientations, edges)


def cubic_is_median_graph(c):
    """Oracle: the vertex-triple scan that is_median_graph replaced.

    For every vertex triple, the wallwise majority must be a vertex
    lying on graph geodesics between each of the three pairs.  Uses
    breadth-first distances, so it does not presuppose that graph
    distance equals wall-counting distance.
    """
    count = c.vertex_count()
    bits_list = [o.bits for o in c.orientations]
    index = c._index
    dist = [c.bfs_distances(i) for i in range(count)]
    for i in range(count):
        bi = bits_list[i]
        for j in range(i, count):
            bj = bits_list[j]
            dij = dist[i][j]
            for k in range(j, count):
                bk = bits_list[k]
                m = (bi & bj) | (bi & bk) | (bj & bk)
                at = index.get(m)
                if at is None:
                    return False
                if dist[i][at] + dist[at][j] != dij:
                    return False
                if dist[i][at] + dist[at][k] != dist[i][k]:
                    return False
                if dist[j][at] + dist[at][k] != dist[j][k]:
                    return False
    return True


def frozenset_duality_check(c):
    """Oracle: the hyperplane round trip that duality_check replaced.

    Each realized wall splits the 0-cube indices into two side classes,
    kept as frozensets, and two sides are compatible when their classes
    intersect.  The consistent orientations are found by breadth-first
    flipping from 0-cube 0's sides, with no bound on how far the walk
    goes, and compared with the 0-cubes projected onto the realized
    walls: vertex sets, then labelled edge sets.
    """
    realized = crossed_walls(c)
    n = len(realized)
    sides = [(frozenset(k for k, o in enumerate(c.orientations)
                        if not o.side(wall)),
              frozenset(k for k, o in enumerate(c.orientations)
                        if o.side(wall)))
             for wall in realized]
    meet = {(p, s, q, t): bool(sides[p][s] & sides[q][t])
            for p in range(n) for q in range(n) for s in (0, 1)
            for t in (0, 1)}

    def project(bits):
        return sum(1 << p for p, wall in enumerate(realized)
                   if bits >> wall & 1)

    start = project(c.orientations[0].bits)
    queue, found, edges = [start], {start}, set()
    for bits in queue:
        for p in range(n):
            flipped = bits ^ 1 << p
            if all(meet[p, flipped >> p & 1, q, flipped >> q & 1]
                   for q in range(n) if q != p):
                edges.add((min(bits, flipped), max(bits, flipped), p))
                if flipped not in found:
                    found.add(flipped)
                    queue.append(flipped)
    vertices = {project(o.bits) for o in c.orientations}
    position = {wall: p for p, wall in enumerate(realized)}
    original_edges = set()
    for u, v, wall in c.edges:
        bu, bv = project(c.orientations[u].bits), project(c.orientations[v].bits)
        original_edges.add((min(bu, bv), max(bu, bv), position[wall]))
    return (len(vertices) == c.vertex_count() and found == vertices
            and edges == original_edges)


def counted_edges_is_median_graph(c):
    """Oracle: the verdict that counted the bounded walk's edges.

    The walk inside the 0-cubes lists every hypercube edge between
    them, and c must carry them all."""
    walk = stored_edge_walk(_member_clauses(c._index, c.num_walls),
                            c.orientations[0].bits, within=c._index)
    return walk is not None and len(walk[1]) == c.edge_count()


def median_verdicts(c):
    """The linear check, the edge-count and cubic oracles and the
    frozenset duality round trip; on a walked dual also is_median_graph
    and duality_check."""
    verdicts = {is_median_complex(c), counted_edges_is_median_graph(c),
                cubic_is_median_graph(c), frozenset_duality_check(c)}
    if isinstance(c, CubeComplex):
        verdicts |= {is_median_graph(c), duality_check(c)}
    assert len(verdicts) == 1, c.to_json_dict()
    return verdicts.pop()


def complex_of(num_walls, bit_sets, drop=()):
    """The complex on the given 0-cubes with every hypercube edge but drop."""
    orientations = [Orientation(b, num_walls) for b in bit_sets]
    index = {b: k for k, b in enumerate(bit_sets)}
    edges = [(index[b], index[b ^ 1 << j], j)
             for b in bit_sets for j in range(num_walls)
             if b >> j & 1 and b ^ 1 << j in index]
    return StoredEdgeComplex(num_walls, orientations,
                             [e for k, e in enumerate(edges) if k not in drop])


def test_the_hexagon_is_not_median():
    c = hexagon_complex()
    assert c.vertex_count() == 6
    assert not left_out_edges(c)
    assert not is_median_set(c._index, 3)
    assert median_verdicts(c) is False


def crossing_cycle(num_walls):
    """The cycle 0 -> 1 -> 11 -> ... -> 1...1 -> 01...1 -> ... -> 0...01.

    Walls are set one at a time in order, then cleared in the same
    order.  Every pair of walls shows all four side pairs, so the
    clause closure of its 2 * num_walls 0-cubes is the whole cube.
    """
    bit_sets = [(1 << k) - 1 for k in range(num_walls + 1)]
    bit_sets += [bit_sets[-1] ^ ((1 << k) - 1) for k in range(1, num_walls)]
    return complex_of(num_walls, bit_sets)


def test_a_long_crossing_cycle_is_not_median():
    c = crossing_cycle(30)
    assert (c.vertex_count(), c.edge_count()) == (60, 60)
    assert len(crossed_walls(c)) == 30 > WALL_CAP
    assert not left_out_edges(c)
    assert not is_median_set(c._index, 30)
    assert not is_median_complex(c)
    assert not cubic_is_median_graph(c)


def test_a_lone_vertex_meets_its_one_wall_clause():
    # V = {"0"} over one wall: the unary clause "wall 0 on side 0"
    # forbids the flip to "1", so the single vertex is median.
    c = StoredEdgeComplex(1, [Orientation.from_bitstring("0")], [])
    assert median_verdicts(c) is True
    # Walls that never flip: wall 1 of an edge, wall 2 of a square.
    assert median_verdicts(complex_of(2, [0b00, 0b01])) is True
    square = [0b000, 0b001, 0b011, 0b010]
    assert median_verdicts(complex_of(3, square)) is True
    assert median_verdicts(complex_of(3, square, drop={0})) is False


def test_a_stored_edge_endpoint_must_be_a_zero_cube():
    """-1 would wrap to the last 0-cube and 2 would index past it."""
    zero_cubes = [Orientation(0, 2), Orientation(1, 2)]
    for edge in ((-1, 0, 0), (0, -1, 0), (2, 0, 1), (0, 2, 1)):
        with pytest.raises(ValueError, match="outside the 2 0-cubes"):
            StoredEdgeComplex(2, zero_cubes, [edge])
    assert StoredEdgeComplex(2, zero_cubes, [(1, 0, 0)]).edges == \
        ((0, 1, 0),)


def test_a_square_missing_an_edge_is_not_median():
    square = complex_of(2, [0b00, 0b01, 0b11, 0b10])
    assert square.edge_count() == 4
    assert median_verdicts(square) is True
    path = complex_of(2, [0b00, 0b01, 0b11, 0b10], drop={0})
    assert path.edge_count() == 3
    assert median_verdicts(path) is False




def test_duals_are_median_and_self_dual():
    for ws in seeded_wallspaces(count=8, seed=13, max_walls=7):
        c = dual_complex(ws)
        assert is_median_graph(c)
        assert duality_check(c)


def test_median_check_agrees_with_the_oracles_on_seeded_duals():
    # The wallspaces of acceptance criterion 8.
    for ws in seeded_wallspaces(count=50, seed=0, max_walls=10):
        assert median_verdicts(dual_complex(ws)) is True


def connected_subset(rng, n):
    """A random connected vertex set of Q_n, grown one neighbour at a time."""
    target = rng.randrange(1, 2 ** n + 1)
    members = [rng.randrange(2 ** n)]
    seen = set(members)
    while len(members) < target:
        b = rng.choice(members) ^ 1 << rng.randrange(n)
        if b not in seen:
            seen.add(b)
            members.append(b)
    return members


def two_clause_solutions(rng, n):
    """The solutions of random one- and two-wall clauses: a median set."""
    clauses = []
    for _ in range(rng.randrange(n + 2)):
        i, j = rng.randrange(n), rng.randrange(n)
        clauses.append((i, rng.randrange(2), j, rng.randrange(2)))
    return [b for b in range(2 ** n)
            if all(b >> i & 1 == si or b >> j & 1 == sj
                   for i, si, j, sj in clauses)]


def drop_edges(rng, c):
    """Drop random edges of c as long as the 1-skeleton stays connected."""
    edges = list(c.edges)
    for _ in range(rng.randrange(1, 4)):
        if not edges:
            break
        trial = list(edges)
        del trial[rng.randrange(len(trial))]
        try:
            c = StoredEdgeComplex(c.num_walls, c.orientations, trial)
        except ValueError:
            continue
        edges = trial
    return c


def test_median_check_agrees_with_the_oracles_on_fuzzed_subcubes():
    rng = random.Random(20260)
    counts = {True: 0, False: 0}
    dropped = 0
    trial = 0
    while counts[True] + counts[False] < 2000:
        trial += 1
        n = rng.randrange(1, 6)
        if trial % 2:
            bit_sets = connected_subset(rng, n)
        else:
            bit_sets = two_clause_solutions(rng, n)
            if not bit_sets:
                continue
            if len(bit_sets) > 1 and trial % 4 == 2:
                # One vertex fewer, if that leaves the set connected.
                del bit_sets[rng.randrange(len(bit_sets))]
        try:
            c = complex_of(n, bit_sets)
        except ValueError:
            continue
        if trial % 5 == 0:
            full = c.edge_count()
            c = drop_edges(rng, c)
            dropped += c.edge_count() < full
        counts[median_verdicts(c)] += 1
    assert counts[True] > 500 and counts[False] > 500, counts
    assert dropped > 100


def test_median_check_agrees_with_the_edge_count_on_duals():
    rng = random.Random(1808)
    verdicts = []
    for dimension in range(1, 5):
        for ws in seeded_wallspaces(count=8, seed=80 + dimension,
                                    max_walls=8, dimension=dimension):
            c = dual_complex(ws)
            verdicts.append((is_median_graph(c),
                             counted_edges_is_median_graph(c)))
            # The same 0-cubes with edges left out, if still connected.
            c = drop_edges(rng, c)
            if left_out_edges(c):
                verdicts.append((is_median_complex(c),
                                 counted_edges_is_median_graph(c)))
    c = dual_complex(fourteen_crossing_lines())
    assert c.vertex_count() == 2 ** 14
    verdicts.append((is_median_graph(c), counted_edges_is_median_graph(c)))
    assert all(new == old for new, old in verdicts)
    assert verdicts.count((True, True)) == 33
    assert verdicts.count((False, False)) > 10


# -- unions of separations --------------------------------------------


def walls_cross_by_scan(c, i, j):
    """Oracle: the per-pair scan that union_orientation used to run.

    Two walls cross when all four side combinations occur.
    """
    seen = set()
    for o in c.orientations:
        seen.add((o.side(i), o.side(j)))
        if len(seen) == 4:
            return True
    return False


def test_clause_table_crossing_matches_the_pairwise_scan():
    verdicts = {True: 0, False: 0}
    for ws in seeded_wallspaces(count=8, seed=13, max_walls=7):
        c = dual_complex(ws)
        forbid = _member_clauses(c._index, c.num_walls)
        for i in range(c.num_walls):
            for j in range(c.num_walls):
                if i == j:
                    continue
                cross = walls_cross_by_scan(c, i, j)
                assert cross == (not any(rule >> j & 1 for rules in forbid[i]
                                         for rule in rules))
                verdicts[cross] += 1
                # union_orientation reads the same table wherever a
                # 0-cube has both flips.
                for x in c.orientations:
                    y, z = x.flip(i), x.flip(j)
                    if c.contains(y) and c.contains(z):
                        if cross:
                            union_orientation(c, x, y, z)
                        else:
                            with pytest.raises(CrossingConditionError,
                                               match="cross"):
                                union_orientation(c, x, y, z)
    assert verdicts[True] > 0 and verdicts[False] > 0, verdicts


def test_union_across_a_square():
    ws = plane_space([vertical(0), horizontal(0)], ["1/2", "1/3"])
    c = dual_complex(ws)
    x = Orientation.from_bitstring("11")
    y = x.flip(0)
    z = x.flip(1)
    u = union_orientation(c, x, y, z)
    assert u == Orientation.from_bitstring("00")
    assert distance(c, x, u) == distance(c, x, y) + distance(c, x, z)


def test_union_rejects_overlapping_separators():
    ws = plane_space([vertical(0), horizontal(0)], ["1/2", "1/3"])
    c = dual_complex(ws)
    x = Orientation.from_bitstring("11")
    y = x.flip(0)
    with pytest.raises(CrossingConditionError, match="disjoint"):
        union_orientation(c, x, y, y)


def test_union_rejects_non_crossing_separators():
    ws = plane_space([vertical("-1/2"), vertical("1/2")], ["39/20", 0])
    c = dual_complex(ws)
    middle = Orientation.from_bitstring("10")
    left = middle.flip(0)
    right = middle.flip(1)
    with pytest.raises(CrossingConditionError, match="cross"):
        union_orientation(c, middle, left, right)


def test_union_in_a_bigger_grid():
    c = grid_complex()
    x = Orientation.from_bitstring("1010")
    y = Orientation.from_bitstring("0010")  # differs on wall 0
    z = Orientation.from_bitstring("1011")  # differs on wall 3
    u = union_orientation(c, x, y, z)
    assert u == Orientation.from_bitstring("0011")


# -- vertex links -----------------------------------------------------


def test_link_of_an_interior_grid_vertex_is_a_four_cycle():
    c = grid_complex()
    center = Orientation.from_bitstring("1010")
    link = link_of_vertex(c, center)
    assert link.f_vector() == (4, 4)
    assert is_isomorphic(link, build_Qn(2))
    # Parallel walls never bound a common square.
    assert not link.has_edge(0, 1)
    assert not link.has_edge(2, 3)


def test_link_of_a_corner_vertex():
    c = grid_complex()
    corner = Orientation.from_bitstring("0000")
    link = link_of_vertex(c, corner)
    assert link.f_vector() == (2, 1)


def test_link_in_a_path_has_no_edges():
    ws = plane_space([vertical("-1/2"), vertical("1/2")], ["39/20", 0])
    c = dual_complex(ws)
    middle = Orientation.from_bitstring("10")
    assert link_of_vertex(c, middle).f_vector() == (2,)


# -- seeded generation ------------------------------------------------


def test_seeded_wallspaces_are_deterministic():
    a = seeded_wallspaces(count=4, seed=17)
    b = seeded_wallspaces(count=4, seed=17)
    assert [ws.to_json_dict() for ws in a] == [ws.to_json_dict() for ws in b]
    other = seeded_wallspaces(count=4, seed=18)
    assert ([ws.to_json_dict() for ws in a]
            != [ws.to_json_dict() for ws in other])


SEEDED_DIGESTS = {
    0: "10da40cd9b081c5a3b7578f7050e71a8ee88f6d05d77b1c023bf925e39e7936c",
    1: "fee46af9a7026b053b874c871e01ff5f21c5d13d4a1e74c3bf59172877fc3fe2",
    2: "f9a612aa443bf5300c1c79def2df704e80c22a0a05c474ad2dbf247ea9ab2e34",
}


@pytest.mark.parametrize("seed", sorted(SEEDED_DIGESTS))
def test_seeded_wallspaces_are_pinned(seed):
    # The dual-check benchmark corpus is built from exactly these calls.
    spaces = seeded_wallspaces(count=32, seed=seed, max_walls=5)
    text = json.dumps([ws.to_json_dict() for ws in spaces], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SEEDED_DIGESTS[seed]


def test_seeded_wallspaces_are_pinned_across_dimensions():
    # Pins the random draws, including the base points drawn again
    # because they lie on a wall.
    digest = hashlib.sha256()
    for dimension in (1, 2, 3, 4):
        for seed in range(6):
            for max_walls in (5, 8, 12):
                for ws in seeded_wallspaces(seed=seed, max_walls=max_walls,
                                            dimension=dimension):
                    digest.update(json.dumps(ws.to_json_dict(),
                                             sort_keys=True).encode())
    assert digest.hexdigest() == (
        "abf04ae4d923d1c90567891515bbb91517216e5b2616d4534325370ead7eaba1")


def test_seeded_wallspaces_are_valid_and_bounded():
    spaces = seeded_wallspaces(count=10, seed=2, max_walls=6)
    assert len(spaces) == 10
    for ws in spaces:
        assert 3 <= len(ws.walls) <= 6
        for w in ws.walls:
            assert w.side(ws.base_point) != 0


# -- file round trips -------------------------------------------------


def test_wallspace_file_round_trip(tmp_path):
    ws = plane_space([vertical(0), horizontal("1/2")], ["1/2", "1/3"])
    path = tmp_path / "space.json"
    save_wallspace(ws, path)
    back = load_wallspace(path)
    assert back.to_json_dict() == ws.to_json_dict()
    assert dual_complex(back).vertex_count() == dual_complex(ws).vertex_count()


def test_wallspace_file_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "cubecrys-walls/9"}')
    with pytest.raises(WallspaceError, match="format"):
        load_wallspace(path)
    path.write_text("{nope")
    with pytest.raises(WallspaceError, match="line 1"):
        load_wallspace(path)
    good = plane_space([vertical(0)], ["1/2", 0]).to_json_dict()
    del good["window"]
    path.write_text(json.dumps(good))
    with pytest.raises(WallspaceError, match="missing key"):
        load_wallspace(path)


@pytest.mark.parametrize("dimension", [2.7, "2", 2.0, True, 0, -1])
def test_wallspace_file_dimension_must_be_a_positive_json_integer(dimension):
    d = plane_space([vertical(0)], ["1/2", 0]).to_json_dict()
    d["dimension"] = dimension
    with pytest.raises(WallspaceError, match="dimension"):
        wallspace_from_json_dict(d)


def stored_edge_file_text(ws) -> str:
    """The complex file of ws's dual, as json.dumps writes the
    stored-edge oracle's dict."""
    return json.dumps(stored_edge_dual(ws).to_json_dict(), indent=2,
                      sort_keys=True) + "\n"


def test_complex_file_round_trip(tmp_path):
    ws = plane_space([vertical(0), horizontal(0)], ["1/2", "1/3"])
    c = dual_complex(ws)
    path = tmp_path / "complex.json"
    write_json(path, c.to_json_dict())
    assert path.read_text() == stored_edge_file_text(ws)
    back = json.loads(path.read_text())
    assert back == c.to_json_dict()
    bits = {Orientation.from_bitstring(s).bits for s in back["zero_cubes"]}
    assert bits == {o.bits for o in c.orientations}
    assert is_median_set(bits, len(back["walls"]))


def test_written_complexes_with_walls_round_trip_byte_for_byte(tmp_path):
    path = tmp_path / "c.json"
    spaces = (seeded_wallspaces(count=3, seed=3, max_walls=6)
              + seeded_wallspaces(count=3, seed=4, max_walls=6, dimension=3))
    for ws in spaces:
        write_json(path, dual_complex(ws).to_json_dict())
        assert len(json.loads(path.read_text())["walls"]) == len(ws.walls)
        assert path.read_bytes() == stored_edge_file_text(ws).encode()


@pytest.mark.parametrize("value", [True, False])
def test_a_wallspace_refuses_bools(value):
    with pytest.raises(ValueError, match="not a serialized rational"):
        plane_space([vertical(0)], [value, "1/3"])
    with pytest.raises(ValueError, match="not a serialized rational"):
        plane_space([vertical(0)], ["1/2", "1/3"],
                    window=((-2, 2), (value, 2)))


# -- the edge list ----------------------------------------------------


def test_cube_complex_sorts_and_dedupes_edges_like_sorted_set():
    ws = plane_space([vertical(-1), vertical(1), horizontal(0),
                      GeometricWall([1, 1], Fraction(0))],
                     ["1/2", "1/3"])
    c = dual_complex(ws)
    rng = random.Random(0)
    for _ in range(20):
        edges = list(c.edges) + rng.sample(c.edges, len(c.edges) // 2)
        edges = [(v, u, w) if rng.random() < 0.5 else (u, v, w)
                 for u, v, w in edges]
        rng.shuffle(edges)
        # The walk keeps each edge once, in walk order; edges sorts them.
        assert c.edges == tuple(sorted(set(
            (min(u, v), max(u, v), w) for u, v, w in edges)))
        assert c.edges == StoredEdgeComplex(c.num_walls, c.orientations,
                                            edges).edges


# -- the 0-cube list against the stored-edge oracle -------------------


def assert_matches_stored_edges(c, old, starts=(0,), step=1, median=True):
    """c derives what old stores: vertices, edges, adjacency, links (at
    every step-th vertex), distances from each start, the median verdict
    and the JSON bytes."""
    assert tuple(c.orientations) == old.orientations
    rows, old_rows = c.to_json_dict()["edges"], old.to_json_dict()["edges"]
    assert rows == old_rows
    n = old.vertex_count()
    for cut in (slice(None), slice(1, None, 2), slice(-3, None),
                slice(None, None, -1), slice(n, None)):
        assert c.orientations[cut] == old.orientations[cut]
        assert rows[cut] == old_rows[cut]
    for k in (-1, -n):
        assert c.orientations[k] == old.orientations[k]
    assert c.edges == old.edges
    assert (c.vertex_count(), c.edge_count()) == (old.vertex_count(),
                                                  old.edge_count())
    for k in range(0, old.vertex_count(), step):
        o = old.orientations[k]
        assert c.neighbors(k) == old.neighbors(k)
        assert link_of_vertex(c, o) == stored_link_of_vertex(old, o)
    for start in starts:
        assert c.bfs_distances(start) == old.bfs_distances(start)
    if median:
        assert is_median_graph(c) == stored_is_median_graph(old)
    assert json_text(c.to_json_dict()) == json_text(old.to_json_dict())


def test_a_walked_dual_stores_its_zero_cubes_and_one_code_per_edge():
    ws = plane_space([vertical("-1/2"), vertical("1/2"),
                      horizontal("-1/3"), horizontal("1/3")],
                     ["39/20", "3/2"], window=(("-9/4", 2), (-2, "5/3")))
    # The side test sees integers only.
    assert all(type(x) is int for bounds in ws._box for x in bounds)
    assert all(type(x) is int for sides in ws._sides for a, b in sides
               for x in (*a, b))
    c = dual_complex(ws)
    assert set(vars(c)) == {"num_walls", "wallspace", "_bits", "_index",
                            "_edges", "_orientations"}
    assert all(type(b) is int for b in c._bits)
    assert all(type(b) is int and type(k) is int
               for b, k in c._index.items())
    assert c._orientations._bits is c._bits
    # The walk's edges, one 8-byte code u << W | v each, u < v.
    assert type(c._edges) is array and c._edges.typecode == "q"
    assert c._edges.itemsize == 8 and c.num_walls == 4
    assert len(c._edges) == c.edge_count()
    assert sorted((u << 4 | v) for u, v, _ in c.edges) == sorted(c._edges)
    assert (c.vertex_count(), c.edge_count()) == (9, 12)


def test_walked_duals_match_the_stored_edge_oracle():
    for dimension in range(1, 5):
        for ws in seeded_wallspaces(count=8, seed=40 + dimension,
                                    max_walls=8, dimension=dimension):
            c = dual_complex(ws)
            assert_matches_stored_edges(c, stored_edge_dual(ws),
                                        starts=range(c.vertex_count()))


def test_spatial_arrangement_matches_the_stored_edge_oracle():
    ws = spatial_arrangement()
    c = dual_complex(ws)
    assert (c.vertex_count(), c.edge_count()) == (18432, 125952)
    assert_matches_stored_edges(c, stored_edge_dual(ws), starts=(0, 18431),
                                step=97, median=False)


def fuzzed_complex_input(rng):
    """(walls, orientations, edges): a connected 0-cube set's hypercube
    edges with some dropped, some repeated and some reversed."""
    n = rng.randrange(1, 6)
    bit_sets = (connected_subset(rng, n) if rng.random() < 0.5
                else two_clause_solutions(rng, n))
    orientations = [Orientation(b, n) for b in bit_sets]
    index = {b: k for k, b in enumerate(bit_sets)}
    edges = [(index[b], index[b ^ 1 << j], j)
             for b in bit_sets for j in range(n)
             if b >> j & 1 and b ^ 1 << j in index]
    rng.shuffle(edges)
    del edges[:rng.choice((0, 0, 1, 2))]
    edges += [(v, u, w) for u, v, w in rng.sample(edges, len(edges) // 3)]
    return n, orientations, edges


# -- the flip walk's edge codes against the stored-edge walk ---------


def per_wall_keys(bits, nwalls):
    """Oracle: the sorted codes u << W | v (u < v) of the induced edges,
    found by one index lookup per 0-cube and wall."""
    index = {b: k for k, b in enumerate(bits)}
    return sorted(u << nwalls | v for u, b in enumerate(bits)
                  for j in range(nwalls)
                  if (v := index.get(b ^ 1 << j, -1)) > u)


def assert_walk_matches_stored_edges(forbid, start, within=None):
    """_flip_closure and stored_edge_walk agree on the queue, the index,
    the edges (as codes u << W | v; none are kept for a walk `within`)
    and the walls they cross.  Returns the walk."""
    walk = _flip_closure(forbid, start, within)
    old = stored_edge_walk(forbid, start, within)
    assert (walk is None) == (old is None)
    if walk is None:
        return None
    (queue, index, codes, realized), (old_queue, old_edges) = walk, old
    nwalls = len(forbid)
    assert queue == old_queue
    assert index == {b: k for k, b in enumerate(old_queue)}
    assert type(codes) is array and codes.typecode == "q"
    if within is None:
        assert sorted(codes) == sorted(u << nwalls | v
                                       for u, v, _ in old_edges)
    else:
        assert len(codes) == 0
    crossed = 0
    for _, _, j in old_edges:
        crossed |= 1 << j
    assert realized == crossed
    return walk


def walk_test_spaces():
    yield from (ws for dimension in range(1, 5)
                for ws in seeded_wallspaces(count=6, seed=60 + dimension,
                                            max_walls=8, dimension=dimension))
    yield spatial_arrangement()
    yield ten_crossing_lines()
    yield fourteen_crossing_lines()
    yield plane_space([], ["1/2", "1/3"])
    yield plane_space([vertical("1/3")], ["1/2", "1/3"])


def test_the_flip_walk_keeps_the_stored_edge_walks_edges():
    sizes = []
    for ws in walk_test_spaces():
        forbid, base = window_clauses(ws)
        queue, _, codes, _ = assert_walk_matches_stored_edges(forbid, base)
        c = dual_complex(ws)
        assert c._bits == queue and sorted(c._edges) == sorted(codes)
        assert c.edge_count() == len(codes)
        assert c._edge_keys() == per_wall_keys(c._bits, c.num_walls)
        sizes.append((len(ws.walls), c.vertex_count(), c.edge_count()))
    assert sizes[-5:] == [(15, 18432, 125952), (10, 1024, 5120),
                          (14, 16384, 114688), (0, 1, 0), (1, 2, 1)]


def test_a_walk_inside_members_stops_where_the_stored_edge_walk_does():
    rng = random.Random(4242)
    walked = {True: 0, False: 0}
    while sum(walked.values()) < 600:
        n, orientations, edges = fuzzed_complex_input(rng)
        try:
            c = StoredEdgeComplex(n, orientations, edges)
        except ValueError:
            continue
        walk = assert_walk_matches_stored_edges(
            _member_clauses(c._index, n), orientations[0].bits,
            within=c._index)
        assert is_median_set(c._index, n) == (walk is not None)
        walked[walk is None] += 1
    assert walked[True] > 50 and walked[False] > 100, walked


class CountedRule(int):
    """A clause bitmask that counts the clause tests reading it."""

    reads = 0

    def __rand__(self, other):
        CountedRule.reads += 1
        return int(other) & int(self)


def test_the_flip_walk_tests_clauses_only_on_flips_to_new_bitmasks():
    # Every 2^10 side choice of ten crossing lines is a 0-cube, so only
    # the 1,023 discovery flips reach a new bitmask; the other 9,217 of
    # the 10 * 1024 flips join two reached ones and read no clause.
    forbid, base = window_clauses(ten_crossing_lines())
    counted = [[[CountedRule(t) for t in row] for row in rules]
               for rules in forbid]
    CountedRule.reads = 0
    queue, _, codes, _ = _flip_closure(counted, base)
    assert (len(queue), len(codes)) == (1024, 5120)
    assert 1023 <= CountedRule.reads <= 2 * 1023


# -- hand-made complexes ---------------------------------------------


def square(zero_cubes, pairs):
    """The StoredEdgeComplex on the given bitstrings and [u, v] pairs."""
    orientations = [Orientation.from_bitstring(z) for z in zero_cubes]
    return StoredEdgeComplex(
        len(zero_cubes[0]), orientations,
        [(u, v, (orientations[u].bits ^ orientations[v].bits).bit_length()
          - 1) for u, v in pairs])


def test_loaded_zero_cubes_need_no_breadth_first_order():
    c = square(["11", "00", "10", "01"], [[1, 2], [1, 3], [0, 2], [3, 0]])
    assert [o.to_bitstring() for o in c.orientations] == ["11", "00",
                                                         "10", "01"]
    assert c.edges == ((0, 2, 1), (0, 3, 0), (1, 2, 0), (1, 3, 1))
    assert is_median_set(c._index, 2) and median_verdicts(c) is True


def test_loaded_repeated_and_reversed_edges_count_once():
    c = square(["00", "10", "11", "01"],
               [[1, 0], [0, 1], [1, 2], [2, 1], [2, 3], [0, 3], [3, 0], [1, 2]])
    assert c.edge_count() == 4
    assert c.to_json_dict()["edges"] == [[0, 1], [0, 3], [1, 2], [2, 3]]
    assert median_verdicts(c) is True


def test_orientation_slices_are_tuples_like_the_stored_tuple():
    c = grid_complex()
    old = stored_edge_dual(c.wallspace)
    assert c.orientations[0:2] == old.orientations[0:2]
    assert type(c.orientations[0:2]) is tuple
    assert c.orientations[-2:] == old.orientations[-2:]
    assert c.orientations[::-3] == old.orientations[::-3]
    assert c.orientations[-1] == old.orientations[-1] \
        == Orientation.from_bitstring(old.orientations[-1].to_bitstring())
    assert c.orientations[5:2] == ()
    with pytest.raises(IndexError):
        c.orientations[c.vertex_count()]
    with pytest.raises(IndexError):
        c.orientations[-c.vertex_count() - 1]


def test_complex_dicts_round_trip():
    seeded = [dual_complex(ws) for ws in seeded_wallspaces(
        count=4, seed=7, max_walls=8, dimension=3)]
    for c in (grid_complex(), *seeded):
        d = c.to_json_dict()
        assert isinstance(d["edges"], IndexPairs)
        assert d == stored_edge_dual(c.wallspace).to_json_dict()
        assert json.loads(json_text(d)) == d


def test_writing_a_complex_makes_no_edge_row(tmp_path, monkeypatch):
    def refuse(self, k):
        raise AssertionError("an edge row was made")

    for c in (grid_complex(), dual_complex(ten_crossing_lines())):
        expected = json.dumps(c.to_json_dict(), indent=2, sort_keys=True,
                              default=list)
        with monkeypatch.context() as m:
            m.setattr(IndexPairs, "__getitem__", refuse)
            assert json_text(c.to_json_dict()) == expected
            write_json(tmp_path / "c.json", c.to_json_dict())
        assert (tmp_path / "c.json").read_text() == expected + "\n"


def test_complex_files_round_trip_byte_for_byte(tmp_path):
    path = tmp_path / "c.json"
    for ws in (grid_complex().wallspace, ten_crossing_lines()):
        write_json(path, dual_complex(ws).to_json_dict())
        assert path.read_bytes() == stored_edge_file_text(ws).encode()
