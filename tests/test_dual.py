"""Tests for finite wallspaces and their dual cube complexes."""

import hashlib
import itertools
import json
import math
import random
import tracemalloc
from array import array
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cubecrys.dual
from cubecrys.boundary import is_isomorphic
from cubecrys.dual import (
    CrossingConditionError,
    CubeComplex,
    FiniteWallspace,
    MembershipError,
    Orientation,
    SEEDED_ROUNDS_PER_SPACE,
    WALL_CAP,
    WallCapError,
    WallspaceError,
    _extremes,
    _feasible,
    _flip_closure,
    _digit_columns,
    _member_clauses,
    _window_clauses,
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
from cubecrys.exactlin import (
    PAIRS_SLICE,
    DigitColumns,
    IndexPairs,
    dump_json,
    integral,
    write_json,
)
from cubecrys.sgnperm import build_Qn
from cubecrys.walls import GeometricWall
from inputs import (
    fourteen_crossing_lines,
    plane_families,
    spatial_arrangement,
    ten_crossing_lines,
)
from oracles import (
    StoredEdgeComplex,
    bfs_distances,
    brute_force_masks,
    counted_edges_is_median_graph,
    crossed_walls,
    cubic_is_median_graph,
    complex_json,
    edge_triples,
    fourier_motzkin_feasible,
    fraction_base_sides,
    fraction_feasible,
    fraction_halfspace,
    fraction_side,
    fraction_wall_offset,
    frozenset_duality_check,
    is_median_complex,
    left_out_edges,
    listed_zero_cubes,
    looped_member_clauses,
    per_wall_rows,
    sides_compatible,
    stored_edge_dual,
    stored_edge_walk,
    stored_is_median_graph,
    stored_link_of_vertex,
    walked_is_median_set,
    walls_cross_by_scan,
    window_clauses,
    zero_cubes,
)


def vertical(offset):
    return GeometricWall([1, 0], Fraction(offset))


def horizontal(offset):
    return GeometricWall([0, 1], Fraction(offset))


def plane_space(walls, base, window=((-2, 2), (-2, 2))):
    return FiniteWallspace(2, window, walls, base)


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
    """_feasible's two verdicts, each beside both oracles' on the same
    question: ((f > 0 and g > 0 meet the closed window, by _feasible,
    fraction_feasible and Fourier-Motzkin), (the same for f < 0 and
    g < 0)).

    f and g are (coefficients, offset) pairs for <a, x> + b; entries may
    be anything Fraction accepts.  _feasible gets the window scaled to
    integers the way FiniteWallspace scales it, and each side, over the
    scaled window, times the lcm of its denominators.  It reads only the
    break points, which decide for two functions that each split the
    window, so its verdicts are combined with each function's window
    extremes (max f, max g > 0 for the first; min f, min g < 0 for the
    second) to answer for any f and g.  The oracles get -f and -g for
    the second verdict.
    """
    window = tuple((Fraction(lo), Fraction(hi)) for lo, hi in window)
    f, g = ((tuple(map(Fraction, a)), Fraction(b)) for a, b in (f, g))
    scale, box = integral(window)

    def ints(a, b):
        *a, b = integral(((*a, b * scale),))[1][0]
        return tuple(a), b

    n = len(window)
    box_cons = []
    for k, (lo, hi) in enumerate(window):
        unit = tuple(int(i == k) for i in range(n))
        box_cons.append((unit, hi, False))
        box_cons.append((tuple(-e for e in unit), -lo, False))
    fi, gi = ints(*f), ints(*g)
    (f_max, f_min), (g_max, g_min) = _extremes(box, fi), _extremes(box, gi)
    breaks = _feasible(box, fi, gi)
    verdicts = (breaks[0] and f_max > 0 and g_max > 0,
                breaks[1] and f_min < 0 and g_min < 0)
    out = []
    for sign, integer in zip((1, -1), verdicts):
        fs, gs = ((tuple(sign * e for e in a), sign * b) for a, b in (f, g))
        cons = box_cons + [(tuple(-e for e in a), b, True)
                           for a, b in (fs, gs)]
        out.append((integer, fraction_feasible(window, fs, gs),
                    fourier_motzkin_feasible(cons, n)))
    return tuple(out)


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
    met = met_opposite = 0
    for _ in range(5000):
        n = rng.randrange(1, 5)
        window = []
        for _ in range(n):
            lo = Fraction(rng.randrange(-6, 5), rng.choice((1, 2)))
            window.append((lo, lo + Fraction(rng.randrange(1, 9),
                                             rng.choice((1, 2)))))
        f, g = random_halfspace_pair(rng, n)
        same, opposite = three_verdicts(window, f, g)
        assert len(set(same)) == len(set(opposite)) == 1, (window, f, g)
        met += same[0]
        met_opposite += opposite[0]
    assert 1000 < met < 4000 and 1000 < met_opposite < 4000
    square = ((-1, 1), (-1, 1))
    # (window, f, g, verdict for f, g > 0, verdict for f, g < 0)
    hand = [
        # x + y > 2 touches the square only at its corner (1, 1).
        (square, ((1, 1), -2), ((1, 1), -2), False, True),
        # 1 < 0 nowhere.
        (square, ((1, 1), -2), ((0, 0), 1), False, False),
        (square, ((1, 1), "-19/10"), ((1, 1), "-19/10"), True, True),
        # x > 0 and -x > 0 never meet, and neither do x < 0 and -x < 0.
        (((-1, 1),), ((1,), 0), ((-1,), 0), False, False),
        # x > 3 and 8 - 3x > 0 are disjoint, yet each is positive at its
        # own end of [1/2, 7/2]: only the break t = 3/4 rules them out.
        # x < 3 and 8 - 3x < 0 meet on (8/3, 3) at the same break.
        ((("1/2", "7/2"),), ((1,), -3), ((-3,), 8), False, True),
        ((("1/2", "7/2"),), ((1,), -2), ((-3,), 8), True, False),
    ]
    for window, f, g, same, opposite in hand:
        assert three_verdicts(window, f, g) == ((same,) * 3, (opposite,) * 3)


def test_the_window_test_reads_only_break_points():
    # Both functions split the box, so t = 0 and t = 1 decide nothing.
    # With no coefficient of opposite signs there is no break: x - 1
    # and y - 1, x - 1 and 2x + 1.
    box = ((-2, 2), (-2, 2))
    assert _feasible(box, ((1, 0), -1), ((0, 1), -1)) == (True, True)
    assert _feasible(box, ((1, 0), -1), ((2, 0), 1)) == (True, True)
    # x + y - 1 and 1 - x - y bend at t = 1/2 (on both axes, each read
    # unreduced), where their sum is 0 on the whole box: neither pair
    # of sides meets.
    assert _feasible(box, ((1, 1), -1), ((-1, -1), 1)) == (False, False)
    # The split check: max and min of x + y - 1 over the box.
    assert _extremes(box, ((1, 1), -1)) == (3, -5)
    assert _extremes(box, ((0, 0), 7)) == (7, 7)


def test_integer_side_test_on_windows_with_thirds_and_fifths():
    rng = random.Random(11)
    met = met_opposite = 0
    for _ in range(600):
        n = rng.randrange(1, 4)
        window = []
        for _ in range(n):
            lo = Fraction(rng.randrange(-18, 15), rng.choice((1, 3, 5)))
            window.append((lo, lo + Fraction(rng.randrange(1, 20),
                                             rng.choice((2, 3, 5)))))
        f, g = random_halfspace_pair(rng, n)
        same, opposite = three_verdicts(window, f, g)
        assert len(set(same)) == len(set(opposite)) == 1, (window, f, g)
        met += same[0]
        met_opposite += opposite[0]
    assert 100 < met < 500 and 100 < met_opposite < 500


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
                            assert sides_compatible(ws, i, si, j, sj) == (
                                si == sj if i == j else fraction_feasible(
                                    ws.window, fraction_halfspace(wi, si),
                                    fraction_halfspace(wj, sj)))
    assert pairs > 2000


def test_the_two_call_clause_table_matches_the_four_call_table():
    # dual_complex reads each pair of walls with two _feasible calls,
    # each deciding a pair of sides and the opposite pair; the oracle
    # makes one call per side pair and reads its first verdict only.
    spaces = [ws for seed in range(3) for dimension in range(1, 5)
              for ws in seeded_wallspaces(seed=seed, dimension=dimension)]
    spaces += [ten_crossing_lines(), fourteen_crossing_lines()]
    for ws in spaces:
        assert _window_clauses(ws) == window_clauses(ws)[0]
    assert len(spaces) == 602


# -- wallspace validation ---------------------------------------------


def test_geometric_wallspace_accepts_a_crossing_pair():
    ws = plane_space([vertical(0), horizontal(0)], ["1/2", "1/3"])
    # The walk starts at the base point's 0-cube.
    assert complex_json(dual_complex(ws))["zero_cubes"][0] == "11"


def test_an_entry_that_is_no_wall_is_refused_before_hashing():
    # A list is unhashable: the type check must come before the
    # distinctness check, so it fails as a tuple does.
    for entries in ([[1, 0]], [(1, 0)], [vertical(0), [0, 1]]):
        with pytest.raises(WallspaceError,
                           match="needs GeometricWall entries"):
            plane_space(entries, ["1/2", "1/3"])


def test_wall_outside_the_window_is_rejected():
    with pytest.raises(WallspaceError, match="split"):
        plane_space([vertical(5)], ["1/2", "1/3"])


def test_base_point_on_a_wall_is_rejected():
    with pytest.raises(WallspaceError, match="on wall"):
        plane_space([vertical(0), horizontal(0)], [0, "1/3"])


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


def test_wall_offsets_match_the_fraction_rescaling():
    # Int, string and Fraction entries; zero and negative leading
    # entries; normals that are not primitive.
    rng = random.Random(31)
    hand = [([-2, 0], "1/3"), (["-3/4", "1/2"], "5/7"), ([0, "-2/3"], -4),
            ([Fraction(6, 5), Fraction(-9, 10)], Fraction(-7, 3)),
            (["-1/2", 0, "3/2"], "0"), ([-5], "10/3")]

    def entry():
        num, den = rng.randrange(-9, 10), rng.randrange(1, 7)
        return rng.choice((0, num, Fraction(num, den), "%d/%d" % (num, den)))

    drawn = [([entry() for _ in range(n)], entry())
             for n in itertools.islice(itertools.cycle((1, 2, 3, 4)), 400)]
    checked = negative = 0
    for normal, offset in hand + drawn:
        if not any(Fraction(e) for e in normal):
            continue
        wall = GeometricWall(normal, offset)
        assert wall.offset == fraction_wall_offset(normal, offset)
        assert type(wall.offset) is Fraction
        checked += 1
        negative += next(Fraction(e) for e in normal if Fraction(e)) < 0
    assert checked > 350 and negative > 150, (checked, negative)


def test_degenerate_window_is_rejected():
    with pytest.raises(WallspaceError, match="degenerate"):
        FiniteWallspace(2, [(0, 0), (-1, 1)], [vertical(0)], [1, 0])


def test_wall_cap():
    walls = [vertical(Fraction(i, 7)) for i in range(-12, 13)]
    assert len(walls) == WALL_CAP + 1
    with pytest.raises(WallCapError):
        plane_space(walls, ["13/7", 0], window=((-2, 2), (-2, 2)))


# -- orientations -----------------------------------------------------


def test_orientation_basics():
    o = Orientation.from_bitstring("0110")
    assert o.n == 4
    assert [o.bits >> i & 1 for i in range(4)] == [0, 1, 1, 0]
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
                "1" if o.bits >> i & 1 else "0" for i in range(n))


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
    assert set(complex_json(c)["zero_cubes"]) == {"00", "01", "10", "11"}


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


def test_dual_matches_the_exhaustive_scan():
    for ws in seeded_wallspaces(count=6, seed=3, max_walls=7):
        c = dual_complex(ws)
        expected = brute_force_masks(ws)
        cubes = zero_cubes(c)
        assert {o.bits for o in cubes} == expected
        expected_edges = set()
        for b in expected:
            for j in range(len(ws.walls)):
                other = b ^ (1 << j)
                if other in expected:
                    edge = (min(b, other), max(b, other), j)
                    expected_edges.add(edge)
        got = {(min(cubes[u].bits, cubes[v].bits),
                max(cubes[u].bits, cubes[v].bits), w)
               for u, v, w in edge_triples(c)}
        assert got == expected_edges


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
        cubes = zero_cubes(c)
        for start in range(c.vertex_count()):
            bfs = bfs_distances(c, start)
            o = cubes[start]
            for j, d in enumerate(bfs):
                assert d == distance(c, o, cubes[j])


def test_membership_errors():
    c = grid_complex()
    inside = zero_cubes(c)[0]
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


def stored_complex(bitstrings, pairs):
    """The StoredEdgeComplex on the given bitstrings and [u, v] pairs."""
    orientations = [Orientation.from_bitstring(z) for z in bitstrings]
    return StoredEdgeComplex(
        len(bitstrings[0]), orientations,
        [(u, v, (orientations[u].bits ^ orientations[v].bits).bit_length()
          - 1) for u, v in pairs])


def hexagon_complex():
    """A 6-cycle over three walls; a valid complex but not median."""
    return stored_complex(["000", "100", "110", "111", "011", "001"],
                          [(u, (u + 1) % 6) for u in range(6)])


def median_verdicts(c):
    """The median scan (with no induced edge left out), the walk inside
    the 0-cubes, the edge-count and cubic oracles and the frozenset
    duality round trip; on a walked dual also is_median_graph and
    duality_check."""
    verdicts = {not left_out_edges(c) and is_median_set(c._index,
                                                         c.num_walls),
                is_median_complex(c), counted_edges_is_median_graph(c),
                cubic_is_median_graph(c), frozenset_duality_check(c)}
    if isinstance(c, CubeComplex):
        verdicts |= {is_median_graph(c), duality_check(c)}
    assert len(verdicts) == 1, c.to_json_dict()
    return verdicts.pop()


def hypercube_edges(num_walls, bit_sets):
    """(orientations, edges): the given 0-cubes and every hypercube edge
    (u, v, wall) between them."""
    orientations = [Orientation(b, num_walls) for b in bit_sets]
    index = {b: k for k, b in enumerate(bit_sets)}
    edges = [(index[b], index[b ^ 1 << j], j)
             for b in bit_sets for j in range(num_walls)
             if b >> j & 1 and b ^ 1 << j in index]
    return orientations, edges


def complex_of(num_walls, bit_sets, drop=()):
    """The complex on the given 0-cubes with every hypercube edge but drop."""
    orientations, edges = hypercube_edges(num_walls, bit_sets)
    return StoredEdgeComplex(num_walls, orientations,
                             [e for k, e in enumerate(edges) if k not in drop])


def test_the_hexagon_is_not_median():
    c = hexagon_complex()
    assert c.vertex_count() == 6
    assert not left_out_edges(c)
    assert not assert_scan_matches_the_walk(c._index, 3)
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
    assert not is_median_complex(c)
    assert not cubic_is_median_graph(c)
    with pytest.raises(WallCapError, match="at most 24 walls"):
        is_median_set(c._index, 30)


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
    cubes = [Orientation(0, 2), Orientation(1, 2)]
    for edge in ((-1, 0, 0), (0, -1, 0), (2, 0, 1), (0, 2, 1)):
        with pytest.raises(ValueError, match="outside the 2 0-cubes"):
            StoredEdgeComplex(2, cubes, [edge])
    assert StoredEdgeComplex(2, cubes, [(1, 0, 0)]).edges == \
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
    edges = list(edge_triples(c))
    cubes = zero_cubes(c)
    for _ in range(rng.randrange(1, 4)):
        if not edges:
            break
        trial = list(edges)
        del trial[rng.randrange(len(trial))]
        try:
            c = StoredEdgeComplex(c.num_walls, cubes, trial)
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
                for x in zero_cubes(c):
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
    assert frozenset((0, 1)) not in link.edges
    assert frozenset((2, 3)) not in link.edges


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
            assert fraction_side(w, ws.base_point) != 0


def test_seeded_wallspaces_stop_when_every_draw_fails(monkeypatch):
    # Every base-point draw fails, so every round drops its wall set.
    def refuse(*args):
        raise WallspaceError("base point lies on a wall")

    monkeypatch.setattr(cubecrys.dual, "FiniteWallspace", refuse)
    with pytest.raises(ValueError) as caught:
        seeded_wallspaces(count=3, seed=5)
    assert type(caught.value) is ValueError
    assert str(caught.value) == (
        "seeded_wallspaces(seed=5) made 0 of count=3 wallspaces in %d "
        "rounds" % (3 * SEEDED_ROUNDS_PER_SPACE))


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


def joined(obj) -> str:
    """The chunks that dump_json writes for obj, joined."""
    chunks = []
    dump_json(obj, chunks.append)
    return "".join(chunks)


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
    bits = {Orientation.from_bitstring(s).bits for s in back["zero_cubes"]}
    assert bits == {o.bits for o in stored_edge_dual(ws).orientations}
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
    triples, cubes = edge_triples(c), zero_cubes(c)
    for _ in range(20):
        edges = list(triples) + rng.sample(triples, len(triples) // 2)
        edges = [(v, u, w) if rng.random() < 0.5 else (u, v, w)
                 for u, v, w in edges]
        rng.shuffle(edges)
        # The walk keeps each edge once, in walk order; the JSON edge
        # list sorts them.
        assert triples == tuple(sorted(set(
            (min(u, v), max(u, v), w) for u, v, w in edges)))
        assert triples == StoredEdgeComplex(c.num_walls, cubes,
                                            edges).edges


# -- the 0-cube list against the stored-edge oracle -------------------


def assert_matches_stored_edges(c, old, starts=(0,), step=1, median=True):
    """c derives what old stores: vertices, edges, adjacency, links (at
    every step-th vertex), distances from each start, the median verdict
    and the JSON bytes."""
    assert tuple(zero_cubes(c)) == old.orientations
    assert edge_triples(c) == old.edges
    assert (c.vertex_count(), c.edge_count()) == (old.vertex_count(),
                                                  old.edge_count())
    for k in range(0, old.vertex_count(), step):
        o = old.orientations[k]
        assert c.neighbors(k) == old.neighbors(k)
        assert link_of_vertex(c, o) == stored_link_of_vertex(old, o)
    for start in starts:
        assert bfs_distances(c, start) == bfs_distances(old, start)
    if median:
        assert is_median_graph(c) == stored_is_median_graph(old)
    assert joined(c.to_json_dict()) == joined(old.to_json_dict())


def test_a_walked_dual_stores_its_zero_cubes_and_one_target_per_edge():
    ws = plane_space([vertical("-1/2"), vertical("1/2"),
                      horizontal("-1/3"), horizontal("1/3")],
                     ["39/20", "3/2"], window=(("-9/4", 2), (-2, "5/3")))
    # The side test sees integers only.
    assert all(type(x) is int for bounds in ws._box for x in bounds)
    assert all(type(x) is int for sides in ws._sides for a, b in sides
               for x in (*a, b))
    c = dual_complex(ws)
    assert set(vars(c)) == {"num_walls", "wallspace", "_bits", "_index",
                            "_degrees", "_targets"}
    assert all(type(b) is int for b in c._bits)
    assert all(type(b) is int and type(k) is int
               for b, k in c._index.items())
    # The walk's edges by source: one out-degree per 0-cube, and one
    # target per edge.
    assert type(c._degrees) is array and c._degrees.typecode == "l"
    assert len(c._degrees) == c.vertex_count() and c.num_walls == 4
    assert type(c._targets) is list and len(c._targets) == c.edge_count()
    assert sum(c._degrees) == c.edge_count()
    assert walk_rows(c._degrees, c._targets) == [
        [u, v] for u, v, _ in edge_triples(c)]
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


def test_three_families_of_parallel_planes_fill_every_chunk():
    # 24 walls, 8 to a chunk: every chunk of the walk's tables holds one
    # family, and every wall is crossed.
    ws = plane_families()
    c = dual_complex(ws)
    assert (len(ws.walls), c.vertex_count(), c.edge_count()) == (
        24, 729, 1944)
    assert is_median_graph(c) and duality_check(c)
    assert_matches_stored_edges(c, stored_edge_dual(ws), starts=(0, 728),
                                step=7)
    forbid, base = window_clauses(ws)
    assert assert_walk_matches_stored_edges(forbid, base)[4] == 2 ** 24 - 1


def fuzzed_complex_input(rng):
    """(walls, orientations, edges): a connected 0-cube set's hypercube
    edges with some dropped, some repeated and some reversed."""
    n = rng.randrange(1, 6)
    bit_sets = (connected_subset(rng, n) if rng.random() < 0.5
                else two_clause_solutions(rng, n))
    orientations, edges = hypercube_edges(n, bit_sets)
    rng.shuffle(edges)
    del edges[:rng.choice((0, 0, 1, 2))]
    edges += [(v, u, w) for u, v, w in rng.sample(edges, len(edges) // 3)]
    return n, orientations, edges


# -- the flip walk's edge columns against the stored-edge walk -------


def walk_rows(degrees, targets):
    """The rows [u, v] of a walk's edge columns, read plainly."""
    rows, at = [], 0
    for u, d in enumerate(degrees):
        rows += [[u, v] for v in targets[at:at + d]]
        at += d
    assert at == len(targets)
    return rows


def assert_walk_matches_stored_edges(forbid, start):
    """_flip_closure and stored_edge_walk agree on the queue, the index,
    the edges (as sorted rows [u, v] from the walk's degrees and
    targets) and the walls they cross.  Returns the walk."""
    walk = _flip_closure(forbid, start)
    queue, index, degrees, targets, realized = walk
    old_queue, old_edges = stored_edge_walk(forbid, start)
    assert queue == old_queue
    assert index == {b: k for k, b in enumerate(old_queue)}
    assert type(degrees) is array and degrees.typecode == "l"
    assert type(targets) is list
    assert len(degrees) == len(queue)
    assert walk_rows(degrees, targets) == sorted(
        [u, v] for u, v, _ in old_edges)
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
        queue, index, degrees, targets, _ = \
            assert_walk_matches_stored_edges(forbid, base)
        c = dual_complex(ws)
        assert c._bits == queue and c._degrees == degrees
        assert c._targets == targets and c.edge_count() == len(targets)
        assert complex_json(c)["edges"] == per_wall_rows(c._bits,
                                                         c.num_walls)
        # Each target is the int that the index holds: the walk makes
        # no int per edge.
        assert all(v is index[queue[v]] for v in targets)
        sizes.append((len(ws.walls), c.vertex_count(), c.edge_count()))
    assert sizes[-5:] == [(15, 18432, 125952), (10, 1024, 5120),
                          (14, 16384, 114688), (0, 1, 0), (1, 2, 1)]


# -- the median scan against the walk inside the members -------------


def assert_scan_matches_the_walk(members, nwalls):
    """is_median_set's verdict on a flip-connected member set, which
    the stored-edge walk inside the members must give too, and the scan
    again with the members in reverse order, so from another start.
    Returns it."""
    verdict = is_median_set(members, nwalls)
    assert verdict == walked_is_median_set(members, nwalls), sorted(members)
    reverse = dict.fromkeys(reversed(list(members)))
    assert is_median_set(reverse, nwalls) == verdict, sorted(members)
    return verdict


def test_the_median_scan_agrees_with_the_walk_inside_members():
    rng = random.Random(4242)
    verdicts = {True: 0, False: 0}
    while sum(verdicts.values()) < 600:
        n, orientations, edges = fuzzed_complex_input(rng)
        try:
            c = StoredEdgeComplex(n, orientations, edges)
        except ValueError:
            continue
        verdicts[assert_scan_matches_the_walk(c._index, n)] += 1
    assert verdicts[True] > 100 and verdicts[False] > 50, verdicts


def connected_part(rng, bits, nwalls):
    """A random flip-connected part of the bitmasks bits, which the
    flips between them connect, grown from a random one a neighbour at
    a time."""
    members = set(bits)
    target = rng.randrange(1, len(bits) + 1)
    part = [rng.choice(bits)]
    seen = set(part)
    while len(part) < target:
        b = rng.choice(part) ^ 1 << rng.randrange(nwalls)
        if b in members and b not in seen:
            seen.add(b)
            part.append(b)
    return seen


def test_the_median_scan_agrees_with_the_walk_on_duals_and_their_parts():
    rng = random.Random(3737)
    verdicts = {True: 0, False: 0}
    for dimension in range(1, 5):
        for ws in seeded_wallspaces(count=6, seed=70 + dimension,
                                    max_walls=8, dimension=dimension):
            c = dual_complex(ws)
            assert assert_scan_matches_the_walk(c._index, c.num_walls)
            for _ in range(10):
                part = connected_part(rng, c._bits, c.num_walls)
                verdicts[assert_scan_matches_the_walk(part,
                                                      c.num_walls)] += 1
    assert verdicts[True] > 60 and verdicts[False] > 60, verdicts


def test_the_median_scan_agrees_with_the_walk_on_crossing_cycles():
    # The 4-cycle over two walls is the square; every longer one has
    # the whole cube as its clause closure.
    for n in range(2, WALL_CAP + 1):
        c = crossing_cycle(n)
        assert assert_scan_matches_the_walk(c._index, n) is (n == 2)
    c = crossing_cycle(WALL_CAP + 1)
    assert not walked_is_median_set(c._index, WALL_CAP + 1)
    with pytest.raises(WallCapError,
                       match="at most 24 walls supported, got 25"):
        is_median_set(c._index, WALL_CAP + 1)


def test_the_median_scan_reads_a_lone_flip_out_of_the_members():
    # From start 0b0100, the members below leave themselves by one
    # allowed flip only: 0 to 0b1000 = maj(0, 0b1001, 0b1010).  The
    # scan must find it wherever that member comes in the scan.
    rest = [0b0001, 0b0010, 0b1001, 0b1010]
    for k in range(len(rest) + 1):
        members = dict.fromkeys([0b0100] + rest[:k] + [0] + rest[k:])
        assert not assert_scan_matches_the_walk(members, 4)


def test_the_median_scan_keeps_nothing_per_zero_cube():
    # The 16,384 0-cubes of 14 crossing lines: the scan holds its three
    # chunk tables and the clause table, never a queue or an index.
    c = dual_complex(fourteen_crossing_lines())
    assert c.vertex_count() == 2 ** 14
    tracemalloc.start()
    try:
        assert is_median_set(c._index, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 19, peak


# -- the clause table against the per-member loop ---------------------


def assert_clauses_match_the_loop(members, nwalls):
    assert _member_clauses(members, nwalls) == looped_member_clauses(
        members, nwalls)


def family_members(sizes) -> set:
    """The 0-cubes of families of m_i parallel walls that cross every
    wall of the other families: the walls take the bits family by
    family; along a family of m walls a 0-cube is on the plus side of
    the first r of them, r = 0..m, and the families combine freely."""
    members = {0}
    low = 0
    for m in sizes:
        members = {b | ((1 << r) - 1) << low for b in members
                   for r in range(m + 1)}
        low += m
    return members


# The family shapes of perfbench's dual-check corpus (k crossing lines,
# k = 2..8, and its grids) and of its dual-enum corpus.
CHECK_SHAPES = [(1,) * k for k in range(2, 9)] + [
    (2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (2, 2, 2), (4, 4), (3, 5),
    (2, 2, 3), (4, 5), (5, 5), (2, 3, 3), (2, 2, 4), (7, 7), (3, 3, 3),
    (2, 2, 2, 2)]
ENUM_SHAPES = [(1,) * 11 + (2, 2), (1,) * 12 + (4,), (1,) * 13 + (2,),
               (1,) * 10 + (2, 5), (1,) * 10 + (3, 4), (1,) * 8 + (2,) * 4]


def test_the_clause_table_matches_the_loop_on_seeded_duals():
    for seed in range(3):
        for dimension in range(1, 5):
            for ws in seeded_wallspaces(seed=seed, dimension=dimension):
                c = dual_complex(ws)
                assert_clauses_match_the_loop(c._index, c.num_walls)


def test_the_clause_table_matches_the_loop_on_crossing_lines():
    lines = fourteen_crossing_lines()
    for k in range(15):
        # Any k of the fourteen lines pass through one point.
        c = dual_complex(FiniteWallspace(2, lines.window, lines.walls[:k],
                                         lines.base_point))
        assert c.vertex_count() == 2 ** k
        assert_clauses_match_the_loop(c._index, k)


@pytest.mark.parametrize("sizes", CHECK_SHAPES + ENUM_SHAPES, ids=str)
def test_the_clause_table_matches_the_loop_on_the_corpus_shapes(sizes):
    members = family_members(sizes)
    assert len(members) == math.prod(m + 1 for m in sizes)
    assert_clauses_match_the_loop(members, sum(sizes))


def is_majority_closed(members) -> bool:
    return all(x & y | x & z | y & z in members
               for x, y, z in itertools.combinations(members, 3))


def test_the_clause_table_matches_the_loop_on_sets_that_are_not_median():
    rng = random.Random(38)
    tried = 0
    for ws in seeded_wallspaces(count=20, seed=7, max_walls=9):
        c = dual_complex(ws)
        bits = list(c._index)
        for _ in range(10):
            size = rng.randrange(1, min(20, len(bits)) + 1)
            members = set(rng.sample(bits, size))
            if is_majority_closed(members):
                continue
            assert_clauses_match_the_loop(members, c.num_walls)
            tried += 1
    assert tried > 100


def test_the_clause_table_matches_the_loop_on_one_wall_and_on_24():
    for members in ({0}, {1}, {0, 1}):
        assert_clauses_match_the_loop(members, 1)
    c = dual_complex(plane_families())
    assert c.num_walls == WALL_CAP == 24
    assert_clauses_match_the_loop(c._index, 24)
    top = (1 << 24) - 1
    for members in ({0}, {top}, {1 << 23}, {0, top}, {1 << 7, 1 << 8}):
        assert_clauses_match_the_loop(members, 24)
    rng = random.Random(24)
    for _ in range(40):
        members = {rng.getrandbits(24) for _ in range(rng.randrange(1, 300))}
        assert_clauses_match_the_loop(members, 24)


def random_clause_table(rng, nwalls, start):
    """A random symmetric clause table in _flip_closure's layout that
    start meets: each side pair that start does not use is forbidden
    at random, a single side of a wall now and then, and x_i != x_j
    (both equal pairs forbidden: no single flip joins its solutions)
    where start allows it."""
    forbid = [[[0, 1 << j], [1 << j, 0]] for j in range(nwalls)]
    density = rng.choice((0.01, 0.03, 0.1))
    for i in range(nwalls):
        si = start >> i & 1
        if rng.random() < density / 2:
            forbid[i][1 - si][1 - si] |= 1 << i
        for j in range(i + 1, nwalls):
            sj = start >> j & 1
            pairs = [(ti, tj) for ti in (0, 1) for tj in (0, 1)
                     if (ti, tj) != (si, sj) and rng.random() < density]
            if si != sj and rng.random() < density:
                pairs += [(0, 0), (1, 1)]
            for ti, tj in pairs:
                forbid[i][ti][tj] |= 1 << j
                forbid[j][tj][ti] |= 1 << i
    return forbid


def test_the_outward_walk_agrees_with_the_full_walk_on_random_tables():
    rng = random.Random(2828)
    left = 0
    for _ in range(300):
        nwalls = rng.randrange(11)
        start = rng.randrange(1 << nwalls)
        forbid = random_clause_table(rng, nwalls, start)
        queue, *_ = assert_walk_matches_stored_edges(forbid, start)
        solutions = {b for b in range(1 << nwalls)
                     if all(not (forbid[j][b >> j & 1][t] & (b if t else ~b))
                            for j in range(nwalls) for t in (0, 1))}
        assert set(queue) <= solutions
        left += len(queue) < len(solutions)
        # The isometry: breadth-first level along the full walk's
        # edges is the number of walls that differ from start.
        old_queue, old_edges = stored_edge_walk(forbid, start)
        old = StoredEdgeComplex(
            nwalls, [Orientation(b, nwalls) for b in old_queue], old_edges)
        levels = bfs_distances(old, 0)
        assert levels == [(b ^ start).bit_count() for b in old_queue]
        # A flip component of 2-clause solutions is majority-closed.
        assert assert_scan_matches_the_walk(set(queue), nwalls)
    # Some tables have solutions that no flip walk from start reaches.
    assert left > 20, left


def test_the_walk_sorts_only_the_groups_that_arrive_out_of_order(
        monkeypatch):
    # A source's outward flips arrive in wall order, and a target that
    # an earlier source reached can have a lower index than one before
    # it.  The stored-edge walk tries flips in wall order too, so each
    # source's edges to higher indices there come in the walk's arrival
    # order, and exactly the groups that are out of order there are
    # sorted in place.
    sorts = []

    def counted_sorted(group):
        sorts.append(list(group))
        return sorted(group)

    monkeypatch.setattr(cubecrys.dual, "sorted", counted_sorted,
                        raising=False)
    rng = random.Random(3232)
    tangled_tables = 0
    for _ in range(300):
        nwalls = rng.randrange(11)
        start = rng.randrange(1 << nwalls)
        forbid = random_clause_table(rng, nwalls, start)
        sorts.clear()
        queue, *_ = assert_walk_matches_stored_edges(forbid, start)
        groups = {}
        for u, v, _ in stored_edge_walk(forbid, start)[1]:
            groups.setdefault(u, []).append(v)
        assert sorts == [g for g in groups.values() if g != sorted(g)]
        tangled_tables += bool(sorts)
    # About a fifth of such tables put some group out of order.
    assert 20 < tangled_tables < 150, tangled_tables


class CountedRule(int):
    """A clause bitmask that counts the bitwise operations reading it."""

    reads = 0

    def _read(self, other, op):
        CountedRule.reads += 1
        return op(int(self), int(other))

    def __and__(self, other):
        return self._read(other, int.__and__)

    def __or__(self, other):
        return self._read(other, int.__or__)

    def __xor__(self, other):
        return self._read(other, int.__xor__)

    def __rshift__(self, other):
        return self._read(other, int.__rshift__)

    __rand__, __ror__, __rxor__ = __and__, __or__, __xor__

    def __invert__(self):
        CountedRule.reads += 1
        return ~int(self)


def counted_table(forbid):
    return [[[CountedRule(t) for t in row] for row in rules]
            for rules in forbid]


def test_the_flip_walk_reads_each_clause_mask_a_bounded_number_of_times():
    # Every 2^10 side choice of ten crossing lines is a 0-cube.  Only
    # outward flips are tried, 10 - d at level d, so 5,120 flips in all
    # (not 10 * 1024).  The walk reads the 4 * 10 clause masks once to
    # build its allowed-flip tables, whatever the number of 0-cubes it
    # reaches, and never again per 0-cube or per flip.
    forbid, base = window_clauses(ten_crossing_lines())
    counted = counted_table(forbid)
    CountedRule.reads = 0
    queue, _, _, targets, _ = _flip_closure(counted, base)
    assert (len(queue), len(targets)) == (1024, 5120)
    assert 0 < CountedRule.reads <= 4 * 10
    # The same bound from another start.
    CountedRule.reads = 0
    _flip_closure(counted, queue[-1])
    assert 0 < CountedRule.reads <= 4 * 10


def implication_table(rng, nwalls, start):
    """A random symmetric clause table in _flip_closure's layout over
    nwalls walls that start meets, with few solutions: a one-wall
    clause keeps all but a few free walls on start's side, random
    implication chains "wall a on its outward side, so wall b on its
    too" tie walls in every chunk, and a few random pair clauses that
    start meets join free walls to each other and to frozen ones."""
    forbid = [[[0, 1 << j], [1 << j, 0]] for j in range(nwalls)]

    def rule(i, ti, j, tj):
        forbid[i][ti][tj] |= 1 << j
        forbid[j][tj][ti] |= 1 << i

    side = [start >> j & 1 for j in range(nwalls)]
    free = set(rng.sample(range(nwalls), rng.randrange(min(nwalls, 11))))
    for j in range(nwalls):
        if j not in free:
            rule(j, 1 - side[j], j, 1 - side[j])
    for _ in range(rng.randrange(4)):
        chain = rng.sample(range(nwalls), rng.randrange(2, 6))
        for a, b in zip(chain, chain[1:]):
            # Outward on a and start's side on b cannot both hold.
            rule(a, 1 - side[a], b, side[b])
    for _ in range(rng.randrange(nwalls)):
        i, j = rng.sample(range(nwalls), 2)
        ti, tj = rng.randrange(2), rng.randrange(2)
        if (ti, tj) != (side[i], side[j]):
            rule(i, ti, j, tj)
    return forbid


def test_the_walk_agrees_with_the_full_walk_on_wide_tables():
    # Tables of 11 to 24 walls fill two or three chunks of up to
    # CHUNK_BITS walls.  The reached bitmasks are a median set, and so
    # are they less the last one reached, or not, as the walk inside
    # them says.
    rng = random.Random(3535)
    sizes = []
    for _ in range(200):
        nwalls = rng.randrange(11, 25)
        start = rng.getrandbits(nwalls)
        forbid = implication_table(rng, nwalls, start)
        queue, *_ = assert_walk_matches_stored_edges(forbid, start)
        sizes.append(len(queue))
        assert assert_scan_matches_the_walk(set(queue), nwalls)
        if len(queue) > 1:
            assert_scan_matches_the_walk(set(queue[:-1]), nwalls)
    # Most walks go somewhere, and none is large.
    assert sum(size > 1 for size in sizes) > 150, sizes
    assert max(sizes) <= 2 ** 10


# -- hand-made complexes ---------------------------------------------


def test_loaded_zero_cubes_need_no_breadth_first_order():
    c = stored_complex(["11", "00", "10", "01"],
                       [[1, 2], [1, 3], [0, 2], [3, 0]])
    assert [o.to_bitstring() for o in c.orientations] == ["11", "00",
                                                         "10", "01"]
    assert c.edges == ((0, 2, 1), (0, 3, 0), (1, 2, 0), (1, 3, 1))
    assert is_median_set(c._index, 2) and median_verdicts(c) is True


def test_loaded_repeated_and_reversed_edges_count_once():
    c = stored_complex(["00", "10", "11", "01"],
                       [[1, 0], [0, 1], [1, 2], [2, 1], [2, 3], [0, 3],
                        [3, 0], [1, 2]])
    assert c.edge_count() == 4
    assert c.to_json_dict()["edges"] == [[0, 1], [0, 3], [1, 2], [2, 3]]
    assert median_verdicts(c) is True


def test_complex_dicts_round_trip():
    seeded = [dual_complex(ws) for ws in seeded_wallspaces(
        count=4, seed=7, max_walls=8, dimension=3)]
    for c in (grid_complex(), *seeded):
        assert isinstance(c.to_json_dict()["edges"], IndexPairs)
        assert isinstance(c.to_json_dict()["zero_cubes"], DigitColumns)
        assert complex_json(c) == stored_edge_dual(c.wallspace).to_json_dict()


def test_writing_a_complex_makes_no_edge_row(tmp_path):
    # An IndexPairs has no member that makes a row: dump_json reads its
    # columns, and the text is the stored-edge oracle's.
    for c in (grid_complex(), dual_complex(ten_crossing_lines())):
        expected = stored_edge_file_text(c.wallspace)
        assert joined(c.to_json_dict()) == expected
        write_json(tmp_path / "c.json", c.to_json_dict())
        assert (tmp_path / "c.json").read_text() == expected


def test_a_large_edge_list_renders_in_slices():
    """114,688 edges go out in joins of PAIRS_SLICE rows, so no chunk
    holds more than one slice's text, and the text is the stored-edge
    oracle's."""
    c = dual_complex(fourteen_crossing_lines())
    assert c.edge_count() == 114688 == 7 * PAIRS_SLICE
    chunks = []
    dump_json(c.to_json_dict(), chunks.append)
    # A row's "]" is in its own slice: 7 chunks of PAIRS_SLICE rows.
    rows = [chunk.count("]") for chunk in chunks]
    assert max(rows) == PAIRS_SLICE and rows.count(PAIRS_SLICE) == 7
    # Each row is at most "[", two 5-digit indices and their breaks.
    assert max(map(len, chunks)) <= PAIRS_SLICE * len(
        "\n    [\n      16383,\n      16383\n    ],")
    assert "".join(chunks) == \
        stored_edge_file_text(fourteen_crossing_lines())


# -- the 0-cube list rendered from digit columns ----------------------


def assert_zero_cubes_render_as_listed(c):
    assert complex_json(c)["zero_cubes"] == listed_zero_cubes(
        c._bits, c.num_walls) == [Orientation(b, c.num_walls).to_bitstring()
                                  for b in c._bits]


def assert_columns_render_as_listed(members, nwalls):
    columns = DigitColumns(list(_digit_columns(members, nwalls)),
                           len(members))
    assert joined(columns) == json.dumps(
        listed_zero_cubes(members, nwalls), indent=2) + "\n"


def test_rendered_zero_cubes_match_the_listing_on_seeded_duals():
    for seed in range(3):
        for dimension in range(1, 5):
            for ws in seeded_wallspaces(seed=seed, dimension=dimension):
                assert_zero_cubes_render_as_listed(dual_complex(ws))


def test_rendered_zero_cubes_match_the_listing_on_the_corpus_shapes():
    # The dual-check and dual-enum family shapes as 0-cube lists, in
    # sorted and in shuffled order: the dual-enum ones have 13-17 walls,
    # so their digits come from two bytes of each word.
    rng = random.Random(5)
    for sizes in CHECK_SHAPES + ENUM_SHAPES:
        members = sorted(family_members(sizes))
        assert_columns_render_as_listed(members, sum(sizes))
        rng.shuffle(members)
        assert_columns_render_as_listed(members, sum(sizes))


def test_rendered_zero_cubes_match_the_listing_on_24_walls():
    # Three families of 8 parallel planes: walls 16-23 sit in the third
    # byte of each 32-bit word.
    c = dual_complex(plane_families())
    assert c.num_walls == 24 and c.vertex_count() == 729
    assert_zero_cubes_render_as_listed(c)
    assert_columns_render_as_listed([1 << 23, 0xFF0000, 2 ** 24 - 1], 24)


def test_rendered_zero_cubes_with_no_wall_and_with_one():
    window = ((-1, 1), (-1, 1))
    empty = dual_complex(plane_space([], ["1/2", 0], window))
    assert complex_json(empty)["zero_cubes"] == [""]
    assert_zero_cubes_render_as_listed(empty)
    one = dual_complex(plane_space([vertical(0)], ["1/2", 0], window))
    assert complex_json(one)["zero_cubes"] == ["1", "0"]
    assert_zero_cubes_render_as_listed(one)


def test_a_large_zero_cube_list_renders_in_slices():
    """18,432 0-cubes go out in slices of at most PAIRS_SLICE strings,
    so no chunk holds more than one slice's text."""
    c = dual_complex(spatial_arrangement())
    assert c.vertex_count() == 18432 == PAIRS_SLICE + 2048
    chunks = []
    dump_json(c.to_json_dict()["zero_cubes"], chunks.append)
    strings = [chunk.count('"') // 2 for chunk in chunks]
    assert [n for n in strings if n] == [PAIRS_SLICE, 2048]
    assert max(map(len, chunks)) == PAIRS_SLICE * len('\n  "' + "0" * 15
                                                       + '",')
    assert "".join(chunks) == json.dumps(
        listed_zero_cubes(c._bits, 15), indent=2) + "\n"


def test_complex_files_round_trip_byte_for_byte(tmp_path):
    path = tmp_path / "c.json"
    for ws in (grid_complex().wallspace, ten_crossing_lines()):
        write_json(path, dual_complex(ws).to_json_dict())
        assert path.read_bytes() == stored_edge_file_text(ws).encode()
