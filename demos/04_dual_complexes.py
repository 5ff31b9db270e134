# From a wallspace to its dual cube complex.
#
# A finite set of affine walls in a rational window determines a cube
# complex: 0-cubes are the consistent ways of choosing one open side
# per wall, and two 0-cubes are joined when they disagree on a single
# wall.  This script builds a few wallspaces by hand, checks the
# median and duality properties, and pokes at vertex links.

from fractions import Fraction

from cubecrys.dual import (
    FiniteWallspace,
    Orientation,
    distance,
    dual_complex,
    duality_check,
    is_median_graph,
    link_of_vertex,
    median,
    seeded_wallspaces,
    union_orientation,
)
from cubecrys.walls import GeometricWall


def vertical(offset):
    return GeometricWall([1, 0], Fraction(offset))


def horizontal(offset):
    return GeometricWall([0, 1], Fraction(offset))


# Two crossing walls cut the window into four chambers; the dual is a
# 4-cycle, which is the boundary of a single square.
ws = FiniteWallspace(
    2, [(-2, 2), (-2, 2)],
    [vertical(0), horizontal(0)],
    [Fraction(1, 2), Fraction(1, 3)])
c = dual_complex(ws)
print("two crossing walls: %d 0-cubes, %d edges"
      % (c.vertex_count(), c.edge_count()))

# A 2 x 2 grid of walls.  The center chamber's 0-cube can flip all
# four walls, and its link is a 4-cycle: locally this complex looks
# like the plane tiled by squares.
grid = FiniteWallspace(
    2, [(-2, 2), (-2, 2)],
    [vertical("-1/2"), vertical("1/2"), horizontal("-1/2"), horizontal("1/2")],
    [Fraction(39, 20), Fraction(39, 20)])
gc = dual_complex(grid)
center = Orientation.from_bitstring("1010")
print("grid: %d 0-cubes, median graph: %s, duality round-trip: %s"
      % (gc.vertex_count(), is_median_graph(gc), duality_check(gc)))
print("link of the center 0-cube: f-vector %s"
      % (link_of_vertex(gc, center).f_vector(),))

# Distances count separating walls; medians are wallwise majority
# votes and land on geodesics between all three inputs.
a = Orientation.from_bitstring("0000")
b = Orientation.from_bitstring("1110")
d = Orientation.from_bitstring("1011")
m = median(gc, a, b, d)
print("median of three corners:", m, "at distances",
      [distance(gc, m, x) for x in (a, b, d)])

# Disjoint crossing separators can be flipped together.
u = union_orientation(gc, center, center.flip(0), center.flip(3))
print("union across a square:", u)
print()

# The same machinery on pseudo-random wallspaces, seeded for
# reproducibility.
total = 0
for ws in seeded_wallspaces(count=10, seed=4, max_walls=8):
    cc = dual_complex(ws)
    total += cc.vertex_count()
    assert is_median_graph(cc) and duality_check(cc)
print("10 seeded wallspaces, %d 0-cubes in total, all median and self-dual"
      % total)
