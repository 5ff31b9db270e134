"""The groups and wallspaces that several test modules share.

Every builder returns a fresh object.  GROUPS, the 49 groups that the
oracle comparisons run over, is built once on import.
"""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

from cubecrys.crys import (
    CrystGroup,
    catalog_entry,
    load_catalog,
    semidirect_extend,
)
from cubecrys.dual import FiniteWallspace
from cubecrys.exactlin import RatMatrix, identity, int_mul, inverse
from cubecrys.walls import GeometricWall, stabilize


def group(name, basis, gens, parts=None):
    """The group on lattice basis `basis` with point generators `gens`
    and translation parts `parts` (zero when left out)."""
    n = len(basis)
    if parts is None:
        parts = [[0] * n for _ in gens]
    return CrystGroup(name, n, basis, gens, parts)


I2 = [[1, 0], [0, 1]]
I4 = [[int(i == j) for j in range(4)] for i in range(4)]
CYCLE4 = [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
SWAP12 = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
FLIP1 = [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
# Columns: simple roots of D4, a basis of {x in Z^4 : sum x even}.
D4_BASIS = [[1, 0, 0, 0], [-1, 1, 0, 0], [0, -1, 1, 1], [0, 0, -1, 1]]


def b4():
    return group("B4", I4, [CYCLE4, SWAP12, FLIP1])


def wf4():
    """W(F4): B4 and the reflection in (1, 1, 1, 1), in the D4 lattice."""
    half = RatMatrix([[int(i == j) - Fraction(1, 2) for j in range(4)]
                      for i in range(4)])
    basis = RatMatrix(D4_BASIS)
    basis_inv = RatMatrix(inverse(D4_BASIS))
    gens = [(basis_inv * m * basis).entries
            for m in map(RatMatrix, (CYCLE4, SWAP12, FLIP1))]
    gens.append((basis_inv * half * basis).entries)
    assert all(e.denominator == 1 for m in gens for row in m for e in row)
    return CrystGroup("W(F4)", 4, D4_BASIS, gens, [[0] * 4] * 4)


def wf4_sub48():
    """An order-48 subgroup of W(F4) in the D4 lattice, rejected on its
    character: an order-3 element without fixed vectors, which no
    element of B4 is."""
    return CrystGroup("WF4-sub48", 4, D4_BASIS, [
        [[0, 0, -1, 0], [1, -1, -1, 1], [1, 0, -1, 0], [1, -1, 0, 0]],
        [[0, 0, -1, 1], [-1, 0, -1, 1], [-1, 1, -1, 0], [-1, 0, 0, 1]],
    ], [[0] * 4] * 2)


def wf4_subgroups(count=60, seed=0):
    """count subgroups of W(F4) in the D4 lattice, each generated by 1-3
    elements drawn by random.Random(seed)."""
    wf = wf4()
    elements = wf.point_elements()
    rng = random.Random(seed)
    for _ in range(count):
        gens = rng.sample(elements, rng.randint(1, 3))
        yield CrystGroup("sub", 4, wf.lattice_basis, gens,
                         [[0] * 4] * len(gens))


def _tested_groups():
    """The catalog, its stabilizations, and the groups built in tests/."""
    catalog = load_catalog()
    by_name = {g.name: g for g in catalog}
    built = [
        group("p4", I2, [[[0, -1], [1, 0]]]),
        group("free", I2, []),
        group("p4-skew", [[2, 1], [1, 1]], [[[0, -1], [1, 0]]]),
        semidirect_extend(by_name["W"], 2, [identity(2)], name="Z2xW"),
        group("big", [[int(i == j) for j in range(5)] for i in range(5)],
              [[[-1 if i == j else 0 for j in range(5)] for i in range(5)]]),
        b4(),
    ]
    c = RatMatrix([[1, 2], [1, 3]])
    for name in ("p6", "p4", "pgg"):
        g = by_name[name]
        built.append(CrystGroup(g.name + "-moved", 2,
                                (c * RatMatrix(g.lattice_basis)).entries,
                                g.point_generators, g.translation_parts))
    return catalog + [stabilize(g) for g in catalog] + built


GROUPS = _tested_groups()


# A unimodular change of lattice basis that puts the lattice basis
# columns of B4 and W(F4) in hundreds of direction classes.
GENERIC_U = ((1, 2, 3, 5), (0, 1, 1, 2), (0, 0, 1, 3), (0, 0, 0, 1))


def in_generic_basis(name, g):
    """g with lattice basis L * U and generators U^-1 M U, U = GENERIC_U:
    the same group and real forms."""
    u_inv = tuple(tuple(int(e) for e in row) for row in inverse(GENERIC_U))
    gens = [int_mul(int_mul(u_inv, [[int(e) for e in row] for row in m]),
                    GENERIC_U)
            for m in g.point_generators]
    return CrystGroup(name, 4, int_mul(g.lattice_basis, GENERIC_U), gens,
                      [[0] * 4] * len(gens))


def b4_generic():
    """B4 in the lattice basis U: the lattice basis columns fall into
    268 direction classes."""
    return in_generic_basis("B4-generic", b4())


def wf4_generic():
    """W(F4) in the lattice basis D4 * U: 444 direction classes."""
    return in_generic_basis("W(F4)-D4U", wf4())


def _skewed(name, gens):
    """perfbench's skew file without the seeded reframing: lattice basis
    R U, generators U^-1 g U."""
    n = len(gens[0])
    skew = {3: [[2, 1, 0], [0, 1, 1], [1, 0, 1]],
            4: [[2, 1, 0, 0], [0, 1, 1, 0], [0, 0, 2, 1], [1, 0, 0, 1]]}[n]
    shear = {3: [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
             4: [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1],
                 [0, 0, 0, 1]]}[n]
    u = RatMatrix(shear)
    u_inv = RatMatrix(inverse(shear))
    r = RatMatrix([[Fraction(x, 2) for x in row] for row in skew])
    return CrystGroup(name, n, (r * u).entries,
                      [(u_inv * RatMatrix(g) * u).entries for g in gens],
                      [[0] * n] * len(gens))


def pinned_groups():
    """The accepted groups that take the embedding search: the
    catalog's only one (Z:W), p4-skew, and two groups whose identity
    seed averages to a singular matrix."""
    return {
        "Z:W": catalog_entry("Z:W"),
        "p4-skew": group("p4-skew", [[2, 1], [1, 1]], [[[0, -1], [1, 0]]]),
        "m-skew": _skewed("m-skew", [[[1, 0, 0], [0, 1, 0], [0, 0, -1]]]),
        "C2^2.p-skew": _skewed("C2^2.p-skew", [
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
            [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]]),
    }


def shrunk(fam, factor=100):
    """The family with its basis divided by factor and its walls kept,
    so the upper separation bound fails on any far-apart pair."""
    return dataclasses.replace(fam, basis=tuple(
        tuple(x / factor for x in v) for v in fam.basis))


# ---------------------------------------------------------------------------
# Wallspaces


def ten_crossing_lines():
    return FiniteWallspace(
        2, [(-2, 2), (-2, 2)],
        [GeometricWall([1, i], Fraction(0)) for i in range(10)],
        [Fraction(1, 2), Fraction(1, 3)])


def spatial_arrangement():
    """15 planes in a 3-D box: eleven through the origin, and two pairs
    of parallel planes; planes of different directions cross in the
    box, so there are 2^11 * 3 * 3 = 18,432 0-cubes, above
    MEDIAN_VERTEX_CAP."""
    normals = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0),
               (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1), (1, 1, 1),
               (1, 1, -1)]
    walls = [GeometricWall(n, Fraction(0)) for n in normals]
    walls += [GeometricWall(n, Fraction(c))
              for n in ((1, -1, 1), (-1, 1, 1)) for c in (-1, 1)]
    return FiniteWallspace(
        3, [(-10, 10)] * 3, walls,
        [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)])


def crossing_lines(k):
    """k <= 14 lines through (7/100, 1/100), so they cross pairwise:
    2^k 0-cubes."""
    return FiniteWallspace(
        2, [(-2, 2), (-2, 2)],
        [GeometricWall([1, i - 7], Fraction(i, 100)) for i in range(k)],
        [Fraction(1, 2), Fraction(1, 3)])


def fourteen_crossing_lines():
    """14 crossing lines: 2^14 = 16,384 0-cubes, exactly
    MEDIAN_VERTEX_CAP, the largest complex that `cubecrys dual` still
    checks."""
    return crossing_lines(14)


def parallel_families(dimension, sizes):
    """Families of parallel walls in the window [-1000, 1000]^dimension:
    family i has sizes[i] walls, at offsets 0, 1, ..., on the i-th
    primitive normal with entries in [-2, 2] and a positive first
    nonzero entry, in lexicographic order.  Two walls of different
    families cross within 400 of the origin, so the dual has
    prod(m_i + 1) 0-cubes.  The base point (1/97, 1/89, 1/83) lies on
    no wall."""
    normals = [n for n in itertools.product(range(-2, 3), repeat=dimension)
               if any(n) and next(x for x in n if x) > 0
               and math.gcd(*n) == 1]
    walls = [GeometricWall(n, Fraction(c))
             for n, m in zip(normals, sizes) for c in range(m)]
    return FiniteWallspace(
        dimension, [(-1000, 1000)] * dimension, walls,
        [Fraction(1, p) for p in (97, 89, 83)[:dimension]])


def plane_families():
    """24 planes in a 3-D box: three families of 8 parallel planes, at
    offsets (2i - 7)/2 along each axis.  Each family cuts the box into 9
    slabs, so there are 9^3 = 729 0-cubes and 3 * 8 * 81 = 1,944
    edges, and the flip walk's two tables take 12 walls each, as many
    as a chunk holds."""
    walls = [GeometricWall(n, Fraction(2 * i - 7, 2))
             for n in ((1, 0, 0), (0, 1, 0), (0, 0, 1)) for i in range(8)]
    return FiniteWallspace(
        3, [(-6, 6)] * 3, walls, [Fraction(0)] * 3)
