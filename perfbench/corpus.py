"""Seeded known-answer corpus: input files plus the answer each item must give.

An item is one `cubecrys` command line run in-process.  Every item
carries its known answer, worked out here from the hand-written group
data and closed-form counts, never from cubecrys itself.  The seed
changes the geometry of the inputs (lattice bases, wall positions),
not their combinatorial type, so every seed does nearly the same work;
only the 2-D wallspaces from cubecrys.dual.seeded_wallspaces(seed=...)
differ in type from seed to seed.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

import groups as G

# Left out of the timed workloads because one item would outlast a
# pass (the ROADMAP search and median-check items should bring them in):
# - dual on 1,024 to 16,384 0-cubes: the O(V^3) median scan takes 64 s
#   for k = 10 crossing lines and grows from there; k = 9 (512 0-cubes)
#   already takes about 7 s, so dual-check stops at k = 8;
# - classify W(D4) with non-monomial real forms: the product search
#   accepts it after 16,403 assignments in 207 s;
# - classify C4wrC2.m with non-monomial real forms: about 11 s.

# Items that show a documented defect.  They run once after the timed
# passes of their workload, untimed, and are reported as open (the exit
# code below), fixed (the known answer) or changed (anything else; a
# failure).  (workload, item name, exit code today, defect)
KNOWN_DEFECTS = [
    ("classify", "classify B4", 1,
     "closure stops at CLOSURE_CAP = 200 but |B4| = 384"),
    ("cubulate", "validate B4", 1,
     "closure stops at CLOSURE_CAP = 200 but |B4| = 384"),
    ("cubulate", "validate glide-1/3", 0,
     "accepted, but the glide squares to a translation by (2/3, 0)"),
]

WORKLOADS = ("classify", "cubulate", "dual-check", "dual-enum")


@dataclass
class Item:
    name: str
    argv: list
    expect: dict


def _q(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else str(x)


def _mat_json(m) -> list:
    return [[_q(x) for x in row] for row in m]


def _finverse(m):
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _group_file(workdir, name, basis, gens, parts=None):
    """Write a cubecrys-group/1 file; basis columns are lattice vectors."""
    n = len(basis)
    path = os.path.join(workdir, "g_%s.json" % _slug(name))
    _write_json(path, {
        "format": "cubecrys-group/1",
        "name": name,
        "dimension": n,
        "lattice_basis": _mat_json(basis),
        "point_generators": [_mat_json(m) for m in gens],
        "translation_parts": parts if parts is not None
        else [["0"] * n for _ in gens],
    })
    return path


def _slug(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in name)


def _signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(tuple(rng.choice((-1, 1)) if perm[i] == j else 0
                       for j in range(n)) for i in range(n))


# Fixed non-monomial rational bases, one per dimension, and a fixed
# shear U (columns e1, e1 + e2, e3 (, e3 + e4)).  A skew file has lattice
# basis R U, so its real forms are R S R^-1: not signed permutations,
# and the classifier must search.  The shear gives the lattice more
# wall direction classes than the dimension.
_SKEW = {
    3: [[Fraction(x, 2) for x in row]
        for row in ((2, 1, 0), (0, 1, 1), (1, 0, 1))],
    4: [[Fraction(x, 2) for x in row]
        for row in ((2, 1, 0, 0), (0, 1, 1, 0), (0, 0, 2, 1), (1, 0, 0, 1))],
}
_SHEAR = {
    3: ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
    4: ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1)),
}
# Hexagonal stand-in lattice (columns (1, 0), (-1/2, 6/7)) plus the c axis.
_HEX = [[Fraction(1), Fraction(-1, 2), 0], [0, Fraction(6, 7), 0], [0, 0, 1]]


def _conjugate(gens, v):
    """v^-1 g v for each generator; v is unimodular."""
    v_inv = tuple(tuple(int(x) for x in row) for row in _finverse(v))
    return [G.mul(G.mul(v_inv, g), v) for g in gens]


def _reframe(rng, basis, gens):
    """The same group with lattice basis scale * basis * V, V a seeded
    signed permutation: (new basis, generators V^-1 g V)."""
    v = _signed_permutation(rng, len(basis))
    scale = Fraction(rng.randrange(1, 6), rng.randrange(1, 4))
    return ([[scale * x for x in row] for row in G.mul(basis, v)],
            _conjugate(gens, v))


def _group_items(workdir, rng, name, gens, order, expect_classify,
                 plain_basis):
    """classify/cubulate/validate items for one group in two bases.

    Every file gets a classify and a validate item; cubulate runs where
    the lattice has more wall direction classes N than the dimension,
    so that the stabilized group is a larger one.

    The plain file has lattice basis plain_basis (the identity, or the
    hexagonal stand-in); the skew file has basis R U.  The seed rescales
    each basis by a rational and changes it by a signed permutation V of
    the lattice vectors, rewriting the generators to V^-1 g V.  That
    gives another file for the same group: the real forms, the search
    and the wall direction classes are the same for every seed, so the
    seed moves the work done very little.
    """
    out = {"classify": [], "cubulate": []}
    dim = len(gens[0])
    for variant, basis, lattice_gens in (
            ("plain", plain_basis, gens),
            ("skew", G.mul(_SKEW[dim], _SHEAR[dim]),
             _conjugate(gens, _SHEAR[dim]))):
        basis, lattice_gens = _reframe(rng, basis, lattice_gens)
        label = "%s-%s" % (name, variant)
        path = _group_file(workdir, label, basis, lattice_gens)
        elements = G.closure(lattice_gens, dim)
        assert len(elements) == order, label
        out["classify"].append(Item("classify " + label,
                                    ["classify", "--json", path],
                                    dict(expect_classify)))
        n_classes = G.line_orbit_count(elements, G.identity(dim))
        if n_classes > dim:
            out["cubulate"].append(Item(
                "cubulate " + label,
                ["cubulate", "--json", path,
                 "--seed", str(rng.randrange(10**6))],
                {"kind": "cubulate", "order": order, "N": n_classes}))
        out["cubulate"].append(Item(
            "validate " + label, ["validate", "--json", path],
            {"kind": "validate", "order": order,
             "element_orders": sorted(G.order(p) for p in elements)}))
    return out


ACCEPTED = {"kind": "classify", "verdict": "accepted", "reason": None}
HEX_REJECTED = {"kind": "classify", "verdict": "rejected",
                "reason": "character-mismatch"}

# Catalog rejections with their screen reason.  Rank-2 signed
# permutations have orders 1, 2 and 4 only, so every entry with a
# threefold or sixfold rotation fails on order; ZxW keeps a sixfold
# rotation (det 1, trace 2) that no order-6 element of B3 realizes.
# 13 accepted, 7 rejected.
CATALOG_REJECTED = {name: "order-obstruction"
                    for name in ("p3", "p3m1", "p31m", "p6", "p6m", "W")}
CATALOG_REJECTED["ZxW"] = "character-mismatch"


def group_corpus(workdir, seed):
    """Items of the classify and cubulate workloads."""
    rng = random.Random(seed)
    items = {"classify": [], "cubulate": []}
    for name, gens, order, hexagonal in G.CRYSTAL_CLASSES_3D:
        gens = [G.parse_op(g) for g in gens] or [G.identity(3)]
        for k, v in _group_items(
                workdir, rng, name, gens, order,
                HEX_REJECTED if hexagonal else ACCEPTED,
                _HEX if hexagonal else G.identity(3)).items():
            items[k].extend(v)
    for name, gens, order, workloads in G.SUBGROUPS_B4:
        gens = [G.parse_op(g) for g in gens]
        for k, v in _group_items(workdir, rng, name, gens, order, ACCEPTED,
                                 G.identity(4)).items():
            if k in workloads:
                items[k].extend(v)

    # W(D4) in its D4-lattice basis: integer generators, signed
    # permutation real forms (the fast path).
    d4 = [list(col) for col in zip(*G.D4_BASIS)]
    d4_inv = _finverse(d4)
    gens = []
    for op in G.WD4_GENERATORS:
        m = G.mul(G.mul(d4_inv, G.parse_op(op)), d4)
        assert all(x.denominator == 1 for row in m for x in row)
        gens.append(tuple(tuple(int(x) for x in row) for row in m))
    path = _group_file(workdir, "WD4-lattice", *_reframe(rng, d4, gens))
    items["classify"].append(Item("classify WD4-lattice",
                                  ["classify", "--json", path],
                                  dict(ACCEPTED)))

    from cubecrys.crys import load_catalog, save_group
    for g in load_catalog():
        path = os.path.join(workdir, "cat_%s.json" % _slug(g.name))
        save_group(g, path)
        reason = CATALOG_REJECTED.get(g.name)
        items["classify"].append(Item(
            "classify catalog " + g.name, ["classify", "--json", path],
            {"kind": "classify", "reason": reason,
             "verdict": "rejected" if reason else "accepted"}))

    # The catalog command classifies all 20 groups (the search runs on
    # Z:W), so it belongs with classify: cubulate never runs the search.
    items["classify"].append(Item(
        "catalog", ["catalog", "--json"],
        {"kind": "catalog", "accepted": 13, "rejected": 7}))
    for expr, lines, halves, finite in _boundary_exprs():
        items["cubulate"].append(Item(
            "boundary " + expr, ["boundary", "--json", expr],
            {"kind": "boundary", "finite": finite,
             "f_vector": _join_f_vector(lines, halves) if finite else None}))
    return items


def _boundary_exprs():
    """(expression, #Line, #HalfLine, finite?) for the boundary items."""
    out = []
    for n in range(1, 9):
        out.append(("*".join(["Line"] * n), n, 0, True))
    out.append(("Line*HalfLine", 1, 1, True))
    out.append(("Line*Line*HalfLine*Point", 2, 1, True))
    out.append(("HalfLine*HalfLine*HalfLine", 0, 3, True))
    out.append(("Point*Line*Line*Line", 3, 0, True))
    out.append(("Tree(3)*Line", 1, 0, False))
    return out


def _join_f_vector(lines, halves):
    """f-vector of the join of `lines` copies of S^0 and `halves` points.

    f_k counts (k+1)-subsets taking at most one vertex per factor: the
    coefficient of t^(k+1) in (1 + 2t)^lines (1 + t)^halves.  For
    halves = 0 this is the hyperoctahedron, f_k = 2^(k+1) C(n, k+1).
    """
    total = lines + halves
    f = []
    for size in range(1, total + 1):
        f.append(sum(comb(lines, a) * 2 ** a * comb(halves, size - a)
                     for a in range(0, size + 1)))
    return f


def known_defect_items(workdir):
    """The items of KNOWN_DEFECTS with the answer they should give."""
    gens = [G.parse_op(g) for g in G.B4_GENERATORS]
    path = _group_file(workdir, "B4", G.identity(4), gens)
    elements = G.closure(gens, 4)
    glide = _group_file(workdir, "glide-1/3", G.identity(2),
                        [G.parse_op("x,-y")], [["1/3", "0"]])
    return [
        Item("classify B4", ["classify", "--json", path], dict(ACCEPTED)),
        Item("validate B4", ["validate", "--json", path],
             {"kind": "validate", "order": G.B4_ORDER,
              "element_orders": sorted(G.order(p) for p in elements)}),
        Item("validate glide-1/3", ["validate", "--json", glide],
             {"kind": "error"}),
    ]


# ---------------------------------------------------------------------------
# Wallspaces


def _primitive_normals(dim, bound):
    """Canonical primitive integer normals with entries in [-bound, bound]."""
    out = []
    for v in itertools.product(range(-bound, bound + 1), repeat=dim):
        if any(v) and G.canonical_line(v) == v:
            out.append(v)
    return out


def _cross_point(n1, c1, n2, c2):
    """The point of span(n1, n2) on both walls (nearest the origin)."""
    g11 = sum(x * x for x in n1)
    g12 = sum(x * y for x, y in zip(n1, n2))
    g22 = sum(x * x for x in n2)
    d = g11 * g22 - g12 * g12
    a = Fraction(c1 * g22 - c2 * g12, d)
    b = Fraction(c2 * g11 - c1 * g12, d)
    return [a * x + b * y for x, y in zip(n1, n2)]


def arrangement(rng, dim, sizes, half_width):
    """Walls in len(sizes) direction families, family i with sizes[i]
    parallel walls, every two walls of different families crossing
    inside the window [-half_width, half_width]^dim.

    Returns (walls, base point) with walls as (normal, offset) pairs.
    The dual complex then has prod(m_i + 1) 0-cubes.
    """
    normals = _primitive_normals(dim, 2 if dim == 3 else 3)
    while True:
        chosen = rng.sample(normals, len(sizes))
        walls = []
        for normal, m in zip(chosen, sizes):
            offsets = sorted(rng.sample(range(-6, 7), m))
            walls.extend((normal, Fraction(o, 7)) for o in offsets)
        # Crossing inside the window: the nearest common point of any two
        # non-parallel walls lies well inside it (margin 1/2).
        if all(max(abs(x) for x in _cross_point(n1, c1, n2, c2))
               < half_width - Fraction(1, 2)
               for i, (n1, c1) in enumerate(walls)
               for (n2, c2) in walls[i + 1:] if n1 != n2):
            break
    while True:
        base = [Fraction(rng.randrange(-300, 301), 97) for _ in range(dim)]
        if all(sum(x * y for x, y in zip(n, base)) != c for n, c in walls):
            return walls, base


def _walls_file(workdir, name, dim, half_width, walls, base):
    path = os.path.join(workdir, "w_%s.json" % _slug(name))
    _write_json(path, {
        "format": "cubecrys-walls/1",
        "dimension": dim,
        "window": [[_q(-half_width), _q(half_width)]] * dim,
        "walls": [{"normal": [_q(x) for x in n], "offset": _q(c)}
                  for n, c in walls],
        "base_point": [_q(x) for x in base],
    })
    return path


def _family_counts(sizes):
    """(0-cubes, edges) of the product of paths with m_i edges each."""
    vertices = prod(m + 1 for m in sizes)
    edges = sum(m * vertices // (m + 1) for m in sizes)
    return vertices, edges


def _family_item(workdir, rng, name, dim, sizes, half_width, checked):
    walls, base = arrangement(rng, dim, sizes, half_width)
    path = _walls_file(workdir, name, dim, half_width, walls, base)
    vertices, edges = _family_counts(sizes)
    verdict = True if checked else "skipped (too many 0-cubes)"
    return Item("dual " + name, ["dual", "--json", path],
                {"kind": "dual", "zero_cubes": vertices, "edges": edges,
                 "median_graph": verdict, "duality_round_trip": verdict})


# dual-check: k pairwise-crossing lines and grids of parallel families,
# all at most 256 0-cubes so the cubic median scan stays under a second,
# each in GEOMETRIES seeded placements, plus small seeded_wallspaces.
# Their wall counts change with the seed, so they are kept small, and
# the fixed types set the quantiles.  69 + 32 = 101 items.
CROSSING_LINES = range(2, 9)
GRIDS = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (2, 2, 2), (4, 4), (3, 5),
         (2, 2, 3), (4, 5), (5, 5), (2, 3, 3), (2, 2, 4), (7, 7), (3, 3, 3),
         (2, 2, 2, 2)]
GEOMETRIES = 3
SEEDED_SPACES = 32
SEEDED_MAX_WALLS = 5

# dual-enum: 3-D families of 15-17 walls with 18,432-24,576 0-cubes, above
# MEDIAN_VERTEX_CAP = 2^14.  One item takes about a second, so a pass
# holds six of them, not a hundred.
ENUM_SIZES = [(1,) * 11 + (2, 2), (1,) * 12 + (4,), (1,) * 13 + (2,),
              (1,) * 10 + (2, 5), (1,) * 10 + (3, 4), (1,) * 8 + (2,) * 4]


def dual_corpus(workdir, seed):
    """Items of the dual-check and dual-enum workloads."""
    from cubecrys.dual import save_wallspace, seeded_wallspaces
    rng = random.Random(seed)
    check, enum = [], []
    types = ([("lines-%d" % k, (1,) * k) for k in CROSSING_LINES]
             + [("grid-" + "x".join(map(str, sizes)), sizes)
                for sizes in GRIDS])
    for g in range(GEOMETRIES):
        for name, sizes in types:
            check.append(_family_item(workdir, rng, "%s.%d" % (name, g), 2,
                                      sizes, 6, True))
    spaces = seeded_wallspaces(count=SEEDED_SPACES, seed=seed,
                               max_walls=SEEDED_MAX_WALLS)
    for i, ws in enumerate(spaces):
        path = os.path.join(workdir, "w_seeded-%d.json" % i)
        save_wallspace(ws, path)
        check.append(Item("dual seeded-%d" % i, ["dual", "--json", path],
                          {"kind": "dual", "median_graph": True,
                           "duality_round_trip": True}))
    for sizes in ENUM_SIZES:
        name = "space-%dwalls-%s" % (sum(sizes), "x".join(
            str(m) for m in sizes if m > 1))
        enum.append(_family_item(workdir, rng, name, 3, sizes, 10, False))
    return {"dual-check": check, "dual-enum": enum}
