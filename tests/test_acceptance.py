"""Acceptance gate: the package's headline guarantees, one test each.

Every test here prints one [PASS] line after its assertions, so a
plain run with -v (or -s) gives a per-criterion verdict.  Nothing in
this file reuses the classifier's own search internals; criterion 7
runs the independent exhaustive embedding oracle of tests/oracles.py
(`embedding_exists`), built from raw integer matrices.
"""

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction

from cubecrys import cli
from cubecrys.boundary import (
    FactorDescriptor,
    INFINITE_DISCRETE,
    atomic_boundary,
    boundary_of_Rn,
    is_isomorphic,
    product_boundary,
)
from cubecrys.crys import (
    catalog_entry,
    load_catalog,
    point_group_real,
    save_group,
    semidirect_extend,
)
from cubecrys.decide import (
    HyperoctahedralWitness,
    RejectionCertificate,
    is_hyperoctahedral,
)
from cubecrys.dual import (
    FiniteWallspace,
    Orientation,
    distance,
    dual_complex,
    duality_check,
    is_median_graph,
    link_of_vertex,
    seeded_wallspaces,
)
from cubecrys.exactlin import RatMatrix, identity, inverse
from cubecrys.sgnperm import build_Qn, enumerate_group, to_matrix
from cubecrys.walls import (
    GeometricWall,
    check_linear_separation,
    direction_class_count,
    scaled_pair,
    stabilize,
)
from oracles import bfs_distances, embedding_exists, zero_cubes

WALLPAPER = [
    "p1", "p2", "pm", "pg", "cm", "pmm", "pmg", "pgg", "cmm",
    "p4", "p4m", "p4g", "p3", "p3m1", "p31m", "p6", "p6m",
]
HEXAGONAL = {"p3", "p3m1", "p31m", "p6", "p6m"}


def test_criterion_01_signed_permutation_group_orders():
    for n in range(1, 5):
        count = len(enumerate_group(n))
        assert count == 2 ** n * len(list(itertools.permutations(range(n))))
    assert [len(enumerate_group(n)) for n in range(1, 5)] == [2, 8, 48, 384]
    print("[PASS] criterion 1: |O(n,Z)| = 2, 8, 48, 384 for n = 1..4")


def test_criterion_02_no_order_six_in_rank_two():
    orders = {s.order() for s in enumerate_group(2)}
    assert orders == {1, 2, 4}
    assert 3 not in orders and 6 not in orders
    print("[PASS] criterion 2: O(2,Z) realizes orders {1, 2, 4} only")


def test_criterion_03_order_six_in_rank_three_reverses_orientation():
    sixes = [s for s in enumerate_group(3) if s.order() == 6]
    assert sixes, "rank three must realize order 6"
    assert all(s.determinant() == -1 for s in sixes)
    print("[PASS] criterion 3: all %d order-6 elements of O(3,Z) have "
          "det -1" % len(sixes))


def test_criterion_04_sixfold_symmetry_examples():
    w = catalog_entry("W")
    assert isinstance(is_hyperoctahedral(w), RejectionCertificate)
    assert isinstance(is_hyperoctahedral(catalog_entry("ZxW")),
                      RejectionCertificate)
    z2xw = semidirect_extend(w, 2, [identity(2)], name="Z2xW")
    assert isinstance(is_hyperoctahedral(z2xw), RejectionCertificate)
    twisted = catalog_entry("Z:W")
    witness = is_hyperoctahedral(twisted)
    assert isinstance(witness, HyperoctahedralWitness)
    image = witness.iota[twisted.point_table().next[0][0]]
    assert image.order() == 6
    assert image.determinant() == -1
    print("[PASS] criterion 4: W, ZxW, Z2xW rejected; Z:W accepted with an "
          "order-6, det -1 generator image")


def test_criterion_05_wallpaper_catalog(tmp_path):
    accepted, rejected = [], []
    for name in WALLPAPER:
        g = catalog_entry(name)
        result = is_hyperoctahedral(g)
        (accepted if isinstance(result, HyperoctahedralWitness)
         else rejected).append(name)
    assert len(accepted) == 12
    assert set(rejected) == HEXAGONAL
    for name in sorted(HEXAGONAL):
        path = tmp_path / ("%s.json" % name)
        save_group(catalog_entry(name), path)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["cubulate", str(path), "--json"])
        assert code == 0
        assert json.loads(buf.getvalue())["N"] == 3, name
    print("[PASS] criterion 5: 12 of 17 wallpaper groups accepted; each "
          "hexagonal rejection has N = 3")


def test_criterion_06_stabilization_accepts_every_rejection():
    for g in load_catalog():
        if isinstance(is_hyperoctahedral(g), HyperoctahedralWitness):
            continue
        fam = direction_class_count(g, zip(*g.lattice_basis))
        s = stabilize(g)
        assert s.dimension == fam.class_count, g.name
        witness = is_hyperoctahedral(s)
        assert isinstance(witness, HyperoctahedralWitness), g.name
        assert witness.conjugator == identity(s.dimension), g.name
    print("[PASS] criterion 6: every rejected catalog group stabilizes to "
          "an accepted group with identity conjugator")


def test_criterion_07_witness_soundness_and_exhaustive_oracle():
    accepted = rejected = 0
    for g in load_catalog():
        result = is_hyperoctahedral(g)
        if isinstance(result, HyperoctahedralWitness):
            accepted += 1
            a = RatMatrix(result.conjugator)
            a_inv = RatMatrix(inverse(result.conjugator))
            for s, real_form in zip(result.iota, point_group_real(g)):
                assert a * RatMatrix(to_matrix(s)) * a_inv == real_form, \
                    g.name
            if g.dimension <= 3:
                assert embedding_exists(g), g.name
        else:
            rejected += 1
            assert g.dimension <= 3
            assert not embedding_exists(g), g.name
    assert accepted == 13 and rejected == 7
    print("[PASS] criterion 7: all 13 witnesses verified entry-for-entry; "
          "the exhaustive oracle agrees on all 20 verdicts")


def test_criterion_08_sageev_duality_properties():
    spaces = seeded_wallspaces(count=50, seed=0, max_walls=10)
    assert len(spaces) == 50
    vertices = 0
    for ws in spaces:
        c = dual_complex(ws)
        vertices += c.vertex_count()
        assert is_median_graph(c)
        assert duality_check(c)
        cubes = zero_cubes(c)
        for start in range(c.vertex_count()):
            o = cubes[start]
            for j, d in enumerate(bfs_distances(c, start)):
                assert d == distance(c, o, cubes[j])
    print("[PASS] criterion 8: 50 seeded wallspaces (%d 0-cubes) are "
          "median, Hamming-metric, and self-dual" % vertices)


def test_criterion_09_linear_separation_bounds():
    rng = random.Random(0)
    names = []
    for g in load_catalog():
        fam = direction_class_count(g, zip(*g.lattice_basis))
        pairs = []
        for _ in range(100):
            pairs.append((
                [Fraction(rng.randrange(-2000, 2001), rng.randrange(1, 8))
                 for _ in range(g.dimension)],
                [Fraction(rng.randrange(-2000, 2001), rng.randrange(1, 8))
                 for _ in range(g.dimension)],
            ))
        report = check_linear_separation(
            g, fam, [scaled_pair(p, q) for p, q in pairs])
        assert report.pairs_checked == 100
        assert report.lower_bound_checked
        assert report.worst_ratio <= 1
        names.append(g.name)
    assert len(names) == 20
    print("[PASS] criterion 9: both separation inequalities hold on 100 "
          "seeded pairs for each of 20 catalog groups")


def interior_grid_vertex_link(n):
    walls = []
    for axis in range(n):
        for offset in (Fraction(-1, 2), Fraction(1, 2)):
            normal = [Fraction(0)] * n
            normal[axis] = Fraction(1)
            walls.append(GeometricWall(normal, offset))
    base = [Fraction(39, 20)] * n
    ws = FiniteWallspace(n, [(-2, 2)] * n, walls, base)
    c = dual_complex(ws)
    center_bits = 0
    for k in range(2 * n):
        if k % 2 == 0:  # plus side of the wall at -1/2 only
            center_bits |= 1 << k
    return link_of_vertex(c, Orientation(center_bits, 2 * n))


def test_criterion_10_boundary_zoo():
    tree = atomic_boundary(FactorDescriptor("RegularTree", 3))
    assert not tree.is_finite and tree.describe() == INFINITE_DISCRETE
    half = FactorDescriptor("HalfLine")
    line = FactorDescriptor("Line")
    assert product_boundary([half, half]).as_complex().f_vector() == (2, 1)
    assert product_boundary([half, line]).as_complex().f_vector() == (3, 2)
    assert product_boundary([line, line]).as_complex().f_vector() == (4, 4)
    for n in range(1, 7):
        assert is_isomorphic(boundary_of_Rn(n), build_Qn(n)), n
    for n in (2, 3):
        assert is_isomorphic(interior_grid_vertex_link(n), boundary_of_Rn(n)), n
    print("[PASS] criterion 10: boundary zoo, hyperoctahedral boundaries "
          "for n = 1..6, and interior links for n = 2, 3 all match")
