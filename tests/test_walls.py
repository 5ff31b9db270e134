"""Tests for the standard wall family and its direction classes.

The separation count and its linear bounds run on the family's int
dual rows; the Fraction path they replaced is kept below as the oracle
(`fraction_separation`, `fraction_check_linear_separation`).
"""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from cubecrys.crys import CrystGroup, catalog_entry, load_catalog, validate
from cubecrys.decide import HyperoctahedralWitness, is_hyperoctahedral
from cubecrys.exactlin import (
    RatMatrix,
    ShapeError,
    format_rational,
    identity,
    int_mul,
)
from cubecrys.sgnperm import SignedPermutation, signed_permutation_of
from cubecrys.walls import (
    GeometricWall,
    InternalError,
    LinearSeparationReport,
    PropertyViolationError,
    RankError,
    _primitive,
    check_linear_separation,
    direction_class_count,
    induced_action_on_RN,
    separation_count,
    stabilize,
)


# ---------------------------------------------------------------------------
# The Fraction separation path, as an oracle


def fraction_dual_matrix(fam):
    """B^-1 as a RatMatrix, from the family's int rows e B^-1."""
    e, rows = fam.dual_matrix
    return RatMatrix([[Fraction(x, e) for x in row] for row in rows])


def apply(m: RatMatrix, v) -> tuple:
    """m * v for a column vector v, as a tuple of Fractions."""
    if m.cols != len(v):
        raise ShapeError("matrix-vector size mismatch")
    return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0))
                 for row in m.entries)


def pair_text(p, q):
    return "(%s)" % ", ".join(
        "[%s]" % ", ".join(map(format_rational, v)) for v in (p, q))


def _integers_strictly_between(a, b):
    if a == b:
        return 0
    lo, hi = (a, b) if a < b else (b, a)
    return max(0, math.ceil(hi) - math.floor(lo) - 1)


def fraction_separation(fam, p, q):
    """The separation count over the Fraction dual coordinates
    b_inv * p and b_inv * q."""
    b_inv = fraction_dual_matrix(fam)
    return sum(_integers_strictly_between(a, b)
               for a, b in zip(apply(b_inv, p), apply(b_inv, q)))


def fraction_check_linear_separation(g, fam, samples):
    """check_linear_separation with every quantity a Fraction."""
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample pair")
    n = g.dimension
    b_inv = fraction_dual_matrix(fam)
    max_norm_sq = max(sum(x * x for x in v) for v in fam.basis)
    worst = Fraction(0)
    for r1, r2 in samples:
        nu1 = apply(b_inv, r1)
        nu2 = apply(b_inv, r2)
        sep = sum(_integers_strictly_between(a, b) for a, b in zip(nu1, nu2))
        lhs = sum((a - b) ** 2 for a, b in zip(r1, r2))
        rhs = max_norm_sq * (sep + n) ** 2
        if lhs > rhs:
            raise PropertyViolationError(
                "separation bound failed for pair %s: %s > %s"
                % (pair_text(r1, r2), lhs, rhs))
        lower = sum(abs(a - b) for a, b in zip(nu1, nu2)) - n
        if sep < lower:
            raise PropertyViolationError(
                "separation undercount for pair %s: %d < %s"
                % (pair_text(r1, r2), sep, lower))
        ratio = lhs / rhs
        if ratio > worst:
            worst = ratio
    return LinearSeparationReport(
        pairs_checked=len(samples),
        worst_ratio=worst,
        max_basis_norm_sq=max_norm_sq,
        lower_bound_checked=True,
    )


def shrunk(fam, factor=100):
    """The family with its basis divided by factor and its walls kept,
    so the upper separation bound fails on any far-apart pair."""
    return dataclasses.replace(fam, basis=tuple(
        tuple(x / factor for x in v) for v in fam.basis))


def trivial_group(n=2, name="free"):
    return CrystGroup(
        name=name,
        dimension=n,
        lattice_basis=identity(n),
        point_generators=[],
        translation_parts=[],
    )


def test_canonicalize_direction():
    assert _primitive((Fraction(-2, 3), Fraction(4, 3))) == (1, -2)
    assert _primitive((0, -5)) == (0, 1)
    assert _primitive((4, 6)) == (2, 3)
    assert _primitive((1, 0)) == (1, 0)
    assert all(type(x) is int for x in _primitive((Fraction(1, 2), 1)))
    with pytest.raises(ValueError):
        _primitive((0, 0))


def test_geometric_wall_is_canonically_scaled():
    # <(2, -4), x> = 3 is the same wall as <(1, -2), x> = 3/2.
    w = GeometricWall([2, -4], Fraction(3))
    assert w.normal == (1, -2)
    assert w.offset == Fraction(3, 2)
    assert w == GeometricWall(["-1", 2], "-3/2")
    assert w.side((0, 0)) == -1
    assert w.side((2, 0)) == 1
    assert w.side((Fraction(3, 2), 0)) == 0
    with pytest.raises(ShapeError):
        w.side((1, 0, 0))


@pytest.mark.parametrize("value", [True, False])
def test_a_wall_refuses_bools(value):
    with pytest.raises(ValueError, match="not a serialized rational"):
        GeometricWall([value, 1], 0)
    with pytest.raises(ValueError, match="not a serialized rational"):
        GeometricWall([1, 0], value)
    with pytest.raises(ValueError, match="not a serialized rational"):
        direction_class_count(trivial_group(), [[1, 0], [0, value]])


def test_standard_walls_square_basis():
    g = trivial_group()
    walls = direction_class_count(g, [(1, 0), (0, 1)]).base_walls
    assert walls[0] == GeometricWall((1, 0), 0)
    assert walls[1] == GeometricWall((0, 1), 0)


def test_standard_walls_one_dimension():
    g = trivial_group(n=1)
    walls = direction_class_count(g, [(2,)]).base_walls
    assert len(walls) == 1
    assert walls[0] == GeometricWall((1,), 0)


def test_standard_walls_are_dual_to_the_basis():
    """Wall i must contain every basis vector except the i-th."""
    g = trivial_group()
    basis = [(1, Fraction(1, 2)), (1, Fraction(-1, 2))]
    walls = direction_class_count(g, basis).base_walls
    for i, w in enumerate(walls):
        for j, v in enumerate(basis):
            assert (sum(a * b for a, b in zip(w.normal, v)) == 0) == (i != j)


def test_standard_walls_need_a_basis():
    g = trivial_group()
    with pytest.raises(RankError):
        direction_class_count(g, [(1, 0), (2, 0)])
    with pytest.raises(RankError):
        direction_class_count(g, [(1, 0)])


def test_direction_classes_trivial_group():
    fam = direction_class_count(trivial_group(), identity(2))
    assert fam.class_count == 2
    assert fam.classes == ((1, 0), (0, 1))
    assert fam.basis == ((1, 0), (0, 1))


def test_direction_classes_p4m():
    g = catalog_entry("p4m")
    fam = direction_class_count(g, zip(*g.lattice_basis))
    assert fam.class_count == 2


def test_direction_classes_hexagonal():
    """The sixth turn cycles three wall directions."""
    for name in ("p6", "W", "p3", "p6m"):
        g = catalog_entry(name)
        fam = direction_class_count(g, zip(*g.lattice_basis))
        assert fam.class_count == 3, name


def test_direction_class_bounds_over_the_catalog():
    for g in load_catalog():
        fam = direction_class_count(g, zip(*g.lattice_basis))
        n = g.dimension
        assert n <= fam.class_count <= n * g.point_group_order(), g.name


def test_witness_basis_gives_minimal_class_count():
    for name in ("p4", "cm", "pgg", "Z:W"):
        g = catalog_entry(name)
        witness = is_hyperoctahedral(g)
        assert isinstance(witness, HyperoctahedralWitness)
        fam = direction_class_count(g, witness.basis)
        assert fam.class_count == g.dimension, name


def test_separation_count_square_lattice():
    fam = direction_class_count(trivial_group(), identity(2))
    p = (Fraction(1, 4), Fraction(1, 4))
    q = (Fraction(11, 4), Fraction(7, 4))
    # Crosses x=1, x=2 and y=1.
    assert separation_count(p, q, fam) == 3
    assert separation_count(q, p, fam) == 3
    assert separation_count(p, p, fam) == 0
    # The lower bound sum |nu_i| - n = (5/2 + 3/2) - 2 = 2.
    nu = apply(fraction_dual_matrix(fam), [a - b for a, b in zip(p, q)])
    assert sum(abs(e) for e in nu) - 2 == 2


def test_separation_ignores_walls_through_endpoints():
    fam = direction_class_count(trivial_group(), identity(2))
    # q sits on the wall x = 1; that wall separates nothing.
    p = (Fraction(1, 2), Fraction(1, 2))
    q = (1, Fraction(1, 2))
    assert separation_count(p, q, fam) == 0
    r = (Fraction(5, 2), Fraction(1, 2))
    assert separation_count(p, r, fam) == 2


def test_separation_vanishes_iff_no_wall_separates():
    fam = direction_class_count(trivial_group(), identity(2))
    inside = [(Fraction(1, 3), Fraction(2, 3)),
              (Fraction(2, 3), Fraction(1, 5))]
    assert separation_count(inside[0], inside[1], fam) == 0
    across = (Fraction(4, 3), Fraction(1, 5))
    assert separation_count(inside[0], across, fam) == 1


def test_separation_triangle_inequality_on_collinear_triples():
    """For q between p and r (and on no wall), every wall separating
    p from r separates one of the half segments."""
    fam = direction_class_count(trivial_group(), identity(2))
    rng = random.Random(5)
    checked = 0
    while checked < 50:
        p = [Fraction(rng.randrange(-70, 71), 7) for _ in range(2)]
        r = [Fraction(rng.randrange(-70, 71), 7) for _ in range(2)]
        t = Fraction(rng.randrange(1, 9), 9)
        q = [a + t * (c - a) for a, c in zip(p, r)]
        if any(e.denominator == 1 for e in apply(fraction_dual_matrix(fam), q)):
            continue
        sep_pr = separation_count(p, r, fam)
        assert sep_pr <= separation_count(p, q, fam) + separation_count(q, r, fam)
        checked += 1


def test_linear_separation_exact_pair():
    g = trivial_group()
    fam = direction_class_count(g, identity(2))
    p = (Fraction(1, 4), Fraction(1, 4))
    q = (Fraction(11, 4), Fraction(7, 4))
    report = check_linear_separation(g, fam, [(p, q)])
    assert report.pairs_checked == 1
    # |p - q|^2 = 17/2 against max |t|^2 (3 + 2)^2 = 25.
    assert report.worst_ratio == Fraction(17, 2) / 25
    assert report.max_basis_norm_sq == 1
    assert report.lower_bound_checked


def test_linear_separation_on_catalog_groups():
    rng = random.Random(11)
    for name in ("p1", "p4", "cm", "p6", "p6m", "Z:W"):
        g = catalog_entry(name)
        fam = direction_class_count(g, zip(*g.lattice_basis))
        samples = []
        for _ in range(100):
            samples.append((
                [Fraction(rng.randrange(-50, 51), rng.randrange(1, 11))
                 for _ in range(g.dimension)],
                [Fraction(rng.randrange(-50, 51), rng.randrange(1, 11))
                 for _ in range(g.dimension)],
            ))
        report = check_linear_separation(g, fam, samples)
        assert report.pairs_checked == 100
        assert report.worst_ratio <= 1


def test_a_violated_upper_bound_names_the_pair():
    g = catalog_entry("p6")
    fam = shrunk(direction_class_count(g, zip(*g.lattice_basis)))
    p = (Fraction(1, 4), Fraction(1, 4))
    q = (Fraction(11, 4), Fraction(7, 4))
    message = ("separation bound failed for pair ([1/4, 1/4], "
               "[11/4, 7/4]): 17/2 > 49/10000")
    for check in (check_linear_separation, fraction_check_linear_separation):
        with pytest.raises(PropertyViolationError) as info:
            check(g, fam, [(q, q), (p, q)])
        assert str(info.value) == message


def test_check_linear_separation_needs_samples():
    g = trivial_group()
    fam = direction_class_count(g, identity(2))
    with pytest.raises(ValueError):
        check_linear_separation(g, fam, [])


def test_induced_action_p4():
    g = catalog_entry("p4")
    fam = direction_class_count(g, zip(*g.lattice_basis))
    action = induced_action_on_RN(g, fam)
    elements = g.point_elements()
    rotation = action[elements.index(((0, -1), (1, 0)))]
    assert rotation.perm == (2, 1)
    assert sorted(rotation.signs) == [-1, 1]
    assert elements[0] == ((1, 0), (0, 1))
    assert action[0].is_identity()


def test_induced_action_is_a_homomorphism():
    for name in ("p4m", "p6m", "Z:W"):
        g = catalog_entry(name)
        fam = direction_class_count(g, zip(*g.lattice_basis))
        action = induced_action_on_RN(g, fam)
        elements = g.point_elements()
        index = {p: k for k, p in enumerate(elements)}
        for a, p in enumerate(elements):
            for b, q in enumerate(elements):
                assert (action[index[int_mul(p, q)]]
                        == action[a] * action[b]), name


def test_induced_action_of_the_twisted_generator():
    g = catalog_entry("Z:W")
    fam = direction_class_count(g, zip(*g.lattice_basis))
    action = induced_action_on_RN(g, fam)
    image = action[g.point_table().next[0][0]]
    # N = 4: three hexagonal wall directions plus the twisted axis.
    assert fam.class_count == 4
    assert image.order() == 6
    assert image.determinant() == 1  # det(-1 twist) * det(order-6 cycle part)


def test_stabilize_hexagonal():
    g = catalog_entry("p6")
    s = stabilize(g)
    assert s.dimension == 3
    assert s.name == "p6-stab"
    assert s.point_group_order() == 6
    assert s.lattice_basis == identity(3)
    assert s.translation_parts == ((0, 0, 0),)
    validate(s)
    witness = is_hyperoctahedral(s)
    assert isinstance(witness, HyperoctahedralWitness)


def test_stabilize_w_generator_image():
    s = stabilize(catalog_entry("W"))
    assert s.dimension == 3
    image = signed_permutation_of(s.point_generators[0])
    assert image.order() == 6
    assert image.determinant() == -1


def test_stabilize_is_dimension_idempotent_on_accepted_groups():
    for name in ("p1", "pm", "p4m", "pgg"):
        g = catalog_entry(name)
        s = stabilize(g)
        assert s.dimension == g.dimension, name
        again = stabilize(s)
        assert again.dimension == s.dimension, name


def test_stabilize_every_rejected_catalog_group():
    for name in ("p3", "p3m1", "p31m", "p6", "p6m", "W", "ZxW"):
        g = catalog_entry(name)
        s = stabilize(g)
        fam = direction_class_count(g, zip(*g.lattice_basis))
        assert s.dimension == fam.class_count, name
        witness = is_hyperoctahedral(s)
        assert isinstance(witness, HyperoctahedralWitness), name
        assert witness.conjugator == identity(s.dimension), name


def test_stabilize_refuses_an_action_that_is_no_homomorphism():
    # Swapping two images off the generators keeps the generators, so
    # the closure of the stabilized group still has 8 elements; only the
    # check along the input's point table sees the broken action.
    g = catalog_entry("p4m")
    fam = direction_class_count(g, zip(*g.lattice_basis))
    gens = set(g.point_table().next[0])
    p, q = [k for k in range(1, len(fam.action)) if k not in gens][:2]
    action = list(fam.action)
    action[p], action[q] = action[q], action[p]
    broken = dataclasses.replace(fam, action=tuple(action))
    with pytest.raises(InternalError, match="not a homomorphism"):
        stabilize(g, broken)


def test_stabilize_refuses_an_action_that_is_not_injective():
    g = catalog_entry("p4m")
    fam = direction_class_count(g, zip(*g.lattice_basis))
    flat = dataclasses.replace(
        fam, action=(SignedPermutation.identity(fam.class_count),)
        * len(fam.action))
    with pytest.raises(InternalError, match="not injective"):
        stabilize(g, flat)
