"""Tests for the standard wall family and its direction classes.

The separation count and its linear bounds run on the family's int
dual rows; the Fraction path they replaced is kept in tests/oracles.py
(`fraction_separation`, `fraction_check_linear_separation`), and so is
the Fraction draw of the `cubulate` separation sample
(`fraction_sample_pairs`).  Up to STRAIGHT_LINE_MAX dimensions the
check runs one straight-line scan, whose oracles are the generic loop
`walls._loop_scan` and the Fraction check.
"""

import dataclasses
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubecrys.cli import _sample_pairs
from cubecrys.crys import catalog_entry, load_catalog, validate
from cubecrys.decide import HyperoctahedralWitness, is_hyperoctahedral
from cubecrys.exactlin import (
    STRAIGHT_LINE_MAX,
    ShapeError,
    identity,
    int_mul,
    integral,
)
from cubecrys.sgnperm import SignedPermutation, signed_permutation_of
from cubecrys.walls import (
    GeometricWall,
    InternalError,
    PropertyViolationError,
    RankError,
    _SCANS,
    _loop_scan,
    _pair_counts,
    _primitive,
    check_linear_separation,
    direction_class_count,
    induced_action_on_RN,
    scaled_pair,
    separation_count,
    stabilize,
)
from groups import I2, b4_generic, group, pinned_groups, shrunk
from oracles import (
    apply,
    fraction_check_linear_separation,
    fraction_dual_matrix,
    fraction_side,
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
    assert fraction_side(w, (0, 0)) == -1
    assert fraction_side(w, (2, 0)) == 1
    assert fraction_side(w, (Fraction(3, 2), 0)) == 0
    with pytest.raises(ShapeError):
        fraction_side(w, (1, 0, 0))


@pytest.mark.parametrize("value", [True, False])
def test_a_wall_refuses_bools(value):
    with pytest.raises(ValueError, match="not a serialized rational"):
        GeometricWall([value, 1], 0)
    with pytest.raises(ValueError, match="not a serialized rational"):
        GeometricWall([1, 0], value)
    with pytest.raises(ValueError, match="not a serialized rational"):
        direction_class_count(group("free", I2, []), [[1, 0], [0, value]])


def test_standard_walls_square_basis():
    g = group("free", I2, [])
    walls = direction_class_count(g, [(1, 0), (0, 1)]).base_walls
    assert walls[0] == GeometricWall((1, 0), 0)
    assert walls[1] == GeometricWall((0, 1), 0)


def test_standard_walls_one_dimension():
    g = group("free", [[1]], [])
    walls = direction_class_count(g, [(2,)]).base_walls
    assert len(walls) == 1
    assert walls[0] == GeometricWall((1,), 0)


def test_standard_walls_are_dual_to_the_basis():
    """Wall i must contain every basis vector except the i-th."""
    g = group("free", I2, [])
    basis = [(1, Fraction(1, 2)), (1, Fraction(-1, 2))]
    walls = direction_class_count(g, basis).base_walls
    for i, w in enumerate(walls):
        for j, v in enumerate(basis):
            assert (sum(a * b for a, b in zip(w.normal, v)) == 0) == (i != j)


def test_standard_walls_need_a_basis():
    g = group("free", I2, [])
    with pytest.raises(RankError):
        direction_class_count(g, [(1, 0), (2, 0)])
    with pytest.raises(RankError):
        direction_class_count(g, [(1, 0)])


def test_direction_classes_trivial_group():
    fam = direction_class_count(group("free", I2, []), identity(2))
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
    fam = direction_class_count(group("free", I2, []), identity(2))
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
    fam = direction_class_count(group("free", I2, []), identity(2))
    # q sits on the wall x = 1; that wall separates nothing.
    p = (Fraction(1, 2), Fraction(1, 2))
    q = (1, Fraction(1, 2))
    assert separation_count(p, q, fam) == 0
    r = (Fraction(5, 2), Fraction(1, 2))
    assert separation_count(p, r, fam) == 2


def test_separation_vanishes_iff_no_wall_separates():
    fam = direction_class_count(group("free", I2, []), identity(2))
    inside = [(Fraction(1, 3), Fraction(2, 3)),
              (Fraction(2, 3), Fraction(1, 5))]
    assert separation_count(inside[0], inside[1], fam) == 0
    across = (Fraction(4, 3), Fraction(1, 5))
    assert separation_count(inside[0], across, fam) == 1


def test_separation_triangle_inequality_on_collinear_triples():
    """For q between p and r (and on no wall), every wall separating
    p from r separates one of the half segments."""
    fam = direction_class_count(group("free", I2, []), identity(2))
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
    g = group("free", I2, [])
    fam = direction_class_count(g, identity(2))
    p = (Fraction(1, 4), Fraction(1, 4))
    q = (Fraction(11, 4), Fraction(7, 4))
    report = check_linear_separation(g, fam, [scaled_pair(p, q)])
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
        report = check_linear_separation(
            g, fam, [scaled_pair(p, q) for p, q in samples])
        assert report.pairs_checked == 100
        assert report.worst_ratio <= 1


@st.composite
def dual_rows_and_pair(draw):
    """(e, rows, c, p, q): n int dual rows over a denominator e >= 1 and
    two int points over a common denominator c >= 1."""
    n = draw(st.integers(1, 5))
    ints = st.integers(-60, 60)
    vector = st.lists(ints, min_size=n, max_size=n)
    rows = draw(st.lists(vector, min_size=n, max_size=n))
    return (draw(st.integers(1, 12)), rows, draw(st.integers(1, 12)),
            draw(vector), draw(vector))


@given(dual_rows_and_pair())
def test_the_lower_separation_bound_holds_for_any_dual_rows(case):
    # # >= sum |nu_i| - n is a theorem, not a property of the walls:
    # at least |x - y| - 1 integers lie strictly between reals x and y.
    # So it holds on any int dual rows, singular ones included.
    e, rows, c, p, q = case
    sep, gap, m, _ = _pair_counts(SimpleNamespace(dual_matrix=(e, rows)),
                                  c, p, q)
    assert (sep + len(rows)) * m >= gap


def test_a_violated_upper_bound_names_the_pair():
    g = catalog_entry("p6")
    fam = shrunk(direction_class_count(g, zip(*g.lattice_basis)))
    p = (Fraction(1, 4), Fraction(1, 4))
    q = (Fraction(11, 4), Fraction(7, 4))
    message = ("separation bound failed for pair ([1/4, 1/4], "
               "[11/4, 7/4]): 17/2 > 49/10000")
    with pytest.raises(PropertyViolationError) as info:
        fraction_check_linear_separation(g, fam, [(q, q), (p, q)])
    assert str(info.value) == message
    # The int check names the pair in lowest terms, over any common
    # denominator.
    for k in (1, 3):
        samples = [(k * c, [k * x for x in u], [k * x for x in v])
                   for c, u, v in (scaled_pair(q, q), scaled_pair(p, q))]
        with pytest.raises(PropertyViolationError) as info:
            check_linear_separation(g, fam, samples)
        assert str(info.value) == message


def _shift(n):
    """The cyclic shift of the coordinates of Z^n, as int rows."""
    return [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]


def _scan_groups():
    """Two groups in each dimension 1-4, the separation scan's, and the
    cyclic shift of Z^5, which takes the loop."""
    pinned = pinned_groups()
    return [group("Z:-1", [[Fraction(3, 2)]], [[[-1]]]),
            group("Z", [[1]], []),
            catalog_entry("p6"), pinned["p4-skew"],
            catalog_entry("Z:W"), pinned["m-skew"],
            b4_generic(), pinned["C2^2.p-skew"],
            group("C5", identity(5), [_shift(5)])]


SCAN_GROUPS = _scan_groups()


def _scan_samples(fam, seed):
    """cubulate's sample, then pairs over assorted c, past 2**64 too:
    points on walls, equal points and shared coordinates among them,
    and pairs that differ along one basis vector, whose dual coordinates
    differ in one place only."""
    n = len(fam.basis)
    rng = random.Random(seed)
    samples = _sample_pairs(n, 100, seed)
    for _ in range(150):
        c = rng.choice((1, 2, 3, 12, 420, 2 ** 70 + 1))
        p = [rng.randint(-3 * c, 3 * c) for _ in range(n)]
        q = [rng.choice((x, rng.randint(-3 * c, 3 * c))) for x in p]
        samples.append((c, p, rng.choice((p, q))))
    d, basis = integral(fam.basis)
    for _ in range(50):
        c = d * rng.choice((1, 2, 420))
        p = [rng.randint(-3 * c, 3 * c) for _ in range(n)]
        k, t = rng.randint(-40, 40), rng.choice(basis)
        samples.append((c, p, [x + k * y for x, y in zip(p, t)]))
    return samples


def _fractions(samples):
    return [tuple(tuple(Fraction(x, c) for x in v) for v in (p, q))
            for c, p, q in samples]


def _scan_and_loop(g, fam, samples):
    """(the straight-line scan's result, the loop's) on one sample."""
    e, rows = fam.dual_matrix
    top = max(sum(x * x for x in v) for v in fam.basis)
    num, den = top.numerator, top.denominator
    n = g.dimension
    return (_SCANS[n](samples, e, rows, n, num, den),
            _loop_scan(samples, fam, n, num, den))


def _outcome(g, fam, samples, check=check_linear_separation):
    try:
        return check(g, fam, samples)
    except PropertyViolationError as exc:
        return str(exc)


@pytest.mark.parametrize("g", SCAN_GROUPS, ids=lambda g: g.name)
def test_the_scan_matches_the_loop_and_the_fraction_check(g):
    """n = 1-5: the same pairs counted and the same worst ratio.  At
    n = 5 the check takes the loop; the scan, which _scan_source writes
    for any n, still agrees with it."""
    fam = direction_class_count(g, zip(*g.lattice_basis))
    samples = _scan_samples(fam, 5 * g.dimension + len(fam.classes))
    scan, loop = _scan_and_loop(g, fam, samples)
    assert scan == loop and scan[0] == len(samples)
    # A lone pair of distinct points is the worst: its ratio's two
    # sides show its separation count.
    for pair in samples:
        alone, loop_alone = _scan_and_loop(g, fam, [pair])
        assert alone == loop_alone
    report = check_linear_separation(g, fam, samples)
    assert report == \
        fraction_check_linear_separation(g, fam, _fractions(samples))
    assert report.worst_ratio == Fraction(*scan[1:])


@pytest.mark.parametrize("g", [g for g in SCAN_GROUPS
                               if g.dimension <= STRAIGHT_LINE_MAX],
                         ids=lambda g: g.name)
def test_the_scan_names_the_first_violated_pair(g):
    """With the basis shrunk 100-fold, pairs of equal points still pass
    and the first pair of distinct points fails: the scan stops at it,
    as the loop does, and the message is the Fraction check's."""
    n = g.dimension
    small = shrunk(direction_class_count(g, zip(*g.lattice_basis)))
    sample = _sample_pairs(n, 20, n)
    samples = [(c, p, p) for c, p, _ in sample[:3]] + sample
    scan, loop = _scan_and_loop(g, small, samples)
    assert scan == loop and scan[0] == 3
    message = _outcome(g, small, samples)
    assert message.startswith("separation bound failed for pair (%s)"
                              % ", ".join("[%s]" % ", ".join(map(str, v))
                                          for v in _fractions(samples)[3]))
    assert message == _outcome(g, small, _fractions(samples),
                               fraction_check_linear_separation)


@pytest.mark.parametrize("n", range(1, STRAIGHT_LINE_MAX + 1))
def test_the_scan_hands_a_point_of_the_wrong_length_to_the_loop(n):
    """The scan gives up on a pair it cannot unpack, and the loop raises
    ShapeError there, unless an earlier pair fails first."""
    g = group("Z^%d" % n, identity(n), [])
    fam = direction_class_count(g, identity(n))
    small = shrunk(fam)
    e, rows = fam.dual_matrix
    still, far = (1, [1] * n, [1] * n), (1, [0] * n, [9] * n)
    for bad in ((1, [1] * (n - 1), [2] * n), (1, [1] * n, [2] * (n + 1)),
                (1, [1] * n)):
        assert _SCANS[n]([still, bad], e, rows, n, 1, 1) is None
        with pytest.raises(ShapeError if len(bad) == 3 else ValueError):
            check_linear_separation(g, fam, [still, bad])
        with pytest.raises(PropertyViolationError):
            check_linear_separation(g, small, [still, far, bad])
        with pytest.raises(ShapeError if len(bad) == 3 else ValueError):
            check_linear_separation(g, small, [still, bad, far])


def test_check_linear_separation_needs_samples():
    g = group("free", I2, [])
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
    # stabilize reads the family's checked generators, and a family
    # whose generator images break a relation of the point group is
    # never built: swapping p4m's two images does.  Nor can a family's
    # action be replaced after the check.
    g = catalog_entry("p4m")
    fam = direction_class_count(g, zip(*g.lattice_basis))
    a, b = fam.generators
    with pytest.raises(InternalError, match="not a homomorphism"):
        dataclasses.replace(fam, generators=(b, a))
    gens = set(g.point_table().next[0])
    p, q = [k for k in range(1, len(fam.action)) if k not in gens][:2]
    action = list(fam.action)
    action[p], action[q] = action[q], action[p]
    with pytest.raises(ValueError):
        dataclasses.replace(fam, action=tuple(action))


def test_stabilize_refuses_an_action_that_is_not_injective():
    g = catalog_entry("p4m")
    fam = direction_class_count(g, zip(*g.lattice_basis))
    one = SignedPermutation.identity(fam.class_count)
    with pytest.raises(InternalError, match="not injective"):
        dataclasses.replace(fam, generators=(one,) * len(fam.generators))
    with pytest.raises(ValueError):
        dataclasses.replace(fam, action=(one,) * len(fam.action))


def test_a_family_refuses_an_extra_generator_image():
    # Without the count check, the extension would ignore the extra
    # image and stabilize would make it a generator of its output.
    g = catalog_entry("p4")
    fam = direction_class_count(g, zip(*g.lattice_basis))
    extra = SignedPermutation([2, 1], [1, 1])
    with pytest.raises(ValueError, match="2 generator images for 1"):
        dataclasses.replace(fam, generators=fam.generators + (extra,))
    assert dataclasses.replace(fam, generators=fam.generators) == fam
