"""Tests for boundaries of products of elementary complexes."""

import itertools

import pytest

from cubecrys.boundary import (
    BoundaryDescriptor,
    FactorDescriptor,
    HALF_LINE,
    INFINITE_DISCRETE,
    ISOMORPHISM_CAP,
    LINE,
    POINT,
    REGULAR_TREE,
    atomic_boundary,
    boundary_of_Rn,
    is_isomorphic,
    parse_factor,
    parse_product,
    product_boundary,
)
from cubecrys.sgnperm import SimplicialComplex, SizeCapError, build_Qn

LINE_F = FactorDescriptor(LINE)
HALF_F = FactorDescriptor(HALF_LINE)
POINT_F = FactorDescriptor(POINT)


def test_factor_descriptor_validation():
    assert str(FactorDescriptor(REGULAR_TREE, 3)) == "RegularTree(3)"
    assert str(LINE_F) == "Line"
    with pytest.raises(ValueError, match="valence"):
        FactorDescriptor(REGULAR_TREE)
    with pytest.raises(ValueError, match="valence"):
        FactorDescriptor(REGULAR_TREE, 2)
    with pytest.raises(ValueError, match="no valence"):
        FactorDescriptor(LINE, 3)
    with pytest.raises(ValueError, match="unknown"):
        FactorDescriptor("Plane")


def test_parse_factor():
    assert parse_factor("Line") == LINE_F
    assert parse_factor("line") == LINE_F
    assert parse_factor("  HalfLine ") == HALF_F
    assert parse_factor("point") == POINT_F
    assert parse_factor("Tree(3)") == FactorDescriptor(REGULAR_TREE, 3)
    assert parse_factor("RegularTree(12)") == FactorDescriptor(REGULAR_TREE, 12)
    for bad in ("Plane", "Tree(2)", "Tree(-3)", "Tree()", "", "Line Line"):
        with pytest.raises(ValueError):
            parse_factor(bad)


def test_parse_product():
    assert parse_product("Line*Line") == [LINE_F, LINE_F]
    assert parse_product("Line * tree(4) * HalfLine") == [
        LINE_F, FactorDescriptor(REGULAR_TREE, 4), HALF_F]
    with pytest.raises(ValueError, match="empty"):
        parse_product("")
    with pytest.raises(ValueError, match="empty"):
        parse_product(" * ")
    with pytest.raises(ValueError, match="parse"):
        parse_product("Line**Line")


def test_atomic_boundaries():
    assert atomic_boundary(POINT_F).as_complex().f_vector() == ()
    assert atomic_boundary(HALF_F).as_complex().f_vector() == (1,)
    line_end = atomic_boundary(LINE_F).as_complex()
    assert line_end.f_vector() == (2,)
    assert line_end.num_edges() == 0
    tree = atomic_boundary(FactorDescriptor(REGULAR_TREE, 3))
    assert not tree.is_finite
    assert tree.describe() == INFINITE_DISCRETE
    with pytest.raises(ValueError, match="infinite"):
        tree.as_complex()


def test_boundary_descriptor_rejects_junk_parts():
    with pytest.raises(ValueError, match="part"):
        BoundaryDescriptor(("finite?",))


def test_small_product_boundaries():
    cases = [
        ([HALF_F, HALF_F], (2, 1)),
        ([HALF_F, LINE_F], (3, 2)),
        ([LINE_F, LINE_F], (4, 4)),
        ([LINE_F, LINE_F, LINE_F], (6, 12, 8)),
        ([POINT_F, LINE_F], (2,)),
        ([POINT_F, POINT_F], ()),
    ]
    for factors, f_vec in cases:
        b = product_boundary(factors)
        assert b.is_finite
        assert b.as_complex().f_vector() == f_vec, factors


def test_product_boundary_is_insensitive_to_factor_order():
    pool = (LINE_F, HALF_F)
    for size in (2, 3):
        for combo in itertools.combinations_with_replacement(pool, size):
            reference = product_boundary(combo).as_complex()
            for perm in itertools.permutations(combo):
                other = product_boundary(perm).as_complex()
                assert is_isomorphic(reference, other), perm


def test_product_boundary_is_associative_via_descriptors():
    """Joining ((a*b)*c) part lists matches joining (a*(b*c))."""
    a = product_boundary([LINE_F, LINE_F]).as_complex()
    b = atomic_boundary(HALF_F).as_complex()
    left = BoundaryDescriptor((a, b)).as_complex()
    right = product_boundary([LINE_F, LINE_F, HALF_F]).as_complex()
    assert is_isomorphic(left, right)


def test_tree_factors_stay_symbolic():
    b = product_boundary([LINE_F, FactorDescriptor(REGULAR_TREE, 3)])
    assert not b.is_finite
    assert "infinite-discrete" in b.describe()
    assert "complex(2 vertices, 0 edges)" in b.describe()
    with pytest.raises(ValueError):
        b.as_complex()
    double = product_boundary([FactorDescriptor(REGULAR_TREE, 3),
                               FactorDescriptor(REGULAR_TREE, 4)])
    assert double.describe() == "infinite-discrete * infinite-discrete"


def test_product_boundary_needs_factors():
    with pytest.raises(ValueError, match="nonempty"):
        product_boundary([])


def test_boundary_of_Rn_is_the_hyperoctahedron():
    for n in range(1, 7):
        assert is_isomorphic(boundary_of_Rn(n), build_Qn(n)), n


def test_boundary_of_Rn_counts():
    c = boundary_of_Rn(3)
    assert c.f_vector() == (6, 12, 8)
    assert sorted(c.degree_sequence()) == [4] * 6


def test_boundary_of_Rn_range():
    with pytest.raises(ValueError):
        boundary_of_Rn(0)
    with pytest.raises(ValueError,
                       match="^dimension must be between 1 and 8, got 9$"):
        boundary_of_Rn(9)


def cycle(n, tag):
    vertices = [(tag, i) for i in range(n)]
    edges = [((tag, i), (tag, (i + 1) % n)) for i in range(n)]
    return SimplicialComplex(vertices, edges)


def test_is_isomorphic_positive():
    assert is_isomorphic(cycle(4, "a"), cycle(4, "b"))
    assert is_isomorphic(cycle(4, "a"), build_Qn(2))
    q3 = build_Qn(3)
    assert is_isomorphic(q3, q3.relabel(lambda lab: ("shifted", lab)))


def test_is_isomorphic_negative():
    path = SimplicialComplex("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    assert not is_isomorphic(cycle(4, "a"), path)
    # Same size, same degrees, same local signatures: a 6-cycle against
    # two triangles is only told apart by actual backtracking.
    triangles = SimplicialComplex(
        "abcdef",
        [("a", "b"), ("b", "c"), ("c", "a"),
         ("d", "e"), ("e", "f"), ("f", "d")])
    six = cycle(6, "c")
    assert sorted(six.degree_sequence()) == sorted(triangles.degree_sequence())
    assert not is_isomorphic(six, triangles)
    assert not is_isomorphic(build_Qn(2), build_Qn(3))


def test_is_isomorphic_cap():
    big = SimplicialComplex(tuple(range(ISOMORPHISM_CAP + 1)), ())
    with pytest.raises(SizeCapError):
        is_isomorphic(big, big)
