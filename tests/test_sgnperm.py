"""Tests for signed permutations and the hyperoctahedron."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cubecrys.exactlin import RatMatrix, int_mul
from cubecrys.sgnperm import (
    LabelCollisionError,
    SignedPermutation,
    SimplicialComplex,
    SizeCapError,
    build_Qn,
    enumerate_group,
    qn_automorphism,
    signed_permutation_of,
    simplicial_join,
    times_signed_permutation,
    to_matrix,
)
from oracles import degree_sequence


@st.composite
def signed_perms(draw, n=4):
    perm = draw(st.permutations(range(1, n + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return SignedPermutation(perm, signs)


def test_constructor_validation():
    with pytest.raises(ValueError):
        SignedPermutation((1, 1), (1, 1))
    with pytest.raises(ValueError):
        SignedPermutation((1, 2), (1, 0))
    with pytest.raises(ValueError):
        SignedPermutation((1, 2), (1,))


def test_enumeration_counts():
    """|O(n,Z)| = 2^n * n! for every supported n."""
    for n in range(1, 5):
        group = enumerate_group(n)
        assert len(group) == 2 ** n * math.factorial(n)
        assert len(set(group)) == len(group)
    with pytest.raises(SizeCapError):
        enumerate_group(7)
    with pytest.raises(SizeCapError):
        enumerate_group(0)


def test_enumeration_is_sorted_and_deterministic():
    group = enumerate_group(3)
    assert group == sorted(group, key=SignedPermutation.sort_key)
    assert group == enumerate_group(3)


@given(signed_perms(), signed_perms())
def test_to_matrix_is_a_homomorphism(s, t):
    assert to_matrix(s * t) == int_mul(to_matrix(s), to_matrix(t))


def checked_product(s, t):
    """s * t as __mul__ built it before: the old formula, through
    SignedPermutation's checked constructor."""
    n = s.n
    return SignedPermutation(
        tuple(s.perm[t.perm[i] - 1] for i in range(n)),
        tuple(t.signs[i] * s.signs[t.perm[i] - 1] for i in range(n)))


def _same_product(s, t):
    product, oracle = s * t, checked_product(s, t)
    assert product == oracle and hash(product) == hash(oracle)
    assert type(product) is SignedPermutation
    assert type(product.perm) is tuple and type(product.signs) is tuple


def test_unchecked_products_match_the_checked_formula_on_b3():
    group = enumerate_group(3)
    for s, t in itertools.product(group, repeat=2):
        _same_product(s, t)


def test_unchecked_products_match_the_checked_formula_on_b4():
    group = enumerate_group(4)
    rng = random.Random(0)
    for _ in range(5000):
        _same_product(rng.choice(group), rng.choice(group))


def test_a_product_is_immutable_and_builds_nothing_checked(monkeypatch):
    s = SignedPermutation((2, 3, 1), (1, 1, -1))
    calls = []
    init = SignedPermutation.__init__

    def counting_init(self, perm, signs):
        calls.append((perm, signs))
        init(self, perm, signs)

    monkeypatch.setattr(SignedPermutation, "__init__", counting_init)
    product = s * s
    assert calls == []
    with pytest.raises(AttributeError, match="immutable"):
        product.perm = (1, 2, 3)
    with pytest.raises(ValueError, match="different sizes"):
        s * SignedPermutation.identity(2)
    with pytest.raises(ValueError, match="different sizes"):
        SignedPermutation.identity(4) * s


@given(signed_perms())
def test_inverse_and_round_trip(s):
    # The inverse of a signed permutation matrix is its transpose.
    inv = signed_permutation_of(tuple(zip(*to_matrix(s))))
    assert (s * inv).is_identity()
    assert (inv * s).is_identity()
    assert signed_permutation_of(to_matrix(s)) == s
    assert signed_permutation_of(to_matrix(s), 1) == s


@given(signed_perms())
def test_determinant_and_trace_match_matrix(s):
    from cubecrys.exactlin import det
    m = to_matrix(s)
    assert all(type(x) is int for row in m for x in row)
    assert det(m) == s.determinant()
    assert sum(m[i][i] for i in range(len(m))) == s.trace()


def test_order_of_a_negative_cycle():
    # e1 -> e2 -> e3 -> -e1: a 3-cycle with one sign flip has order 6.
    s = SignedPermutation((2, 3, 1), (1, 1, -1))
    assert s.order() == 6
    assert s.determinant() == -1
    assert s.trace() == 0


def test_is_signed_permutation_matrix():
    assert signed_permutation_of([[0, -1], [1, 0]]) == \
        SignedPermutation((2, 1), (1, -1))
    assert signed_permutation_of([[1, 1], [0, 1]]) is None
    assert signed_permutation_of([[2, 0], [0, 1]]) is None
    assert signed_permutation_of([[Fraction(1, 2), 0], [0, 1]]) is None
    assert signed_permutation_of([[1, 0], [1, 0]]) is None
    assert signed_permutation_of([[1, 0]]) is None
    assert signed_permutation_of([[1], [0]]) is None
    # Over a scale: the rows are d times a signed permutation matrix.
    assert signed_permutation_of([[0, 3], [-3, 0]], 3) == \
        SignedPermutation((2, 1), (-1, 1))


def test_simplicial_complex_basics():
    c = SimplicialComplex(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert (len(c.vertices), len(c.edges)) == (3, 2)
    assert repr(c) == "SimplicialComplex(3 vertices, 2 edges)"
    assert frozenset(("b", "a")) in c.edges
    assert frozenset(("a", "c")) not in c.edges
    assert degree_sequence(c) == (1, 1, 2)
    assert c.f_vector() == (3, 2)
    with pytest.raises(ValueError):
        SimplicialComplex(["a", "a"], [])
    with pytest.raises(ValueError):
        SimplicialComplex(["a"], [("a", "a")])
    with pytest.raises(ValueError):
        SimplicialComplex(["a"], [("a", "b")])


def test_cliques_and_f_vector_of_a_triangle():
    c = SimplicialComplex([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert c.f_vector() == (3, 3, 1)
    assert frozenset((1, 2, 3)) in c.cliques()


def test_times_signed_permutation_relabels_columns():
    rows = ((1, 6, -4), (-3, 0, 5), (7, 3, 9))
    for s in enumerate_group(3):
        assert (RatMatrix(times_signed_permutation(rows, s))
                == RatMatrix(rows) * RatMatrix(to_matrix(s)))


def test_cliques_are_generated_once_each():
    q3 = build_Qn(3)
    cliques = q3.cliques()
    assert next(cliques) == frozenset({(1, 1)})
    rest = list(cliques)
    assert len(set(rest)) == len(rest) == sum(q3.f_vector()) - 1


def test_relabel_and_json_round_trip():
    c = SimplicialComplex([(1, "x"), (2, "y")], [((1, "x"), (2, "y"))])
    shifted = c.relabel(lambda v: ("tag",) + v)
    assert ("tag", 1, "x") in shifted.vertices
    assert c.to_json_dict() == {"vertices": [[1, "x"], [2, "y"]],
                                "edges": [[0, 1]]}


def test_qn_f_vectors():
    assert build_Qn(1).f_vector() == (2,)
    assert build_Qn(2).f_vector() == (4, 4)
    assert build_Qn(3).f_vector() == (6, 12, 8)
    # Simplex counts in Q_n: choose k axes, then a sign for each.
    q4 = build_Qn(4)
    assert q4.f_vector() == tuple(
        math.comb(4, k + 1) * 2 ** (k + 1) for k in range(4))
    with pytest.raises(SizeCapError):
        build_Qn(9)


def test_qn_antipodes_are_not_adjacent():
    q = build_Qn(3)
    for axis in (1, 2, 3):
        assert frozenset(((1, axis), (-1, axis))) not in q.edges


def test_simplicial_join():
    a = SimplicialComplex(["p", "q"], [])
    b = SimplicialComplex(["r"], [])
    j = simplicial_join(a, b)
    assert j.f_vector() == (3, 2)
    with pytest.raises(LabelCollisionError):
        simplicial_join(a, SimplicialComplex(["q"], []))


def _seeded_complexes(rng, count):
    """count small random complexes with pairwise disjoint labels."""
    out = []
    for k in range(count):
        verts = [(k, i) for i in range(rng.randint(0, 4))]
        edges = [e for e in itertools.combinations(verts, 2)
                 if rng.random() < 0.5]
        out.append(SimplicialComplex(verts, edges))
    return out


@pytest.mark.parametrize("seed", range(20))
def test_n_way_join_equals_the_pairwise_fold(seed):
    rng = random.Random(seed)
    complexes = _seeded_complexes(rng, rng.randint(1, 5))
    joined = simplicial_join(*complexes)
    folded = functools.reduce(simplicial_join, complexes)
    assert joined.to_json_dict() == folded.to_json_dict()
    assert joined.vertices == tuple(v for c in complexes for v in c.vertices)


def test_join_refuses_a_label_shared_by_the_first_and_third():
    a = SimplicialComplex(["p", "q"], [("p", "q")])
    b = SimplicialComplex(["r"], [])
    c = SimplicialComplex(["s", "q"], [])
    with pytest.raises(LabelCollisionError):
        simplicial_join(a, b, c)


def test_join_of_antipodal_pairs_is_qn():
    pair1 = SimplicialComplex([(1, 1), (-1, 1)], [])
    pair2 = SimplicialComplex([(1, 2), (-1, 2)], [])
    assert simplicial_join(pair1, pair2) == build_Qn(2)


@given(signed_perms(n=3))
def test_signed_permutations_act_on_qn(s):
    """Each signed permutation induces a graph automorphism of Q_n."""
    q = build_Qn(3)
    act = qn_automorphism(s)
    image_vertices = {act(v) for v in q.vertices}
    assert image_vertices == set(q.vertices)
    for e in q.edges:
        u, v = tuple(e)
        assert frozenset((act(u), act(v))) in q.edges


def test_q3_automorphism_count_by_brute_force():
    """Aut(Q_3) has exactly 48 = 2^3 * 3! elements.

    Checked the hard way: all 720 bijections of the 6 vertices are
    tested for edge preservation, and the graph automorphisms found
    must be exactly the maps induced by signed permutations.
    """
    q = build_Qn(3)
    verts = list(q.vertices)
    automorphisms = set()
    for image in itertools.permutations(verts):
        bij = dict(zip(verts, image))
        if all(frozenset((bij[a], bij[b])) in q.edges
               for a, b in (tuple(e) for e in q.edges)):
            automorphisms.add(tuple(bij[v] for v in verts))
    assert len(automorphisms) == 48
    induced = {
        tuple(qn_automorphism(s)(v) for v in verts)
        for s in enumerate_group(3)
    }
    assert induced == automorphisms
