"""Tests for the embedding decision procedure."""

import dataclasses
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecrys import cli, decide
from cubecrys.cli import main
from cubecrys.crys import (
    CATALOG_NAMES,
    CrystGroup,
    catalog_entry,
    integer_real_forms,
    load_group,
    save_group,
    semidirect_extend,
)
from cubecrys.decide import (
    CHARACTER_MISMATCH,
    HyperoctahedralWitness,
    NO_EMBEDDING,
    ORDER_OBSTRUCTION,
    RejectionCertificate,
    SizeCapError,
    _build_conjugator,
    _combine,
    _unit_averages,
    is_hyperoctahedral,
    quick_obstructions,
)
from cubecrys.crys import point_group_real
from cubecrys.exactlin import (
    RatMatrix,
    average_intertwiner,
    det,
    format_rational,
    identity,
    int_mul,
    integral,
    inverse,
    matrix_from_json,
    matrix_to_json,
    vector_to_json,
)
from cubecrys.sgnperm import (
    SignedPermutation,
    enumerate_group,
    signed_permutation_of,
    to_matrix,
)
from test_point_table import D4_BASIS, GROUPS, wf4


def is_signed_permutation_matrix(m: RatMatrix) -> bool:
    return signed_permutation_of(m.entries) is not None


def ratmatrix_of(s: SignedPermutation) -> RatMatrix:
    return RatMatrix(to_matrix(s))


def test_realized_orders_in_dimension_two():
    """No signed permutation on 2 letters has order 3 or 6."""
    orders = {s.order() for s in enumerate_group(2)}
    assert orders == {1, 2, 4}


def test_order_six_in_dimension_three_forces_negative_determinant():
    """Every order-6 signed permutation on 3 letters reverses orientation."""
    sixes = [s for s in enumerate_group(3) if s.order() == 6]
    assert sixes
    assert all(s.determinant() == -1 for s in sixes)
    assert {(s.determinant(), s.trace()) for s in sixes} == {(-1, 0)}


def test_fast_path_accepts_signed_permutation_groups():
    for name in ("p1", "p2", "pm", "p4", "p4m", "cm", "cmm"):
        g = catalog_entry(name)
        result = is_hyperoctahedral(g)
        assert isinstance(result, HyperoctahedralWitness), name
        assert result.conjugator == identity(g.dimension)
        assert result.verify(g)
        for s, real in zip(result.iota, point_group_real(g)):
            assert ratmatrix_of(s) == real


def test_hexagonal_groups_are_order_obstructed():
    for name in ("p3", "p3m1", "p31m", "p6", "p6m", "W"):
        result = is_hyperoctahedral(catalog_entry(name))
        assert isinstance(result, RejectionCertificate), name
        assert result.reason == ORDER_OBSTRUCTION
        assert result.detail["element_order"] in (3, 6)
        assert result.detail["realized_orders"] == [1, 2, 4]


def test_untwisted_extension_fails_on_characters():
    """Adding a fixed direction to W leaves order 6 with trace 2, which
    no order-6 signed permutation on 3 letters attains."""
    result = is_hyperoctahedral(catalog_entry("ZxW"))
    assert isinstance(result, RejectionCertificate)
    assert result.reason == CHARACTER_MISMATCH
    assert result.detail["element_order"] == 6
    assert result.detail["determinant"] == 1
    assert result.detail["trace"] == 2
    assert [-1, 0] in result.detail["realized_characters_at_order"]


def test_two_fixed_directions_still_mismatch():
    w = catalog_entry("W")
    g = semidirect_extend(w, 2, [identity(2)], name="Z2xW")
    result = is_hyperoctahedral(g)
    assert isinstance(result, RejectionCertificate)
    assert result.reason == CHARACTER_MISMATCH
    assert result.detail["trace"] == 3


def test_twisted_extension_is_accepted():
    g = catalog_entry("Z:W")
    witness = is_hyperoctahedral(g)
    assert isinstance(witness, HyperoctahedralWitness)
    assert witness.verify(g)
    image = witness.iota[g.point_table().next[0][0]]
    assert image.order() == 6
    assert image.determinant() == -1
    # The conjugation identity, element by element and entry for entry.
    a = RatMatrix(witness.conjugator)
    a_inv = RatMatrix(inverse(witness.conjugator))
    for s, real in zip(witness.iota, point_group_real(g)):
        assert a * ratmatrix_of(s) * a_inv == real


def test_witness_json_embeds_zero_residuals():
    g = catalog_entry("Z:W")
    witness = is_hyperoctahedral(g)
    payload = witness.to_json_dict(g)
    assert payload["verdict"] == "accepted"
    zero = [["0"] * 3] * 3
    for entry in payload["elements"]:
        assert entry["conjugation_residual"] == zero


def test_hyperoctahedral_basis_is_permuted_with_signs():
    g = catalog_entry("Z:W")
    witness = is_hyperoctahedral(g)
    basis = witness.basis
    assert len(basis) == 3
    assert basis == tuple(zip(*witness.conjugator))
    for s, real in zip(witness.iota, point_group_real(g)):
        for i in range(3):
            expected = [[s.signs[i] * e] for e in basis[s.perm[i] - 1]]
            assert real * RatMatrix([[e] for e in basis[i]]) == \
                RatMatrix(expected)


def test_search_path_with_skew_coordinates():
    """A quarter turn written in a skew lattice basis is still accepted,
    now through the candidate search and averaged conjugator."""
    g = CrystGroup(
        name="p4-skew",
        dimension=2,
        lattice_basis=[[2, 1], [1, 1]],
        point_generators=[[[0, -1], [1, 0]]],
        translation_parts=[[0, 0]],
    )
    witness = is_hyperoctahedral(g)
    assert isinstance(witness, HyperoctahedralWitness)
    assert witness.verify(g)
    # The real form here is genuinely not a signed permutation matrix.
    assert not all(is_signed_permutation_matrix(t)
                   for t in point_group_real(g))


def test_verdicts_are_ambient_basis_invariant():
    """Recoordinatizing real space (left-multiplying the lattice basis)
    never changes the verdict or the rejection reason."""
    c = RatMatrix([[1, 2], [1, 3]])
    for name, expected in (("p6", ORDER_OBSTRUCTION),
                           ("p4", None), ("pgg", None)):
        g = catalog_entry(name)
        moved = CrystGroup(
            name=g.name + "-moved",
            dimension=2,
            lattice_basis=(c * RatMatrix(g.lattice_basis)).entries,
            point_generators=g.point_generators,
            translation_parts=g.translation_parts,
        )
        result = is_hyperoctahedral(moved)
        if expected is None:
            assert isinstance(result, HyperoctahedralWitness)
            assert result.verify(moved)
        else:
            assert isinstance(result, RejectionCertificate)
            assert result.reason == expected


def test_quick_obstructions_prefers_nothing_on_accepted_groups():
    assert quick_obstructions(catalog_entry("p4m")) == []
    assert quick_obstructions(catalog_entry("Z:W")) == []


def test_order_obstruction_wins_over_character_mismatch():
    """p6m contains both order-6 rotations and character data that
    cannot match; the cheaper order certificate must be reported."""
    obstructions = quick_obstructions(catalog_entry("p6m"))
    kinds = {o.kind for o in obstructions}
    assert ORDER_OBSTRUCTION in kinds
    result = is_hyperoctahedral(catalog_entry("p6m"))
    assert result.reason == ORDER_OBSTRUCTION


def test_stabilized_groups_take_the_identity_fast_path():
    from cubecrys.walls import stabilize
    for name in ("p3", "p6m", "W", "ZxW"):
        s = stabilize(catalog_entry(name))
        witness = is_hyperoctahedral(s)
        assert isinstance(witness, HyperoctahedralWitness), name
        assert witness.conjugator == identity(s.dimension)


def test_dimension_cap():
    g = CrystGroup(
        name="big",
        dimension=5,
        lattice_basis=identity(5),
        point_generators=[[[-int(i == j) for j in range(5)]
                           for i in range(5)]],
        translation_parts=[[0] * 5],
    )
    with pytest.raises(SizeCapError):
        is_hyperoctahedral(g)


def test_exhaustive_search_confirms_w_rejection():
    """Independent spot check: W's order-6 generator has no candidate
    image at all among the 8 signed permutations on two letters."""
    w = catalog_entry("W")
    gen = w.point_generators[0]
    candidates = [
        s for s in enumerate_group(2)
        if s.order() == 6
        and s.determinant() == int(det(gen))
        and s.trace() == int(sum(gen[i][i] for i in range(len(gen))))
    ]
    assert candidates == []


def test_reason_constants_are_distinct():
    # The fall-through certificate is part of the public vocabulary even
    # though no catalog group reaches it (the character screen already
    # rejects everything the search would).
    assert NO_EMBEDDING == "no-embedding"
    assert len({ORDER_OBSTRUCTION, CHARACTER_MISMATCH, NO_EMBEDDING}) == 3


def test_a_replaced_witness_reports_its_own_residuals():
    # The cached defects belong to the witness verify() ran on; a copy
    # with other images must compute its own.
    g = catalog_entry("Z:W")
    witness = is_hyperoctahedral(g)
    rotated = dataclasses.replace(witness,
                                  iota=witness.iota[1:] + witness.iota[:1])
    assert rotated.verified is None
    assert not rotated.verify(g)
    report = rotated.to_json_dict(g)
    assert any(x != "0" for entry in report["elements"]
               for row in entry["conjugation_residual"] for x in row)
    fresh = HyperoctahedralWitness(rotated.iota, rotated.conjugator,
                                   rotated.basis)
    assert report == fresh.to_json_dict(g)


def inverse_route_report(w, g):
    """to_json_dict as it was: every residual the defect times A^-1 over
    d c, by inverse, int_mul and one Fraction per entry."""
    scale, defects = w._defects(g)
    h, a_inv = integral(inverse(w.conjugator))
    return {
        "verdict": "accepted",
        "conjugator": matrix_to_json(w.conjugator),
        "basis": [vector_to_json(v) for v in w.basis],
        "elements": [{
            "point_element": matrix_to_json(p),
            "image": s.to_json_dict(),
            "conjugation_residual": [
                [format_rational(Fraction(x, scale * h)) for x in row]
                for row in int_mul(defect, a_inv)],
        } for p, s, defect in zip(g.point_elements(), w.iota, defects)],
    }


def _accepted_groups():
    """The nontrivial accepted groups among those the tests build."""
    return [g for g in GROUPS if g.dimension <= 4
            and g.point_group_order() > 1
            and isinstance(is_hyperoctahedral(g), HyperoctahedralWitness)]


@pytest.mark.parametrize("g", _accepted_groups(), ids=lambda g: g.name)
def test_residuals_match_the_inverse_route(g):
    """Accepted witnesses, and copies with the images of a random third
    of the elements other than the identity replaced: zero and nonzero
    defects mixed."""
    witness = is_hyperoctahedral(g)
    reports = [(witness.to_json_dict(g), inverse_route_report(witness, g))]
    rng = random.Random(g.name)
    signed = enumerate_group(g.dimension)
    nonzero = 0
    for _ in range(3):
        iota = list(witness.iota)
        for k in rng.sample(range(1, len(iota)), max(1, len(iota) // 3)):
            # Any other image leaves a nonzero defect, since A is
            # nonsingular.
            iota[k] = rng.choice([s for s in signed if s != iota[k]])
        bad = dataclasses.replace(witness, iota=tuple(iota))
        report = bad.to_json_dict(g)
        reports.append((report, inverse_route_report(bad, g)))
        nonzero += sum(any(x != "0" for row in e["conjugation_residual"]
                           for x in row) for e in report["elements"])
    for report, oracle in reports:
        assert json.dumps(report, sort_keys=True) == \
            json.dumps(oracle, sort_keys=True)
    assert nonzero >= 3


def test_an_accepted_classify_report_computes_no_inverse(capsys, tmp_path,
                                                         monkeypatch):
    # Every defect of an accepted witness is zero, so its report needs
    # neither A^-1 nor a product with it.
    def refuse(*args):
        raise AssertionError("called after the verdict")

    def decided(g):
        result = is_hyperoctahedral(g)
        monkeypatch.setattr(decide, "inverse", refuse)
        monkeypatch.setattr(decide, "int_mul", refuse)
        return result

    for name in ("p4m", "Z:W", "cmm"):
        path = tmp_path / "g.json"
        save_group(catalog_entry(name), path)
        monkeypatch.setattr(cli, "is_hyperoctahedral", decided)
        assert main(["classify", "--json", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "accepted"
        monkeypatch.undo()
    skew = CrystGroup("p4-skew", 2, [[2, 1], [1, 1]], [[[0, -1], [1, 0]]],
                      [[0, 0]])
    witness = is_hyperoctahedral(skew)
    assert witness.conjugator != identity(2)
    monkeypatch.setattr(decide, "inverse", refuse)
    monkeypatch.setattr(decide, "int_mul", refuse)
    assert all(x == "0" for e in witness.to_json_dict(skew)["elements"]
               for row in e["conjugation_residual"] for x in row)


def _conjugation_holds(g, w):
    """A * iota(p) * A^-1 == theta_bar(p) for every p, by matrix products."""
    a = RatMatrix(w.conjugator)
    a_inv = RatMatrix(inverse(w.conjugator))
    return all(a * ratmatrix_of(s) * a_inv == real
               for s, real in zip(w.iota, point_group_real(g)))


def _corrupted_witnesses(g, witness):
    """Swapped iota images, a perturbed conjugator, the zero conjugator."""
    a = witness.conjugator
    iota = list(witness.iota)
    p, q = [k for k, s in enumerate(iota) if not s.is_identity()][:2]
    iota[p], iota[q] = iota[q], iota[p]
    bumped = [list(row) for row in a]
    bumped[0][1] += 1
    bumped = matrix_from_json(bumped)
    zero = RatMatrix.zeros(g.dimension, g.dimension).entries
    swapped = HyperoctahedralWitness(iota=tuple(iota), conjugator=a,
                                     basis=witness.basis)
    perturbed = HyperoctahedralWitness(iota=witness.iota, conjugator=bumped,
                                       basis=tuple(zip(*bumped)))
    assert det(bumped) != 0
    assert not _conjugation_holds(g, swapped)
    assert not _conjugation_holds(g, perturbed)
    # theta_bar(p) * 0 == 0 * iota(p) for every p: only the determinant
    # check refuses the zero conjugator.
    return [swapped, perturbed,
            HyperoctahedralWitness(iota=witness.iota, conjugator=zero,
                                   basis=tuple(zip(*zero)))]


@pytest.mark.parametrize("name", ["Z:W", "p4m", "cmm"])
def test_corrupted_witnesses_fail_verification(name):
    g = catalog_entry(name)
    witness = is_hyperoctahedral(g)
    assert witness.verify(g)
    for bad in _corrupted_witnesses(g, witness):
        assert not bad.verify(g)


@pytest.mark.parametrize("name", ["Z:W", "p4m", "cmm"])
def test_a_witness_one_image_short_fails_verification(name):
    """The defects zip iota with the real forms, so a witness for all
    but the last element has no nonzero defect; only the length check
    refuses it."""
    g = catalog_entry(name)
    witness = is_hyperoctahedral(g)
    short = HyperoctahedralWitness(iota=witness.iota[:-1],
                                   conjugator=witness.conjugator,
                                   basis=witness.basis)
    _, defects = short._defects(g)
    assert len(defects) == g.point_group_order() - 1
    assert not any(any(row) for defect in defects for row in defect)
    assert not short.verify(g)



# ---------------------------------------------------------------------------
# The conjugator against the seed-by-seed averaging it replaced


def old_seed_matrices(n):
    """The earlier seed schedule: identity, then small dense grids, cut
    off at 1000 seeds."""
    yield RatMatrix(identity(n))
    emitted = 1
    for alphabet in ((0, 1), (-1, 0, 1)):
        for flat in itertools.product(alphabet, repeat=n * n):
            m = RatMatrix([list(flat[i * n:(i + 1) * n]) for i in range(n)])
            yield m
            emitted += 1
            if emitted >= 1000:
                return


def old_build_conjugator(theta_images, iota_matrices):
    """The earlier conjugator: average every seed over the whole group.
    Returns None where it used to raise on an exhausted schedule."""
    for seed in old_seed_matrices(theta_images[0].rows):
        a = average_intertwiner(theta_images, iota_matrices, seed)
        if det(a.entries) != 0:
            return a
    return None


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


def _pinned_groups():
    return {
        "Z:W": catalog_entry("Z:W"),
        "p4-skew": CrystGroup("p4-skew", 2, [[2, 1], [1, 1]],
                              [[[0, -1], [1, 0]]], [[0, 0]]),
        "m-skew": _skewed("m-skew", [[[1, 0, 0], [0, 1, 0], [0, 0, -1]]]),
        "C2^2.p-skew": _skewed("C2^2.p-skew", [
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
            [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]]),
    }


# Conjugator rows of every accepted group that takes the search path:
# the catalog's only one (Z:W), p4-skew, and two groups whose identity
# seed averages to a singular matrix (the old loop needed 72 and 17
# seeds).  Recorded from the seed-by-seed averaging; must never change.
PINNED_CONJUGATORS = {
    "Z:W": [["-25/12", "1", "13/12"], ["1", "2/7", "-9/7"],
            ["2", "2", "2"]],
    "p4-skew": [["-8", "-6"], ["-6", "-2"]],
    "m-skew": [["0", "0", "2"], ["4/3", "-4/3", "2/3"],
               ["4/3", "2/3", "2/3"]],
    "C2^2.p-skew": [["1", "-3", "-1", "3"], ["-2", "0", "0", "2"],
                    ["-1", "-3", "1", "3"], ["2", "0", "0", "2"]],
}


@lru_cache(maxsize=None)
def _pinned_case(name):
    """(group, real forms, iota list) of a pinned group's witness."""
    g = _pinned_groups()[name]
    witness = is_hyperoctahedral(g)
    return g, point_group_real(g), list(witness.iota)


def _assert_matches_old_loop(g, iota):
    """Where the old loop finds a conjugator, the new one is the same
    matrix; returns whether the old loop found one."""
    old = old_build_conjugator(point_group_real(g),
                               [ratmatrix_of(s) for s in iota])
    if old is not None:
        assert _build_conjugator(*integer_real_forms(g), iota) == old.entries
    return old is not None


@pytest.mark.parametrize("name", sorted(PINNED_CONJUGATORS))
def test_witness_conjugators_are_pinned(name):
    g, theta, iota = _pinned_case(name)
    witness = is_hyperoctahedral(g)
    assert witness.verify(g)
    assert witness.conjugator == matrix_from_json(PINNED_CONJUGATORS[name])
    assert _assert_matches_old_loop(g, iota)
    if name in ("m-skew", "C2^2.p-skew"):
        # The pin lies past the identity seed.
        n = g.dimension
        assert det(average_intertwiner(
            theta, [ratmatrix_of(s) for s in iota],
            RatMatrix(identity(n))).entries) == 0


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(PINNED_CONJUGATORS)),
       flat=st.lists(st.integers(-5, 5), min_size=16, max_size=16))
def test_unit_averages_combine_to_the_seed_average(name, flat):
    g, theta, iota = _pinned_case(name)
    n = g.dimension
    seed = flat[:n * n]
    d, forms = integer_real_forms(g)
    units = _unit_averages(forms, iota)
    total = _combine(units, seed)
    combined = RatMatrix([[Fraction(x, d) for x in total[i * n:(i + 1) * n]]
                          for i in range(n)])
    b = RatMatrix([seed[i * n:(i + 1) * n] for i in range(n)])
    assert combined == average_intertwiner(
        theta, [ratmatrix_of(s) for s in iota], b)


# Two C4 subgroups of W(F4) in the D4 lattice, character (4, -2, 0, -2):
# every one of the old loop's 1000 seeds averages to a singular matrix.
# The walk reaches a nonsingular average after 4,265 and 10,025 seeds.
C4_GENERATORS = [
    [[0, -1, 0, 1], [0, -1, 0, 0], [0, 0, -1, 0], [-1, 0, 0, 0]],
    [[1, 0, -1, 0], [0, 1, -2, 0], [0, 1, -1, 0], [0, 1, -1, -1]],
]


@pytest.mark.parametrize("gen", C4_GENERATORS)
def test_c4_past_the_old_schedule_is_accepted(tmp_path, capsys, gen):
    g = CrystGroup("C4", 4, D4_BASIS, [gen], [[0] * 4])
    path = tmp_path / "c4.json"
    save_group(g, path)
    assert main(["classify", "--json", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "accepted"
    payload = report["classification"]
    loaded = load_group(str(path))
    # The report lists the elements in point_elements order.
    assert [e["point_element"] for e in payload["elements"]] == [
        matrix_to_json(p) for p in loaded.point_elements()]
    iota = tuple(SignedPermutation(e["image"]["perm"], e["image"]["signs"])
                 for e in payload["elements"])
    a = matrix_from_json(payload["conjugator"])
    witness = HyperoctahedralWitness(iota=iota, conjugator=a,
                                     basis=tuple(zip(*a)))
    assert witness.verify(loaded)


def test_wf4_subgroup_fuzz():
    """Subgroups of W(F4) on 1-3 random elements, one per (order,
    character) type: every verdict is a verified witness or a
    certificate, and every conjugator the old loop finds is unchanged.
    The draws reach a group where the old loop found none."""
    wf = wf4()
    elements = wf.point_elements()
    rng = random.Random(0)
    seen = set()
    old_failures = 0
    for _ in range(60):
        gens = rng.sample(elements, rng.randint(1, 3))
        g = CrystGroup("sub", 4, wf.lattice_basis, gens,
                       [[0] * 4] * len(gens))
        table = g.point_table()
        key = (len(table.elements), tuple(sorted(table.trace)))
        if key in seen:
            continue
        seen.add(key)
        result = is_hyperoctahedral(g)
        if isinstance(result, RejectionCertificate):
            assert result.reason in (ORDER_OBSTRUCTION, CHARACTER_MISMATCH)
            continue
        assert result.verify(g)
        if all(is_signed_permutation_matrix(t) for t in point_group_real(g)):
            continue
        old_failures += not _assert_matches_old_loop(g, result.iota)
    assert old_failures >= 1


# ---------------------------------------------------------------------------
# The integer real forms against the RatMatrix products they replaced


def ratmatrix_real_forms(g):
    """L * M_p * L^-1 for every point element, by RatMatrix products."""
    basis = RatMatrix(g.lattice_basis)
    basis_inv = RatMatrix(inverse(g.lattice_basis))
    return tuple(basis * RatMatrix(m) * basis_inv
                 for m in g.point_elements())


@pytest.mark.parametrize(
    "g", GROUPS + [wf4()] + [_pinned_groups()[name]
                             for name in sorted(PINNED_CONJUGATORS)],
    ids=lambda g: g.name)
def test_integer_real_forms_match_the_ratmatrix_products(g):
    d, forms = integer_real_forms(g)
    # d is the least scale: forms[0] = d * I, so no common factor is left.
    assert math.gcd(d, *(x for form in forms for row in form
                         for x in row)) == 1
    expected = ratmatrix_real_forms(g)
    assert len(forms) == len(expected)
    for form, real in zip(forms, expected):
        assert RatMatrix([[Fraction(x, d) for x in row]
                          for row in form]) == real
    assert point_group_real(g) == expected


# sha256 of `classify --json` stdout, recorded before the witness check
# and the conjugator moved to integer real forms; must never change.
CLASSIFY_DIGESTS = {
    "p1": "d35affc219aae6e2cad029f4ffd5bc7a1b3765b73c23ecc4cb13711afa5c8f66",
    "p2": "4afa41e012a77d04cf4f446bb3760723af708fe7c002f9f0bf6f0e113cd9d063",
    "pm": "f50b4338560814fed1b5e353204a6c81b08abafdaed7f3a91c4994cdb488300f",
    "pg": "341ca2982bdf56ddde699ebfdc23c186390be3fa323adc9796c2b1bd2a6e33b3",
    "cm": "a202e9e518aaa5ac16e1023d990affc88e85942e0a74c25ceef1d42b6173e310",
    "pmm": "4d2529cc7b184581e208d186a00fe159cbc0c149f8b1022a8f880695432521c0",
    "pmg": "2cdb0e19e5b4a2a99be3891401671133ae632abae31c659ab868ccad74850601",
    "pgg": "343cabeafc2832f328f6e947566fd0d5c453af329aba96c8a6075438ab49c65f",
    "cmm": "2895ebf586c61d44227da60071bb673625c9de3d6a9f3f12734fba314f465472",
    "p4": "25411d77e885098bc81985a11df4ef80578cdff62faf6e0770395a1b17104f9c",
    "p4m": "2421ec3c2ab158a6b172f39a4691766de86fc0945eb59ab51123f228760a3c32",
    "p4g": "4e989ffd5ccda8ad4f6da6a16d6b7067fefa2d256dd432f16fb5e57f0a37afd2",
    "p3": "dd516b35b6dea0f1c7cba971ecc0a86c40c7aae26569d49da0a62f4763aa8b9d",
    "p3m1": "dab744e364f55de2e6e3cd171320815b6bb9764c5b24844def821a643bf76981",
    "p31m": "43526a81421dffb7d8474f775eb29e99bdc70f2ed1a1b4127faea2d7736ab02a",
    "p6": "9b68edb46958b608b1cdefaab6625cab0ae0b35b94670e1e7e9a5415ca15def6",
    "p6m": "a4040b18d02661fe518df0bf8157bac61ee04da1c77ab67a255e3d7df5a66853",
    "W": "abd4e17bbb9003bd716271af22f2cebca0e19e1f0bd372ddf0c1a7fa2a7fd116",
    "ZxW": "a02feb315d92904f829b6bd28e86cafca42a0868c6418d30760f7caf2bbc09b0",
    "Z:W": "70f8c8cf01eddaf68517016732421d90b8a6af238d8e3ffe2fff86f5305fa174",
    "p4-skew": "13b5b6716ca435c53c8c71f9d696c11f5ca714011cd744d5128df73066dae471",
    "m-skew": "03f2f1aefe1e5429f873f6291d142b59930057d179e87395b0666a91d163a1d1",
    "C2^2.p-skew":
        "511b3b846569f97e9967de79b63937cc1b3511711ff35981dc2a00e9d71e83c0",
}


@pytest.mark.parametrize("name", sorted(CLASSIFY_DIGESTS))
def test_classify_json_is_pinned(tmp_path, capsys, name):
    g = (catalog_entry(name) if name in CATALOG_NAMES
         else _pinned_groups()[name])
    path = tmp_path / "group.json"
    save_group(g, path)
    assert main(["classify", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_DIGESTS[name]
