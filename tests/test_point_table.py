"""The integer point table and the wall family against the RatMatrix
code they replaced.

The oracles, in tests/oracles.py, are the earlier implementations,
kept verbatim in spirit: a breadth-first closure over RatMatrix with
one generator word per element, the RatMatrix order loop, the
words-based extension of generator images, the per-element loop that
computed the action on the wall direction classes, the class walk over
RatMatrix real forms, and dual coordinates as one RatMatrix product.
The point table, the table-driven extension and the wall family built
on integer real forms must agree with them on every group the tests
build.
"""

import contextlib
import itertools
import math
import random
import signal
from fractions import Fraction

import pytest

from cubecrys import crys, walls
from cubecrys.cli import _sample_pairs, main
from cubecrys.crys import (
    CLOSURE_CAP,
    CrystGroup,
    StructureError,
    catalog_entry,
    load_catalog,
    save_group,
    validate,
)
from cubecrys.decide import (
    DIMENSION_CAP,
    HyperoctahedralWitness,
    ORDER_OBSTRUCTION,
    RejectionCertificate,
    _candidate_images,
    _extend_assignment,
    is_hyperoctahedral,
)
from cubecrys.exactlin import (
    RatMatrix,
    ShapeError,
    det,
    identity,
    int_mul,
    inverse,
)
from cubecrys.sgnperm import SignedPermutation, enumerate_group, to_matrix
from cubecrys.walls import (
    InternalError,
    PropertyViolationError,
    _primitive,
    check_linear_separation,
    direction_class_count,
    induced_action_on_RN,
    scaled_pair,
    separation_count,
    stabilize,
)
from inputs import (
    GROUPS,
    I2,
    b4,
    b4_generic,
    group,
    shrunk,
    wf4,
    wf4_subgroups,
)
from oracles import (
    affine_closure_size,
    fraction_check_linear_separation,
    fraction_dual_matrix,
    fraction_sample_pairs,
    fraction_separation,
    loop_induced_action,
    matrix_power_order,
    ratmatrix_closure,
    ratmatrix_direction_classes,
    ratmatrix_order,
    trace,
    words_candidates,
    words_extend_assignment,
)

# ---------------------------------------------------------------------------
# Tests


def test_element_order():
    """The RatMatrix loop and the table agree on small examples."""
    for gens, order in (([], 1), ([[[0, -1], [1, 0]]], 4),
                        ([[[1, -1], [1, 0]]], 6)):
        g = group("g", I2, gens)
        table = g.point_table()
        assert max(table.order) == order
        for p, k in zip(g.point_elements(), table.order):
            assert ratmatrix_order(RatMatrix(p), 48) == k
    shear = RatMatrix([[1, 1], [0, 1]])
    assert ratmatrix_order(shear, 48) is None
    with pytest.raises(StructureError):
        group("shear", I2, [[[1, 1], [0, 1]]]).point_table()


@pytest.mark.parametrize("g", GROUPS, ids=lambda g: g.name)
def test_table_matches_the_ratmatrix_closure(g):
    elements, _ = ratmatrix_closure(g)
    assert [RatMatrix(m) for m in g.point_elements()] == elements
    table = g.point_table()
    index = {p: k for k, p in enumerate(elements)}
    for k, p in enumerate(elements):
        assert table.elements[k] == tuple(tuple(int(e) for e in row)
                                          for row in p.entries)
        assert table.next[k] == tuple(index[p * RatMatrix(gen)]
                                      for gen in g.point_generators)
        assert table.order[k] == ratmatrix_order(p, len(elements))
        word = RatMatrix(identity(g.dimension))
        for j in table.words[k]:
            word = word * RatMatrix(g.point_generators[j])
        assert word == p
        assert table.det[k] == det(p.entries)
        assert table.trace[k] == trace(p.entries)


@pytest.mark.parametrize("g", GROUPS, ids=lambda g: g.name)
def test_the_stabilized_point_group_has_the_input_order(g):
    s = stabilize(g)
    assert s._elements is None
    assert s.point_group_order() == g.point_group_order()


def test_stabilize_b4_in_a_generic_basis_builds_no_point_table():
    g = b4_generic()
    s = stabilize(g)
    assert s.dimension == 268
    assert s._elements is None
    assert len(s.point_generators) == 3


def test_the_class_walk_applies_only_the_generator_forms(monkeypatch):
    """n lines of the basis, N classes under each generator and n base
    walls: 812 primitive lines for B4-generic, not N * |P| = 102,912
    for the classes alone."""
    g = b4_generic()
    calls = []

    def counted(v):
        calls.append(v)
        return _primitive(v)

    monkeypatch.setattr(walls, "_primitive", counted)
    fam = direction_class_count(g, zip(*g.lattice_basis))
    assert fam.class_count == 268
    assert len(calls) == 4 + 268 * 3 + 4 == 812


def test_the_class_action_checks_only_the_generators(monkeypatch):
    """The identity and the generators' signed permutations are built
    with the checked constructor; every other element's is a product."""
    g = b4_generic()
    calls = []
    init = SignedPermutation.__init__

    def counting_init(self, perm, signs):
        calls.append(len(perm))
        init(self, perm, signs)

    monkeypatch.setattr(SignedPermutation, "__init__", counting_init)
    direction_class_count(g, zip(*g.lattice_basis))
    assert len(calls) <= len(g.point_generators) + 1 == 4


def test_stabilize_makes_no_product_on_a_built_family(monkeypatch):
    """The family made and checked the action; stabilize only reads
    its generators."""
    g = b4_generic()
    fam = direction_class_count(g, zip(*g.lattice_basis))
    calls = []
    product = SignedPermutation.__mul__

    def counting_mul(self, other):
        calls.append(len(self.perm))
        return product(self, other)

    monkeypatch.setattr(SignedPermutation, "__mul__", counting_mul)
    s = stabilize(g, fam)
    assert calls == []
    assert s.point_generators == tuple(to_matrix(t) for t in fam.generators)


def test_a_stabilized_group_shares_its_three_entry_values():
    """Its lattice basis, generators and translation parts hold only 0,
    1 and -1, read by parse_rational as one shared Fraction each."""
    s = stabilize(b4_generic())
    entries = [e for m in (s.lattice_basis, *s.point_generators,
                           s.translation_parts)
               for row in m for e in row]
    assert len(entries) == 268 * 268 * 4 + 268 * 3
    assert len({id(e) for e in entries}) == 3


@pytest.mark.parametrize("g", GROUPS, ids=lambda g: g.name)
def test_extension_matches_the_words_oracle(g):
    """Same candidates; on groups with at most 64 generator assignments,
    the same extension (or None) for every one of them."""
    candidates = words_candidates(g)
    assert [list(c) for c in _candidate_images(g)] == candidates
    if math.prod(len(c) for c in candidates) <= 64:
        for images in itertools.product(*candidates):
            assert _extend_assignment(g, images) == \
                words_extend_assignment(g, images)


def test_extend_needs_one_image_per_generator():
    """A wrong count is refused before the walk, not cut short by zip."""
    p4 = catalog_entry("p4").point_table()
    r = p4.elements[p4.next[0][0]]
    for images, message in (([r, r], "2 generator images for 1"),
                            ([], "0 generator images for 1")):
        with pytest.raises(ValueError, match=message):
            p4.extend(identity(2), images, int_mul)
    p4m = catalog_entry("p4m").point_table()
    with pytest.raises(ValueError, match="1 generator images for 2"):
        p4m.extend(identity(2), [r], int_mul)
    assert p4.extend(identity(2), [r], int_mul) == list(p4.elements)


def test_b4_closes_validates_and_is_accepted():
    g = b4()
    report = validate(g)
    assert report.point_group_order == 384
    assert report.element_orders == tuple(
        sorted(s.order() for s in enumerate_group(4)))
    assert isinstance(is_hyperoctahedral(g), HyperoctahedralWitness)


def test_the_table_rows_are_the_only_form_of_an_element(monkeypatch):
    g = wf4()
    built = []
    init = RatMatrix.__init__

    def counting_init(self, rows):
        built.append(rows)
        init(self, rows)

    monkeypatch.setattr(RatMatrix, "__init__", counting_init)
    table = g.point_table()
    assert len(built) == 0
    monkeypatch.undo()
    assert len(table.elements) == CLOSURE_CAP
    assert g.point_elements() is table.elements
    assert type(g.point_elements()) is tuple


def test_a_failed_closure_leaves_no_elements():
    # _elements is what the benchmark tracer reads for the closure size.
    shear = group("shear", I2, [[[1, 1], [0, 1]]])
    with pytest.raises(StructureError):
        shear.point_table()
    assert shear._elements is None
    assert shear._table is None


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once `seconds` of wall time pass,
    so that a walk that never ends fails instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError("no answer within %s s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("gens", [[[[0]]], [[[1, 0], [0, 0]]]],
                         ids=["zero-1d", "projection-2d"])
def test_a_singular_generator_closing_to_a_finite_set_is_refused(gens):
    # Both close to {I, M} with M * M = M: no power of M is I.
    n = len(gens[0])
    g = group("singular", [[int(i == j) for j in range(n)] for i in range(n)],
              gens)
    with deadline(10), pytest.raises(StructureError) as info:
        g.point_table()
    assert str(info.value) == (
        "an element has no power equal to the identity within 2 steps; "
        "a generator is singular")
    assert g._elements is None
    ident = identity(n)
    with pytest.raises(StructureError) as oracle:
        matrix_power_order(tuple(map(tuple, gens[0])), ident, 2)
    assert str(oracle.value) == str(info.value)


def test_the_closure_multiplies_only_inside_its_loop(monkeypatch):
    # One int_mul per element and generator; the orders take none.
    calls = []

    def counted(a, b):
        calls.append(1)
        return int_mul(a, b)

    monkeypatch.setattr(crys, "int_mul", counted)
    g = wf4()
    table = g.point_table()
    assert len(calls) == len(table.elements) * len(g.point_generators)


def _assert_orders_match_matrix_powers(g):
    table = g.point_table()
    ident = identity(g.dimension)
    assert table.order == tuple(
        matrix_power_order(m, ident, len(table.elements))
        for m in table.elements)


@pytest.mark.parametrize("g", GROUPS + [wf4()], ids=lambda g: g.name)
def test_table_orders_match_matrix_powers(g):
    _assert_orders_match_matrix_powers(g)


def test_table_orders_match_matrix_powers_on_wf4_subgroups():
    """The subgroups of W(F4) of the decider's W(F4) fuzz."""
    orders = set()
    for g in wf4_subgroups():
        _assert_orders_match_matrix_powers(g)
        orders.add(g.point_group_order())
    assert len(orders) > 5


def test_wf4_fills_the_closure_cap_and_is_order_obstructed():
    g = wf4()
    assert validate(g).point_group_order == CLOSURE_CAP == 1152
    assert max(g.point_table().order) == 12
    result = is_hyperoctahedral(g)
    assert isinstance(result, RejectionCertificate)
    assert result.reason == ORDER_OBSTRUCTION
    assert result.detail["element_order"] == 12


def test_translation_parts_must_close_over_the_lattice(tmp_path, capsys):
    # A mirror with glide (1/3, 0) squares to a translation by (2/3, 0):
    # its affine closure modulo Z^2 has 6 elements, not |P| = 2.
    glide = group("glide-1/3", I2, [[[1, 0], [0, -1]]], [["1/3", "0"]])
    with pytest.raises(StructureError):
        validate(glide)
    path = tmp_path / "glide.json"
    save_group(glide, path)
    assert main(["validate", str(path)]) == 1
    assert "translation parts" in capsys.readouterr().err
    # A genuine glide (pg) and every catalog group pass.
    pg = group("pg", I2, [[[1, 0], [0, -1]]], [["1/2", "0"]])
    assert validate(pg).point_group_order == 2
    for g in load_catalog():
        validate(g)


@pytest.mark.parametrize("base", load_catalog(), ids=lambda g: g.name)
def test_the_translation_check_matches_the_affine_closure(base):
    """validate accepts translation parts exactly when the affine
    generators close to |P| elements modulo the lattice."""
    rng = random.Random(base.name)
    n = base.dimension
    trials = [base.translation_parts]
    for _ in range(12):
        trials.append([[Fraction(rng.randrange(4), rng.choice((1, 2, 2, 3)))
                        for _ in range(n)] for _ in base.point_generators])
    for parts in trials:
        g = CrystGroup(base.name, n, base.lattice_basis,
                       base.point_generators, parts)
        closes = affine_closure_size(g) == base.point_group_order()
        try:
            validate(g)
            assert closes, parts
        except StructureError:
            assert not closes, parts


def _bases(g):
    """The lattice basis of g and, if g is accepted, the witness basis."""
    bases = [list(zip(*g.lattice_basis))]
    if g.dimension <= DIMENSION_CAP:
        witness = is_hyperoctahedral(g)
        if isinstance(witness, HyperoctahedralWitness):
            bases.append(witness.basis)
    return bases


def _families(g):
    return [direction_class_count(g, basis) for basis in _bases(g)]


@pytest.mark.parametrize("g", GROUPS + [wf4()], ids=lambda g: g.name)
def test_class_walk_matches_the_ratmatrix_oracle(g):
    for basis in _bases(g):
        fam = direction_class_count(g, basis)
        assert (fam.classes, fam.class_count, fam.action) == \
            ratmatrix_direction_classes(g, basis)


def _seeded_pairs(rng, fam):
    """Sample pairs with denominators 1-7 and negative entries, equal
    pairs, and points on walls (some dual coordinate an integer)."""
    n = len(fam.basis)

    def coordinates():
        return [Fraction(rng.randrange(-40, 41), rng.randrange(1, 8))
                for _ in range(n)]

    def on_walls():
        nu = coordinates()
        nu[rng.randrange(n)] = rng.randrange(-5, 6)
        return tuple(sum(c * t[k] for c, t in zip(nu, fam.basis))
                     for k in range(n))

    pairs = [((0,) * n, on_walls())]
    for _ in range(10):
        p, w = tuple(coordinates()), on_walls()
        pairs += [(p, tuple(coordinates())), (p, p), (w, w),
                  (w, on_walls()), (p, w)]
    return pairs


def _outcome(check, g, fam, pairs):
    """The report of a separation check, or its violation message."""
    try:
        return check(g, fam, pairs)
    except PropertyViolationError as exc:
        return str(exc)


@pytest.mark.parametrize("g", GROUPS + [wf4()], ids=lambda g: g.name)
def test_dual_coordinates_match_the_ratmatrix_product(g):
    """The int dual rows are e B^-1, and the separation count and
    report read off them equal the Fraction oracle on b_inv * p."""
    rng = random.Random(g.name)
    for basis in _bases(g):
        fam = direction_class_count(g, basis)
        columns = tuple(zip(*fam.basis))
        assert fraction_dual_matrix(fam) == RatMatrix(inverse(columns))
        pairs = _seeded_pairs(rng, fam)
        for p, q in pairs:
            assert separation_count(p, q, fam) == \
                fraction_separation(fam, p, q)
        scaled = [scaled_pair(p, q) for p, q in pairs]
        assert check_linear_separation(g, fam, scaled) == \
            fraction_check_linear_separation(g, fam, pairs)
        small = shrunk(fam)
        assert _outcome(check_linear_separation, g, small, scaled) == \
            _outcome(fraction_check_linear_separation, g, small, pairs)


# Ten chosen seeds, negative ones and ones past 2**64 among them, and
# 190 drawn ones.
SAMPLE_SEEDS = [0, 1, -1, -3, 987654321, 2 ** 64, 2 ** 64 + 1,
                -(2 ** 64) - 7, 2 ** 100 + 3, -(2 ** 100)] + \
    random.Random(24).sample(range(-10 ** 12, 10 ** 12), 190)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_int_sample_draws_the_fraction_oracles_points(n):
    """cubulate's int draw gives the points of the randrange and
    Fraction draw, over a common denominator dividing 420."""
    for seed in SAMPLE_SEEDS:
        sample = _sample_pairs(n, 25, seed)
        assert all(420 % c == 0 for c, _, _ in sample)
        assert [tuple(tuple(Fraction(x, c) for x in v) for v in (p, q))
                for c, p, q in sample] == \
            fraction_sample_pairs(n, 25, seed), seed


SAMPLE_GROUPS = [("catalog " + g.name, g) for g in load_catalog()] + \
    [(g.name, g) for g in GROUPS + [wf4(), b4_generic()]]


@pytest.mark.parametrize("k", range(len(SAMPLE_GROUPS)),
                         ids=[name for name, _ in SAMPLE_GROUPS])
def test_the_cubulate_sample_checks_as_the_fraction_oracle(k):
    """The report on cubulate's int sample, and with the basis shrunk
    100-fold the violation message, equal the Fraction check's on the
    oracle draw."""
    _, g = SAMPLE_GROUPS[k]
    seed = 37 * k - 1000
    fam = direction_class_count(g, zip(*g.lattice_basis))
    sample = _sample_pairs(g.dimension, 100, seed)
    pairs = fraction_sample_pairs(g.dimension, 100, seed)
    assert check_linear_separation(g, fam, sample) == \
        fraction_check_linear_separation(g, fam, pairs)
    small = shrunk(fam)
    message = _outcome(check_linear_separation, g, small, sample)
    assert isinstance(message, str)
    assert message == \
        _outcome(fraction_check_linear_separation, g, small, pairs)


def test_a_point_of_the_wrong_length_is_refused():
    p4 = group("p4", I2, [[[0, -1], [1, 0]]])
    fam = direction_class_count(p4, zip(*p4.lattice_basis))
    short, point, long = ((Fraction(1, 2),) * k for k in (1, 2, 3))
    for bad in (short, long):
        with pytest.raises(ShapeError):
            separation_count(point, bad, fam)
        with pytest.raises(ShapeError):
            separation_count(bad, point, fam)
        with pytest.raises(ShapeError):
            check_linear_separation(p4, fam, [scaled_pair(point, bad)])


@pytest.mark.parametrize("g", GROUPS, ids=lambda g: g.name)
def test_recorded_action_matches_the_loop_oracle(g):
    for fam in _families(g):
        action = induced_action_on_RN(g, fam)
        assert type(action) is tuple
        assert len(action) == g.point_group_order()
        assert action == loop_induced_action(g, fam)
        s = stabilize(g, fam)
        assert s.dimension == fam.class_count
        # The oracle for next[0][j]: each generator's image by its matrix.
        index = {RatMatrix(p): k for k, p in enumerate(g.point_elements())}
        assert s.point_generators == tuple(
            to_matrix(action[index[RatMatrix(gen)]])
            for gen in g.point_generators)


def test_recorded_action_refuses_a_family_of_another_group():
    p4 = group("p4", I2, [[[0, -1], [1, 0]]])
    fam = direction_class_count(p4, zip(*p4.lattice_basis))
    # The same group built again, or on a scaled lattice basis, has the
    # same real forms.
    for basis in (I2, [[2, 0], [0, 2]], [["2/3", 0], [0, "2/3"]]):
        again = group("p4", basis, [[[0, -1], [1, 0]]])
        assert induced_action_on_RN(again, fam) == \
            induced_action_on_RN(p4, fam)
        assert stabilize(again, fam).point_generators == \
            stabilize(p4, fam).point_generators
    for other in (group("p2", I2, [[[-1, 0], [0, -1]]]),
                  group("p4-skew", [[2, 1], [1, 1]], [[[0, -1], [1, 0]]])):
        with pytest.raises(InternalError):
            induced_action_on_RN(other, fam)
        with pytest.raises(InternalError):
            stabilize(other, fam)
