"""The integer point table and the wall family against the RatMatrix
code they replaced.

The oracles below are the earlier implementations, kept verbatim in
spirit: a breadth-first closure over RatMatrix with one generator word
per element, the RatMatrix order loop, the words-based extension of
generator images, the per-element loop that computed the action on the
wall direction classes, the class walk over RatMatrix real forms, and
dual coordinates as one RatMatrix product.  The point table, the
table-driven extension and the wall family built on integer real forms
must agree with them on every group the tests build.
"""

import contextlib
import itertools
import math
import operator
import random
import signal
from fractions import Fraction

import pytest

from cubecrys import crys, walls
from cubecrys.cli import main
from cubecrys.crys import (
    CLOSURE_CAP,
    CrystGroup,
    StructureError,
    load_catalog,
    point_group_real,
    save_group,
    semidirect_extend,
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
from test_walls import (
    apply,
    fraction_check_linear_separation,
    fraction_dual_matrix,
    fraction_separation,
    shrunk,
)
from cubecrys.walls import (
    InternalError,
    PropertyViolationError,
    _primitive,
    check_linear_separation,
    direction_class_count,
    induced_action_on_RN,
    separation_count,
    stabilize,
)

# ---------------------------------------------------------------------------
# Oracles


def trace(m: RatMatrix):
    """The trace of a square RatMatrix, as a Fraction."""
    return sum((m.entries[i][i] for i in range(m.rows)), Fraction(0))


def ratmatrix_order(m, cap):
    """Least k <= cap with m**k = identity, by RatMatrix powers; else None."""
    ident = RatMatrix(identity(m.rows))
    power = m
    for k in range(1, cap + 1):
        if power == ident:
            return k
        power = power * m
    return None


def matrix_power_order(m, ident, bound):
    """The order loop the table walk replaced: least k >= 1 with
    m**k = identity, by int_mul powers; StructureError past bound = |P|."""
    power = m
    for k in range(1, bound + 1):
        if power == ident:
            return k
        power = int_mul(power, m)
    raise StructureError("an element has no power equal to the identity "
                         "within %d steps; a generator is singular" % bound)


def ratmatrix_closure(g):
    """Breadth-first closure over RatMatrix: (elements, words)."""
    ident = RatMatrix(identity(g.dimension))
    elements, words, index = [ident], [()], {ident: 0}
    head = 0
    while head < len(elements):
        for j, gen in enumerate(g.point_generators):
            product = elements[head] * RatMatrix(gen)
            if product not in index:
                assert len(elements) < CLOSURE_CAP
                index[product] = len(elements)
                elements.append(product)
                words.append(words[head] + (j,))
        head += 1
    return elements, words


def words_candidates(g):
    """Per generator, the signed permutations with its order, det, trace."""
    order = len(ratmatrix_closure(g)[0])
    out = []
    for gen in map(RatMatrix, g.point_generators):
        key = (ratmatrix_order(gen, order), int(det(gen.entries)),
               int(trace(gen)))
        out.append([s for s in enumerate_group(g.dimension)
                    if (s.order(), s.determinant(), s.trace()) == key])
    return out


def words_extend_assignment(g, images):
    """Extension of generator images along generator words, checked to
    be an injective homomorphism preserving order, det and trace."""
    elements, words = ratmatrix_closure(g)
    index = {p: k for k, p in enumerate(elements)}
    n_letters = images[0].n if images else g.dimension
    iota = []
    for word in words:
        s = SignedPermutation.identity(n_letters)
        for j in word:
            s = s * images[j]
        iota.append(s)
    for k, p in enumerate(elements):
        for j, gen in enumerate(g.point_generators):
            if iota[k] * images[j] != iota[index[p * RatMatrix(gen)]]:
                return None
    if len(set(iota)) != len(elements):
        return None
    for k, p in enumerate(elements):
        if iota[k].trace() != int(trace(p)):
            return None
        if iota[k].determinant() != int(det(p.entries)):
            return None
        if iota[k].order() != ratmatrix_order(p, len(elements)):
            return None
    return iota


def loop_induced_action(g, fam):
    """Per point element, in point_elements order, the signed
    permutation of the direction classes, from one product t * rep per
    element and class."""
    index = {rep: k for k, rep in enumerate(fam.classes)}
    action = []
    for t in point_group_real(g):
        perm = [0] * fam.class_count
        signs = [0] * fam.class_count
        for k, rep in enumerate(fam.classes):
            image = apply(t, rep)
            canonical = _primitive(image)
            j = index.get(canonical)
            if j is None:
                raise InternalError(
                    "point element did not preserve the direction classes")
            for i, e in enumerate(canonical):
                if e != 0:
                    scale = image[i] / e
                    break
            perm[k] = j + 1
            signs[k] = 1 if scale > 0 else -1
        action.append(SignedPermutation(perm, signs))
    return tuple(action)


def ratmatrix_direction_classes(g, basis):
    """(classes, class_count, action) of the breadth-first class walk
    over the RatMatrix real forms, one product t * rep per element and
    class."""
    theta = point_group_real(g)
    index, classes = {}, []

    def class_of(v):
        rep = _primitive(v)
        if rep not in index:
            index[rep] = len(classes)
            classes.append(rep)
        return index[rep]

    for v in basis:
        class_of(v)
    perms = [[] for _ in theta]
    signs = [[] for _ in theta]
    k = 0
    while k < len(classes):
        rep = classes[k]
        k += 1
        for perm, sign, t in zip(perms, signs, theta):
            image = apply(t, rep)
            perm.append(class_of(image) + 1)
            sign.append(1 if next(e for e in image if e != 0) > 0 else -1)
    return (tuple(classes), len(classes),
            tuple(SignedPermutation(p, s) for p, s in zip(perms, signs)))


# ---------------------------------------------------------------------------
# Groups


def group(name, basis, gens, parts=None):
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
        assert table.trace[k] == trace(p)


@pytest.mark.parametrize("g", GROUPS, ids=lambda g: g.name)
def test_the_stabilized_point_group_has_the_input_order(g):
    s = stabilize(g)
    assert s._elements is None
    assert s.point_group_order() == g.point_group_order()


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
    """Subgroups of W(F4) on 1-3 random elements, drawn as in the
    decider's W(F4) fuzz."""
    wf = wf4()
    elements = wf.point_elements()
    rng = random.Random(0)
    orders = set()
    for _ in range(60):
        gens = rng.sample(elements, rng.randint(1, 3))
        g = CrystGroup("sub", 4, wf.lattice_basis, gens,
                       [[0] * 4] * len(gens))
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


def affine_closure_size(g):
    """The number of affine maps (M, t mod Z^n) the generators close to,
    by a breadth-first closure over Fractions: the check the table walk
    replaced."""
    n = g.dimension
    gens = [(tuple(tuple(int(e) for e in row) for row in m),
             tuple(x % 1 for x in t))
            for m, t in zip(g.point_generators, g.translation_parts)]
    elements = [(identity(n), (Fraction(0),) * n)]
    seen = set(elements)
    for m, u in elements:
        for a, t in gens:
            image = (int_mul(m, a),
                     tuple((sum(map(operator.mul, row, t)) + x) % 1
                           for row, x in zip(m, u)))
            if image not in seen:
                seen.add(image)
                elements.append(image)
    return len(elements)


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
        assert check_linear_separation(g, fam, pairs) == \
            fraction_check_linear_separation(g, fam, pairs)
        small = shrunk(fam)
        assert _outcome(check_linear_separation, g, small, pairs) == \
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
            check_linear_separation(p4, fam, [(point, bad)])


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
