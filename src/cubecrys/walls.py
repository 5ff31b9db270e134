"""The standard wall family of a crystallographic group.

Given any basis t_1 .. t_n of real n-space, the base walls are the
coordinate subspaces X_i = span{t_j : j != i}, with normals given by
the dual basis.  Translating each X_i by the integer span of the basis
and moving everything around by the point group produces a locally
finite wall family; the number N of parallelism classes of walls
controls which cube complex the group acts on.

Directions are handled projectively and exactly: a direction class is
the canonical primitive integer vector spanning the line (coprime
coordinates, first nonzero entry positive), so no unit-sphere
normalization and no irrational norm ever appears.  The point group
acts through the integer real forms d * theta_bar(p) of
crys.integer_real_forms, the ones the decider reads: the scale d never
changes a line, and the dual coordinates are int rows over one
denominator.  Only the generators' forms are applied to the classes;
the action of every other element, a signed permutation of the N
classes, follows along the point table (crys.PointTable.extend), as
the decider's embedding does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from cubecrys.crys import CrystGroup, integer_real_forms, validate
from cubecrys.exactlin import (
    ShapeError,
    SingularMatrixError,
    format_rational,
    identity,
    integral,
    inverse,
    parse_rational,
    vector_from_json,
    vector_to_json,
)
from cubecrys.sgnperm import SignedPermutation, to_matrix


class RankError(ValueError):
    """The supplied vectors do not form a basis."""


class PropertyViolationError(AssertionError):
    """An exact inequality that must always hold failed on a sample."""


class InternalError(RuntimeError):
    """A structural impossibility occurred; indicates a bug."""


def _primitive(v) -> tuple:
    """The primitive int tuple spanning the line through v, a sequence
    of ints or Fractions.

    Clears denominators, divides by the gcd, and flips sign so the
    first nonzero coordinate is positive.
    """
    ints = integral((v,))[1][0]
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("the zero vector spans no direction")
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


class GeometricWall:
    """An affine wall {x : <normal, x> = offset}, canonically scaled.

    The entries are read by exactlin.parse_rational.  The normal is
    stored as a primitive int tuple with positive leading entry and the
    offset is rescaled to match, so two wall descriptions coincide
    exactly when they describe the same affine subspace.
    """

    __slots__ = ("normal", "offset")

    def __init__(self, normal, offset):
        normal = vector_from_json(normal)
        offset = parse_rational(offset)
        canonical = _primitive(normal)
        # The scale relating the input normal to its canonical form.
        for i, e in enumerate(canonical):
            if e != 0:
                scale = e / normal[i]
                break
        object.__setattr__(self, "normal", canonical)
        object.__setattr__(self, "offset", offset * scale)

    def __setattr__(self, name, value):
        raise AttributeError("GeometricWall is immutable")

    def side(self, point) -> int:
        """-1, 0 or +1 according to <normal, point> - offset."""
        if len(point) != len(self.normal):
            raise ShapeError("vector lengths differ: %d vs %d"
                             % (len(self.normal), len(point)))
        value = sum(map(mul, self.normal, point)) - self.offset
        if value < 0:
            return -1
        if value > 0:
            return 1
        return 0

    def __eq__(self, other):
        return (isinstance(other, GeometricWall)
                and self.normal == other.normal
                and self.offset == other.offset)

    def __hash__(self):
        return hash((self.normal, self.offset))

    def __repr__(self):
        return "GeometricWall(<%s, x> = %s)" % (
            ", ".join(format_rational(e) for e in self.normal),
            format_rational(self.offset))

    def to_json_dict(self) -> dict:
        return {"normal": vector_to_json(self.normal),
                "offset": format_rational(self.offset)}


@dataclass(frozen=True)
class WallFamily:
    """Base walls of a basis plus the point-group direction classes."""

    basis: tuple
    # (e, rows): the inverse basis matrix as e times it in int rows.
    dual_matrix: tuple
    base_walls: tuple
    classes: tuple
    class_count: int
    # The integer real forms (d, forms) the family was built for and, in
    # the same order, the signed permutation each induces on the classes.
    forms: tuple
    action: tuple

    def to_json_dict(self) -> dict:
        return {
            "basis": [vector_to_json(v) for v in self.basis],
            "base_walls": [w.to_json_dict() for w in self.base_walls],
            "classes": [vector_to_json(v) for v in self.classes],
            "class_count": self.class_count,
        }


def _basis_and_inverse(g: CrystGroup, basis):
    """The basis as Fraction tuples and the inverse of its column
    matrix, as Fraction rows."""
    basis = [vector_from_json(v) for v in basis]
    n = g.dimension
    if len(basis) != n or any(len(v) != n for v in basis):
        raise RankError("need %d vectors of length %d" % (n, n))
    try:
        return basis, inverse(tuple(zip(*basis)))
    except SingularMatrixError:
        raise RankError("the supplied vectors are linearly dependent") from None


def direction_class_count(g: CrystGroup, basis) -> WallFamily:
    """Orbit of the basis-vector lines under the point group.

    Lines are tracked by canonical primitive integer representatives,
    which replaces the usual unit-sphere picture with an exact
    projective one.  The class count N satisfies n <= N <= n * |P|.
    Base wall i is the span of the other basis vectors; its normal is
    the dual covector of basis vector i, row i of the inverse basis
    matrix.

    The orbit is walked under the generators only, on their integer
    forms d * t, which have the same lines and signs: generator t sends
    class k to the class of t * rep_k, with the sign of the first
    nonzero entry of t * rep_k (representatives have a positive one).
    The classes are numbered as a walk under every element would: the
    basis lines first, then each basis line's orbit in point_elements
    order, where element k moves a class along its generator word,
    last letter first.  The generators' signed permutations, relabelled
    into that numbering, are extended to every element once by
    PointTable.extend, which also checks that they form a homomorphism.
    """
    basis, b_inv = _basis_and_inverse(g, basis)
    _, forms = integer_real_forms(g)
    table = g.point_table()
    index = {}
    walked = []

    def class_of(v):
        rep = _primitive(v)
        if rep not in index:
            index[rep] = len(walked)
            walked.append(rep)
        return index[rep]

    for v in basis:
        class_of(v)
    gen_forms = [forms[k] for k in table.next[0]]
    perms = [[] for _ in gen_forms]
    signs = [[] for _ in gen_forms]
    k = 0
    while k < len(walked):
        rep = walked[k]
        k += 1
        for perm, sign, form in zip(perms, signs, gen_forms):
            image = [sum(map(mul, row, rep)) for row in form]
            perm.append(class_of(image))
            sign.append(1 if next(e for e in image if e != 0) > 0 else -1)
    n = g.dimension
    count = len(walked)
    if not (n <= count <= n * len(table.elements)):
        raise InternalError(
            "class count %d escaped the bound %d <= N <= %d"
            % (count, n, n * len(table.elements)))
    # order[i] is the walked number of class i; position inverts it.
    order = list(range(n))
    position = order + [None] * (count - n)
    for c in range(n):
        for word in table.words:
            x = c
            for j in reversed(word):
                x = perms[j][x]
            if position[x] is None:
                position[x] = len(order)
                order.append(x)
    action = table.extend(
        SignedPermutation.identity(count),
        [SignedPermutation([position[perm[c]] + 1 for c in order],
                           [sign[c] for c in order])
         for perm, sign in zip(perms, signs)], mul)
    if action is None:
        raise InternalError("the action on the classes is not a homomorphism")
    dual_matrix = integral(b_inv)
    return WallFamily(
        basis=tuple(basis),
        dual_matrix=dual_matrix,
        base_walls=tuple(GeometricWall(row, 0) for row in dual_matrix[1]),
        classes=tuple(walked[c] for c in order),
        class_count=count,
        forms=integer_real_forms(g),
        action=tuple(action),
    )


def _pair_counts(fam: WallFamily, p, q) -> tuple:
    """(sep, gap, m, c, dist) for the points p and q.

    c is the least common denominator of p and q, and the family's int
    rows e B^-1 give the dual coordinates of p and q as a_i / m and
    b_i / m over m = e c.  sep is the number of integers strictly
    between a_i / m and b_i / m, summed over i; gap is sum |a_i - b_i|
    and dist is c^2 |p - q|^2.
    """
    e, rows = fam.dual_matrix
    if len(p) != len(rows) or len(q) != len(rows):
        raise ShapeError("matrix-vector size mismatch")
    c, (ints_p, ints_q) = integral((p, q))
    m = e * c
    sep = gap = 0
    for row in rows:
        a = sum(map(mul, row, ints_p))
        b = sum(map(mul, row, ints_q))
        lo, hi = (a, b) if a < b else (b, a)
        sep += max(0, -(-hi // m) - lo // m - 1)
        gap += hi - lo
    dist = sum((x - y) ** 2 for x, y in zip(ints_p, ints_q))
    return sep, gap, m, c, dist


def separation_count(p, q, fam: WallFamily) -> int:
    """Number of basis-translate walls with p and q strictly on
    opposite sides.

    Per base wall i, the translates are the integer level sets of the
    i-th dual coordinate, so the count is the number of integers
    strictly between the coordinates of p and q.  Walls through p or q
    themselves separate nothing (open-halfspace convention).
    """
    return _pair_counts(fam, p, q)[0]


@dataclass(frozen=True)
class LinearSeparationReport:
    pairs_checked: int
    worst_ratio: Fraction
    max_basis_norm_sq: Fraction
    lower_bound_checked: bool

    def to_json_dict(self) -> dict:
        return {
            "pairs_checked": self.pairs_checked,
            "worst_ratio": format_rational(self.worst_ratio),
            "max_basis_norm_sq": format_rational(self.max_basis_norm_sq),
            "lower_bound_checked": self.lower_bound_checked,
        }


def check_linear_separation(g: CrystGroup, fam: WallFamily, samples) -> LinearSeparationReport:
    """Verify the wall-counting inequalities on explicit sample pairs.

    For each pair (r1, r2), with # the separation count and nu the dual
    coordinates of r1 - r2, checks exactly that

        |r1 - r2|^2 <= max_i |t_i|^2 * (# + n)^2   and
        #           >= sum_i |nu_i| - n.

    A violated pair raises PropertyViolationError; these inequalities
    are theorems, so the check doubles as a self-test of the wall
    machinery.  The worst ratio of left to right side of the first
    inequality is reported.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample pair")
    n = g.dimension
    max_norm_sq = max(sum(x * x for x in v) for v in fam.basis)
    num, den = max_norm_sq.numerator, max_norm_sq.denominator
    # The worst ratio so far, as an int numerator and denominator.
    top, bottom = 0, 1
    for r1, r2 in samples:
        sep, gap, m, c, dist = _pair_counts(fam, r1, r2)
        # |r1 - r2|^2 = dist / c^2 and max_i |t_i|^2 = num / den.
        lhs = dist * den
        rhs = c * c * num * (sep + n) ** 2
        if lhs > rhs:
            raise PropertyViolationError(
                "separation bound failed for pair %s: %s > %s"
                % (_pair_text(r1, r2), Fraction(dist, c * c),
                   max_norm_sq * (sep + n) ** 2))
        # nu is linear, so sum_i |nu_i| = gap / m.
        if sep * m < gap - n * m:
            raise PropertyViolationError(
                "separation undercount for pair %s: %d < %s"
                % (_pair_text(r1, r2), sep, Fraction(gap - n * m, m)))
        if lhs * bottom > top * rhs:
            top, bottom = lhs, rhs
    return LinearSeparationReport(
        pairs_checked=len(samples),
        worst_ratio=Fraction(top, bottom),
        max_basis_norm_sq=max_norm_sq,
        lower_bound_checked=True,
    )


def _pair_text(p, q) -> str:
    """'([p_1, ..], [q_1, ..])' with each entry as 'p/q'."""
    return "(%s)" % ", ".join(
        "[%s]" % ", ".join(map(format_rational, v)) for v in (p, q))


def induced_action_on_RN(g: CrystGroup, fam: WallFamily) -> tuple:
    """How each point element permutes the direction classes.

    The positive direction of a class is its canonical representative;
    an element's sign on a class is the sign of the rational scalar
    relating the image of the representative to the canonical
    representative of the image line.  The result is a homomorphism
    into the signed permutations on N letters, recorded by
    direction_class_count: one signed permutation per point element,
    in point_elements order.
    """
    if integer_real_forms(g) != fam.forms:
        raise InternalError("the wall family was built for another group")
    return fam.action


def stabilize(g: CrystGroup, fam: WallFamily = None) -> CrystGroup:
    """Pass to the N-dimensional group acting on the wall classes.

    The output has lattice Z^N and point generators the induced signed
    permutation matrices; it always lies in the accepted class, with
    the identity as conjugator, because its real form already consists
    of signed permutation matrices.  N is computed from the lattice
    basis unless a wall family of g for another basis is supplied, and
    the output carries m = N - n extra translation directions.

    The output's point group is the image of the induced action, so it
    is isomorphic to g's exactly when the action is an injective
    homomorphism.  fam is the caller's, so that is checked here: the
    generators' signed permutations, extended along g's point table by
    PointTable.extend, must give fam's action, with |P| distinct
    images.  The output's own table is never built.
    """
    validate(g)
    if fam is None:
        fam = direction_class_count(g, zip(*g.lattice_basis))
    action = induced_action_on_RN(g, fam)
    table = g.point_table()
    gens = [action[k] for k in table.next[0]]
    if table.extend(action[0], gens, mul) != list(action):
        raise InternalError("the induced action is not a homomorphism")
    if len(set(action)) != len(table.elements):
        raise InternalError("the induced action is not injective")
    n_classes = fam.class_count
    new_gens = [to_matrix(s) for s in gens]
    return CrystGroup(
        name=g.name + "-stab",
        dimension=n_classes,
        lattice_basis=identity(n_classes),
        point_generators=new_gens,
        translation_parts=[(0,) * n_classes] * len(new_gens),
    )
