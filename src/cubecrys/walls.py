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
classes, follows along the point table (crys.PointTable.extend) once
per WallFamily, which checks that it is an injective homomorphism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from cubecrys.crys import CrystGroup, PointTable, integer_real_forms, validate
from cubecrys.exactlin import (
    STRAIGHT_LINE_MAX,
    Kernels,
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
        # The offset times canonical[i] / normal[i], i the first nonzero.
        e, x = next((e, x) for e, x in zip(canonical, normal) if e)
        object.__setattr__(self, "normal", canonical)
        object.__setattr__(self, "offset", Fraction(
            offset.numerator * e * x.denominator,
            offset.denominator * x.numerator))

    def __setattr__(self, name, value):
        raise AttributeError("GeometricWall is immutable")

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
    """Base walls of a basis plus the point-group direction classes.

    generators, the point generators' signed permutations of the
    classes, extend along table to action, one per point element, which
    must be an injective homomorphism (else InternalError).  action and
    class_count are derived, so no family holds an unchecked action.
    """

    basis: tuple
    # (e, rows): the inverse basis matrix as e times it in int rows.
    dual_matrix: tuple
    base_walls: tuple
    classes: tuple
    # The integer real forms (d, forms) and point table it was built on.
    forms: tuple
    generators: tuple
    table: PointTable = field(compare=False, repr=False)
    class_count: int = field(init=False)
    action: tuple = field(init=False)

    def __post_init__(self):
        count = len(self.classes)
        action = self.table.extend(
            SignedPermutation.identity(count), self.generators, mul)
        if action is None or len(set(action)) != len(action):
            raise InternalError("the action on the classes is not %s" % (
                "a homomorphism" if action is None else "injective"))
        object.__setattr__(self, "class_count", count)
        object.__setattr__(self, "action", tuple(action))

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
    into that numbering, go to WallFamily, which extends and checks them.
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
    dual_matrix = integral(b_inv)
    return WallFamily(
        basis=tuple(basis),
        dual_matrix=dual_matrix,
        base_walls=tuple(GeometricWall(row, 0) for row in dual_matrix[1]),
        classes=tuple(walked[c] for c in order),
        forms=integer_real_forms(g),
        generators=tuple(
            SignedPermutation([position[perm[c]] + 1 for c in order],
                              [sign[c] for c in order])
            for perm, sign in zip(perms, signs)),
        table=table,
    )


def scaled_pair(p, q) -> tuple:
    """(c, p_ints, q_ints): the points p and q, sequences of ints or
    Fractions, as int vectors over their least common denominator c.

    This is the one form check_linear_separation reads a sample pair in.
    """
    c, (ints_p, ints_q) = integral((p, q))
    return c, ints_p, ints_q


def _pair_counts(fam: WallFamily, c, p, q) -> tuple:
    """(sep, gap, m, dist) for the points p / c and q / c, where p and q
    are int vectors and c >= 1 an int.

    The family's int rows e B^-1 give the dual coordinates of the points
    as a_i / m and b_i / m over m = e c.  sep is the number of integers
    strictly between a_i / m and b_i / m, summed over i; gap is
    sum |a_i - b_i| and dist is c^2 times the squared distance.  sep,
    gap / m and dist / c^2 do not depend on c.
    """
    e, rows = fam.dual_matrix
    if len(p) != len(rows) or len(q) != len(rows):
        raise ShapeError("matrix-vector size mismatch")
    m = e * c
    sep = gap = 0
    for row in rows:
        a = sum(map(mul, row, p))
        b = sum(map(mul, row, q))
        lo, hi = (a, b) if a < b else (b, a)
        sep += max(0, -(-hi // m) - lo // m - 1)
        gap += hi - lo
    dist = sum((x - y) ** 2 for x, y in zip(p, q))
    return sep, gap, m, dist


def separation_count(p, q, fam: WallFamily) -> int:
    """Number of basis-translate walls with p and q strictly on
    opposite sides.

    Per base wall i, the translates are the integer level sets of the
    i-th dual coordinate, so the count is the number of integers
    strictly between the coordinates of p and q.  Walls through p or q
    themselves separate nothing (open-halfspace convention).
    """
    return _pair_counts(fam, *scaled_pair(p, q))[0]


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

    Each sample is a pair (r1, r2) = (p / c, q / c) given as the triple
    (c, p, q) of an int c >= 1 and two int vectors, the form
    scaled_pair gives.  With # the separation count and nu the dual
    coordinates of r1 - r2, checks exactly that

        |r1 - r2|^2 <= max_i |t_i|^2 * (# + n)^2   and
        #           >= sum_i |nu_i| - n.

    A violated pair raises PropertyViolationError; these inequalities
    are theorems, so the check doubles as a self-test of the wall
    machinery.  The second holds for every family and every pair,
    whatever the walls: for reals x <= y, at least y - x - 1 integers
    lie strictly between them (ceil(y) - floor(x) - 1 of them when
    x < y), and summing over the n dual coordinates gives it.  So
    lower_bound_checked reports that theorem re-checked as a self-test
    of the arithmetic, not a property of the family.  The worst ratio
    of left to right side of the first inequality is reported.  Neither the ratio nor a violation message
    depends on which common denominator c a pair is given over.

    A family of dimension at most STRAIGHT_LINE_MAX is checked by one
    straight-line scan over all the pairs (_scan_source); a larger one,
    or a sample the scan cannot unpack, by _loop_scan, which raises
    ShapeError on a point of the wrong length.  Both stop at the first
    violated pair, whose message _violation builds from _pair_counts.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample pair")
    n = g.dimension
    d, basis = integral(fam.basis)
    max_norm_sq = Fraction(max(sum(map(mul, v, v)) for v in basis), d * d)
    num, den = max_norm_sq.numerator, max_norm_sq.denominator
    e, rows = fam.dual_matrix
    found = None
    if len(rows) <= STRAIGHT_LINE_MAX:
        found = _SCANS[len(rows)](samples, e, rows, n, num, den)
    if found is None:
        found = _loop_scan(samples, fam, n, num, den)
    k, top, bottom = found
    if k < len(samples):
        raise _violation(fam, n, max_norm_sq, *samples[k])
    return LinearSeparationReport(
        pairs_checked=len(samples),
        worst_ratio=Fraction(top, bottom),
        max_basis_norm_sq=max_norm_sq,
        lower_bound_checked=True,
    )


def _loop_scan(samples, fam: WallFamily, n: int, num, den) -> tuple:
    """(k, top, bottom): the pairs before the first violated one, all
    when none is, and the worst ratio among them as top / bottom (0 / 1
    for none), with max_i |t_i|^2 = num / den.  The generic loop, one
    _pair_counts call a pair: the oracle of the straight-line scans."""
    top, bottom = 0, 1
    for k, (c, p, q) in enumerate(samples):
        sep, gap, m, dist = _pair_counts(fam, c, p, q)
        # |r1 - r2|^2 = dist / c^2, and # >= gap / m - n.
        lhs = dist * den
        rhs = c * c * num * (sep + n) ** 2
        if lhs > rhs or (sep + n) * m < gap:
            return k, top, bottom
        if lhs * bottom > top * rhs:
            top, bottom = lhs, rhs
    return len(samples), top, bottom


def _violation(fam: WallFamily, n: int, max_norm_sq, c, p, q):
    """The PropertyViolationError of a pair that fails an inequality,
    naming the first one it fails."""
    sep, gap, m, dist = _pair_counts(fam, c, p, q)
    if dist * max_norm_sq.denominator > \
            c * c * max_norm_sq.numerator * (sep + n) ** 2:
        return PropertyViolationError(
            "separation bound failed for pair %s: %s > %s"
            % (_pair_text(c, p, q), Fraction(dist, c * c),
               max_norm_sq * (sep + n) ** 2))
    # nu is linear, so sum_i |nu_i| = gap / m.
    return PropertyViolationError(
        "separation undercount for pair %s: %d < %s"
        % (_pair_text(c, p, q), sep, Fraction(gap - n * m, m)))


def _scan_source(n: int) -> str:
    """Source of `kernel(samples, e, rows, n, num, den)` for a family
    of dimension n: _loop_scan's (k, top, bottom), with the dual rows
    e B^-1 unpacked into locals once and each pair's dual coordinates,
    separation count, l1 gap and squared distance written out; None
    when a row or a point does not have n entries, for the loop to
    check.  Row i contributes the integers strictly between a_i / m
    and b_i / m, none when a_i = b_i."""
    idx = range(n)

    def unpack(name):
        return "(%s,)" % ", ".join("%s%d" % (name, j) for j in idx)

    body = ["sep = gap = 0"]
    for i in idx:
        for value, point in (("a", "p"), ("b", "q")):
            body.append("%s = %s" % (value, " + ".join(
                "r%d_%d * %s%d" % (i, j, point, j) for j in idx)))
        body += ["if a < b:",
                 "    sep += -(-b // m) - a // m - 1",
                 "    gap += b - a",
                 "elif b < a:",
                 "    sep += -(-a // m) - b // m - 1",
                 "    gap += a - b"]
    body += ["d%d = p%d - q%d" % (j, j, j) for j in idx]
    body += ["lhs = (%s) * den" % " + ".join("d%d * d%d" % (j, j)
                                             for j in idx),
             "s = sep + n",
             "rhs = c * c * num * s * s",
             "if lhs > rhs or s * m < gap:",
             "    return k, top, bottom",
             "if lhs * bottom > top * rhs:",
             "    top, bottom = lhs, rhs",
             "k += 1"]
    return ("def kernel(samples, e, rows, n, num, den):\n"
            "    top, bottom, k = 0, 1, 0\n"
            "    try:\n"
            "        %s, = rows\n"
            "        for c, %s, %s in samples:\n"
            "            m = e * c\n"
            "%s"
            "    except ValueError:\n"
            "        return None\n"
            "    return k, top, bottom\n"
            % (", ".join(unpack("r%d_" % i) for i in idx),
               unpack("p"), unpack("q"),
               "".join("            %s\n" % line for line in body)))


_SCANS = Kernels(_scan_source, "separation_scan")


def _pair_text(c, p, q) -> str:
    """'([p_1/c, ..], [q_1/c, ..])' with each entry in lowest terms."""
    return "(%s)" % ", ".join(
        "[%s]" % ", ".join(format_rational(Fraction(x, c)) for x in v)
        for v in (p, q))


def induced_action_on_RN(g: CrystGroup, fam: WallFamily) -> tuple:
    """How each point element permutes the direction classes.

    The positive direction of a class is its canonical representative;
    an element's sign on a class is the sign of the rational scalar
    relating the image of the representative to the canonical
    representative of the image line.  The result is a homomorphism
    into the signed permutations on N letters, extended and checked
    by the WallFamily: one signed permutation per point element, in
    point_elements order.
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
    the output carries m = N - n extra translation directions.  Its
    point generators are fam's, whose checked injective action makes
    its point group isomorphic to g's without building its table.
    """
    validate(g)
    if fam is None:
        fam = direction_class_count(g, zip(*g.lattice_basis))
    induced_action_on_RN(g, fam)  # refuses a family of another group
    n_classes = fam.class_count
    new_gens = [to_matrix(s) for s in fam.generators]
    return CrystGroup(
        name=g.name + "-stab",
        dimension=n_classes,
        lattice_basis=identity(n_classes),
        point_generators=new_gens,
        translation_parts=[(0,) * n_classes] * len(new_gens),
    )
