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
normalization and no irrational norm ever appears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from cubecrys.crys import CrystGroup, point_group_real, validate
from cubecrys.exactlin import (
    RatMatrix,
    RatVector,
    SingularMatrixError,
    format_rational,
    inverse,
    vector_to_json,
)
from cubecrys.sgnperm import SignedPermutation, to_matrix


class RankError(ValueError):
    """The supplied vectors do not form a basis."""


class PropertyViolationError(AssertionError):
    """An exact inequality that must always hold failed on a sample."""


class InternalError(RuntimeError):
    """A structural impossibility occurred; indicates a bug."""


def canonicalize_direction(v: RatVector) -> RatVector:
    """Primitive integer representative of the line through v.

    Clears denominators, divides by the gcd, and flips sign so the
    first nonzero coordinate is positive.
    """
    if v.is_zero():
        raise ValueError("the zero vector spans no direction")
    lcm = math.lcm(*(e.denominator for e in v))
    ints = [int(e * lcm) for e in v]
    g = math.gcd(*ints)
    ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return RatVector(ints)


class GeometricWall:
    """An affine wall {x : <normal, x> = offset}, canonically scaled.

    The normal is stored as a primitive integer vector with positive
    leading entry and the offset is rescaled to match, so two wall
    descriptions coincide exactly when they describe the same affine
    subspace.
    """

    __slots__ = ("normal", "offset")

    def __init__(self, normal, offset):
        normal = RatVector(normal)
        offset = Fraction(offset)
        canonical = canonicalize_direction(normal)
        # The scale relating the input normal to its canonical form.
        for i, e in enumerate(canonical):
            if e != 0:
                scale = e / normal[i]
                break
        object.__setattr__(self, "normal", canonical)
        object.__setattr__(self, "offset", offset * scale)

    def __setattr__(self, name, value):
        raise AttributeError("GeometricWall is immutable")

    def side(self, point: RatVector) -> int:
        """-1, 0 or +1 according to <normal, point> - offset."""
        value = self.normal.dot(point) - self.offset
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
    dual_matrix: RatMatrix
    base_walls: tuple
    classes: tuple
    class_count: int
    # The point-group real forms the family was built for and, in the
    # same order, the signed permutation each induces on the classes.
    real_forms: tuple
    action: tuple

    def dual_coordinates(self, point: RatVector) -> RatVector:
        """Coordinates of a point in the chosen basis."""
        return self.dual_matrix * point

    def to_json_dict(self) -> dict:
        return {
            "basis": [vector_to_json(v) for v in self.basis],
            "base_walls": [w.to_json_dict() for w in self.base_walls],
            "classes": [vector_to_json(v) for v in self.classes],
            "class_count": self.class_count,
        }


def _basis_and_inverse(g: CrystGroup, basis):
    """The basis as vectors and the inverse of its column matrix."""
    basis = [RatVector(v) for v in basis]
    n = g.dimension
    if len(basis) != n or any(len(v) != n for v in basis):
        raise RankError("need %d vectors of length %d" % (n, n))
    try:
        return basis, inverse(RatMatrix.from_columns(basis))
    except SingularMatrixError:
        raise RankError("the supplied vectors are linearly dependent") from None


def _base_walls(b_inv: RatMatrix) -> list:
    return [GeometricWall(b_inv.row(i), 0) for i in range(b_inv.rows)]


def standard_walls(g: CrystGroup, basis) -> list:
    """The n base walls through the origin for the given basis.

    Wall i is the span of the other basis vectors; its normal is the
    dual covector of basis vector i, i.e. row i of the inverse basis
    matrix.
    """
    return _base_walls(_basis_and_inverse(g, basis)[1])


def direction_class_count(g: CrystGroup, basis) -> WallFamily:
    """Orbit of the basis-vector lines under the point group.

    Lines are tracked by canonical primitive integer representatives,
    which replaces the usual unit-sphere picture with an exact
    projective one.  The class count N satisfies n <= N <= n * |P|.

    The breadth-first search also records the induced action: element
    t sends class k to the class of t * rep_k, with the sign of the
    first nonzero entry of t * rep_k (representatives have a positive
    one).
    """
    basis, b_inv = _basis_and_inverse(g, basis)
    theta = point_group_real(g)
    index = {}
    classes = []

    def class_of(v):
        rep = canonicalize_direction(v)
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
            image = t * rep
            perm.append(class_of(image) + 1)
            sign.append(1 if next(e for e in image if e != 0) > 0 else -1)
    n = g.dimension
    count = len(classes)
    if not (n <= count <= n * g.point_group_order()):
        raise InternalError(
            "class count %d escaped the bound %d <= N <= %d"
            % (count, n, n * g.point_group_order()))
    return WallFamily(
        basis=tuple(basis),
        dual_matrix=b_inv,
        base_walls=tuple(_base_walls(b_inv)),
        classes=tuple(classes),
        class_count=count,
        real_forms=theta,
        action=tuple(SignedPermutation(p, s) for p, s in zip(perms, signs)),
    )


def _integers_strictly_between(a: Fraction, b: Fraction) -> int:
    if a == b:
        return 0
    lo, hi = (a, b) if a < b else (b, a)
    return max(0, math.ceil(hi) - math.floor(lo) - 1)


def _separation(nu_p, nu_q) -> int:
    return sum(_integers_strictly_between(a, b) for a, b in zip(nu_p, nu_q))


def separation_count(p: RatVector, q: RatVector, fam: WallFamily) -> int:
    """Number of basis-translate walls with p and q strictly on
    opposite sides.

    Per base wall i, the translates are the integer level sets of the
    i-th dual coordinate, so the count is the number of integers
    strictly between the coordinates of p and q.  Walls through p or q
    themselves separate nothing (open-halfspace convention).
    """
    return _separation(fam.dual_coordinates(p), fam.dual_coordinates(q))


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
    max_norm_sq = max(v.norm_sq() for v in fam.basis)
    worst = Fraction(0)
    for r1, r2 in samples:
        nu1 = fam.dual_coordinates(r1)
        nu2 = fam.dual_coordinates(r2)
        sep = _separation(nu1, nu2)
        lhs = (r1 - r2).norm_sq()
        rhs = max_norm_sq * (sep + n) ** 2
        if lhs > rhs:
            raise PropertyViolationError(
                "separation bound failed for pair (%r, %r): %s > %s"
                % (r1, r2, lhs, rhs))
        # nu is linear, so nu(r1 - r2) = nu(r1) - nu(r2).
        lower = sum(abs(a - b) for a, b in zip(nu1, nu2)) - n
        if sep < lower:
            raise PropertyViolationError(
                "separation undercount for pair (%r, %r): %d < %s"
                % (r1, r2, sep, lower))
        ratio = lhs / rhs
        if ratio > worst:
            worst = ratio
    return LinearSeparationReport(
        pairs_checked=len(samples),
        worst_ratio=worst,
        max_basis_norm_sq=max_norm_sq,
        lower_bound_checked=True,
    )


def induced_action_on_RN(g: CrystGroup, fam: WallFamily) -> dict:
    """How each point element permutes the direction classes.

    The positive direction of a class is its canonical representative;
    an element's sign on a class is the sign of the rational scalar
    relating the image of the representative to the canonical
    representative of the image line.  The result is a homomorphism
    into the signed permutations on N letters, recorded by
    direction_class_count and keyed here by point element.
    """
    if point_group_real(g) != fam.real_forms:
        raise InternalError("the wall family was built for another group")
    return dict(zip(g.point_elements(), fam.action))


def stabilize(g: CrystGroup, fam: WallFamily = None) -> CrystGroup:
    """Pass to the N-dimensional group acting on the wall classes.

    The output has lattice Z^N and point generators the induced signed
    permutation matrices; it always lies in the accepted class, with
    the identity as conjugator, because its real form already consists
    of signed permutation matrices.  N is computed from the lattice
    basis unless a wall family of g for another basis is supplied, and
    the output carries m = N - n extra translation directions.
    """
    validate(g)
    if fam is None:
        fam = direction_class_count(g, g.lattice_basis.columns())
    action = induced_action_on_RN(g, fam)
    n_classes = fam.class_count
    new_gens = [to_matrix(action[gen]) for gen in g.point_generators]
    stabilized = CrystGroup(
        name=g.name + "-stab",
        dimension=n_classes,
        lattice_basis=RatMatrix.identity(n_classes),
        point_generators=new_gens,
        translation_parts=tuple(RatVector([0] * n_classes)
                                for _ in g.point_generators),
    )
    validate(stabilized)
    if stabilized.point_group_order() != g.point_group_order():
        raise InternalError(
            "stabilization changed the point group order from %d to %d"
            % (g.point_group_order(), stabilized.point_group_order()))
    return stabilized
