"""Deciding conjugacy of a point group into the signed permutations.

A crystallographic group acts properly and cocompactly on a CAT(0)
cube complex exactly when its point-group representation is conjugate,
over the reals, to a group of signed permutation matrices.  This module
decides that property for dimension at most 4 and always returns
checkable evidence: an explicit conjugator on acceptance, or a finite
obstruction on rejection.

The search is exhaustive.  Candidate images for each point-group
generator are the signed permutations with the same order, determinant
and trace; a candidate assignment is extended to the whole group along
the point table's generator successors, then checked to be an
injective homomorphism whose character (trace list) matches exactly.
Matching characters of two real representations force real conjugacy,
and the conjugator is a group average of a seed matrix.  Averaging is
linear in the seed, so the n^2 matrix units are averaged once and each
seed costs one integer combination of those averages and one
determinant.  The seed walk starts with a fixed schedule of 1000 small
seeds, which pins the witness bytes, then takes every point of
{0..n}^(n^2) with at most n nonzero entries.  That part always ends at
a nonsingular average: equal characters make the representations
equivalent over Q, so the determinant on the span of the averages is a
nonzero polynomial of degree n; one of its monomials uses at most n
entries, and by Schwartz-Zippel it does not vanish on {0..n} over them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul

from cubecrys.exactlin import (
    det,
    format_rational,
    identity,
    int_det,
    int_mul,
    integral,
    inverse,
    matrix_to_json,
    vector_to_json,
)
from cubecrys.crys import CrystGroup, integer_real_forms, validate
from cubecrys.sgnperm import (
    SignedPermutation,
    SizeCapError,
    enumerate_group,
    signed_permutation_of,
    times_signed_permutation,
)

DIMENSION_CAP = 4
# Length of the fixed seed schedule walked first.  Witnesses found
# within it keep their bytes, whatever the walk does after it.
SCHEDULE_PREFIX = 1000

ORDER_OBSTRUCTION = "order-obstruction"
CHARACTER_MISMATCH = "character-mismatch"
NO_EMBEDDING = "no-embedding"


class WitnessCorruptionError(RuntimeError):
    """A stored witness failed re-verification."""


@dataclass(frozen=True)
class HyperoctahedralWitness:
    """Accepting evidence: an embedding iota and the conjugator A.

    iota[k] is the signed permutation of the k-th point element, in
    point_elements order; the conjugator A, as Fraction rows, satisfies
    A * iota(p) * A^-1 = theta_bar(p) exactly for every point element
    p.  basis holds the columns of A as tuples.
    """

    iota: tuple
    conjugator: tuple
    basis: tuple
    # (g, d c, defects) for the group g the witness was verified on, so
    # that its report reuses the defects; None until then, and None in
    # a copy made by dataclasses.replace.
    verified: tuple = field(default=None, init=False, compare=False,
                            repr=False)

    def _defects(self, g: CrystGroup):
        """(d c, defects): defects[k] = (d theta_bar(p))(cA) - d (cA) iota(p)
        as int rows for the k-th point element p, with cA integral; over
        d c it is theta_bar(p) A - A iota(p)."""
        d, forms = integer_real_forms(g)
        c, ca = integral(self.conjugator)
        dca = [[d * x for x in row] for row in ca]
        return d * c, [
            tuple(tuple(x - y for x, y in zip(left, right)) for left, right
                  in zip(int_mul(form, ca),
                         times_signed_permutation(dca, s)))
            for form, s in zip(forms, self.iota)]

    def verify(self, g: CrystGroup) -> bool:
        """theta_bar(p) * A == A * iota(p) for every p (every defect
        vanishes), iota one injective image per p, A nonsingular."""
        return self._holds(g, self._defects(g)[1])

    def _holds(self, g: CrystGroup, defects) -> bool:
        return (len(set(self.iota)) == len(self.iota) == g.point_group_order()
                and det(self.conjugator) != 0
                and not any(any(row) for defect in defects
                            for row in defect))

    def to_json_dict(self, g: CrystGroup) -> dict:
        """The report; each residual theta_bar(p) - A iota(p) A^-1 is
        the defect times A^-1 over d c.  A is nonsingular, so a residual
        is zero exactly when its defect is: a zero defect reports rows
        of "0", and A^-1 is computed once, for the first nonzero one."""
        if self.verified is not None and self.verified[0] is g:
            _, scale, defects = self.verified
        else:
            scale, defects = self._defects(g)
        residuals = []
        a_inv = None
        for defect in defects:
            if not any(map(any, defect)):
                residuals.append([["0"] * len(row) for row in defect])
                continue
            if a_inv is None:
                h, a_inv = integral(inverse(self.conjugator))
            residuals.append([
                [format_rational(Fraction(x, scale * h)) for x in row]
                for row in int_mul(defect, a_inv)])
        return {
            "verdict": "accepted",
            "conjugator": matrix_to_json(self.conjugator),
            "basis": [vector_to_json(v) for v in self.basis],
            "elements": [{
                "point_element": matrix_to_json(p),
                "image": s.to_json_dict(),
                "conjugation_residual": residual,
            } for p, s, residual in zip(g.point_elements(), self.iota,
                                        residuals)],
        }


@dataclass(frozen=True)
class RejectionCertificate:
    """Rejecting evidence; reason is one of the three module constants."""

    reason: str
    detail: dict

    def to_json_dict(self) -> dict:
        return {"verdict": "rejected", "reason": self.reason,
                "detail": self.detail}


@dataclass(frozen=True)
class Obstruction:
    kind: str
    element: tuple
    order: int
    determinant: int
    trace: int
    realized: tuple


@lru_cache(maxsize=None)
def _signed_perm_index(n: int) -> dict:
    """enumerate_group(n) grouped by (order, det, trace), in pool order."""
    index = {}
    for s in enumerate_group(n):
        index.setdefault((s.order(), s.determinant(), s.trace()), []).append(s)
    return {key: tuple(pool) for key, pool in index.items()}


def quick_obstructions(g: CrystGroup) -> list:
    """Per-element (order, det, trace) screening against O(n, Z).

    An empty result is necessary but not sufficient for acceptance.
    Orders, determinants and traces are read off the integer matrices:
    they are conjugation invariants, so lattice coordinates suffice.
    """
    index = _signed_perm_index(g.dimension)
    table = g.point_table()
    found = []
    for p, order, d, t in zip(g.point_elements(), table.order, table.det,
                              table.trace):
        if (order, d, t) in index:
            continue
        at_order = tuple(sorted((kd, kt) for ko, kd, kt in index
                                if ko == order))
        found.append(Obstruction(
            kind=CHARACTER_MISMATCH if at_order else ORDER_OBSTRUCTION,
            element=p, order=order, determinant=d, trace=t,
            realized=at_order or tuple(sorted({ko for ko, _, _ in index}))))
    return found


def _candidate_images(g: CrystGroup) -> list:
    """Per generator, the signed permutations sharing its order, det and
    trace, in enumerate_group order."""
    index = _signed_perm_index(g.dimension)
    table = g.point_table()
    return [index.get((table.order[k], table.det[k], table.trace[k]), ())
            for k in table.next[0]]


def _extend_assignment(g: CrystGroup, images: tuple):
    """Extend generator images to the whole group, or return None.

    PointTable.extend walks the point table with iota[k * j] =
    iota[k] * images[j]; then the extension must be injective, with
    traces that agree with the point group element by element.

    Orders and determinants need no check: an injective homomorphism
    preserves orders, and det o iota and det are homomorphisms to +-1
    that agree on the generators, because the candidate images match
    the generators' determinants.
    """
    table = g.point_table()
    n_letters = images[0].n if images else g.dimension
    iota = table.extend(SignedPermutation.identity(n_letters), images, mul)
    if iota is None or len(set(iota)) != len(iota) or any(
            s.trace() != t for s, t in zip(iota, table.trace)):
        return None
    return iota


def _unit_averages(forms, iota):
    """units[i * n + j] = sum_p forms(p) * E_ij * iota(p)^-1, flat
    row-major ints, for the integer real forms.  E_ij * iota(p)^-1 is
    signs[j] * E_(i, perm(j)), so each term is signs[j] times column i
    of forms(p) in column perm(j).
    """
    n = len(forms[0])
    units = [[0] * (n * n) for _ in range(n * n)]
    for t, s in zip(forms, iota):
        for i in range(n):
            for j, (target, sign) in enumerate(zip(s.perm, s.signs)):
                unit = units[i * n + j]
                for r in range(n):
                    unit[r * n + target - 1] += sign * t[r][i]
    return units


def _combine(units, seed) -> list:
    """sum of seed[k] * units[k], flat row-major."""
    total = [0] * len(units)
    for c, unit in zip(seed, units):
        if c:
            for k, u in enumerate(unit):
                total[k] += c * u
    return total


def _seeds(n: int):
    """Seed matrices as flat row-major coefficient sequences: the
    SCHEDULE_PREFIX seeds of the identity, {0,1}^(n^2) and
    {-1,0,1}^(n^2), then the points of {0..n}^(n^2) with at most n
    nonzero entries, smallest support first."""
    size = n * n
    identity = tuple(int(i == j) for i in range(n) for j in range(n))
    yield from itertools.islice(
        itertools.chain([identity],
                        itertools.product((0, 1), repeat=size),
                        itertools.product((-1, 0, 1), repeat=size)),
        SCHEDULE_PREFIX)
    for k in range(1, n + 1):
        for support in itertools.combinations(range(size), k):
            for values in itertools.product(range(1, n + 1), repeat=k):
                seed = [0] * size
                for index, value in zip(support, values):
                    seed[index] = value
                yield seed


def _over(rows, d: int = 1) -> tuple:
    """The int rows over d, as Fraction rows."""
    return tuple(tuple(Fraction(x, d) for x in row) for row in rows)


def _build_conjugator(d, forms, iota):
    """The first nonsingular average sum_p theta_bar(p) * B * iota(p)^-1
    over the seeds B of _seeds, as Fraction rows, for integer real forms
    d * theta_bar and signed permutations iota in the same element order
    with equal characters.  The walk always ends there (module
    docstring)."""
    n = len(forms[0])
    units = _unit_averages(forms, iota)
    for seed in _seeds(n):
        total = _combine(units, seed)
        rows = [total[i * n:(i + 1) * n] for i in range(n)]
        if int_det(rows):
            return _over(rows, d)


def _verified(g: CrystGroup, iota, a):
    """The witness (iota in point_elements order, A), re-verified."""
    witness = HyperoctahedralWitness(tuple(iota), a, tuple(zip(*a)))
    scale, defects = witness._defects(g)
    if not witness._holds(g, defects):
        raise WitnessCorruptionError(
            "constructed witness failed exact re-verification")
    object.__setattr__(witness, "verified", (g, scale, defects))
    return witness


def is_hyperoctahedral(g: CrystGroup):
    """Decide real conjugacy into O(n, Z); witness or certificate.

    Accepts with a HyperoctahedralWitness whose conjugation identity is
    re-verified exactly before returning, or rejects with the cheapest
    available RejectionCertificate.
    """
    n = g.dimension
    if n > DIMENSION_CAP:
        raise SizeCapError(
            "decision supported up to dimension %d, got %d" % (DIMENSION_CAP, n))
    validate(g)
    obstructions = quick_obstructions(g)
    if obstructions:
        first = min(obstructions,
                    key=lambda o: (o.kind != ORDER_OBSTRUCTION,))
        detail = {"element": matrix_to_json(first.element),
                  "element_order": first.order}
        if first.kind == ORDER_OBSTRUCTION:
            detail["realized_orders"] = list(first.realized)
        else:
            detail.update(
                determinant=first.determinant, trace=first.trace,
                realized_characters_at_order=[list(c) for c in first.realized])
        return RejectionCertificate(reason=first.kind, detail=detail)

    # Fast path: the generators' real forms are already signed
    # permutation matrices, hence so are all of them.  Taking iota =
    # theta_bar with the identity conjugator keeps the witness canonical
    # for groups built from signed permutation data (in particular every
    # stabilized group).
    d, forms = integer_real_forms(g)
    images = tuple(signed_permutation_of(forms[k], d)
                   for k in g.point_table().next[0])
    if None not in images:
        return _verified(g, _extend_assignment(g, images),
                         _over(identity(n)))

    candidate_lists = _candidate_images(g)
    tried = 0
    for images in itertools.product(*candidate_lists):
        tried += 1
        iota_list = _extend_assignment(g, images)
        if iota_list is not None:
            return _verified(g, iota_list,
                             _build_conjugator(d, forms, iota_list))

    return RejectionCertificate(
        reason=NO_EMBEDDING,
        detail={
            "generator_candidate_counts": [len(c) for c in candidate_lists],
            "assignments_tried": tried,
        })

