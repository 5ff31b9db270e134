"""Crystallographic groups: data model, validation, catalog, extensions.

A group is recorded in lattice coordinates: an exact lattice basis L
(columns are the lattice generators), one integer matrix per point-group
generator describing its action on lattice coordinates, and one rational
translation part per generator.  Matrices are Fraction rows and vectors
Fraction tuples; the constructor reads every entry with
exactlin.parse_rational, and the group file reader hands it the file's
entries as they are.  The real,
geometric form of a point element p is theta_bar(p) = L * M_p * L^-1,
computed once per group as the integer matrix d * theta_bar(p) for one
common scale d.

The point group itself is held as integer data (PointTable): the
elements as int rows (their only form), how each generator moves them,
and each element's order, determinant and trace.  One breadth-first
pass builds the elements, the successors and the determinants; the
orders are then walked on the successors, with no matrix product, and
per-element data are tuples in the same order.  PointTable.extend is
the one walk that carries generator images to every element: the
decider's embedding, the translation classes, a semidirect extension's
action and the action on wall classes all go through it.

Hexagonal entries use a rational stand-in basis.  Every decision made
downstream depends only on the integer matrices and their conjugacy
data (orders, traces, determinants), never on the irrational geometry
of a true hexagon, so any fixed rational basis with the right integer
action gives the same verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from cubecrys.exactlin import (
    RatMatrix,
    det,
    dimension_from_json,
    from_format,
    identity,
    int_det,
    int_mul,
    integral,
    inverse,
    json_array,
    matrix_from_json,
    matrix_to_json,
    read_json,
    vector_from_json,
    vector_to_json,
    write_json,
)

# |W(F4)|, the largest finite subgroup of GL(4, Z).  It bounds every
# point group in scope: dimension at most 4, and the groups built by
# semidirect_extend and stabilize, which are isomorphic to one of those
# (each checks that on its input's table and closes nothing).
CLOSURE_CAP = 1152

GROUP_FORMAT = "cubecrys-group/1"


class BasisError(ValueError):
    """The lattice basis is singular or the wrong shape."""


class LatticeInvarianceError(ValueError):
    """A point generator does not preserve the lattice (non-integer entry)."""


class StructureError(ValueError):
    """The generator data does not define a finite point group."""


class ExtensionError(ValueError):
    """A semidirect extension violates the point-group relations."""


class CatalogError(RuntimeError):
    """Embedded catalog data failed its own validation."""


class FormatError(ValueError):
    """A group file does not parse to the documented format."""


@dataclass(frozen=True)
class PointTable:
    """A point group as integer data, in breadth-first closure order.

    elements[k] is an integer matrix (a tuple of row tuples), identity
    first; next[k][j] is the index of elements[k] times generator j;
    words[k] lists the generators whose product, identity first, is
    elements[k] (the closure's path to it); order, det and trace hold
    the per-element invariants.
    """

    elements: tuple
    next: tuple
    words: tuple
    order: tuple
    det: tuple
    trace: tuple

    def extend(self, one, images, product):
        """Extend generator images to a value per element, or None.

        values[0] is one, and values[k * j] is product(values[k],
        images[j]) the first time element k * j is reached, compared
        with it every later time; a mismatch (None) means the images
        break a relation of the point group.  Breadth-first order sets
        values[k] before row k is walked.
        """
        values = [None] * len(self.elements)
        values[0] = one
        for k, row in enumerate(self.next):
            value = values[k]
            for image, target in zip(images, row):
                arrival = product(value, image)
                if values[target] is None:
                    values[target] = arrival
                elif values[target] != arrival:
                    return None
        return values


def _is_square(rows, n: int) -> bool:
    return len(rows) == n and all(len(row) == n for row in rows)


def _is_integer(rows) -> bool:
    return all(e.denominator == 1 for row in rows for e in row)


def _integer_generator(m, k: int, n: int) -> tuple:
    """Point generator k as int rows, once it is an n x n integer matrix."""
    if not _is_square(m, n):
        raise StructureError("point generator %d is not %dx%d" % (k, n, n))
    if not _is_integer(m):
        raise LatticeInvarianceError(
            "point generator %d has a non-integer entry; "
            "it does not preserve the lattice" % k)
    return tuple(tuple(int(e) for e in row) for row in m)


class CrystGroup:
    """A crystallographic group in lattice coordinates.

    The lattice basis and the point generators are Fraction rows and
    the translation parts Fraction tuples, read from any rows of ints,
    Fractions or strings; an entry that is a bool or a float raises
    ValueError, and so does a string or a dict in place of the list of
    generators or of translation parts.  Immutable after construction;
    the point table and the real forms are computed lazily, once, and
    cached.
    """

    def __init__(self, name, dimension, lattice_basis, point_generators,
                 translation_parts):
        self.name = str(name)
        self.dimension = dimension_from_json(dimension, StructureError)
        self.lattice_basis = matrix_from_json(lattice_basis)
        self.point_generators = tuple(map(matrix_from_json, json_array(
            point_generators, '"point_generators"')))
        self.translation_parts = tuple(map(vector_from_json, json_array(
            translation_parts, '"translation_parts"')))
        self._elements = None
        self._table = None
        self._real_int = None
        self._frozen = True

    def __setattr__(self, name, value):
        if getattr(self, "_frozen", False) and name not in (
                "_elements", "_table", "_real_int"):
            raise AttributeError("CrystGroup is immutable")
        object.__setattr__(self, name, value)

    def __repr__(self):
        return "CrystGroup(%r, dim=%d, %d generators)" % (
            self.name, self.dimension, len(self.point_generators))

    def _closure(self):
        if self._elements is not None:
            return
        n = self.dimension
        gens = [_integer_generator(m, k, n)
                for k, m in enumerate(self.point_generators)]
        gen_dets = [int_det(m) for m in gens]
        ident = identity(n)
        elements = [ident]
        words = [()]
        dets = [1]
        successors = []
        index = {ident: 0}
        for head, current in enumerate(elements):
            row = []
            for j, gen in enumerate(gens):
                product = int_mul(current, gen)
                target = index.get(product)
                if target is None:
                    if len(elements) >= CLOSURE_CAP:
                        raise StructureError(
                            "point group closure exceeded %d elements; "
                            "a generator has infinite order or the group "
                            "is out of scope" % CLOSURE_CAP)
                    target = index[product] = len(elements)
                    elements.append(product)
                    words.append(words[head] + (j,))
                    dets.append(dets[head] * gen_dets[j])
                row.append(target)
            successors.append(tuple(row))
        self._table = PointTable(
            elements=tuple(elements),
            next=tuple(successors),
            words=tuple(words),
            order=_orders(successors, words),
            det=tuple(dets),
            trace=tuple(sum(m[i][i] for i in range(n)) for m in elements),
        )
        # Set last, so a failed closure leaves it None.
        self._elements = self._table.elements

    def point_elements(self) -> tuple:
        """All point-group elements as int rows, identity first: the
        point table's elements tuple itself.

        The order is the deterministic breadth-first closure order and
        is shared by every per-element tuple in the package.
        """
        self._closure()
        return self._elements

    def point_table(self) -> PointTable:
        """The point group as integer data, in point_elements order."""
        self._closure()
        return self._table

    def point_group_order(self) -> int:
        return len(self.point_elements())


def _orders(successors, words) -> tuple:
    """Each element's order, walked on the point table.

    x * elements[k] is x moved along words[k] (PointTable.words)
    through successors, and the order of element k is the number of
    such moves from the identity (index 0) back to it.  A closed group
    bounds it by |P|; a singular generator can close to a finite set
    where no power of it is the identity, so the walk stops there.
    """
    bound = len(successors)
    orders = []
    for word in words:
        x = 0
        for k in range(1, bound + 1):
            for j in word:
                x = successors[x][j]
            if x == 0:
                orders.append(k)
                break
        else:
            raise StructureError(
                "an element has no power equal to the identity within %d "
                "steps; a generator is singular" % bound)
    return tuple(orders)


@dataclass(frozen=True)
class ValidationReport:
    name: str
    dimension: int
    point_group_order: int
    element_orders: tuple
    lattice_determinant: Fraction

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "dimension": self.dimension,
            "point_group_order": self.point_group_order,
            "element_orders": list(self.element_orders),
            "lattice_determinant": str(self.lattice_determinant),
        }


def validate(g: CrystGroup) -> ValidationReport:
    """Check the Bieberbach structure data and report the point group.

    Raises BasisError, LatticeInvarianceError or StructureError when the
    data does not describe a crystallographic group within scope.
    """
    n = g.dimension
    if not _is_square(g.lattice_basis, n):
        raise BasisError("lattice basis must be %dx%d" % (n, n))
    d = det(g.lattice_basis)
    if d == 0:
        raise BasisError("lattice basis is singular")
    if len(g.translation_parts) != len(g.point_generators):
        raise StructureError(
            "need one translation part per point generator (%d vs %d)"
            % (len(g.translation_parts), len(g.point_generators)))
    for k, m in enumerate(g.point_generators):
        d_gen = int_det(_integer_generator(m, k, n))
        if d_gen not in (1, -1):
            raise LatticeInvarianceError(
                "point generator %d has determinant %s, so its inverse "
                "does not preserve the lattice" % (k, d_gen))
    for k, t in enumerate(g.translation_parts):
        if len(t) != n:
            raise StructureError("translation part %d has length %d, want %d"
                                 % (k, len(t), n))
    table = g.point_table()
    _check_translations(g, table)
    return ValidationReport(
        name=g.name,
        dimension=n,
        point_group_order=len(table.elements),
        element_orders=tuple(sorted(table.order)),
        lattice_determinant=d,
    )


def _check_translations(g: CrystGroup, table: PointTable) -> None:
    """Extend the affine generators (M, t mod Z^n) along the point table.

    Translations are int tuples over their common denominator, and an
    element is the pair (k, u) of its point table index and translation
    class, with (k, u) * (j, t) = (k * j, M_k t + u mod Z^n).  The
    affine generators close to exactly |P| elements iff that extends to
    one class per point element.
    """
    denom, gens = integral(g.translation_parts)
    if denom == 1:
        return

    def product(value, image):
        k, u = value
        j, t = image
        return (table.next[k][j],
                tuple((sum(map(mul, row, t)) + x) % denom
                      for row, x in zip(table.elements[k], u)))

    if table.extend((0, (0,) * g.dimension), list(enumerate(gens)),
                    product) is None:
        raise StructureError(
            "translation parts do not fit the lattice: the affine "
            "generators close to more than %d elements modulo Z^%d"
            % (len(table.elements), g.dimension))


def integer_real_forms(g: CrystGroup) -> tuple:
    """(d, forms): forms[k] = d * theta_bar(p_k) as int rows, in
    point_elements order, for the least d >= 1 making every form
    integral: (eL) M_p (f L^-1) and e * f over the gcd of all their
    entries (forms[0] = d * I).  So the pair and the rational real forms
    determine each other.  Computed once per group and cached on it.
    """
    if g._real_int is None:
        e, lattice = integral(g.lattice_basis)
        f, lattice_inv = integral(inverse(g.lattice_basis))
        forms = tuple(int_mul(int_mul(lattice, m), lattice_inv)
                      for m in g.point_table().elements)
        h = math.gcd(e * f, *(x for m in forms for row in m for x in row))
        if h > 1:
            forms = tuple(tuple(tuple(x // h for x in row) for row in m)
                          for m in forms)
        g._real_int = (e * f // h, forms)
    return g._real_int


def point_group_real(g: CrystGroup) -> tuple:
    """The real forms theta_bar(p) = L M_p L^-1 as RatMatrix, in
    point_elements order: an uncached view of integer_real_forms, kept
    for the test oracles."""
    d, forms = integer_real_forms(g)
    return tuple(RatMatrix([[Fraction(x, d) for x in row] for row in m])
                 for m in forms)


def semidirect_extend(g: CrystGroup, m: int, action, name=None) -> CrystGroup:
    """Extend by m new lattice directions with a point-group action.

    action supplies one integer m x m matrix per point generator of g,
    as rows; the extended generators are block diagonal.  The action
    must extend along g's point table to a homomorphism, so that the
    extended point group is its graph and has g's order; the extended
    group's own closure is not built.
    """
    if m < 0:
        raise ExtensionError("cannot extend by a negative number of directions")
    if m == 0:
        return g
    if len(action) != len(g.point_generators):
        raise ExtensionError(
            "need one action matrix per point generator (%d vs %d)"
            % (len(action), len(g.point_generators)))
    action = [matrix_from_json(a) for a in action]
    for k, a in enumerate(action):
        if not _is_square(a, m):
            raise ExtensionError("action matrix %d is not %dx%d" % (k, m, m))
        if not _is_integer(a):
            raise ExtensionError("action matrix %d has non-integer entries" % k)
    images = [tuple(tuple(int(e) for e in row) for row in a) for a in action]
    if g.point_table().extend(identity(m), images, int_mul) is None:
        raise ExtensionError(
            "action violates the point-group relations: it does not "
            "extend along the %d elements of the base point group"
            % g.point_group_order())
    n = g.dimension
    return CrystGroup(
        name=name if name is not None else g.name + "-ext",
        dimension=n + m,
        lattice_basis=_block_diagonal(g.lattice_basis, identity(m)),
        point_generators=[_block_diagonal(gen, act)
                          for gen, act in zip(g.point_generators, action)],
        translation_parts=[t + (0,) * m for t in g.translation_parts],
    )


def _block_diagonal(a, b) -> tuple:
    """The square matrices a and b, given as rows, on the diagonal."""
    return (tuple(row + (0,) * len(b) for row in a)
            + tuple((0,) * len(a) + row for row in b))


# ---------------------------------------------------------------------------
# Group files


def group_to_json_dict(g: CrystGroup) -> dict:
    return {
        "format": GROUP_FORMAT,
        "name": g.name,
        "dimension": g.dimension,
        "lattice_basis": matrix_to_json(g.lattice_basis),
        "point_generators": [matrix_to_json(m) for m in g.point_generators],
        "translation_parts": [vector_to_json(t) for t in g.translation_parts],
    }


def group_from_json_dict(d: dict) -> CrystGroup:
    return from_format(d, GROUP_FORMAT, FormatError, lambda d: CrystGroup(
        name=d["name"],
        dimension=dimension_from_json(d["dimension"], FormatError),
        lattice_basis=d["lattice_basis"],
        point_generators=d["point_generators"],
        translation_parts=d["translation_parts"],
    ))


def save_group(g: CrystGroup, path) -> None:
    write_json(path, group_to_json_dict(g))


def load_group(path) -> CrystGroup:
    return group_from_json_dict(read_json(path, FormatError))


# ---------------------------------------------------------------------------
# Embedded catalog
#
# The 17 wallpaper groups with conventional generator choices from the
# public crystallographic tables, plus three worked 2- and 3-dimensional
# companions: W (the hexagonal Z^2 : Z_6 given by its rotation action),
# its untwisted stabilization ZxW, and the twisted extension Z:W where
# the order-6 generator also negates the new direction.

_SQUARE = [["1", "0"], ["0", "1"]]
# Rhombic stand-in: columns (1, 1/2) and (1, -1/2).
_RHOMBIC = [["1", "1"], ["1/2", "-1/2"]]
# Hexagonal stand-in: columns (1, 0) and (-1/2, 6/7).  Any positive
# rational in place of 6/7 gives the same integer point action.
_HEXAGONAL = [["1", "-1/2"], ["0", "6/7"]]

_R2 = [["-1", "0"], ["0", "-1"]]            # half turn
_MX = [["1", "0"], ["0", "-1"]]             # mirror fixing the x-axis
_R4 = [["0", "-1"], ["1", "0"]]             # quarter turn
_R3 = [["0", "-1"], ["1", "-1"]]            # third turn, hexagonal coords
_R6 = [["1", "-1"], ["1", "0"]]             # sixth turn, hexagonal coords
_SWAP = [["0", "1"], ["1", "0"]]            # swap the two lattice directions
_NEG_SWAP = [["0", "-1"], ["-1", "0"]]
_W_GEN = [["0", "-1"], ["1", "1"]]          # sixth turn written a->b->a^-1 b

_ZERO2 = ["0", "0"]

_CATALOG_DATA = [
    ("p1", _SQUARE, [], [], 1),
    ("p2", _SQUARE, [_R2], [_ZERO2], 2),
    ("pm", _SQUARE, [_MX], [_ZERO2], 2),
    ("pg", _SQUARE, [_MX], [["1/2", "0"]], 2),
    ("cm", _RHOMBIC, [_SWAP], [_ZERO2], 2),
    ("pmm", _SQUARE, [_MX, [["-1", "0"], ["0", "1"]]], [_ZERO2, _ZERO2], 4),
    ("pmg", _SQUARE, [_R2, _MX], [_ZERO2, ["1/2", "0"]], 4),
    ("pgg", _SQUARE, [_R2, _MX], [_ZERO2, ["1/2", "1/2"]], 4),
    ("cmm", _RHOMBIC, [_SWAP, _R2], [_ZERO2, _ZERO2], 4),
    ("p4", _SQUARE, [_R4], [_ZERO2], 4),
    ("p4m", _SQUARE, [_R4, _MX], [_ZERO2, _ZERO2], 8),
    ("p4g", _SQUARE, [_R4, _MX], [_ZERO2, ["1/2", "1/2"]], 8),
    ("p3", _HEXAGONAL, [_R3], [_ZERO2], 3),
    ("p3m1", _HEXAGONAL, [_R3, _NEG_SWAP], [_ZERO2, _ZERO2], 6),
    ("p31m", _HEXAGONAL, [_R3, _SWAP], [_ZERO2, _ZERO2], 6),
    ("p6", _HEXAGONAL, [_R6], [_ZERO2], 6),
    ("p6m", _HEXAGONAL, [_R6, _SWAP], [_ZERO2, _ZERO2], 12),
    ("W", _HEXAGONAL, [_W_GEN], [_ZERO2], 6),
]

# Point-group orders stated independently of the closure computation;
# validation cross-checks the enumeration against these.
CATALOG_POINT_ORDERS = {name: order for (name, _, _, _, order) in _CATALOG_DATA}
CATALOG_POINT_ORDERS["ZxW"] = 6
CATALOG_POINT_ORDERS["Z:W"] = 6

CATALOG_NAMES = [name for (name, _, _, _, _) in _CATALOG_DATA] + ["ZxW", "Z:W"]


def load_catalog() -> list:
    """The 17 wallpaper groups plus W, ZxW and Z:W, all validated."""
    return list(_catalog())


@lru_cache(maxsize=None)
def _catalog() -> tuple:
    """The catalog groups, built and validated once per process."""
    try:
        groups = [CrystGroup(name, 2, basis, gens, parts)
                  for name, basis, gens, parts, _ in _CATALOG_DATA]
        w = groups[-1]
        groups.append(semidirect_extend(w, 1, [[[1]]], name="ZxW"))
        groups.append(semidirect_extend(w, 1, [[[-1]]], name="Z:W"))
        for g in groups:
            order = validate(g).point_group_order
            if order != CATALOG_POINT_ORDERS[g.name]:
                raise CatalogError(
                    "catalog entry %s has point group order %d, expected %d"
                    % (g.name, order, CATALOG_POINT_ORDERS[g.name]))
    except (ValueError, TypeError) as exc:
        raise CatalogError("embedded catalog data is corrupt: %s" % exc) from exc
    return tuple(groups)


def catalog_entry(name: str) -> CrystGroup:
    """Look up one catalog group by name."""
    for g in _catalog():
        if g.name == name:
            return g
    raise KeyError("no catalog entry named %r" % name)
