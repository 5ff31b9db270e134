"""The slow paths that the package's fast paths replaced, kept as the
tests' oracles.

Each oracle is the earlier implementation, over Fractions, RatMatrix or
stored edges where the package now runs on ints and bitmasks.  The test
modules compare the package with them; nothing in the package calls
them.  The sections follow the package's modules:

- exactlin: Fraction's string parser and the Fraction Gauss-Jordan
  inverse;
- crys and decide: the RatMatrix closure and order loop, the words
  extension of generator images, the affine closure of the translation
  parts, the RatMatrix real forms, the residual report by inverse and
  the seed-by-seed conjugator;
- walls: the per-element induced action, the class walk over RatMatrix
  real forms, and the Fraction side test, separation count, separation
  check and sample draw;
- dual: Fourier-Motzkin elimination and the Fraction window test, the
  one-call-per-side-pair wallspace test, the Fraction wall offset, the
  Fraction-path walls reader, the exhaustive 0-cube scan, the per-member
  clause-table loop, the cubic median scan, the frozenset duality
  round trip, the per-pair crossing scan, and the cube complex that
  stores its edges (StoredEdgeComplex) with its flip walk, whose walk
  inside a member set is the median-set check that the package's scan
  replaced;
- acceptance criterion 7: an exhaustive embedding oracle that shares no
  helper with the others.
"""

import itertools
import json
import math
import random
from fractions import Fraction
from operator import mul

from cubecrys.crys import CLOSURE_CAP, StructureError, point_group_real
from cubecrys.dual import (
    COMPLEX_FORMAT,
    WALL_CAP,
    WALLS_FORMAT,
    MembershipError,
    Orientation,
    WallCapError,
    WallspaceError,
    _extremes,
    _feasible,
)
from cubecrys.exactlin import (
    RatMatrix,
    ShapeError,
    SingularMatrixError,
    average_intertwiner,
    det,
    dimension_from_json,
    dump_json,
    format_rational,
    from_format,
    identity,
    int_mul,
    integral,
    inverse,
    json_array,
    matrix_to_json,
    parse_rational,
    vector_from_json,
    vector_to_json,
)
from cubecrys.sgnperm import (
    SignedPermutation,
    SimplicialComplex,
    enumerate_group,
)
from cubecrys.walls import (
    InternalError,
    LinearSeparationReport,
    PropertyViolationError,
    _primitive,
)


def trace(rows):
    """The trace of a square matrix given as rows."""
    return sum(rows[i][i] for i in range(len(rows)))


# ---------------------------------------------------------------------------
# exactlin


def fraction_parse(s) -> Fraction:
    """A grammar string '-?digits' or '-?digits/digits' as
    parse_rational read it before its int path: Fraction(s), with a
    zero denominator a ValueError.  Only for grammar strings: any other
    string may make Fraction expand an exponent such as '1e100000000'."""
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (s,)) from None


def fraction_inverse(rows) -> tuple:
    """The inverse by Gauss-Jordan elimination on Fractions, as
    exactlin.inverse computed it before it went fraction-free: the
    oracle, with the same SingularMatrixError text."""
    n = len(rows)
    aug = [[Fraction(e) for e in rows[i]]
           + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if aug[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            raise SingularMatrixError(
                "matrix is singular: determinant = %s"
                % format_rational(det(rows)))
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [e / pv for e in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [e - f * p for e, p in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


# ---------------------------------------------------------------------------
# crys and decide: the point table, the extension and the conjugator


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
               int(trace(gen.entries)))
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
        if iota[k].trace() != int(trace(p.entries)):
            return None
        if iota[k].determinant() != int(det(p.entries)):
            return None
        if iota[k].order() != ratmatrix_order(p, len(elements)):
            return None
    return iota


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
                     tuple((sum(map(mul, row, t)) + x) % 1
                           for row, x in zip(m, u)))
            if image not in seen:
                seen.add(image)
                elements.append(image)
    return len(elements)


def ratmatrix_real_forms(g):
    """L * M_p * L^-1 for every point element, by RatMatrix products."""
    basis = RatMatrix(g.lattice_basis)
    basis_inv = RatMatrix(inverse(g.lattice_basis))
    return tuple(basis * RatMatrix(m) * basis_inv
                 for m in g.point_elements())


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


# ---------------------------------------------------------------------------
# walls: the class walk, the induced action and the Fraction separation


def apply(m: RatMatrix, v) -> tuple:
    """m * v for a column vector v, as a tuple of Fractions."""
    if m.cols != len(v):
        raise ShapeError("matrix-vector size mismatch")
    return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0))
                 for row in m.entries)


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


def fraction_side(wall, point) -> int:
    """-1, 0 or +1 according to <normal, point> - offset, over
    Fractions: GeometricWall.side as it was, the reference for the
    wallspace's integer side test."""
    if len(point) != len(wall.normal):
        raise ShapeError("vector lengths differ: %d vs %d"
                         % (len(wall.normal), len(point)))
    value = sum(map(mul, wall.normal, point)) - wall.offset
    if value < 0:
        return -1
    if value > 0:
        return 1
    return 0


def fraction_dual_matrix(fam):
    """B^-1 as a RatMatrix, from the family's int rows e B^-1."""
    e, rows = fam.dual_matrix
    return RatMatrix([[Fraction(x, e) for x in row] for row in rows])


def pair_text(p, q):
    return "(%s)" % ", ".join(
        "[%s]" % ", ".join(map(format_rational, v)) for v in (p, q))


def _integers_strictly_between(a, b):
    if a == b:
        return 0
    lo, hi = (a, b) if a < b else (b, a)
    return max(0, math.ceil(hi) - math.floor(lo) - 1)


def fraction_separation(fam, p, q):
    """The separation count over the Fraction dual coordinates
    b_inv * p and b_inv * q."""
    b_inv = fraction_dual_matrix(fam)
    return sum(_integers_strictly_between(a, b)
               for a, b in zip(apply(b_inv, p), apply(b_inv, q)))


def fraction_check_linear_separation(g, fam, samples):
    """check_linear_separation with every quantity a Fraction."""
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample pair")
    n = g.dimension
    b_inv = fraction_dual_matrix(fam)
    max_norm_sq = max(sum(x * x for x in v) for v in fam.basis)
    worst = Fraction(0)
    for r1, r2 in samples:
        nu1 = apply(b_inv, r1)
        nu2 = apply(b_inv, r2)
        sep = sum(_integers_strictly_between(a, b) for a, b in zip(nu1, nu2))
        lhs = sum((a - b) ** 2 for a, b in zip(r1, r2))
        rhs = max_norm_sq * (sep + n) ** 2
        if lhs > rhs:
            raise PropertyViolationError(
                "separation bound failed for pair %s: %s > %s"
                % (pair_text(r1, r2), lhs, rhs))
        lower = sum(abs(a - b) for a, b in zip(nu1, nu2)) - n
        if sep < lower:
            raise PropertyViolationError(
                "separation undercount for pair %s: %d < %s"
                % (pair_text(r1, r2), sep, lower))
        ratio = lhs / rhs
        if ratio > worst:
            worst = ratio
    return LinearSeparationReport(
        pairs_checked=len(samples),
        worst_ratio=worst,
        max_basis_norm_sq=max_norm_sq,
        lower_bound_checked=True,
    )


def fraction_sample_pairs(n, count, seed):
    """The `cubulate` separation sample as Fraction pairs: seeded
    randrange numerators and denominators, point after point."""
    rng = random.Random(seed)

    def point():
        return tuple(Fraction(rng.randrange(-2000, 2001), rng.randrange(1, 8))
                     for _ in range(n))

    return [(point(), point()) for _ in range(count)]


# ---------------------------------------------------------------------------
# dual: the window test


def fourier_motzkin_feasible(constraints, nvars: int) -> bool:
    """The Fourier-Motzkin elimination that _feasible replaced.

    Each constraint is (coeffs, rhs, strict) for sum(c*x) <= / < rhs.
    Exact over Fractions.
    """
    cons = [(tuple(Fraction(c) for c in coeffs), Fraction(rhs), strict)
            for coeffs, rhs, strict in constraints]
    for var in range(nvars):
        pos, neg, rest = [], [], []
        for coeffs, rhs, strict in cons:
            c = coeffs[var]
            if c > 0:
                pos.append((coeffs, rhs, strict))
            elif c < 0:
                neg.append((coeffs, rhs, strict))
            else:
                rest.append((coeffs, rhs, strict))
        combined = rest
        for pc, pr, ps in pos:
            for nc, nr, ns in neg:
                a = pc[var]
                b = -nc[var]
                coeffs = tuple(pc[i] / a + nc[i] / b for i in range(nvars))
                combined.append((coeffs, pr / a + nr / b, ps or ns))
        cons = list(dict.fromkeys(combined))
    for _, rhs, strict in cons:
        if rhs < 0 or (strict and rhs == 0):
            return False
    return True


def fraction_feasible(window, f, g) -> bool:
    """The minimax test over Fractions that _feasible replaced.

    The window holds rational (lo, hi) pairs and f, g rational (a, b)
    pairs for <a, x> + b; the breaks t are Fractions.
    """
    (a, b), (c, d) = f, g
    breaks = {Fraction(ci, ci - ai) for ai, ci in zip(a, c) if ai * ci < 0}
    for t in (0, 1, *breaks):
        s = 1 - t
        value = t * b + s * d
        for ai, ci, (lo, hi) in zip(a, c, window):
            k = t * ai + s * ci
            value += k * (hi if k > 0 else lo)
        if value <= 0:
            return False
    return True


def sides_compatible(ws, i, si, j, sj) -> bool:
    """Do side si of wall i and side sj of wall j meet in ws's window?
    The FiniteWallspace method that the two-call clause table replaced:
    one _feasible call per side pair, reading its first verdict only."""
    if i == j:
        return si == sj
    return _feasible(ws._box, ws._sides[i][si], ws._sides[j][sj])[0]


def fraction_wall_offset(normal, offset):
    """GeometricWall's offset by the Fraction formula that the int
    rescaling replaced: the offset times e / x, for the first nonzero
    entries e of the canonical normal and x of the given one."""
    normal = tuple(map(Fraction, normal))
    for e, x in zip(_primitive(normal), normal):
        if e != 0:
            return Fraction(offset) * (e / x)


def fraction_halfspace(wall, side):
    """Side 1 (plus) or 0 (minus) of a wall as rational (a, b)."""
    if side:
        return wall.normal, -wall.offset
    return tuple(-e for e in wall.normal), wall.offset


def fraction_base_sides(walls, point):
    """The base point's bit per wall by the Fraction side test, or the
    first wall it lies on."""
    sides = [fraction_side(w, point) for w in walls]
    if 0 in sides:
        return walls[sides.index(0)]
    return [int(side > 0) for side in sides]


def brute_force_masks(ws):
    """Every pairwise-consistent side choice, by exhaustive scan."""
    nwalls = len(ws.walls)
    found = set()
    for bits in range(1 << nwalls):
        if all(sides_compatible(ws, i, bits >> i & 1, j, bits >> j & 1)
               for i in range(nwalls) for j in range(i + 1, nwalls)):
            found.add(bits)
    return found


def fraction_geometric_wall(normal, offset) -> tuple:
    """(normal, offset) of GeometricWall as the Fraction path built it:
    the entries read by parse_rational, the normal made primitive from
    its Fractions, and the offset rescaled by the first nonzero entries
    of the canonical normal and the given one."""
    normal = vector_from_json(normal)
    offset = parse_rational(offset)
    canonical = _primitive(normal)
    e, x = next((e, x) for e, x in zip(canonical, normal) if e)
    return canonical, Fraction(offset.numerator * e * x.denominator,
                               offset.denominator * x.numerator)


def _wall_repr(wall) -> str:
    normal, offset = wall
    return "GeometricWall(<%s, x> = %s)" % (
        ", ".join(format_rational(e) for e in normal),
        format_rational(offset))


def fraction_wallspace_slots(d) -> dict:
    """The slots of the FiniteWallspace that the Fraction-path reader
    built from a walls file's dict, each wall as (normal, offset), or
    the exception it raised.

    Each entry went through parse_rational, the window through
    integral() on Fractions, and the checks compared Fractions: the
    window bounds, the walls by their Fraction hash, and the base point
    against the window before it was scaled by the lcm of the
    denominators of scale times it."""

    def build(d):
        n = dimension_from_json(d["dimension"], WallspaceError)
        window = d["window"]
        walls = tuple(fraction_geometric_wall(w["normal"], w["offset"])
                      for w in json_array(d["walls"], '"walls"'))
        point = d["base_point"]
        window = tuple((lo, hi) for lo, hi in map(vector_from_json, window))
        point = vector_from_json(point)
        if len(walls) > WALL_CAP:
            raise WallCapError("at most %d walls supported, got %d"
                               % (WALL_CAP, len(walls)))
        if len(window) != n:
            raise WallspaceError("window must give one (lo, hi) pair per "
                                 "axis")
        for lo, hi in window:
            if not lo < hi:
                raise WallspaceError("degenerate window interval [%s, %s]"
                                     % (lo, hi))
        scale, box = integral(window)
        if len(set(walls)) != len(walls):
            raise WallspaceError("walls must be pairwise distinct "
                                 "after canonicalization")
        sides = []
        for wall in walls:
            normal, offset = wall
            if len(normal) != n:
                raise WallspaceError("wall normal has wrong dimension")
            p, q = offset.numerator, offset.denominator
            a = tuple(q * e for e in normal)
            sides.append(((tuple(-e for e in a), scale * p), (a, -scale * p)))
            top, bottom = _extremes(box, sides[-1][1])
            if not top > 0 > bottom:
                raise WallspaceError("wall %s does not split the window"
                                     % _wall_repr(wall))
        if len(point) != n:
            raise WallspaceError("base point has wrong dimension")
        for (lo, hi), x in zip(window, point):
            if not (lo <= x <= hi):
                raise WallspaceError("base point lies outside the window")
        c, (ints,) = integral(([x * scale for x in point],))
        base = 0
        for i, (wall, (_, (a, b))) in enumerate(zip(walls, sides)):
            value = sum(map(mul, a, ints)) + b * c
            if value == 0:
                raise WallspaceError("base point lies on wall %s"
                                     % _wall_repr(wall))
            if value > 0:
                base |= 1 << i
        return {"dimension": n, "window": window, "walls": walls,
                "base_point": point, "_box": box, "_sides": tuple(sides),
                "_base": base}

    return from_format(d, WALLS_FORMAT, WallspaceError, build)


# ---------------------------------------------------------------------------
# dual: complexes read through their public members


def complex_json(c) -> dict:
    """The complex file of a walked dual or a StoredEdgeComplex, read
    back: json.loads of dump_json's text, edges as [u, v] lists."""
    chunks = []
    dump_json(c.to_json_dict(), chunks.append)
    return json.loads("".join(chunks))


def zero_cubes(c) -> list:
    """The 0-cubes of a walked dual or a StoredEdgeComplex as
    Orientations, in index order, read off its complex file."""
    return [Orientation.from_bitstring(s)
            for s in complex_json(c)["zero_cubes"]]


def listed_zero_cubes(bits, nwalls: int) -> list:
    """The strings of bitmasks over nwalls walls, one bin() each: for a
    walked dual's c._bits, the list CubeComplex.to_json_dict put under
    "zero_cubes" before it rendered them from digit columns."""
    return [bin(b | 1 << nwalls)[:2:-1] for b in bits]


def edge_triples(c) -> tuple:
    """Every edge (u, v, wall) of a walked dual or a StoredEdgeComplex,
    u < v, in sorted order, read off its complex file."""
    d = complex_json(c)
    bits = [Orientation.from_bitstring(s).bits for s in d["zero_cubes"]]
    return tuple((u, v, (bits[u] ^ bits[v]).bit_length() - 1)
                 for u, v in d["edges"])


def crossed_walls(c):
    """The walls that label some edge of c, sorted."""
    return sorted({wall for _, _, wall in edge_triples(c)})


def bfs_distances(c, start: int) -> list:
    """Breadth-first distances from 0-cube `start` along the edges of c,
    a walked dual or a StoredEdgeComplex; -1 marks an unreached 0-cube.
    A real search over c.neighbors, not a count of separating walls."""
    dist = [-1] * c.vertex_count()
    dist[start] = 0
    queue = [start]
    for at in queue:
        step = dist[at] + 1
        for nb in c.neighbors(at).values():
            if dist[nb] < 0:
                dist[nb] = step
                queue.append(nb)
    return dist


def degree_sequence(c) -> tuple:
    """The sorted vertex degrees of a SimplicialComplex."""
    return tuple(sorted(len(c.neighbors(v)) for v in c.vertices))


# ---------------------------------------------------------------------------
# dual: the median check, the duality round trip and crossing walls


def cubic_is_median_graph(c):
    """The vertex-triple scan that is_median_graph replaced.

    For every vertex triple, the wallwise majority must be a vertex
    lying on graph geodesics between each of the three pairs.  Uses
    breadth-first distances, so it does not presuppose that graph
    distance equals wall-counting distance.
    """
    count = c.vertex_count()
    bits_list = [o.bits for o in zero_cubes(c)]
    index = c._index
    dist = [bfs_distances(c, i) for i in range(count)]
    for i in range(count):
        bi = bits_list[i]
        for j in range(i, count):
            bj = bits_list[j]
            dij = dist[i][j]
            for k in range(j, count):
                bk = bits_list[k]
                m = (bi & bj) | (bi & bk) | (bj & bk)
                at = index.get(m)
                if at is None:
                    return False
                if dist[i][at] + dist[at][j] != dij:
                    return False
                if dist[i][at] + dist[at][k] != dist[i][k]:
                    return False
                if dist[j][at] + dist[at][k] != dist[j][k]:
                    return False
    return True


def frozenset_duality_check(c):
    """The hyperplane round trip that duality_check replaced.

    Each realized wall splits the 0-cube indices into two side classes,
    kept as frozensets, and two sides are compatible when their classes
    intersect.  The consistent orientations are found by breadth-first
    flipping from 0-cube 0's sides, with no bound on how far the walk
    goes, and compared with the 0-cubes projected onto the realized
    walls: vertex sets, then labelled edge sets.
    """
    realized = crossed_walls(c)
    n = len(realized)
    cubes = zero_cubes(c)
    sides = [(frozenset(k for k, o in enumerate(cubes)
                        if not o.bits >> wall & 1),
              frozenset(k for k, o in enumerate(cubes)
                        if o.bits >> wall & 1))
             for wall in realized]
    meet = {(p, s, q, t): bool(sides[p][s] & sides[q][t])
            for p in range(n) for q in range(n) for s in (0, 1)
            for t in (0, 1)}

    def project(bits):
        return sum(1 << p for p, wall in enumerate(realized)
                   if bits >> wall & 1)

    start = project(cubes[0].bits)
    queue, found, edges = [start], {start}, set()
    for bits in queue:
        for p in range(n):
            flipped = bits ^ 1 << p
            if all(meet[p, flipped >> p & 1, q, flipped >> q & 1]
                   for q in range(n) if q != p):
                edges.add((min(bits, flipped), max(bits, flipped), p))
                if flipped not in found:
                    found.add(flipped)
                    queue.append(flipped)
    vertices = {project(o.bits) for o in cubes}
    position = {wall: p for p, wall in enumerate(realized)}
    original_edges = set()
    for u, v, wall in edge_triples(c):
        bu, bv = project(cubes[u].bits), project(cubes[v].bits)
        original_edges.add((min(bu, bv), max(bu, bv), position[wall]))
    return (len(vertices) == c.vertex_count() and found == vertices
            and edges == original_edges)


def looped_member_clauses(members, nwalls: int) -> list:
    """dual._member_clauses by the loop it replaced: one Python step per
    member and wall, ORing each member into the side-pair masks of its
    side on each wall.  Any number of walls."""
    full = (1 << nwalls) - 1
    # ok[j][s][t] has bit k set when some member has side s on wall j
    # and side t on wall k.
    ok = [[[0, 0], [0, 0]] for _ in range(nwalls)]
    for bits in members:
        for j, row in enumerate(ok):
            seen = row[bits >> j & 1]
            seen[0] |= full & ~bits
            seen[1] |= bits
    return [[(full & ~t0, full & ~t1) for t0, t1 in row] for row in ok]


def counted_edges_is_median_graph(c):
    """The verdict that counted the bounded walk's edges.

    The walk inside the 0-cubes lists every hypercube edge between
    them, and c must carry them all."""
    walk = stored_edge_walk(
        looped_member_clauses(c._index, c.num_walls), zero_cubes(c)[0].bits,
        within=c._index)
    return walk is not None and len(walk[1]) == c.edge_count()


def walls_cross_by_scan(c, i, j):
    """The per-pair scan that union_orientation used to run.

    Two walls cross when all four side combinations occur.
    """
    seen = set()
    for o in zero_cubes(c):
        seen.add((o.bits >> i & 1, o.bits >> j & 1))
        if len(seen) == 4:
            return True
    return False


def per_wall_rows(bits, nwalls):
    """The induced edges [u, v] (u < v), sorted, found by one index
    lookup per 0-cube and wall."""
    index = {b: k for k, b in enumerate(bits)}
    return sorted([u, v] for u, b in enumerate(bits)
                  for j in range(nwalls)
                  if (v := index.get(b ^ 1 << j, -1)) > u)


# ---------------------------------------------------------------------------
# dual: the cube complex that stores its edges
#
# StoredEdgeComplex is the complex as dual.py built it before a complex
# became its 0-cube list: one Orientation per 0-cube, one adjacency dict
# per vertex and the sorted, deduplicated edge triples; stored_edge_dual
# is the flip walk that appended each edge it found.  It is also the
# one complex that may leave out induced edges: the tests build
# hand-made and edge-dropped complexes as StoredEdgeComplex, and
# is_median_complex judges them by the walk inside their 0-cubes
# (walked_is_median_set) plus the check for left-out edges.


class StoredEdgeComplex:
    """0-cubes, single-wall edges, and the implicit flag structure.

    Vertices are indexed in discovery order; edges are triples
    (u, v, wall) with u < v.
    """

    def __init__(self, num_walls, orientations, edges, wallspace=None):
        orientations = tuple(orientations)
        if not orientations:
            raise ValueError("a complex needs at least one 0-cube")
        bits = [o.bits for o in orientations]
        index = dict(zip(bits, range(len(bits))))
        if len(index) != len(bits):
            raise ValueError("duplicate 0-cubes")
        if any(o.n != num_walls for o in orientations):
            raise ValueError("orientation width differs from wall count")
        canon_edges = []
        adjacency = [{} for _ in bits]
        for u, v, wall in edges:
            if not (0 <= u < len(bits) and 0 <= v < len(bits)):
                raise ValueError("edge (%d, %d) has an endpoint outside "
                                 "the %d 0-cubes" % (u, v, len(bits)))
            if bits[u] ^ bits[v] != 1 << wall:
                raise ValueError(
                    "edge (%d, %d) does not flip exactly wall %d" % (u, v, wall))
            if u > v:
                u, v = v, u
            canon_edges.append((u, v, wall))
            adjacency[u][wall] = v
            adjacency[v][wall] = u
        seen = bytearray(len(bits))
        seen[0] = 1
        stack = [0]
        while stack:
            for nb in adjacency[stack.pop()].values():
                if not seen[nb]:
                    seen[nb] = 1
                    stack.append(nb)
        if 0 in seen:
            raise ValueError("1-skeleton is not connected")
        self.num_walls = num_walls
        self.orientations = orientations
        self.edges = tuple(dict.fromkeys(sorted(canon_edges)))
        self.wallspace = wallspace
        self._index = index
        self._adjacency = adjacency

    def vertex_count(self) -> int:
        return len(self.orientations)

    def edge_count(self) -> int:
        return len(self.edges)

    def index_of(self, x: Orientation) -> int:
        if x.n != self.num_walls or x.bits not in self._index:
            raise MembershipError(
                "orientation %r is not a 0-cube of this complex" % (x,))
        return self._index[x.bits]

    def neighbors(self, idx: int) -> dict:
        return dict(self._adjacency[idx])

    def to_json_dict(self) -> dict:
        if self.wallspace is not None:
            walls_json = [w.to_json_dict() for w in self.wallspace.walls]
        else:
            walls_json = []
        return {
            "format": COMPLEX_FORMAT,
            "walls": walls_json,
            "zero_cubes": [o.to_bitstring() for o in self.orientations],
            "edges": [[u, v] for u, v, _ in self.edges],
        }


def stored_edge_walk(forbid, start, within=None):
    """(queue, edges): the flip walk that lists each flip (u, v, j) with
    u < v once, or None once it leaves `within`."""
    flips = [(j, 1 << j, rules) for j, rules in enumerate(forbid)]
    queue = [start]
    index = {start: 0}
    edges = []
    for head, bits in enumerate(queue):
        for j, bit, rules in flips:
            flipped = bits ^ bit
            rule0, rule1 = rules[1] if flipped & bit else rules[0]
            if flipped & rule1 or ~flipped & rule0:
                continue
            v = index.get(flipped)
            if v is None:
                if within is not None and flipped not in within:
                    return None
                v = index[flipped] = len(queue)
                queue.append(flipped)
            if v > head:
                edges.append((head, v, j))
    return queue, edges


def window_clauses(ws):
    """(forbid, base): the clause table of ws's pairwise side tests, in
    _flip_closure's layout, and the base point's bitmask by the
    Fraction side test."""
    nwalls = len(ws.walls)
    forbid = [[[0, 1 << j], [1 << j, 0]] for j in range(nwalls)]
    for i in range(nwalls):
        for j in range(i + 1, nwalls):
            for si in (0, 1):
                for sj in (0, 1):
                    if not sides_compatible(ws, i, si, j, sj):
                        forbid[i][si][sj] |= 1 << j
                        forbid[j][sj][si] |= 1 << i
    base = sum(1 << i for i, w in enumerate(ws.walls)
               if fraction_side(w, ws.base_point) > 0)
    return forbid, base


def stored_edge_dual(ws) -> StoredEdgeComplex:
    """The dual of ws with every edge the walk found stored."""
    nwalls = len(ws.walls)
    queue, edges = stored_edge_walk(*window_clauses(ws))
    return StoredEdgeComplex(nwalls, [Orientation(b, nwalls) for b in queue],
                             edges, wallspace=ws)


def stored_is_median_graph(c: StoredEdgeComplex) -> bool:
    """The linear median check on the stored edges."""
    closure = stored_edge_walk(
        looped_member_clauses(c._index, c.num_walls),
        c.orientations[0].bits, within=c._index)
    return closure is not None and len(closure[1]) == c.edge_count()


def stored_link_of_vertex(c: StoredEdgeComplex, v: Orientation):
    """The flag complex of edges at v, read off the adjacency dicts."""
    at = c.index_of(v)
    adjacent = c.neighbors(at)
    flippable = sorted(adjacent)
    edges = []
    for a in range(len(flippable)):
        for b in range(a + 1, len(flippable)):
            i, j = flippable[a], flippable[b]
            corner = v.bits ^ (1 << i) ^ (1 << j)
            if corner not in c._index:
                continue
            corner_idx = c._index[corner]
            ni, nj = adjacent[i], adjacent[j]
            if (c._adjacency[ni].get(j) == corner_idx
                    and c._adjacency[nj].get(i) == corner_idx):
                edges.append((i, j))
    return SimplicialComplex(flippable, edges)


def left_out_edges(c) -> set:
    """The pairs (u, v, wall), u < v, of c's 0-cubes that differ on one
    wall but are not an edge of c."""
    bits = [o.bits for o in zero_cubes(c)]
    induced = {(u, v, j) for u, b in enumerate(bits)
               for j in range(c.num_walls)
               if (v := c._index.get(b ^ 1 << j, -1)) > u}
    return induced - set(edge_triples(c))


def walked_is_median_set(members, nwalls) -> bool:
    """The median-set check that dual.is_median_set's scan replaced:
    the flip walk of the members' own clause table, from one member,
    never leaves them.  Any number of walls."""
    return stored_edge_walk(looped_member_clauses(members, nwalls),
                            next(iter(members)),
                            within=members) is not None


def is_median_complex(c) -> bool:
    """The median verdict on any complex: no induced edge left out, and
    the 0-cubes a median set by walked_is_median_set."""
    return not left_out_edges(c) and walked_is_median_set(c._index,
                                                          c.num_walls)


# ---------------------------------------------------------------------------
# Acceptance criterion 7: an independent exhaustive embedding oracle
#
# It reuses nothing of the classifier's search and no helper of the
# oracles above: signed permutation matrices as raw integer tuples, its
# own product of them, and the group file's generators as RatMatrix.


def signed_perm_matrices(n):
    """All 2^n n! signed permutation matrices as integer tuples."""
    mats = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            rows = [[0] * n for _ in range(n)]
            for col in range(n):
                rows[perm[col]][col] = signs[col]
            mats.append(tuple(tuple(r) for r in rows))
    return mats


def raw_int_mul(a, b):
    """The product of two square integer tuples."""
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def extend_generator_images(g, gen_images):
    """Breadth-first extension of a generator assignment, or None.

    Walks every (element, generator) product once, so a returned map is
    a genuine homomorphism on the whole point group.
    """
    n = g.dimension
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    img = {RatMatrix(ident): ident}
    frontier = [RatMatrix(ident)]
    while frontier:
        fresh = []
        for a in frontier:
            for gen, image in zip(g.point_generators, gen_images):
                b = a * RatMatrix(gen)
                bb = raw_int_mul(img[a], image)
                if b in img:
                    if img[b] != bb:
                        return None
                else:
                    img[b] = bb
                    fresh.append(b)
        frontier = fresh
    return img


def embedding_exists(g):
    """Is some injective homomorphism into O(n,Z) real-conjugate to the
    point action?  Trace equality on every element decides conjugacy,
    and the trace of the real form equals the trace of the integer
    matrix, so the scan needs nothing beyond the group file data."""
    candidates = signed_perm_matrices(g.dimension)
    order = g.point_group_order()
    for assignment in itertools.product(candidates,
                                        repeat=len(g.point_generators)):
        img = extend_generator_images(g, assignment)
        if img is None or len(img) != order:
            continue
        if len(set(img.values())) != order:
            continue
        if all(sum(m[i][i] for i in range(len(m)))
               == sum(p.entries[i][i] for i in range(len(m)))
               for p, m in img.items()):
            return True
    return False
