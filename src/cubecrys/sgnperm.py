"""Signed permutations and the hyperoctahedron.

A signed permutation on n letters sends basis vector e_i to
signs[i] * e_{perm[i]}; these are exactly the orthogonal matrices with
entries in {0, 1, -1}, and they form the automorphism group of the
hyperoctahedron Q_n built below.  Q_n itself is the flag complex on
vertices (sign, axis) with an edge whenever the axes differ.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Hashable, Iterable, Sequence

ENUMERATION_CAP = 6
QN_CAP = 8


class SizeCapError(ValueError):
    """A requested dimension is beyond a supported cap."""


class LabelCollisionError(ValueError):
    """A join was attempted on complexes sharing vertex labels."""


class SignedPermutation:
    """A permutation of {1..n} together with one sign per letter.

    perm is stored as a tuple of images, 1-indexed: perm[i-1] is the
    image of letter i.  Composition follows matrix order, so
    (s * t).matrix() == s.matrix() * t.matrix() and the right factor
    acts first.
    """

    __slots__ = ("perm", "signs")

    def __init__(self, perm: Sequence[int], signs: Sequence[int]):
        perm = tuple(perm)
        signs = tuple(signs)
        n = len(perm)
        if sorted(perm) != list(range(1, n + 1)):
            raise ValueError("perm must be a bijection of 1..n, got %r" % (perm,))
        if len(signs) != n or any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +1/-1, one per letter")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "signs", signs)

    def __setattr__(self, name, value):
        raise AttributeError("SignedPermutation is immutable")

    @property
    def n(self) -> int:
        return len(self.perm)

    @staticmethod
    def identity(n: int) -> "SignedPermutation":
        return SignedPermutation(range(1, n + 1), (1,) * n)

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        """The product, built without __init__'s checks: a product of
        two signed permutations is always one."""
        if len(self.perm) != len(other.perm):
            raise ValueError("cannot compose signed permutations of different sizes")
        # (s*t)(e_i) = s(t.signs[i] e_{t.perm[i]})
        perm, signs = self.perm, self.signs
        return _unchecked(
            tuple([perm[i - 1] for i in other.perm]),
            tuple([sign * signs[i - 1]
                   for sign, i in zip(other.signs, other.perm)]))

    def is_identity(self) -> bool:
        return all(self.perm[i] == i + 1 and self.signs[i] == 1 for i in range(self.n))

    def order(self) -> int:
        power = self
        k = 1
        while not power.is_identity():
            power = power * self
            k += 1
        return k

    def determinant(self) -> int:
        sign = 1
        seen = [False] * self.n
        for start in range(self.n):
            if seen[start]:
                continue
            length = 0
            i = start
            while not seen[i]:
                seen[i] = True
                i = self.perm[i] - 1
                length += 1
            if length % 2 == 0:
                sign = -sign
        for s in self.signs:
            sign *= s
        return sign

    def trace(self) -> int:
        return sum(self.signs[i] for i in range(self.n) if self.perm[i] == i + 1)

    def sort_key(self):
        """Deterministic total order used for lexicographic tie-breaks."""
        return (self.perm, self.signs)

    def __eq__(self, other):
        return (
            isinstance(other, SignedPermutation)
            and self.perm == other.perm
            and self.signs == other.signs
        )

    def __hash__(self):
        return hash((self.perm, self.signs))

    def __repr__(self):
        return "SignedPermutation(perm=%r, signs=%r)" % (self.perm, self.signs)

    def to_json_dict(self) -> dict:
        return {"perm": list(self.perm), "signs": list(self.signs)}


_set_perm = SignedPermutation.perm.__set__
_set_signs = SignedPermutation.signs.__set__


def _unchecked(perm: tuple, signs: tuple) -> SignedPermutation:
    """The signed permutation (perm, signs), for tuples already known to
    be one, built without __init__'s checks."""
    s = object.__new__(SignedPermutation)
    _set_perm(s, perm)
    _set_signs(s, signs)
    return s


def enumerate_group(n: int) -> list[SignedPermutation]:
    """All 2^n * n! signed permutations on n letters, sorted."""
    if not 1 <= n <= ENUMERATION_CAP:
        raise SizeCapError("enumeration supported for 1 <= n <= %d" % ENUMERATION_CAP)
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            out.append(SignedPermutation(perm, signs))
    out.sort(key=SignedPermutation.sort_key)
    return out


def to_matrix(s: SignedPermutation) -> tuple:
    """The matrix sending e_i to signs[i] * e_{perm[i]}, as int rows."""
    n = s.n
    grid = [[0] * n for _ in range(n)]
    for i in range(n):
        grid[s.perm[i] - 1][i] = s.signs[i]
    return tuple(map(tuple, grid))


def times_signed_permutation(rows, s: SignedPermutation) -> tuple:
    """rows * to_matrix(s) for an integer matrix given as rows, by
    relabelling columns: column i of the product is signs[i] times
    column perm[i] of rows."""
    return tuple(tuple(sign * row[j - 1] for j, sign in zip(s.perm, s.signs))
                 for row in rows)


def signed_permutation_of(rows, scale=1):
    """The signed permutation whose matrix is rows / scale, for a matrix
    given as rows, or None (also when rows is not square)."""
    hits = [[(r + 1, x) for r, x in enumerate(col) if x] for col in zip(*rows)]
    if len(hits) != len(rows) or any(len(h) != 1 or abs(h[0][1]) != scale
                                     for h in hits):
        return None
    try:
        return SignedPermutation([h[0][0] for h in hits],
                                 [h[0][1] // scale for h in hits])
    except ValueError:  # two columns have their entry in one row
        return None


class SimplicialComplex:
    """A flag simplicial complex, stored as its 1-skeleton.

    Simplices above dimension one are never materialized; every clique
    of the graph counts as a simplex.  Vertex labels are arbitrary
    hashable values and are kept in a fixed order for determinism.
    """

    __slots__ = ("vertices", "edges", "_adjacency")

    def __init__(self, vertices: Iterable[Hashable], edges: Iterable[tuple]):
        verts = tuple(vertices)
        adjacency = {v: set() for v in verts}
        if len(adjacency) != len(verts):
            raise ValueError("duplicate vertex labels")
        canon = set()
        for a, b in edges:
            if a == b:
                raise ValueError("loop edge at %r" % (a,))
            if a not in adjacency or b not in adjacency:
                raise ValueError("edge endpoint %r is not a vertex" % ((a, b),))
            canon.add(frozenset((a, b)))
            adjacency[a].add(b)
            adjacency[b].add(a)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", frozenset(canon))
        object.__setattr__(self, "_adjacency", adjacency)

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    def neighbors(self, v) -> set:
        return set(self._adjacency[v])

    def cliques(self):
        """Every nonempty clique of the 1-skeleton, i.e. every simplex,
        generated one at a time."""
        index = {v: i for i, v in enumerate(self.vertices)}

        def extend(clique, candidates):
            for v in candidates:
                new_clique = clique + (v,)
                yield frozenset(new_clique)
                yield from extend(new_clique, [
                    u for u in candidates
                    if index[u] > index[v] and u in self._adjacency[v]
                ])

        return extend((), self.vertices)

    def f_vector(self) -> tuple:
        """Simplex counts by dimension: (vertices, edges, triangles, ...)."""
        counts = {}
        for c in self.cliques():
            d = len(c) - 1
            counts[d] = counts.get(d, 0) + 1
        if not counts:
            return ()
        return tuple(counts.get(d, 0) for d in range(max(counts) + 1))

    def relabel(self, mapping) -> "SimplicialComplex":
        """Apply a label mapping (a dict or callable) to every vertex."""
        fn = mapping if callable(mapping) else mapping.__getitem__
        verts = [fn(v) for v in self.vertices]
        edges = [(fn(a), fn(b)) for a, b in (tuple(e) for e in self.edges)]
        return SimplicialComplex(verts, edges)

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and set(self.vertices) == set(other.vertices)
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((frozenset(self.vertices), self.edges))

    def __repr__(self):
        return "SimplicialComplex(%d vertices, %d edges)" % (
            len(self.vertices), len(self.edges))

    def to_json_dict(self) -> dict:
        verts = list(self.vertices)
        index = {v: i for i, v in enumerate(verts)}
        edge_list = sorted(
            sorted((index[a], index[b])) for a, b in (tuple(e) for e in self.edges)
        )
        return {
            "vertices": [_label_to_json(v) for v in verts],
            "edges": [list(e) for e in edge_list],
        }


def _label_to_json(v):
    if isinstance(v, tuple):
        return [_label_to_json(x) for x in v]
    return v


def build_Qn(n: int) -> SimplicialComplex:
    """The hyperoctahedron Q_n.

    Vertices are the pairs (sign, axis); two vertices span an edge
    exactly when their axes differ, so each axis contributes a
    non-adjacent antipodal pair and the whole complex is the n-fold
    join of those pairs.
    """
    if not 1 <= n <= QN_CAP:
        raise SizeCapError("build_Qn supported for 1 <= n <= %d" % QN_CAP)
    vertices = [(s, i) for i in range(1, n + 1) for s in (1, -1)]
    edges = [
        (u, v)
        for u, v in itertools.combinations(vertices, 2)
        if u[1] != v[1]
    ]
    return SimplicialComplex(vertices, edges)


def simplicial_join(*complexes: SimplicialComplex) -> SimplicialComplex:
    """Join of complexes: every vertex is coned to every vertex of the
    other complexes."""
    vertices = [v for c in complexes for v in c.vertices]
    overlap = [v for v, count in Counter(vertices).items() if count > 1]
    if overlap:
        raise LabelCollisionError(
            "complexes share vertex labels %r; relabel before joining"
            % (sorted(overlap, key=repr),)
        )
    edges = [tuple(e) for c in complexes for e in c.edges]
    for k, a in enumerate(complexes):
        edges += [(u, v) for b in complexes[k + 1:]
                  for u in a.vertices for v in b.vertices]
    return SimplicialComplex(vertices, edges)


def qn_automorphism(s: SignedPermutation):
    """The vertex map of Q_n induced by a signed permutation.

    Sends (sign, axis) to (sign * signs[axis], perm[axis]); this is a
    graph automorphism of build_Qn(n) for every s.
    """
    def act(vertex):
        sign, axis = vertex
        return (sign * s.signs[axis - 1], s.perm[axis - 1])
    return act
