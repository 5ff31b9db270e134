"""Boundaries at infinity for products of elementary cube complexes.

Each factor is one of four one-or-zero dimensional shapes: a point, a
half-line, a line, or a regular tree.  The boundary of a product is
the simplicial join of the factors' boundaries, so products of lines
and half-lines have small finite boundaries (paths, cycles,
hyperoctahedra) that can be checked exactly, while any tree factor
makes the answer an infinite discrete set, which is kept symbolic
rather than truncated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from cubecrys.sgnperm import (
    QN_CAP,
    SimplicialComplex,
    SizeCapError,
    build_Qn,
    simplicial_join,
)

ISOMORPHISM_CAP = 32

INFINITE_DISCRETE = "infinite-discrete"

POINT = "Point"
HALF_LINE = "HalfLine"
LINE = "Line"
REGULAR_TREE = "RegularTree"


@dataclass(frozen=True)
class FactorDescriptor:
    """One elementary factor of a product complex."""

    kind: str
    valence: int | None = None

    def __post_init__(self):
        if self.kind not in (POINT, HALF_LINE, LINE, REGULAR_TREE):
            raise ValueError("unknown factor kind %r" % (self.kind,))
        if self.kind == REGULAR_TREE:
            if self.valence is None or self.valence < 3:
                raise ValueError("tree valence must be an integer >= 3, "
                                 "got %r" % (self.valence,))
        elif self.valence is not None:
            raise ValueError("%s takes no valence" % self.kind)

    def __str__(self):
        if self.kind == REGULAR_TREE:
            return "RegularTree(%d)" % self.valence
        return self.kind


_ATOM_RE = re.compile(r"^(point|halfline|line)$", re.IGNORECASE)
_TREE_RE = re.compile(r"^(?:regulartree|tree)\((\d+)\)$", re.IGNORECASE)

_CANONICAL = {"point": POINT, "halfline": HALF_LINE, "line": LINE}


def parse_factor(token: str) -> FactorDescriptor:
    token = token.strip()
    m = _ATOM_RE.match(token)
    if m:
        return FactorDescriptor(_CANONICAL[m.group(1).lower()])
    m = _TREE_RE.match(token)
    if m:
        return FactorDescriptor(REGULAR_TREE, int(m.group(1)))
    raise ValueError(
        "cannot parse factor %r; expected Point, HalfLine, Line, or "
        "RegularTree(k) with k >= 3" % (token,))


def parse_product(expression: str) -> list:
    """Parse a '*'-separated factor expression like 'Line*Line*HalfLine'."""
    tokens = expression.split("*")
    if not any(t.strip() for t in tokens):
        raise ValueError("empty factor expression")
    return [parse_factor(t) for t in tokens]


class BoundaryDescriptor:
    """A boundary: a finite complex, or a formal join with symbolic parts.

    Purely finite data is coalesced into a single complex.  As soon as
    an infinite-discrete part appears the join stays formal; nothing
    ever converts a symbolic part into finite data.
    """

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        for p in parts:
            if p != INFINITE_DISCRETE and not isinstance(p, SimplicialComplex):
                raise ValueError("boundary part must be a SimplicialComplex "
                                 "or the %r tag" % (INFINITE_DISCRETE,))
        if all(isinstance(p, SimplicialComplex) for p in parts) and len(parts) > 1:
            parts = (simplicial_join(*(
                p.relabel(lambda lab, _k=k: (_k, lab))
                for k, p in enumerate(parts))),)
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("BoundaryDescriptor is immutable")

    @property
    def is_finite(self) -> bool:
        return all(isinstance(p, SimplicialComplex) for p in self.parts)

    def as_complex(self) -> SimplicialComplex:
        if not self.is_finite:
            raise ValueError("boundary involves an infinite discrete part "
                             "and has no finite complex form")
        return self.parts[0]

    def describe(self) -> str:
        labels = []
        for p in self.parts:
            if p == INFINITE_DISCRETE:
                labels.append(INFINITE_DISCRETE)
            else:
                labels.append("complex(%d vertices, %d edges)"
                              % (len(p.vertices), len(p.edges)))
        return " * ".join(labels)

    def __eq__(self, other):
        return (isinstance(other, BoundaryDescriptor)
                and self.parts == other.parts)

    def __repr__(self):
        return "BoundaryDescriptor(%s)" % self.describe()


_EMPTY = SimplicialComplex((), ())


def atomic_boundary(f: FactorDescriptor) -> BoundaryDescriptor:
    """Boundary of a single factor.

    A point is bounded, a half-line has one end, a line has two, and a
    regular tree has infinitely many pairwise non-adjacent ones.
    """
    if f.kind == POINT:
        return BoundaryDescriptor((_EMPTY,))
    if f.kind == HALF_LINE:
        return BoundaryDescriptor((SimplicialComplex(("end",), ()),))
    if f.kind == LINE:
        return BoundaryDescriptor(
            (SimplicialComplex(("end-", "end+"), ()),))
    return BoundaryDescriptor((INFINITE_DISCRETE,))


def product_boundary(factors) -> BoundaryDescriptor:
    """Join the atomic boundaries of a nonempty factor list.

    Finite parts are relabeled with their factor position before
    joining, so repeated factors never collide.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("factor list must be nonempty")
    parts = []
    for i, f in enumerate(factors):
        atom = atomic_boundary(f)
        for p in atom.parts:
            if p == INFINITE_DISCRETE:
                parts.append(p)
            else:
                parts.append(p.relabel(lambda lab, _i=i: (_i, lab)))
    return BoundaryDescriptor(parts)


def boundary_of_Rn(n: int) -> SimplicialComplex:
    """Boundary of the product of n lines, as a finite flag complex.

    Isomorphic to the n-th hyperoctahedron: each line contributes an
    opposite pair of ends, and ends from distinct lines span joins.
    """
    if not 1 <= n <= QN_CAP:
        raise ValueError("dimension must be between 1 and %d, got %d"
                         % (QN_CAP, n))
    return product_boundary([FactorDescriptor(LINE)] * n).as_complex()


def _adjacency_sets(c: SimplicialComplex):
    index = {v: i for i, v in enumerate(c.vertices)}
    adj = [set() for _ in c.vertices]
    for e in c.edges:
        u, v = tuple(e)
        adj[index[u]].add(index[v])
        adj[index[v]].add(index[u])
    return adj


def is_isomorphic(a: SimplicialComplex, b: SimplicialComplex) -> bool:
    """Decide graph isomorphism of two flag complexes' 1-skeleta.

    Backtracking over degree-refined candidate lists; fine for the
    hyperoctahedra and boundary complexes this package produces, and
    capped rather than pretending to scale.
    """
    na, nb = len(a.vertices), len(b.vertices)
    if na > ISOMORPHISM_CAP or nb > ISOMORPHISM_CAP:
        raise SizeCapError(
            "isomorphism check capped at %d vertices, got %d and %d"
            % (ISOMORPHISM_CAP, na, nb))
    if na != nb or len(a.edges) != len(b.edges):
        return False
    adj_a = _adjacency_sets(a)
    adj_b = _adjacency_sets(b)

    def signature(adj, i):
        return (len(adj[i]), tuple(sorted(len(adj[j]) for j in adj[i])))

    sig_a = [signature(adj_a, i) for i in range(na)]
    sig_b = [signature(adj_b, i) for i in range(nb)]
    if sorted(sig_a) != sorted(sig_b):
        return False

    by_sig_b = {}
    for j, s in enumerate(sig_b):
        by_sig_b.setdefault(s, []).append(j)

    # Most-constrained first: rare signatures, then high degree.
    order = sorted(range(na),
                   key=lambda i: (len(by_sig_b[sig_a[i]]), -len(adj_a[i])))
    mapping = [-1] * na
    used = [False] * nb

    def extend(pos: int) -> bool:
        if pos == na:
            return True
        i = order[pos]
        for j in by_sig_b[sig_a[i]]:
            if used[j]:
                continue
            consistent = True
            for k in range(pos):
                i2 = order[k]
                if (i2 in adj_a[i]) != (mapping[i2] in adj_b[j]):
                    consistent = False
                    break
            if not consistent:
                continue
            mapping[i] = j
            used[j] = True
            if extend(pos + 1):
                return True
            mapping[i] = -1
            used[j] = False
        return False

    return extend(0)
