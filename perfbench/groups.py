"""Hand-written point groups and integer-matrix helpers for the benchmark.

Generators are written in the crystallographic coordinate-triplet
notation: "-y,x,z" is the linear map (x, y, z) -> (-y, x, z).  Matrices
are tuples of integer row tuples, so nothing here depends on cubecrys.
"""

from __future__ import annotations

import re
from math import gcd

_VARS = "xyzw"
# closure() gives up beyond this many elements, so that a wrong report
# cannot keep a check running; the largest group here, B4, has 384.
_CLOSURE_CAP = 2000
_TERM = re.compile(r"([+-]?)([xyzw])")


def parse_op(op: str) -> tuple:
    """The integer matrix of a coordinate triplet such as "x-y,x,z"."""
    parts = op.split(",")
    n = len(parts)
    rows = []
    for part in parts:
        row = [0] * n
        pos = 0
        for m in _TERM.finditer(part.replace(" ", "")):
            if m.start() != pos:
                raise ValueError("bad coordinate expression %r" % part)
            row[_VARS.index(m.group(2))] += -1 if m.group(1) == "-" else 1
            pos = m.end()
        if pos != len(part.replace(" ", "")):
            raise ValueError("bad coordinate expression %r" % part)
        rows.append(tuple(row))
    return tuple(rows)


def identity(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mul(a: tuple, b: tuple) -> tuple:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in a)


def trace(a: tuple) -> int:
    return sum(a[i][i] for i in range(len(a)))


def det(a: tuple) -> int:
    """Integer determinant by Laplace expansion (n <= 4 here)."""
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j]:
            minor = tuple(row[:j] + row[j + 1:] for row in a[1:])
            total += (-1) ** j * a[0][j] * det(minor)
    return total


def closure(gens, n: int) -> list:
    """All products of the generators, identity first (breadth first)."""
    ident = identity(n)
    elements = [ident]
    seen = {ident}
    head = 0
    while head < len(elements):
        for g in gens:
            p = mul(elements[head], g)
            if p not in seen:
                if len(elements) >= _CLOSURE_CAP:
                    raise ValueError("closure exceeded %d elements"
                                     % _CLOSURE_CAP)
                seen.add(p)
                elements.append(p)
        head += 1
    return elements


def order(a: tuple) -> int:
    ident = identity(len(a))
    power, k = a, 1
    while power != ident:
        power = mul(power, a)
        k += 1
    return k


def canonical_line(v) -> tuple:
    """Primitive integer vector spanning the line through v, sign fixed."""
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    v = tuple(x // g for x in v)
    for x in v:
        if x:
            return v if x > 0 else tuple(-y for y in v)
    raise ValueError("zero vector")


def apply(a: tuple, v) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def line_orbit_count(elements, vectors) -> int:
    """Number of lines in the orbits of the given vectors' lines."""
    return len({canonical_line(apply(p, v)) for p in elements for v in vectors})


# The 32 geometric crystal classes of dimension 3: (Hermann-Mauguin
# symbol, generators, point-group order, hexagonal axes?).  Every
# non-hexagonal class is written with signed permutations (trigonal
# classes in rhombohedral axes, threefold axis along (1, 1, 1)), so it
# is a subgroup of B3 by construction.  The seven hexagonal classes use
# hexagonal axes and contain a sixfold rotation (trace 2) or rotoinversion
# (trace -2), which no order-6 signed permutation of rank 3 realizes.
CRYSTAL_CLASSES_3D = [
    ("1", [], 1, False),
    ("-1", ["-x,-y,-z"], 2, False),
    ("2", ["-x,-y,z"], 2, False),
    ("m", ["x,y,-z"], 2, False),
    ("2/m", ["-x,-y,z", "-x,-y,-z"], 4, False),
    ("222", ["-x,-y,z", "-x,y,-z"], 4, False),
    ("mm2", ["-x,-y,z", "-x,y,z"], 4, False),
    ("mmm", ["-x,-y,z", "-x,y,-z", "-x,-y,-z"], 8, False),
    ("4", ["-y,x,z"], 4, False),
    ("-4", ["y,-x,-z"], 4, False),
    ("4/m", ["-y,x,z", "-x,-y,-z"], 8, False),
    ("422", ["-y,x,z", "x,-y,-z"], 8, False),
    ("4mm", ["-y,x,z", "-x,y,z"], 8, False),
    ("-42m", ["y,-x,-z", "x,-y,-z"], 8, False),
    ("4/mmm", ["-y,x,z", "x,-y,-z", "-x,-y,-z"], 16, False),
    ("3", ["z,x,y"], 3, False),
    ("-3", ["-z,-x,-y"], 6, False),
    ("32", ["z,x,y", "-y,-x,-z"], 6, False),
    ("3m", ["z,x,y", "y,x,z"], 6, False),
    ("-3m", ["z,x,y", "-y,-x,-z", "-x,-y,-z"], 12, False),
    ("6", ["x-y,x,z"], 6, True),
    ("-6", ["-x+y,-x,-z"], 6, True),
    ("6/m", ["x-y,x,z", "-x,-y,-z"], 12, True),
    ("622", ["x-y,x,z", "y,x,-z"], 12, True),
    ("6mm", ["x-y,x,z", "-y,-x,z"], 12, True),
    ("-6m2", ["-x+y,-x,-z", "-y,-x,z"], 12, True),
    ("6/mmm", ["x-y,x,z", "y,x,-z", "-x,-y,-z"], 24, True),
    ("23", ["z,x,y", "-x,-y,z"], 12, False),
    ("m-3", ["z,x,y", "-x,-y,z", "-x,-y,-z"], 24, False),
    ("432", ["z,x,y", "-y,x,z"], 24, False),
    ("-43m", ["z,x,y", "y,-x,-z"], 24, False),
    ("m-3m", ["z,x,y", "-y,x,z", "-x,-y,-z"], 48, False),
]

# Subgroups of B4 written with signed permutations: accepted by
# construction.  (name, generators, order, workloads).  Each workload
# takes the ones that fit a pass of a few seconds: the classify search
# on the three-generator C4wrC2.m takes about 11 s.
SUBGROUPS_B4 = [
    ("C4xC4", ["-y,x,z,w", "x,y,-w,z"], 16, ("classify", "cubulate")),
    ("C4wrC2", ["-y,x,z,w", "z,w,x,y"], 32, ("classify",)),
    ("C4wrC2.m", ["-y,x,z,w", "z,w,x,y", "y,x,w,z"], 64, ("cubulate",)),
    ("C4wrC2.t", ["-y,x,z,w", "z,-w,x,y"], 64, ("classify",)),
    ("C3xC2^2", ["y,z,x,w", "x,y,z,-w", "-x,-y,-z,w"], 12, ("classify",)),
    ("C4.p", ["y,z,w,x"], 4, ("classify",)),
    ("C6", ["y,z,x,-w"], 6, ("classify",)),
    ("D4.p", ["y,z,w,x", "w,z,y,x"], 8, ("classify",)),
    ("C4xC2", ["-y,x,z,w", "x,y,-z,w"], 8, ("classify",)),
    ("C2^2.p", ["y,x,w,z", "z,w,x,y"], 4, ("classify",)),
]

# W(D4), order 192: permutations and even sign changes of four
# coordinates.  It preserves the D4 lattice (integer vectors with even
# coordinate sum), spanned by the columns D4_BASIS.
WD4_GENERATORS = ["y,x,z,w", "x,z,y,w", "x,y,w,z", "-y,-x,z,w"]
D4_BASIS = ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 1, 1))

# B4, order 384: all signed permutations of four coordinates.
B4_GENERATORS = ["y,x,z,w", "y,z,w,x", "-x,y,z,w"]
B4_ORDER = 384
