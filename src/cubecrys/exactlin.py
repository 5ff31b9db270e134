"""Exact rational scalars and matrices as plain rows.

`Rational` is the standard library `fractions.Fraction`: it already
guarantees lowest terms, a positive denominator and arbitrary-precision
integer arithmetic, which is the entire contract we need from a scalar.
A vector is a tuple and a matrix is a tuple of row tuples, of ints or
Fractions; every rational entry that comes from a file or a library
constructor is read by parse_rational, which refuses bools and floats.
Point-group elements are int rows (crys.PointTable), as the integer
kernels take.  RatMatrix survives only as the type of the test oracles
and of average_intertwiner.  The JSON forms of rationals and the one
read/write path for the package's file formats live here too.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import repeat
from operator import and_, eq, mul, rshift

Rational = Fraction


class ShapeError(ValueError):
    """Operand dimensions do not fit the requested operation."""


class SingularMatrixError(ZeroDivisionError):
    """Inversion was attempted on a matrix with vanishing determinant."""


def format_rational(x) -> str:
    """Serialize as 'p/q', or plain 'p' when the denominator is 1, which
    is str of an int or of a Fraction."""
    return str(x if type(x) is int else parse_rational(x))


# One shared Fraction each for 0, 1 and -1, read from an int or a
# string; Fractions are immutable, so sharing them is safe.
_SHARED = {k: Fraction(k) for k in (0, 1, -1)}
_SHARED.update({str(k): f for k, f in _SHARED.items()})


def parse_rational(s) -> Fraction:
    """The one reader of a rational entry: a Fraction, an int that is
    not a bool, or a string like '3/4'.  Inverse of format_rational.
    0, 1 and -1, as ints or strings, give one shared Fraction each."""
    if type(s) is int:
        shared = _SHARED.get(s)
        return Fraction(s) if shared is None else shared
    if isinstance(s, Fraction):
        return s
    if isinstance(s, str):
        shared = _SHARED.get(s)
        if shared is not None:
            return shared
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % (s,)) from None
    raise ValueError("not a serialized rational: %r" % (s,))


def identity(n: int) -> tuple:
    """The n x n identity as int rows."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _square(rows, what: str) -> int:
    """The size n of an n x n matrix given as rows; ShapeError if not
    square."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ShapeError("%s of a non-square matrix" % what)
    return n


def det(rows) -> Fraction:
    """Exact determinant of a square matrix given as rows of ints or
    Fractions, by Bareiss fraction-free elimination on the integral
    multiple d * rows, so every intermediate division is exact."""
    n = _square(rows, "determinant")
    d, ints = integral(rows)
    return Fraction(int_det(ints), d ** n)


def integral(rows):
    """(d, ints): the least d >= 1 with d * rows integral, and d * rows
    as a tuple of int row tuples, for rows of ints or Fractions."""
    d = math.lcm(*(e.denominator for row in rows for e in row))
    return d, tuple(tuple(e.numerator * (d // e.denominator) for e in row)
                    for row in rows)


def int_mul(a, b) -> tuple:
    """Product of two integer matrices given as rows of ints."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def int_det(rows) -> int:
    """Determinant of a square integer matrix (rows of ints), by Bareiss."""
    a = [list(row) for row in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def inverse(rows) -> tuple:
    """Exact inverse of a square matrix given as rows of ints or
    Fractions, as Fraction rows, by Gauss-Jordan elimination."""
    n = _square(rows, "inverse")
    aug = [[Fraction(e) for e in rows[i]] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
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


def vector_to_json(v) -> list:
    return [format_rational(e) for e in v]


def json_array(data, what: str):
    """data itself where a JSON array belongs: a string or a dict is
    refused (ValueError naming `what`), not iterated as no items or as
    its characters or keys."""
    if isinstance(data, (str, dict)):
        raise ValueError("%s must be an array, not a %s"
                         % (what, type(data).__name__))
    return data


def vector_from_json(data) -> tuple:
    """A vector as a tuple of Fractions, each entry read by
    parse_rational; a string or a dict is refused, not iterated."""
    return tuple(map(parse_rational, json_array(data, "a vector")))


def matrix_to_json(rows) -> list:
    """Row-major 'p/q' strings, from rows of ints or Fractions."""
    return [[format_rational(e) for e in row] for row in rows]


def matrix_from_json(data) -> tuple:
    """A matrix as Fraction rows, each entry read by parse_rational;
    ShapeError if it has no row, no column or ragged rows."""
    grid = tuple(map(vector_from_json, data))
    if not grid:
        raise ShapeError("matrix needs at least one row")
    width = len(grid[0])
    if width == 0:
        raise ShapeError("matrix needs at least one column")
    if any(len(row) != width for row in grid):
        raise ShapeError("ragged rows in matrix literal")
    return grid


_LEAF_ENCODERS = {}
# Exact types only: a subclass of a scalar type takes the slow path.
_SCALAR_TYPES = {str, int, float, bool, type(None)}


def _leaf_encode(pad: str):
    """The C encoder's `encode`, with `pad` after every item separator."""
    encode = _LEAF_ENCODERS.get(pad)
    if encode is None:
        encode = _LEAF_ENCODERS[pad] = json.JSONEncoder(
            separators=("," + pad, ": ")).encode
    return encode


class IndexPairs(Sequence):
    """Read-only rows [u, v] of indices below count, held as keys
    u << shift | v (count <= 2 ** shift) and each made when read.

    It equals a list of the same rows, and a slice is a list of rows,
    as for the list it stands in for.  json_text renders it from the
    keys without making the rows; json.dumps needs default=list.
    """

    __slots__ = ("_keys", "_count", "_shift")

    def __init__(self, keys, count: int, shift: int):
        self._keys = keys
        self._count = count
        self._shift = shift

    def __len__(self):
        return len(self._keys)

    def __getitem__(self, k):
        shift = self._shift
        mask = (1 << shift) - 1
        if isinstance(k, slice):
            keys = self._keys[k]
            return list(map(list, zip(map(rshift, keys, repeat(shift)),
                                      map(and_, keys, repeat(mask)))))
        key = self._keys[k]
        return [key >> shift, key & mask]

    def __eq__(self, other):
        if not isinstance(other, (list, IndexPairs)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self):
        return "IndexPairs(%r, %r, %r)" % (self._keys, self._count,
                                           self._shift)


def json_text(obj) -> str:
    """Exactly json.dumps(obj, indent=2, sort_keys=True), only faster.

    An `indent` makes `json` fall back to its pure-Python encoder.  Here
    dicts and lists are walked in Python, but a list of scalars goes to
    the C encoder in one call, with the newline and indent carried in
    its item separator.  An IndexPairs is one join over its keys.
    """
    out = []
    _emit(obj, "\n", out.append)
    return "".join(out)


def _emit(obj, pad: str, put) -> None:
    """Append the indent-2 text of obj, nested at indent `pad`, to put."""
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError("keys must be str, int, float, bool or "
                                    "None, not %s" % type(key).__name__)
                key = _leaf_encode("")(key)
            put(sep + _leaf_encode("")(key) + ": ")
            _emit(value, inner, put)
            sep = "," + inner
        put(pad + "}")
    elif isinstance(obj, IndexPairs):
        _emit_pairs(obj, pad, put)
    elif not isinstance(obj, (list, tuple)):
        put(_leaf_encode("")(obj))
    elif not obj:
        put("[]")
    elif set(map(type, obj)) <= _SCALAR_TYPES:
        put("[" + inner + _leaf_encode(inner)(obj)[1:-1] + pad + "]")
    else:
        sep = "[" + inner
        for value in obj:
            put(sep)
            _emit(value, inner, put)
            sep = "," + inner
        put(pad + "]")


def _emit_pairs(pairs: IndexPairs, pad: str, put) -> None:
    """Emit the rows of pairs in one join over two string tables.

    Row u's head is str(u) and the item break; row v's tail is str(v)
    and the break to the next row.  The keys pick a head and a tail
    each, and the last break is cut.
    """
    keys, count, shift = pairs._keys, pairs._count, pairs._shift
    if not keys:
        put("[]")
        return
    row_pad = pad + "  "
    item_pad = row_pad + "  "
    step = "," + row_pad + "[" + item_pad
    heads = [s + "," + item_pad for s in map(str, range(count))]
    tails = [s + row_pad + "]" + step for s in map(str, range(count))]
    flat = [None] * (2 * len(keys))
    flat[0::2] = map(heads.__getitem__, map(rshift, keys, repeat(shift)))
    flat[1::2] = map(tails.__getitem__, map(and_, keys,
                                            repeat((1 << shift) - 1)))
    put("[" + row_pad + "[" + item_pad + "".join(flat)[:-len(step)]
        + pad + "]")


def write_json(path, data) -> None:
    """Write a file format's JSON form: sorted keys, indent 2, newline."""
    text = json_text(data)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def read_json(path, error):
    """Parse a JSON file; a syntax error raises `error` with its position."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error("not valid JSON at line %d column %d: %s"
                        % (exc.lineno, exc.colno, exc.msg)) from exc


def from_format(d, tag: str, error, build):
    """build(d) for a JSON object whose "format" is tag.

    A wrong tag, a missing key or a malformed value raises `error`, the
    file format's own error class; an `error` raised by build passes
    through unchanged.
    """
    if not isinstance(d, dict) or d.get("format") != tag:
        raise error("unsupported format %r (expected %r)"
                    % (d.get("format") if isinstance(d, dict) else d, tag))
    try:
        return build(d)
    except error:
        raise
    except KeyError as exc:
        raise error("%s file is missing key %s" % (tag, exc)) from exc
    except (ValueError, TypeError) as exc:
        raise error("malformed %s file: %s" % (tag, exc)) from exc


def dimension_from_json(value, error) -> int:
    """A "dimension", from a file or a constructor: a JSON integer, not a
    bool, at least 1."""
    if type(value) is not int or value < 1:
        raise error("dimension must be an integer >= 1, got %s"
                    % json.dumps(value))
    return value


# ---------------------------------------------------------------------------
# The test oracles' matrix type


class RatMatrix:
    """An immutable rows x cols matrix of Fractions: the test oracles'
    type, and average_intertwiner's.  Nothing else in the package
    builds one."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows_of_entries):
        grid = matrix_from_json(rows_of_entries)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", len(grid[0]))
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    @staticmethod
    def zeros(rows: int, cols: int) -> "RatMatrix":
        return RatMatrix([[0] * cols for _ in range(rows)])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        return isinstance(other, RatMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(("RatMatrix", self.entries))

    def __repr__(self):
        body = "; ".join(
            ", ".join(format_rational(e) for e in row) for row in self.entries
        )
        return "RatMatrix[%s]" % body

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("matrix shapes differ in addition")
        return RatMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(
                "cannot multiply %dx%d by %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        cols = tuple(zip(*other.entries))
        return RatMatrix(
            [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols]
             for row in self.entries]
        )


def average_intertwiner(
    theta_images: Sequence[RatMatrix],
    iota_images: Sequence[RatMatrix],
    seed_b: RatMatrix,
) -> RatMatrix:
    """Group-average a seed into an intertwiner of two representations.

    Given two matrix lists enumerating the same finite group in matching
    element order, returns A = sum over p of theta(p) * seed * iota(p)^-1.
    The sum always satisfies A * iota(q) = theta(q) * A for every group
    element q, whether or not A happens to be invertible; an unlucky seed
    can produce a singular A and the caller simply retries with another.
    """
    if len(theta_images) != len(iota_images):
        raise ShapeError(
            "group enumerations differ in length: %d vs %d"
            % (len(theta_images), len(iota_images))
        )
    if not theta_images:
        raise ShapeError("a group enumeration cannot be empty")
    n = theta_images[0].rows
    for t, i in zip(theta_images, iota_images):
        if not (t.is_square() and i.is_square() and t.rows == n and i.rows == n):
            raise ShapeError("all group images must be square of one size")
    if not (seed_b.is_square() and seed_b.rows == n):
        raise ShapeError("seed does not match the representation dimension")
    total = RatMatrix.zeros(n, n)
    for t, i in zip(theta_images, iota_images):
        total = total + t * seed_b * RatMatrix(inverse(i.entries))
    return total
