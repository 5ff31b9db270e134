"""Exact rational scalars, vectors and matrices.

`Rational` is the standard library `fractions.Fraction`: it already
guarantees lowest terms, a positive denominator and arbitrary-precision
integer arithmetic, which is the entire contract we need from a scalar.
The vector and matrix wrappers below are immutable; they carry the
rationals of file IO, the reports and the conjugator.  Point-group
elements are int rows (crys.PointTable), as the integer kernels take.
The JSON forms of rationals and the one read/write path for the
package's file formats live here too.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import repeat
from operator import eq, floordiv, mod, mul
from typing import Iterable, Union

Rational = Fraction

Scalar = Union[int, Fraction]


class ShapeError(ValueError):
    """Operand dimensions do not fit the requested operation."""


class SingularMatrixError(ZeroDivisionError):
    """Inversion was attempted on a matrix with vanishing determinant."""


def rat(x) -> Fraction:
    """Coerce an int, string like '3/4', or Fraction to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError("expected an exact rational, got %r" % (x,))


def format_rational(x: Fraction) -> str:
    """Serialize as 'p/q', or plain 'p' when the denominator is 1."""
    x = rat(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def parse_rational(s) -> Fraction:
    """Inverse of format_rational; also takes plain ints, not bools."""
    if type(s) is int:
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % (s,)) from None
    raise ValueError("not a serialized rational: %r" % (s,))


class RatVector:
    """An immutable vector of Fractions."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Scalar]):
        object.__setattr__(self, "entries", tuple(rat(e) for e in entries))

    def __setattr__(self, name, value):
        raise AttributeError("RatVector is immutable")

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        return isinstance(other, RatVector) and self.entries == other.entries

    def __hash__(self):
        return hash(("RatVector", self.entries))

    def __repr__(self):
        return "RatVector([%s])" % ", ".join(format_rational(e) for e in self.entries)


class RatMatrix:
    """An immutable rows x cols matrix of Fractions."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows_of_entries: Sequence[Sequence[Scalar]]):
        grid = tuple(tuple(rat(e) for e in row) for row in rows_of_entries)
        if not grid:
            raise ShapeError("matrix needs at least one row")
        width = len(grid[0])
        if width == 0:
            raise ShapeError("matrix needs at least one column")
        if any(len(row) != width for row in grid):
            raise ShapeError("ragged rows in matrix literal")
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "RatMatrix":
        return RatMatrix([[0] * cols for _ in range(rows)])

    @staticmethod
    def from_columns(cols: Sequence[RatVector]) -> "RatMatrix":
        if not cols:
            raise ShapeError("need at least one column")
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise ShapeError("columns of unequal length")
        return RatMatrix([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    @staticmethod
    def block_diagonal(blocks: Sequence["RatMatrix"]) -> "RatMatrix":
        size = sum(b.rows for b in blocks)
        if any(b.rows != b.cols for b in blocks):
            raise ShapeError("block_diagonal wants square blocks")
        grid = [[Fraction(0)] * size for _ in range(size)]
        at = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    grid[at + i][at + j] = b.entries[i][j]
            at += b.rows
        return RatMatrix(grid)

    # -- basic queries ------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def column(self, j: int) -> RatVector:
        return RatVector(self.entries[i][j] for i in range(self.rows))

    def columns(self) -> list[RatVector]:
        return [self.column(j) for j in range(self.cols)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_integer(self) -> bool:
        return all(e.denominator == 1 for row in self.entries for e in row)

    def is_identity(self) -> bool:
        return self.is_square() and all(
            self.entries[i][j] == (1 if i == j else 0)
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def trace(self) -> Fraction:
        if not self.is_square():
            raise ShapeError("trace of a non-square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), Fraction(0))

    def transpose(self) -> "RatMatrix":
        return RatMatrix([[self.entries[i][j] for i in range(self.rows)]
                          for j in range(self.cols)])

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(("RatMatrix", self.entries))

    def __repr__(self):
        body = "; ".join(
            ", ".join(format_rational(e) for e in row) for row in self.entries
        )
        return "RatMatrix[%s]" % body

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("matrix shapes differ in addition")
        return RatMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __mul__(self, other):
        if isinstance(other, RatMatrix):
            if self.cols != other.rows:
                raise ShapeError(
                    "cannot multiply %dx%d by %dx%d"
                    % (self.rows, self.cols, other.rows, other.cols)
                )
            ot = other.transpose().entries
            return RatMatrix(
                [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in ot]
                 for row in self.entries]
            )
        if isinstance(other, RatVector):
            if self.cols != len(other):
                raise ShapeError("matrix-vector size mismatch")
            return RatVector(
                sum((a * b for a, b in zip(row, other)), Fraction(0))
                for row in self.entries
            )
        return NotImplemented


def det(m: RatMatrix) -> Fraction:
    """Exact determinant by Bareiss fraction-free elimination on the
    integral multiple d * m, so every intermediate division is exact."""
    if not m.is_square():
        raise ShapeError("determinant of a non-square matrix")
    d, rows = integral(m.entries)
    return Fraction(int_det(rows), d ** m.rows)


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


def inverse(m: RatMatrix) -> RatMatrix:
    """Exact inverse by Gauss-Jordan elimination over the rationals."""
    if not m.is_square():
        raise ShapeError("inverse of a non-square matrix")
    n = m.rows
    aug = [list(m.entries[i]) + [Fraction(1 if i == j else 0) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if aug[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            d = det(m)
            raise SingularMatrixError(
                "matrix is singular: determinant = %s" % format_rational(d)
            )
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [e / pv for e in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [e - f * p for e, p in zip(aug[r], aug[col])]
    return RatMatrix([row[n:] for row in aug])


def vector_to_json(v: RatVector) -> list:
    return [format_rational(e) for e in v]


def vector_from_json(data) -> RatVector:
    return RatVector(parse_rational(e) for e in data)


def matrix_to_json(rows) -> list:
    """Row-major 'p/q' strings, from rows of ints or Fractions."""
    return [[format_rational(e) for e in row] for row in rows]


def matrix_from_json(data) -> RatMatrix:
    return RatMatrix([[parse_rational(e) for e in row] for row in data])


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
    u * count + v and each made when read.

    It equals a list of the same rows, and a slice is a list of rows,
    as for the list it stands in for.  json_text renders it from the
    keys without making the rows; json.dumps needs default=list.
    """

    __slots__ = ("_keys", "_count")

    def __init__(self, keys, count: int):
        self._keys = keys
        self._count = count

    def __len__(self):
        return len(self._keys)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return list(map(list, map(divmod, self._keys[k],
                                      repeat(self._count))))
        return list(divmod(self._keys[k], self._count))

    def __eq__(self, other):
        if not isinstance(other, (list, IndexPairs)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self):
        return "IndexPairs(%r, %r)" % (self._keys, self._count)


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
    keys, count = pairs._keys, pairs._count
    if not keys:
        put("[]")
        return
    row_pad = pad + "  "
    item_pad = row_pad + "  "
    step = "," + row_pad + "[" + item_pad
    heads = [s + "," + item_pad for s in map(str, range(count))]
    tails = [s + row_pad + "]" + step for s in map(str, range(count))]
    flat = [None] * (2 * len(keys))
    flat[0::2] = map(heads.__getitem__, map(floordiv, keys, repeat(count)))
    flat[1::2] = map(tails.__getitem__, map(mod, keys, repeat(count)))
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
        total = total + t * seed_b * inverse(i)
    return total
