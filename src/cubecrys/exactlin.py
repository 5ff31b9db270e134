"""Exact rational scalars and matrices as plain rows.

A vector is a tuple and a matrix is a tuple of row tuples, of ints or
Fractions; every rational entry that comes from a file or a library
constructor is read by parse_rational, or as an int pair by
rational_pair, which both refuse bools and floats and read a string
only in the grammar format_rational writes, an ASCII '-?digits' or
'-?digits/digits' with a nonzero denominator, so no input string
reaches Fraction's own parser.
Point-group elements are int rows (crys.PointTable), as the integer
kernels take.  RatMatrix survives only as the type of the test oracles
and of average_intertwiner, and as a target of perfbench's tracer
(RatMatrix.__mul__).  The JSON forms of rationals and the one
read/write path for the package's file formats live here too.
"""

from __future__ import annotations

import io
import json
import math
import reprlib
import sys
from fractions import Fraction
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import add, mul


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
    """The one reader of a rational entry as a Fraction: a Fraction, an
    int that is not a bool, or a string in the grammar format_rational
    writes (_string_ints).  Inverse of format_rational.  0, 1 and -1,
    as ints or strings, give one shared Fraction each.  Any other value
    is a ValueError naming it (_not_rational)."""
    if isinstance(s, str):
        shared = _SHARED.get(s)
        if shared is not None:
            return shared
        p, q = _string_ints(s)
        return Fraction(p) if q == 1 else Fraction(p, q)
    if type(s) is int:
        shared = _SHARED.get(s)
        return Fraction(s) if shared is None else shared
    if isinstance(s, Fraction):
        return s
    raise _not_rational(s)


def rational_pair(s) -> tuple:
    """(p, q), q >= 1 and coprime to p: the value parse_rational reads
    from s, as two ints, under the same grammar and messages."""
    if isinstance(s, str):
        p, q = _string_ints(s)
        if q == 1:
            return p, 1
        g = math.gcd(p, q)
        return p // g, q // g
    if type(s) is int:
        return s, 1
    if isinstance(s, Fraction):
        return s.numerator, s.denominator
    raise _not_rational(s)


def _string_ints(s: str) -> tuple:
    """(p, q), q >= 1, not reduced, of a string in the grammar
    format_rational writes: an ASCII '-?digits' or '-?digits/digits'
    with a nonzero denominator.  Every other string is a ValueError
    quoting it cut to QUOTE_CHARS characters, and so is a numeral past
    int()'s digit limit; no string reaches Fraction's own parser, which
    would expand an exponent."""
    num, slash, den = s.partition("/")
    if s.isascii() and num.removeprefix("-").isdigit() and (
            not slash or den.isdigit() and den.strip("0")):
        try:
            return int(num), int(den) if slash else 1
        except ValueError:
            # int() refuses ASCII digits only past its digit limit.
            limit = sys.get_int_max_str_digits()
            raise ValueError("%s has more digits than int()'s limit of %d"
                             % (_quote(s), limit)) from None
    if s.isascii() and num.removeprefix("-").isdigit() and den.isdigit():
        raise ValueError("zero denominator in %s" % _quote(s))
    raise ValueError("%s is not a rational written -?digits or "
                     "-?digits/digits" % _quote(s))


def _not_rational(s) -> ValueError:
    """The error for an entry that is no Fraction, int or string: a
    float, a bool, a list or anything else, named by reprlib.repr, which
    cuts a long list or dict as _quote cuts a string."""
    return ValueError("not a serialized rational: %s" % reprlib.repr(s))


# A string entry longer than this is quoted in a message by its first
# QUOTE_CHARS characters and its length.
QUOTE_CHARS = 40


def _quote(s: str) -> str:
    """repr of a string for an error message, cut to QUOTE_CHARS
    characters, with its length, when it is longer."""
    if len(s) <= QUOTE_CHARS:
        return repr(s)
    return "%r... (%d characters)" % (s[:QUOTE_CHARS], len(s))


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
    """Product of two matrices given as sequences of rows of ints (or
    Fractions); ShapeError on ragged rows or an inner-dimension
    mismatch.  Two n x n factors, 1 <= n <= STRAIGHT_LINE_MAX, go
    through n's straight-line kernel, every other shape through
    _loop_mul."""
    n = len(a)
    if 0 < n <= STRAIGHT_LINE_MAX and len(b) == n:
        product = _KERNELS[n](a, b)
        if product is not None:
            return product
    return _loop_mul(a, b)


def _loop_mul(a, b) -> tuple:
    """The generic product loop, for every shape that fits: the oracle
    of the straight-line kernels."""
    cols = tuple(zip(*b))
    if any(len(row) != len(cols) for row in b):
        raise ShapeError("ragged rows in a matrix product")
    for row in a:
        if len(row) != len(b):
            raise ShapeError("cannot multiply a row of %d entries by %d rows"
                             % (len(row), len(b)))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


# Square products up to this size (every dimension classify admits) run
# through one straight-line function per n: the rows unpacked into
# locals and the n**2 sums written out, made from _straight_line_source
# on first use, so importing the module compiles none.  walls's
# separation scan is written out up to the same n.
STRAIGHT_LINE_MAX = 4


def _straight_line_source(n: int) -> str:
    """Source of `kernel(a, b)` for n x n factors: their product, or
    None when a row does not have n entries, for _loop_mul to check."""
    def rows(name):
        return ", ".join("(%s,)" % ", ".join("%s%d_%d" % (name, i, j)
                                            for j in range(n))
                         for i in range(n)) + ","

    product = ", ".join(
        "(%s,)" % ", ".join(" + ".join("a%d_%d * b%d_%d" % (i, k, k, j)
                                       for k in range(n))
                            for j in range(n))
        for i in range(n))
    return ("def kernel(a, b):\n"
            "    try:\n"
            "        %s = a\n"
            "        %s = b\n"
            "    except ValueError:\n"
            "        return None\n"
            "    return (%s,)\n" % (rows("a"), rows("b"), product))


class Kernels(dict):
    """n -> the function `kernel` that source(n) defines, compiled on
    first use and kept: one cache per source, named `name` in
    tracebacks."""

    def __init__(self, source, name: str):
        super().__init__()
        self._source = source
        self._name = name

    def __missing__(self, n):
        namespace = {}
        exec(compile(self._source(n), "<%s n=%d>" % (self._name, n),
                     "exec"), namespace)
        kernel = self[n] = namespace["kernel"]
        return kernel


_KERNELS = Kernels(_straight_line_source, "int_mul")


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
    Fractions, as Fraction rows, by fraction-free Gauss-Jordan
    elimination on the integral multiple A = d * rows.

    After the step on column k, each entry right of column k is a minor
    of [A | I] (Bareiss), so every division by the previous pivot is
    exact, and the last pivot D leaves D * A^-1 in the right half:
    rows^-1 = d * A^-1.  Columns up to k are never read again and are
    not updated; a row with 0 in column k is only rescaled, and not
    even that when the pivot equals the previous one."""
    n = _square(rows, "inverse")
    d, ints = integral(rows)
    aug = [list(row) + [0] * i + [1] + [0] * (n - 1 - i)
           for i, row in enumerate(ints)]
    prev = 1
    for k in range(n):
        for r in range(k, n):
            if aug[r][k]:
                break
        else:
            raise SingularMatrixError(
                "matrix is singular: determinant = %s"
                % format_rational(det(rows)))
        aug[k], aug[r] = aug[r], aug[k]
        pivot_tail = aug[k][k + 1:]
        p = aug[k][k]
        for i, row in enumerate(aug):
            f = row[k]
            if i == k or (not f and p == prev):
                continue
            row[k + 1:] = [(p * x - f * y) // prev
                           for x, y in zip(row[k + 1:], pivot_tail)]
        prev = p
    return tuple(tuple(Fraction(d * x, prev) for x in row[n:])
                 for row in aug)


def vector_to_json(v) -> list:
    return [format_rational(e) for e in v]


# What a JSON value that is not an array is, by its parsed type.
_JSON_KINDS = {str: "a string", dict: "an object", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}


def json_array(data, what: str):
    """data itself where a JSON array belongs: a string, an object, a
    number, a boolean or null is refused (ValueError naming `what`), not
    iterated as no items or as its characters or keys."""
    if type(data) not in _ROW_TYPES and (
            isinstance(data, (str, dict)) or not hasattr(data, "__iter__")):
        kind = _JSON_KINDS.get(type(data), "a " + type(data).__name__)
        raise ValueError("%s must be an array, not %s" % (what, kind))
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


# pad -> an encoder with "," + pad as its item separator (_new_encoder).
_ENCODERS = {}
# Exact types only: a subclass of a scalar type takes the slow path.
_SCALAR_TYPES = {str, int, float, bool, type(None)}
_ROW_TYPES = {list, tuple}
# Raises the TypeError json.dumps raises on an object it cannot encode.
_DEFAULT = json.JSONEncoder().default


def _new_encoder(pad: str):
    """Make and cache the encoder for `pad`: called as enc(obj, 0), it
    returns the chunks of obj's text with sorted keys and `pad` after
    every item separator.  It is `json`'s C encoder; an interpreter
    without `_json` gets the pure-Python one behind the same call."""
    make = json.encoder.c_make_encoder
    if make is None:
        iterencode = json.JSONEncoder(separators=("," + pad, ": "),
                                      sort_keys=True).iterencode

        def enc(obj, _level):
            return iterencode(obj, _one_shot=True)
    else:
        enc = make(None, _DEFAULT, encode_basestring_ascii, None, ": ",
                   "," + pad, True, False, True)
    _ENCODERS[pad] = enc
    return enc


def _encode(obj, pad: str = "") -> str:
    """The text of obj from the cached encoder for `pad`, in one call."""
    return "".join((_ENCODERS.get(pad) or _new_encoder(pad))(obj, 0))


class IndexPairs:
    """Rows [u, v] of indices below count, held as two columns:
    degrees[u] rows of head u, for u in order, beside one list of the
    rows' tails.  dump_json renders it from the columns without making
    the rows."""

    __slots__ = ("_degrees", "_targets", "_count")

    def __init__(self, degrees, targets, count: int):
        self._degrees = degrees
        self._targets = targets
        self._count = count


class DigitColumns:
    """count strings of equal width W, held as W columns: column i is
    one bytes of the count strings' characters at position i, each an
    ASCII digit.  dump_json renders it from the columns without making
    the strings."""

    __slots__ = ("_columns", "_count")

    def __init__(self, columns, count: int):
        self._columns = columns
        self._count = count


def dump_json(obj, write) -> None:
    """Write exactly json.dumps(obj, indent=2, sort_keys=True) and a
    newline through write, one leaf at most in a chunk.

    An `indent` makes `json` fall back to its pure-Python encoder.  Here
    dicts and lists are walked in Python, but every leaf goes to one
    cached C encoder per indent in one call, with the newline and indent
    carried in its item separator: a scalar, a list of scalars, a whole
    matrix (a list of non-empty lists of scalars) and a dict of scalars.
    An IndexPairs goes out in joins of PAIRS_SLICE rows over its columns,
    and a DigitColumns in slices of PAIRS_SLICE strings filled from its
    columns.
    """
    _emit(obj, "\n", "", write)
    write("\n")


def _put_leaf(obj, pad: str, head: str, put) -> bool:
    """Put head and the indent-2 text of obj, nested at indent `pad`,
    from one encoder call, if obj is a scalar or a list, matrix or dict
    of scalars, each of an exact type; else put nothing and say so."""
    kind = type(obj)
    if kind is str:
        put(head + encode_basestring_ascii(obj))
    elif kind in _SCALAR_TYPES:
        put(head + _encode(obj))
    elif kind is list or kind is tuple:
        if not obj:
            put(head + "[]")
            return True
        inner = pad + "  "
        kinds = set(map(type, obj))
        if kinds <= _SCALAR_TYPES:
            put(head + "[" + inner + _encode(obj, inner)[1:-1] + pad + "]")
        elif (kinds <= _ROW_TYPES and all(obj)
              and set(map(type, chain.from_iterable(obj))) <= _SCALAR_TYPES):
            # Encoded at the entries' indent; no encoded string holds a
            # raw newline, so each "]," + item + "[" is a row break.  The
            # rows go in a put of their own, so that a large matrix's
            # text is not copied once more to join it to head and tail.
            item = inner + "  "
            put(head + "[" + inner + "[" + item)
            put(_encode(obj, item)[2:-2].replace(
                "]," + item + "[", inner + "]," + inner + "[" + item))
            put(inner + "]" + pad + "]")
        else:
            return False
    elif kind is dict:
        if not obj:
            put(head + "{}")
        elif set(map(type, obj.values())) <= _SCALAR_TYPES:
            inner = pad + "  "
            put(head + "{" + inner + _encode(obj, inner)[1:-1] + pad + "}")
        else:
            return False
    else:
        return False
    return True


def _emit(obj, pad: str, head: str, put) -> None:
    """Put head and the indent-2 text of obj, nested at indent `pad`;
    a leaf (see _put_leaf) goes in one chunk with its head."""
    if _put_leaf(obj, pad, head, put):
        return
    put(head)
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
                key = _encode(key)
            _emit(value, inner, sep + encode_basestring_ascii(key) + ": ",
                  put)
            sep = "," + inner
        put(pad + "}")
    elif isinstance(obj, IndexPairs):
        _emit_pairs(obj, pad, put)
    elif isinstance(obj, DigitColumns):
        _emit_columns(obj, pad, put)
    elif not isinstance(obj, (list, tuple)):
        put(_encode(obj))
    elif not obj:
        put("[]")
    else:
        sep = "[" + inner
        for value in obj:
            _emit(value, inner, sep, put)
            sep = "," + inner
        put(pad + "]")


# _emit_pairs joins and puts at most this many edge rows at a time, and
# _emit_columns this many strings, so rendering a complex holds no more
# than one slice's text.  A slice of 2**16 edge rows left perfbench's
# dual-enum peak RSS 4 MB above one join; 2**14 rows, 1 MB above.
PAIRS_SLICE = 2 ** 14


def _emit_pairs(pairs: IndexPairs, pad: str, put) -> None:
    """Emit the rows of pairs, PAIRS_SLICE rows to a join over two
    string tables.

    The index strings are made once.  Row u's head is str(u) and the
    item break; row v's tail is str(v) and the break to the next row.
    Both tables, and the stream of the rows' heads (each head repeated
    by its degree) and tails, come from C-level maps, which each slice
    reads on from where the last one stopped into one flat list.  The
    last row's tail ends the rows instead, and the opening, each slice
    of rows and the closing are put apart, so no row's text is copied
    to cut or to wrap it.
    """
    degrees, targets, count = pairs._degrees, pairs._targets, pairs._count
    if not targets:
        put("[]")
        return
    row_pad = pad + "  "
    item_pad = row_pad + "  "
    strs = list(map(str, range(count)))
    heads = chain.from_iterable(map(
        repeat, map(add, strs, repeat("," + item_pad)), degrees))
    ends = list(map(add, strs,
                    repeat(row_pad + "]," + row_pad + "[" + item_pad)))
    tails = map(ends.__getitem__, targets)
    put("[" + row_pad + "[" + item_pad)
    left = len(targets)
    while left:
        size = min(left, PAIRS_SLICE)
        left -= size
        flat = [None] * (2 * size)
        flat[0::2] = islice(heads, size)
        flat[1::2] = islice(tails, size)
        if not left:
            flat[-1] = strs[targets[-1]] + row_pad + "]"
        put("".join(flat))
    put(pad + "]")


def _emit_columns(rows: DigitColumns, pad: str, put) -> None:
    """Emit the strings of rows, PAIRS_SLICE strings to a slice.

    A slice is one template row, the item break, a quote, W placeholder
    bytes and '",', repeated; each column's digits for the slice go in
    by one strided slice assignment, so nothing is made per string.
    The last slice drops its last comma, and the opening, each slice
    and the closing are put apart.
    """
    columns, count = rows._columns, rows._count
    if not count:
        put("[]")
        return
    lead = (pad + '  "').encode()
    template = lead + bytes(len(columns)) + b'",'
    step = len(template)
    put("[")
    start = 0
    while start < count:
        size = min(count - start, PAIRS_SLICE)
        text = bytearray(template) * size
        for at, column in enumerate(columns, len(lead)):
            text[at::step] = memoryview(column)[start:start + size]
        start += size
        if start == count:
            del text[-1]
        put(text.decode("ascii"))
    put(pad + "]")


def write_json(path, data) -> None:
    """Write a file format's JSON form: sorted keys, indent 2, newline."""
    with open(path, "w", encoding="utf-8") as fh:
        dump_json(data, fh.write)


def read_json(file, error):
    """Parse a JSON file (a path or a binary file) as text mode decodes
    it, UTF-8 with universal newlines; a syntax error, or an integer
    past int()'s digit limit, raises `error`."""
    with io.TextIOWrapper(file if hasattr(file, "read") else
                          open(file, "rb"), encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error("not valid JSON at line %d column %d: %s"
                        % (exc.lineno, exc.colno, exc.msg)) from exc
        except UnicodeDecodeError:
            raise
        except ValueError as exc:
            # Besides a bad UTF-8 byte, only int() raises a ValueError
            # here: json reads a JSON integer with it, and it refuses
            # a numeral past its digit limit.
            raise error("a JSON number has more digits than int()'s limit "
                        "of %d" % sys.get_int_max_str_digits()) from exc


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
    bool, at least 1.  The message shows a value that is not JSON by its
    repr."""
    if type(value) is not int or value < 1:
        raise error("dimension must be an integer >= 1, got %s"
                    % json.dumps(value, default=repr))
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
    theta_images: list[RatMatrix],
    iota_images: list[RatMatrix],
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
