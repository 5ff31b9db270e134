"""Tests for the exact rational linear algebra layer."""

import enum
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cubecrys.exactlin import (
    IndexPairs,
    RatMatrix,
    ShapeError,
    SingularMatrixError,
    average_intertwiner,
    det,
    format_rational,
    identity,
    inverse,
    json_text,
    matrix_from_json,
    matrix_to_json,
    parse_rational,
    vector_from_json,
    vector_to_json,
)


def test_rational_formatting_round_trip():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-5, 1)) == "-5"
    assert format_rational(Fraction(0)) == "0"
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(12) == Fraction(12)
    assert parse_rational(Fraction(-2, 6)) == Fraction(-1, 3)
    with pytest.raises(ValueError):
        parse_rational(1.5)


@pytest.mark.parametrize("x", [0, 1, -1, 7, -12, 2 ** 64 + 1, -(2 ** 70)])
def test_an_int_formats_as_its_fraction_does(x):
    assert format_rational(x) == format_rational(Fraction(x)) == str(x)


class Small(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize("x", [True, False, 1.0, Small.ONE], ids=repr)
def test_formatting_refuses_what_is_not_an_int_or_a_rational(x):
    with pytest.raises(ValueError, match="not a serialized rational"):
        format_rational(x)


def test_zero_denominator_is_a_value_error():
    for text in ("1/0", "-3/0", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(text)
    with pytest.raises(ValueError, match=r"zero denominator in '1/0'"):
        vector_from_json(["1/0"])


def test_rat_rejects_floats():
    with pytest.raises(ValueError, match="not a serialized rational: 0.5"):
        parse_rational(0.5)


@pytest.mark.parametrize("value", [True, False])
def test_the_reader_refuses_bools(value):
    for read in (parse_rational, format_rational, lambda x: RatMatrix([[x]]),
                 lambda x: vector_from_json([1, x]),
                 lambda x: matrix_from_json([[1], [x]])):
        with pytest.raises(ValueError, match="not a serialized rational"):
            read(value)


def test_vectors_are_hashable_and_immutable():
    v = vector_from_json([1, "2"])
    assert type(v) is tuple and v == (1, 2)
    assert all(type(e) is Fraction for e in v)
    assert hash(v) == hash(vector_from_json(["1", 2]))
    with pytest.raises(TypeError):
        v[0] = 3


def test_matrix_constructors():
    assert identity(3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert RatMatrix.zeros(2, 3).rows == 2
    m = RatMatrix([[1, "1/2"], [0, 1]])
    assert m.entries == ((1, Fraction(1, 2)), (0, 1)) and m.cols == 2
    assert m == RatMatrix(matrix_from_json([["1", "1/2"], ["0", "1"]]))
    assert repr(m) == "RatMatrix[1, 1/2; 0, 1]"
    for bad in ([], [[]], [[1, 2], [3]]):
        with pytest.raises(ShapeError):
            RatMatrix(bad)
        with pytest.raises(ShapeError):
            matrix_from_json(bad)


def test_matrix_products_and_powers():
    r4 = RatMatrix([[0, -1], [1, 0]])
    assert r4 * r4 == RatMatrix([[-1, 0], [0, -1]])
    assert r4 * r4 * r4 * r4 == RatMatrix(identity(2))
    assert inverse(r4.entries) == ((0, 1), (-1, 0))
    assert r4 + r4 == RatMatrix([[0, -2], [2, 0]])
    with pytest.raises(ShapeError):
        r4 * RatMatrix([[1, 2, 3]])


def test_det_known_values():
    assert det([[1, 2], [3, 4]]) == -2
    assert det(identity(5)) == 1
    assert det(matrix_from_json([["1/2", 0], [0, "1/3"]])) == Fraction(1, 6)
    # Singular after a cleared-denominator elimination step.
    assert det(((1, 2, 3), (2, 4, 6), (0, 1, 1))) == 0
    hexagonal = matrix_from_json([["1", "-1/2"], ["0", "6/7"]])
    assert det(hexagonal) == Fraction(6, 7)
    for bad in ([[1, 2]], [[1, 2], [3]]):
        with pytest.raises(ShapeError, match="determinant of a non-square"):
            det(bad)
        with pytest.raises(ShapeError, match="inverse of a non-square"):
            inverse(bad)


def test_det_needs_pivot_swap():
    m = [[0, 1, 2], [1, 0, 3], [4, 5, 0]]
    assert det(m) == Fraction(
        0 * (0 * 0 - 3 * 5) - 1 * (1 * 0 - 3 * 4) + 2 * (1 * 5 - 0 * 4))


@st.composite
def small_matrices(draw, n=3):
    entries = draw(st.lists(
        st.integers(min_value=-6, max_value=6), min_size=n * n, max_size=n * n))
    return RatMatrix([entries[i * n:(i + 1) * n] for i in range(n)])


@given(small_matrices(), small_matrices())
def test_det_is_multiplicative(a, b):
    assert det((a * b).entries) == det(a.entries) * det(b.entries)


@given(small_matrices())
def test_inverse_is_exact(m):
    if det(m.entries) == 0:
        with pytest.raises(SingularMatrixError):
            inverse(m.entries)
    else:
        m_inv = RatMatrix(inverse(m.entries))
        assert m * m_inv == RatMatrix(identity(3))
        assert m_inv * m == RatMatrix(identity(3))
        # Int rows give the same Fraction rows.
        ints = tuple(tuple(int(e) for e in row) for row in m.entries)
        assert inverse(ints) == m_inv.entries


def test_inverse_with_fractions():
    m = RatMatrix([["1", "-1/2"], ["0", "6/7"]])
    assert m * RatMatrix(inverse(m.entries)) == RatMatrix(identity(2))


def test_json_round_trips():
    v = (Fraction(1, 3), -2)
    assert vector_from_json(vector_to_json(v)) == v
    m = matrix_from_json([["1/2", "-3"], ["0", "5/7"]])
    assert matrix_to_json(m) == [["1/2", "-3"], ["0", "5/7"]]
    assert matrix_from_json(matrix_to_json(m)) == m
    # Int rows, as a point element is held, give the same strings.
    assert matrix_to_json(((1, 0), (-2, 3))) == [["1", "0"], ["-2", "3"]]


# Strings that look like the separators and brackets json_text splices.
_TRICKY = st.sampled_from(['"', "]", ",", "\n", "\u00e9\u6f22", "[]",
                           "],\n  [", "{", "a\\b"])
_TEXT = st.one_of(st.text(max_size=6), _TRICKY)
_NUMBERS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-10 ** 60, max_value=10 ** 60),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(), st.none())
_SCALARS = st.one_of(_NUMBERS, _TEXT)
# Keys of one dict must sort against each other, so each dict draws
# all its keys from one family: str, numbers (bool is an int) or None.
_KEY_FAMILIES = st.sampled_from([
    _TEXT,
    st.one_of(st.integers(min_value=-10 ** 30, max_value=10 ** 30),
              st.floats(allow_nan=False), st.booleans()),
    st.none()])
# Rows of numbers (json_text's one-call path), some empty, some ragged,
# and some nested one level deeper, which must fall back.
_ROWS = st.lists(st.one_of(
    st.lists(_NUMBERS, max_size=4),
    st.lists(_NUMBERS, max_size=3).map(tuple),
    st.lists(st.lists(_NUMBERS, max_size=2), max_size=2)), max_size=4)


def _json_trees():
    return st.recursive(
        st.one_of(_SCALARS, _ROWS, st.just([]), st.just({}), st.just(())),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=3).map(tuple),
            _KEY_FAMILIES.flatmap(lambda keys: st.dictionaries(
                keys, children, max_size=4))),
        max_leaves=20)


@settings(max_examples=400, deadline=None)
@given(_json_trees())
def test_json_text_is_json_dumps_indent_2(tree):
    assert json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)


def test_json_text_hand_cases():
    cases = [
        [], {}, (), 0, "x", None, [[]], [[], []], [[1], []], [[1, [2]]],
        [[1, 2], [3, 4, 5]], ([1.5, -2], (3,)), [["a", 1]], [[{"a": 1}]],
        {1: [], 2.5: {}, True: [[0]]}, {None: [1e300, float("nan")]},
        {"edges": [[0, 1], [1, 2]], "zero_cubes": ["01", "11"]},
        [10 ** 40, -10 ** 40, [10 ** 40]],
    ]
    for x in cases:
        assert json_text(x) == json.dumps(x, indent=2, sort_keys=True), x


def test_json_text_rejects_what_json_rejects():
    for bad in ({(1, 2): 0}, {"a": object()}, [object()], [[object()]]):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            json_text(bad)


# IndexPairs: (count, shift, sorted keys u << shift | v with u, v below
# count), the empty set and shifts wider than an index included.
_PAIR_KEYS = st.integers(min_value=1, max_value=50).flatmap(
    lambda count: st.integers(min_value=(count - 1).bit_length(),
                              max_value=8).flatmap(
        lambda shift: st.tuples(st.just(count), st.just(shift), st.sets(
            st.tuples(st.integers(0, count - 1), st.integers(0, count - 1))
            .map(lambda uv: uv[0] << shift | uv[1]),
            max_size=40).map(sorted))))
# Up to three levels of nesting: the rows under a key of a dict with
# other keys, or at a place in a list of other items.
_NESTINGS = st.lists(st.one_of(
    st.tuples(st.just("dict"), _TEXT,
              st.dictionaries(_TEXT, _SCALARS, max_size=2)),
    st.tuples(st.just("list"), st.integers(min_value=0, max_value=2),
              st.lists(_SCALARS, max_size=2))), max_size=3)


def _nest(value, nestings):
    for kind, where, others in nestings:
        if kind == "dict":
            value = {**others, where: value}
        else:
            value = others[:where] + [value] + others[where:]
    return value


def _rows(shift, keys):
    return [[k >> shift, k & (1 << shift) - 1] for k in keys]


@settings(max_examples=300, deadline=None)
@given(_PAIR_KEYS, _NESTINGS)
def test_json_text_renders_index_pairs_as_their_rows(pair_keys, nestings):
    count, shift, keys = pair_keys
    tree = _nest(IndexPairs(keys, count, shift), nestings)
    expected = json.dumps(_nest(_rows(shift, keys), nestings), indent=2,
                          sort_keys=True)
    assert json_text(tree) == expected
    assert json.dumps(tree, indent=2, sort_keys=True, default=list) \
        == expected


@settings(max_examples=200, deadline=None)
@given(_PAIR_KEYS, st.slices(45))
def test_index_pairs_read_as_their_rows(pair_keys, cut):
    count, shift, keys = pair_keys
    rows = _rows(shift, keys)
    pairs = IndexPairs(keys, count, shift)
    assert pairs == rows and rows == pairs
    assert not (pairs != rows or rows != pairs)
    assert pairs == IndexPairs(list(keys), count, shift)
    assert pairs == IndexPairs([u << 9 | v for u, v in rows], count, 9)
    assert len(pairs) == len(rows) and list(pairs) == rows
    for i in range(-len(rows), len(rows)):
        assert pairs[i] == rows[i]
    for i in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            pairs[i]
    assert pairs[cut] == rows[cut] and type(pairs[cut]) is list
    assert pairs != rows + [[0, 0]] and rows + [[0, 0]] != pairs
    assert pairs != tuple(rows)
    if rows:
        assert pairs != rows[:-1]
        assert pairs != [list(r) for r in rows[:-1]] + [[count, 0]]
        assert pairs != [tuple(r) for r in rows]


def test_json_text_of_index_pairs_makes_no_row(monkeypatch):
    def refuse(self, k):
        raise AssertionError("a row was made")

    tree = {"edges": IndexPairs([1, 6, 8], 3, 2),
            "empty": [IndexPairs([], 0, 0)],
            "nested": [[IndexPairs([2], 2, 1)], [1]]}
    expected = json.dumps({"edges": [[0, 1], [1, 2], [2, 0]], "empty": [[]],
                           "nested": [[[[1, 0]]], [1]]},
                          indent=2, sort_keys=True)
    monkeypatch.setattr(IndexPairs, "__getitem__", refuse)
    assert json_text(tree) == expected


def test_average_intertwiner_single_element():
    b = RatMatrix([[2, 1], [1, 1]])
    eye = RatMatrix(identity(2))
    assert average_intertwiner([eye], [eye], b) == b


def test_average_intertwiner_intertwines():
    """The averaged matrix satisfies A * iota(q) = theta(q) * A."""
    r4 = RatMatrix([[0, -1], [1, 0]])
    theta = [RatMatrix(identity(2)), r4, r4 * r4, r4 * r4 * r4]
    # Conjugated copy of the same cyclic group.
    s = RatMatrix([[1, 1], [0, 1]])
    iota = [s * t * RatMatrix(inverse(s.entries)) for t in theta]
    a = average_intertwiner(theta, iota, RatMatrix([[1, 0], [0, 2]]))
    for t, i in zip(theta, iota):
        assert a * i == t * a


def test_average_intertwiner_shape_errors():
    eye = RatMatrix(identity(2))
    with pytest.raises(ShapeError):
        average_intertwiner([], [], eye)
    with pytest.raises(ShapeError):
        average_intertwiner([eye], [eye, eye], eye)
    with pytest.raises(ShapeError):
        average_intertwiner([eye], [eye], RatMatrix([[1]]))
