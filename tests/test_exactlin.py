"""Tests for the exact rational linear algebra layer."""

import enum
import json
import os
import random
import re
import subprocess
import sys
from array import array
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, seed, settings, strategies as st

import cubecrys
from cubecrys import exactlin
from cubecrys.exactlin import (
    PAIRS_SLICE,
    DigitColumns,
    IndexPairs,
    RatMatrix,
    ShapeError,
    SingularMatrixError,
    average_intertwiner,
    det,
    dump_json,
    format_rational,
    STRAIGHT_LINE_MAX,
    _KERNELS,
    _loop_mul,
    identity,
    int_mul,
    inverse,
    matrix_from_json,
    matrix_to_json,
    parse_rational,
    rational_pair,
    vector_from_json,
    vector_to_json,
)
from oracles import fraction_inverse, fraction_parse


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


def parse_outcome(read, s):
    """(value, its type) from read(s), or (exception type, message)."""
    try:
        value = read(s)
    except Exception as exc:
        return type(exc), str(exc)
    return value, type(value)


# Strings near the grammar '-?digits' and '-?digits/digits', and
# strings from anywhere: signs, spaces, decimals, exponents and
# underscores (as in '4e-8_210_63') among them.
_RATIONAL_TEXT = st.one_of(
    st.from_regex(r"[-+ ]?[0-9]{1,40}(/[-+ ]?[0-9]{1,40})?", fullmatch=True),
    st.from_regex(r"[-+ ./e_0-9\u0663]{0,12}", fullmatch=True),
    st.text(max_size=12))

# The strings format_rational writes; [0-9] is ASCII only.
_GRAMMAR = re.compile(r"-?[0-9]+(/[0-9]+)?")


@contextmanager
def fraction_parser_refused():
    """Inside the block, Fraction(s) for a string s fails the test, so
    a string that reached Fraction's parser cannot pass unnoticed."""
    new = Fraction.__new__

    def guarded(cls, *args, **kwargs):
        assert not any(isinstance(a, str) for a in args), args
        return new(cls, *args, **kwargs)

    with mock.patch.object(Fraction, "__new__", guarded):
        yield


def read_grammar_only(s):
    """parse_rational's outcome on s, asserting that a string outside
    the grammar is a ValueError and a grammar string reads as Fraction
    reads it; Fraction's parser is never called on s."""
    with fraction_parser_refused():
        outcome = parse_outcome(parse_rational, s)
    if _GRAMMAR.fullmatch(s):
        assert outcome == parse_outcome(fraction_parse, s), s
    else:
        assert outcome[0] is ValueError, s
    return outcome


@given(_RATIONAL_TEXT)
def test_parse_rational_reads_a_string_as_fraction_does(s):
    read_grammar_only(s)


def test_parse_rational_hand_strings_match_fraction():
    # A sign, a space, a zero denominator, underscores, a decimal
    # point, an exponent and a non-ASCII digit: all refused, "3/0" as a
    # zero denominator; "-0/5" and "007/010" are in the grammar.
    hand = ["+3", " 3", "3/0", "-0/5", "007/010", "1_0", "0.5", "1e3",
            "\u0663", "1e100000000", "1e-100000000", "4e-8_210_63"]
    outcomes = [read_grammar_only(s) for s in hand]
    assert [kind for kind, _ in outcomes].count(ValueError) == 10
    assert outcomes[2] == (ValueError, "zero denominator in '3/0'")
    assert outcomes[9] == (ValueError, "'1e100000000' is not a rational "
                           "written -?digits or -?digits/digits")
    for k in (0, 1, -1):
        assert parse_rational(str(k)) is parse_rational(k) \
            is parse_rational(str(k)) is exactlin._SHARED[k]


def assert_pair_matches_parse_rational(s):
    """rational_pair(s) is parse_rational(s) as (numerator, denominator)
    ints, or the same error, and reads no string through Fraction."""
    expected = parse_outcome(parse_rational, s)
    with fraction_parser_refused():
        got = parse_outcome(rational_pair, s)
    if expected[1] is Fraction:
        value = expected[0]
        assert got == ((value.numerator, value.denominator), tuple), s
        assert all(type(x) is int for x in got[0]), s
    else:
        assert got == expected, s


@given(st.one_of(_RATIONAL_TEXT, st.integers(), st.fractions(),
                 st.floats(), st.booleans(), st.none()))
def test_rational_pair_reads_what_parse_rational_reads(s):
    assert_pair_matches_parse_rational(s)


def test_rational_pair_hand_values_match_parse_rational():
    hand = ["+3", " 3", "3/0", "-0/5", "007/010", "1_0", "0.5", "1e3",
            "\u0663", "1e100000000", "4e-8_210_63", "-0", "4/6", "-12/18",
            "0/7", "7" * 4301, "1/" + "3" * 4301, "x" * 10 ** 6, 0, 1, -1,
            7 ** 1000, True, False, 0.5, None, [1, 2], {"a": 1},
            Fraction(-4, 6), Small.ONE]
    for s in hand:
        assert_pair_matches_parse_rational(s)
    assert rational_pair("-12/18") == (-2, 3)
    assert rational_pair("4/6") == (2, 3)
    assert rational_pair("-0/5") == (0, 1)


@pytest.mark.parametrize("text, cut", [
    ("7" * 4301, "'%s'... (4301 characters)" % ("7" * 40)),
    ("-" + "7" * 4301 + "/3", "'-%s'... (4304 characters)" % ("7" * 39)),
    ("1/" + "3" * 4301, "'1/%s'... (4303 characters)" % ("3" * 38)),
], ids=["numerator", "signed", "denominator"])
def test_a_numeral_past_the_int_digit_limit_names_the_limit(text, cut):
    with pytest.raises(ValueError) as info:
        parse_rational(text)
    assert str(info.value) == (
        "%s has more digits than int()'s limit of 4300" % cut)


def test_a_long_entry_is_quoted_cut_to_its_first_characters():
    """A megabyte string, and a million-item list where a rational
    belongs, each give a message of a line."""
    text = "x" * (10 ** 6)
    with pytest.raises(ValueError) as info:
        parse_rational(text)
    assert str(info.value) == (
        "'%s'... (1000000 characters) is not a rational written -?digits "
        "or -?digits/digits" % ("x" * exactlin.QUOTE_CHARS))
    with pytest.raises(ValueError) as info:
        parse_rational([7] * 10 ** 6)
    assert str(info.value) == (
        "not a serialized rational: [7, 7, 7, 7, 7, 7, ...]")


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


def _inverse_or_error(inv, rows):
    try:
        return inv(rows)
    except SingularMatrixError as exc:
        return "singular", str(exc)


def _random_rows(rng, n, zero_share):
    """n x n rows of ints and Fractions, each entry 0 with zero_share;
    sparse draws are often singular, and a repeated row makes one
    singular for sure."""
    def entry():
        if rng.random() < zero_share:
            return 0
        if rng.random() < 0.5:
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    rows = [tuple(entry() for _ in range(n)) for _ in range(n)]
    if n > 1 and rng.random() < 0.1:
        rows[rng.randrange(n)] = rows[rng.randrange(n)]
    return tuple(rows)


def test_inverse_matches_the_fraction_oracle():
    """n = 1-8, dense and sparse, singular ones included: the same
    Fraction rows or the same error text."""
    rng = random.Random(25)
    singular = 0
    for k in range(1200):
        rows = _random_rows(rng, 1 + k % 8, (0.0, 0.4, 0.7)[k % 3])
        got = _inverse_or_error(inverse, rows)
        assert got == _inverse_or_error(fraction_inverse, rows), rows
        if got[0] == "singular":
            singular += 1
        else:
            assert all(type(x) is Fraction for row in got for x in row)
    assert 50 <= singular <= 1000


@pytest.mark.parametrize("size", [30, 80])
def test_inverse_of_sparse_identity_like_matrices(size):
    """Permuted, rescaled identities with a few entries off the diagonal,
    and one made singular by a zero row."""
    rng = random.Random(size)
    for trial in range(4):
        rows = [[0] * size for _ in range(size)]
        for i, j in enumerate(rng.sample(range(size), size)):
            rows[i][j] = rng.choice((1, -1, 2, Fraction(1, 3)))
        for _ in range(size // 10):
            rows[rng.randrange(size)][rng.randrange(size)] = rng.randint(-3, 3)
        if trial == 3:
            rows[rng.randrange(size)] = [0] * size
        rows = tuple(map(tuple, rows))
        assert _inverse_or_error(inverse, rows) == \
            _inverse_or_error(fraction_inverse, rows)


def test_each_straight_line_kernel_matches_the_loop():
    """Random ints up to past 2**63, and Fractions, for n = 1-4."""
    rng = random.Random(4)
    for n in range(1, STRAIGHT_LINE_MAX + 1):
        for bits in (3, 62, 64, 130):
            for _ in range(50):
                a, b = ([[rng.randint(-2 ** bits, 2 ** bits)
                          for _ in range(n)] for _ in range(n)]
                        for _ in range(2))
                assert _KERNELS[n](a, b) == int_mul(a, b) == _loop_mul(a, b)
        a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(n)] for _ in range(n)]
        assert int_mul(a, identity(n)) == _loop_mul(a, identity(n)) \
            == tuple(map(tuple, a))


def test_int_mul_refuses_ragged_rows_on_the_straight_line_path():
    # Square row counts, so the straight-line kernel is tried first.
    for a, b in ((((1, 2), (3,)), ((1, 0), (0, 1))),
                 (((1, 0), (0, 1)), ((1, 2), (3, 4, 5))),
                 (((1, 2, 3), (4, 5, 6)), ((1, 0), (0, 1)))):
        assert _KERNELS[2](a, b) is None
        with pytest.raises(ShapeError):
            int_mul(a, b)
    # n x n by n x k is a product that fits: the loop computes it.
    assert int_mul(((1, 2), (3, 4)), ((1, 0, 1), (0, 1, 1))) == \
        ((1, 2, 3), (3, 4, 7))


def test_int_mul_refuses_shape_mismatches_on_the_loop_path():
    with pytest.raises(ShapeError, match="a row of 3 entries by 2 rows"):
        int_mul(((1, 2, 3),), ((1, 0), (0, 1)))
    with pytest.raises(ShapeError, match="ragged rows"):
        int_mul(((1, 2),), ((1, 2), (3,)))
    five = identity(5)
    with pytest.raises(ShapeError):
        int_mul(five, five[:4])
    assert int_mul(five, five) == five
    assert int_mul(((1, 2, 3),), ((1,), (1,), (1,))) == ((6,),)


def test_importing_the_package_compiles_no_kernel():
    code = ("import cubecrys.cli, cubecrys.exactlin as e, "
            "cubecrys.walls as w; "
            "assert not e._KERNELS and not w._SCANS; "
            "e.int_mul(((1, 2), (3, 4)), e.identity(2)); "
            "assert sorted(e._KERNELS) == [2] and not w._SCANS")
    src = str(Path(cubecrys.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env=dict(os.environ, PYTHONPATH=src))


def test_json_round_trips():
    v = (Fraction(1, 3), -2)
    assert vector_from_json(vector_to_json(v)) == v
    m = matrix_from_json([["1/2", "-3"], ["0", "5/7"]])
    assert matrix_to_json(m) == [["1/2", "-3"], ["0", "5/7"]]
    assert matrix_from_json(matrix_to_json(m)) == m
    # Int rows, as a point element is held, give the same strings.
    assert matrix_to_json(((1, 0), (-2, 3))) == [["1", "0"], ["-2", "3"]]


def joined(obj) -> str:
    """The chunks that dump_json writes for obj, joined."""
    chunks = []
    dump_json(obj, chunks.append)
    return "".join(chunks)


def dumps(obj) -> str:
    """The oracle for joined(obj): json's text at indent 2 and a
    newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# Strings that look like the separators and brackets dump_json splices,
# the row break of a matrix at each of its first indents included.
_TRICKY = st.sampled_from(['"', "]", ",", "\n", "\u00e9\u6f22", "[]",
                           "],\n  [", "{", "a\\b"]
                          + ["],\n" + " " * k + "[" for k in (4, 6, 8, 10)])
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
# Matrices (dump_json's one-call path): rows of numbers or strings, as
# lists or tuples, 1 x 1 and single rows included; some rows empty or
# ragged, and some nested one level deeper, which must fall back.
_ROWS = st.lists(st.one_of(
    st.lists(_NUMBERS, max_size=4),
    st.lists(_NUMBERS, max_size=3).map(tuple),
    st.lists(_TEXT, min_size=1, max_size=3),
    st.lists(_SCALARS, min_size=1, max_size=2).map(tuple),
    st.lists(st.lists(_NUMBERS, max_size=2), max_size=2)), max_size=4)
_MATRICES = st.one_of(_ROWS, _ROWS.map(tuple))
# Dicts whose values are all scalars (the other one-call path).
_SCALAR_DICTS = _KEY_FAMILIES.flatmap(
    lambda keys: st.dictionaries(keys, _SCALARS, max_size=4))


def _json_trees():
    return st.recursive(
        st.one_of(_SCALARS, _MATRICES, _SCALAR_DICTS, st.just([]),
                  st.just({}), st.just(())),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=3).map(tuple),
            _KEY_FAMILIES.flatmap(lambda keys: st.dictionaries(
                keys, children, max_size=4))),
        max_leaves=20)


@settings(max_examples=400, deadline=None)
@given(_json_trees())
def test_json_text_is_json_dumps_indent_2(tree):
    assert joined(tree) == dumps(tree)


_HAND_CASES = [
    [], {}, (), 0, "x", None, [[]], [[], []], [[1], []], [[1, [2]]],
    [[1, 2], [3, 4, 5]], ([1.5, -2], (3,)), [["a", 1]], [[{"a": 1}]],
    {1: [], 2.5: {}, True: [[0]]}, {None: [1e300, float("nan")]},
    {"edges": [[0, 1], [1, 2]], "zero_cubes": ["01", "11"]},
    [10 ** 40, -10 ** 40, [10 ** 40]],
    # Matrices: strings that look like a row break, tuple rows, 1 x 1,
    # and one empty row (the fallback).
    [["],\n    [", "1/2"], ["a\nb", "],\n  ["]], {"m": [["],\n      ["]]},
    ((1, 2), (3, 4)), [[0]], [(True, None, -0.0)], [[1, 2], [], [3]],
    # Dicts of scalars under each key family, and nested.
    {"b": 1, "a": "],\n  [", "c": None}, {2: "x", 1.5: True, False: 0},
    {None: float("inf")}, {"x": {"y": {"z": -1}}}, [{"k": 1}, {"k": 2}],
]


def test_json_text_hand_cases():
    for x in _HAND_CASES:
        assert joined(x) == dumps(x), x


@settings(max_examples=200, deadline=None)
@given(_SCALAR_DICTS, st.integers(min_value=0, max_value=3))
def test_json_text_of_nested_scalar_dicts(leaf, depth):
    tree = leaf
    for level in range(depth):
        tree = {"k%d" % level: tree, "other": [level]}
    assert joined(tree) == dumps(tree)


def test_json_text_rejects_what_json_rejects():
    for bad in ({(1, 2): 0}, {"a": object()}, [object()], [[object()]]):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            joined(bad)


def test_json_text_writes_each_leaf_in_one_encoder_call(monkeypatch):
    # A classify-shaped report: each matrix, scalar list and scalar dict
    # must reach an encoder whole, never row by row or entry by entry.
    calls = []
    make = exactlin._new_encoder

    def counting(pad):
        enc = make(pad)

        def counted(obj, level):
            calls.append(obj)
            return enc(obj, level)
        exactlin._ENCODERS[pad] = counted
        return counted

    monkeypatch.setattr(exactlin, "_ENCODERS", {})
    monkeypatch.setattr(exactlin, "_new_encoder", counting)
    elements = [{"point_element": [["0", "-1"], ["1", "0"]],
                 "image": {"perm": [2, 1], "signs": [1, -1]},
                 "conjugation_residual": [["0", "0"], ["0", "0"]]}
                for _ in range(3)]
    tree = {"command": "classify", "group": "p4", "verdict": "accepted",
            "classification": {"basis": [["1", "0"], ["0", "1"]],
                               "conjugator": [["1", "1"], ["0", "1"]],
                               "elements": elements,
                               "verdict": "accepted"},
            "counts": {"elements": 3, "generators": 1, "missing": None}}
    leaves = [tree["classification"]["basis"],
              tree["classification"]["conjugator"], tree["counts"]]
    for e in elements:
        leaves += [e["point_element"], e["image"]["perm"],
                   e["image"]["signs"], e["conjugation_residual"]]
    assert joined(tree) == dumps(tree)
    assert sorted(map(id, calls)) == sorted(map(id, leaves))


def test_json_text_without_the_c_encoder():
    # An interpreter without `_json` has no C encoder: the same factory
    # then makes pure-Python encoders, with the same text.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(json.encoder, "c_make_encoder", None)
        mp.setattr(exactlin, "_ENCODERS", {})
        for x in _HAND_CASES:
            assert joined(x) == dumps(x), x

        @seed(0)
        @settings(max_examples=100, deadline=None)
        @given(_json_trees())
        def same_text(tree):
            assert joined(tree) == dumps(tree)

        same_text()
        for bad in ({(1, 2): 0}, {"a": object()}, [[object()]]):
            with pytest.raises(TypeError):
                joined(bad)
        assert exactlin._ENCODERS
        assert not any(type(enc).__module__ == "_json"
                       for enc in exactlin._ENCODERS.values())


def test_dump_json_never_holds_two_leaves_in_one_chunk():
    # A cubulate-shaped report of three equal matrices: each goes out in
    # a chunk of its own, so no chunk comes near the whole text.
    m = [[str(i * j - 7) for j in range(40)] for i in range(40)]
    tree = {"basis": m, "generators": [m, m], "name": "G"}
    chunks = []
    dump_json(tree, chunks.append)
    text = "".join(chunks)
    assert text == dumps(tree)
    assert max(map(len, chunks)) < len(text) // 2


# IndexPairs: (count, degrees, targets) for rows [u, v] with u, v below
# count, u in order and v in any order within a head: the empty set,
# heads with no row and degree columns shorter than count included.
_PAIR_COLUMNS = st.integers(min_value=1, max_value=50).flatmap(
    lambda count: st.tuples(
        st.just(count),
        st.lists(st.lists(st.integers(0, count - 1), max_size=4),
                 max_size=count)))


# Up to three levels of nesting: the rows under a key of a dict with
# other keys, or at a place in a list of other items.
_NESTINGS = st.lists(st.one_of(
    st.tuples(st.just("dict"), _TEXT,
              st.dictionaries(_TEXT, _SCALARS, max_size=2)),
    st.tuples(st.just("list"), st.integers(min_value=0, max_value=2),
              st.lists(_SCALARS, max_size=2))), max_size=3)


def _columns(count, groups):
    """(count, degrees, targets) of the rows [u, v] for v in groups[u]."""
    return (count, array("l", map(len, groups)),
            [v for group in groups for v in group])


def _nest(value, nestings):
    for kind, where, others in nestings:
        if kind == "dict":
            value = {**others, where: value}
        else:
            value = others[:where] + [value] + others[where:]
    return value


def _rows(groups):
    return [[u, v] for u, group in enumerate(groups) for v in group]


@settings(max_examples=300, deadline=None)
@given(_PAIR_COLUMNS, _NESTINGS)
def test_json_text_renders_index_pairs_as_their_rows(pair_columns, nestings):
    count, groups = pair_columns
    count, degrees, targets = _columns(count, groups)
    tree = _nest(IndexPairs(degrees, targets, count), nestings)
    expected = dumps(_nest(_rows(groups), nestings))
    assert joined(tree) == expected


def test_json_text_of_index_pairs_makes_no_row():
    # IndexPairs has no member that makes a row: dump_json reads its
    # columns.
    tree = {"edges": IndexPairs(array("l", [2, 0, 1]), [1, 2, 0], 3),
            "empty": [IndexPairs(array("l"), [], 0)],
            "nested": [[IndexPairs([0, 1], [0], 2)], [1]]}
    expected = dumps({"edges": [[0, 1], [0, 2], [2, 0]], "empty": [[]],
                      "nested": [[[[1, 0]]], [1]]})
    assert joined(tree) == expected


# DigitColumns: (width, rows) for count strings of width digits, the
# empty list, one string and width 0 included.
_DIGIT_ROWS = st.integers(min_value=0, max_value=8).flatmap(
    lambda width: st.tuples(st.just(width), st.lists(
        st.text("0123456789", min_size=width, max_size=width),
        max_size=40)))


def _as_digit_columns(width, rows):
    """The DigitColumns of rows, strings of width digits."""
    return DigitColumns([bytes("".join(row[i] for row in rows), "ascii")
                         for i in range(width)], len(rows))


@settings(max_examples=300, deadline=None)
@given(_DIGIT_ROWS, _NESTINGS.filter(lambda nestings: len(nestings) <= 2))
@example((0, [""]), [])
@example((3, ["012"]), [("list", 0, [])])
@example((0, ["", "", ""]), [("dict", "zero_cubes", {"edges": 1})])
def test_json_text_renders_digit_columns_as_their_strings(digit_rows,
                                                          nestings):
    width, rows = digit_rows
    tree = _nest(_as_digit_columns(width, rows), nestings)
    assert joined(tree) == dumps(_nest(rows, nestings))


@pytest.mark.parametrize("count", [PAIRS_SLICE - 1, PAIRS_SLICE,
                                   PAIRS_SLICE + 1, 2 * PAIRS_SLICE + 1])
def test_digit_columns_render_across_a_slice_boundary(count):
    rng = random.Random(count)
    rows = ["".join(rng.choices("01", k=5)) for _ in range(count)]
    for nestings in ([], [("dict", "zero_cubes", {"format": "x"})],
                     [("list", 1, [2]), ("dict", "k", {})]):
        tree = _nest(_as_digit_columns(5, rows), nestings)
        assert joined(tree) == dumps(_nest(rows, nestings))


def test_json_text_of_digit_columns_makes_no_string():
    # DigitColumns has no member that makes a string: dump_json reads
    # its columns.
    tree = {"cubes": DigitColumns([b"0110", b"0011"], 4),
            "empty": [DigitColumns([b"", b""], 0)],
            "nested": [[DigitColumns([], 2)], [1]]}
    expected = dumps({"cubes": ["00", "10", "11", "01"], "empty": [[]],
                      "nested": [[["", ""]], [1]]})
    assert joined(tree) == expected


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
