"""Tests for crystallographic group structure data and the catalog."""

import json
from fractions import Fraction

import pytest

from cubecrys.crys import (
    CATALOG_NAMES,
    CATALOG_POINT_ORDERS,
    BasisError,
    CrystGroup,
    ExtensionError,
    FormatError,
    LatticeInvarianceError,
    StructureError,
    catalog_entry,
    group_from_json_dict,
    group_to_json_dict,
    load_catalog,
    load_group,
    point_group_real,
    save_group,
    semidirect_extend,
    validate,
)
from cubecrys.exactlin import RatMatrix, ShapeError, det, identity, inverse
from inputs import I2, group
from oracles import trace


def test_closure_and_successor_table():
    g = group("p4", I2, [[[0, -1], [1, 0]]])
    elements = g.point_elements()
    assert len(elements) == 4
    assert elements[0] == ((1, 0), (0, 1))
    assert g.point_group_order() == 4
    table = g.point_table()
    assert elements is table.elements
    # Element k times generator j is element next[k][j].
    for k, row in enumerate(table.next):
        for j, target in enumerate(row):
            assert (RatMatrix(elements[k]) * RatMatrix(g.point_generators[j])
                    == RatMatrix(elements[target]))
    assert table.next == ((1,), (2,), (3,), (0,))
    assert table.order == (1, 4, 2, 4)
    assert table.det == (1, 1, 1, 1)
    assert table.trace == (2, 0, -2, 0)


def test_closure_cap_rejects_infinite_order():
    shear = group("bad", I2, [[[1, 1], [0, 1]]])
    with pytest.raises(StructureError):
        shear.point_elements()


def test_group_is_immutable():
    g = group("p2", I2, [[[-1, 0], [0, -1]]])
    with pytest.raises(AttributeError):
        g.name = "other"


def test_validate_reports_orders():
    g = group("p4", I2, [[[0, -1], [1, 0]]])
    report = validate(g)
    assert report.point_group_order == 4
    assert report.element_orders == (1, 2, 4, 4)
    assert report.lattice_determinant == 1
    assert report.to_json_dict()["element_orders"] == [1, 2, 4, 4]


def test_validate_rejects_bad_data():
    with pytest.raises(BasisError):
        validate(CrystGroup("g", 2, [[1, 1], [1, 1]], [], []))
    with pytest.raises(BasisError):
        validate(CrystGroup("g", 2, identity(3), [], []))
    with pytest.raises(BasisError):
        validate(CrystGroup("g", 2, [[1, 0]], [], []))
    with pytest.raises(StructureError):
        validate(group("g", I2, [[[-1, 0], [0, -1]]], parts=[]))
    with pytest.raises(LatticeInvarianceError):
        validate(group("g", I2, [[["1/2", 0], [0, 1]]]))
    with pytest.raises(LatticeInvarianceError):
        validate(group("g", I2, [[[2, 0], [0, 1]]]))
    with pytest.raises(StructureError):
        validate(group("g", I2, [[[0, -1], [1, 0]]],
                              parts=[[0, 0, 0]]))


def test_point_group_real_conjugates_by_the_basis():
    g = catalog_entry("cm")
    L = RatMatrix(g.lattice_basis)
    reals = point_group_real(g)
    for m, t in zip(g.point_elements(), reals):
        assert t == L * RatMatrix(m) * RatMatrix(inverse(g.lattice_basis))
    # The rhombic basis turns the swap into an orthogonal reflection.
    swap_real = reals[g.point_elements().index(((0, 1), (1, 0)))]
    assert swap_real == RatMatrix([[1, 0], [0, -1]])


def test_semidirect_extend_block_structure():
    w = catalog_entry("W")
    ext = semidirect_extend(w, 1, [[[-1]]], name="tw")
    assert ext.dimension == 3
    assert ext.point_group_order() == w.point_group_order()
    gen = ext.point_generators[0]
    assert gen[2][2] == -1
    assert gen[0][2] == 0 and gen[2][0] == 0
    assert gen[:2] == tuple(row + (0,) for row in w.point_generators[0])
    assert ext.lattice_basis == (w.lattice_basis[0] + (0,),
                                 w.lattice_basis[1] + (0,), (0, 0, 1))
    assert ext.translation_parts[0] == (0, 0, 0)
    # m = 0 is a no-op.
    assert semidirect_extend(w, 0, []) is w


def test_semidirect_extend_rejects_wrong_action():
    w = catalog_entry("W")
    with pytest.raises(ExtensionError):
        semidirect_extend(w, -1, [])
    with pytest.raises(ExtensionError):
        semidirect_extend(w, 1, [])
    with pytest.raises(ExtensionError):
        semidirect_extend(w, 1, [[["1/2"]]])
    with pytest.raises(ExtensionError):
        semidirect_extend(w, 1, [[[1, 0]]])
    # Order 2 on the new direction cannot satisfy the order-6 relation
    # wordlessly: (gen, -1) has order lcm(6, 2) = 6, fine; but an
    # action violating the relations must be caught.  Use order 4.
    with pytest.raises(ExtensionError):
        semidirect_extend(catalog_entry("p2"), 2,
                          [[[0, -1], [1, 0]]])
    # A shear has infinite order, so it breaks W's order-6 relation.
    with pytest.raises(ExtensionError):
        semidirect_extend(w, 2, [[[1, 1], [0, 1]]])


def test_semidirect_extend_checks_on_the_base_table_only():
    """The action is extended along W's point table; the extended
    group's closure is not built until asked for."""
    w = catalog_entry("W")
    for action in ([[[1]]], [[[-1]]]):
        ext = semidirect_extend(w, 1, action)
        assert ext._elements is None
        assert ext.point_group_order() == w.point_group_order()
    ext = semidirect_extend(w, 2, [[[0, -1], [1, 1]]])
    assert ext._elements is None
    assert validate(ext).point_group_order == 6


def test_extend_walks_generator_images_along_the_table():
    """values[k * j] = product(values[k], images[j]), or None when the
    images break a relation: the quarter turn of p4 to Z/4 and Z/3."""
    table = catalog_entry("p4").point_table()
    assert table.extend(0, [1], lambda a, b: (a + b) % 4) == [0, 1, 2, 3]
    assert table.extend(0, [1], lambda a, b: (a + b) % 3) is None
    p4m = catalog_entry("p4m").point_table()
    dets = [p4m.det[k] for k in p4m.next[0]]
    assert p4m.extend(1, dets, int.__mul__) == list(p4m.det)


def test_group_file_round_trip(tmp_path):
    g = catalog_entry("pg")
    path = tmp_path / "pg.json"
    save_group(g, path)
    back = load_group(path)
    assert back.name == g.name
    assert back.lattice_basis == g.lattice_basis
    assert back.point_generators == g.point_generators
    assert back.translation_parts == g.translation_parts
    assert group_to_json_dict(back) == group_to_json_dict(g)


def test_group_file_format_errors(tmp_path):
    with pytest.raises(FormatError):
        group_from_json_dict({"format": "something-else/9"})
    with pytest.raises(FormatError):
        group_from_json_dict(["not", "an", "object"])
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"format": "cubecrys-group/1"}))
    with pytest.raises(FormatError):
        load_group(incomplete)
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{oops")
    with pytest.raises(FormatError) as err:
        load_group(bad_json)
    assert "line 1" in str(err.value)


@pytest.mark.parametrize("dimension", [2.7, "2", 2.0, True, 0, -1])
def test_group_file_dimension_must_be_a_positive_json_integer(dimension):
    d = group_to_json_dict(catalog_entry("p2"))
    d["dimension"] = dimension
    with pytest.raises(FormatError, match="dimension"):
        group_from_json_dict(d)


@pytest.mark.parametrize("dimension", [2.7, True, "2", 0, -1])
def test_group_dimension_must_be_a_positive_integer(dimension):
    with pytest.raises(StructureError, match="dimension must be an integer"):
        CrystGroup("x", dimension, identity(2),
                   [[[-1, 0], [0, -1]]], [[0, 0]])


@pytest.mark.parametrize("dimension, shown", [
    (Fraction(2), '"Fraction(2, 1)"'), (2.0, "2.0"), (True, "true"),
    (0, "0")])
def test_a_bad_dimension_is_shown_in_its_structure_error(dimension, shown):
    with pytest.raises(StructureError) as err:
        CrystGroup("x", dimension, identity(2), [], [])
    assert str(err.value) == "dimension must be an integer >= 1, got " + shown


def test_catalog_has_twenty_validated_entries():
    groups = load_catalog()
    assert [g.name for g in groups] == CATALOG_NAMES
    assert len(groups) == 20
    for g in groups:
        assert g.point_group_order() == CATALOG_POINT_ORDERS[g.name]


def test_catalog_point_orders():
    """The classical point-group orders of the 17 plane groups."""
    expected = {
        "p1": 1, "p2": 2, "pm": 2, "pg": 2, "cm": 2,
        "pmm": 4, "pmg": 4, "pgg": 4, "cmm": 4,
        "p4": 4, "p4m": 8, "p4g": 8,
        "p3": 3, "p3m1": 6, "p31m": 6,
        "p6": 6, "p6m": 12,
    }
    for name, order in expected.items():
        assert CATALOG_POINT_ORDERS[name] == order


def test_hexagonal_entries_have_the_right_element_orders():
    assert validate(catalog_entry("p3")).element_orders == (1, 3, 3)
    assert validate(catalog_entry("p6")).element_orders == (1, 2, 3, 3, 6, 6)
    w = catalog_entry("W")
    assert validate(w).element_orders == (1, 2, 3, 3, 6, 6)
    gen = w.point_generators[0]
    assert det(gen) == 1 and trace(gen) == 1


def test_pg_carries_a_genuine_glide():
    pg = catalog_entry("pg")
    assert pg.translation_parts[0] == (Fraction(1, 2), 0)


def test_catalog_entry_lookup():
    assert catalog_entry("p6m").point_group_order() == 12
    with pytest.raises(KeyError):
        catalog_entry("p7")


def test_zw_twisted_and_untwisted_differ():
    zxw = catalog_entry("ZxW")
    zsw = catalog_entry("Z:W")
    assert zxw.dimension == 3 and zsw.dimension == 3
    gen_plus = zxw.point_generators[0]
    gen_minus = zsw.point_generators[0]
    assert gen_plus[2][2] == 1
    assert gen_minus[2][2] == -1
    assert det(gen_plus) == 1
    assert det(gen_minus) == -1
    assert trace(gen_plus) == 2
    assert trace(gen_minus) == 0


def test_entries_are_read_as_fraction_rows():
    g = CrystGroup("g", 2, [["1", "1/2"], [0, 1]], [[[-1, 0], [0, -1]]],
                   [[Fraction(1, 2), "0"]])
    assert g.lattice_basis == ((1, Fraction(1, 2)), (0, 1))
    assert g.point_generators == (((-1, 0), (0, -1)),)
    assert g.translation_parts == ((Fraction(1, 2), 0),)
    assert all(type(e) is Fraction for m in (g.lattice_basis,
                                              *g.point_generators)
               for row in m for e in row)
    with pytest.raises(ShapeError, match="ragged rows"):
        CrystGroup("g", 2, [[1, 0], [0]], [], [])


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("where", ["lattice_basis", "point_generators",
                                   "translation_parts"])
def test_the_constructor_refuses_bools(where, value):
    args = {"lattice_basis": [[1, 0], [0, 1]],
            "point_generators": [[[-1, 0], [0, -1]]],
            "translation_parts": [[0, 0]]}
    if where == "translation_parts":
        args[where] = [[value, 0]]
    elif where == "point_generators":
        args[where] = [[[value, 0], [0, -1]]]
    else:
        args[where] = [[1, 0], [0, value]]
    with pytest.raises(ValueError, match="not a serialized rational"):
        CrystGroup("g", 2, **args)


def test_a_non_integer_generator_loads_and_fails_in_validate(tmp_path):
    d = group_to_json_dict(catalog_entry("p2"))
    d["point_generators"] = [[["1/2", "0"], ["0", "1"]]]
    path = tmp_path / "half.json"
    path.write_text(json.dumps(d))
    g = load_group(path)
    with pytest.raises(LatticeInvarianceError,
                       match="point generator 0 has a non-integer entry"):
        validate(g)
