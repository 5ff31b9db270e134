"""End-to-end tests for the command-line frontend."""

import hashlib
import itertools
import json
from fractions import Fraction
from math import comb

import pytest

from cubecrys import boundary, cli, dual
from cubecrys.boundary import parse_product, product_boundary
from cubecrys.crys import catalog_entry, save_group
from cubecrys.decide import HyperoctahedralWitness
from cubecrys.dual import (
    CubeComplex,
    FiniteWallspace,
    load_complex,
    save_wallspace,
    seeded_wallspaces,
)
from cubecrys.exactlin import RatVector
from cubecrys.walls import GeometricWall


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def group_file(tmp_path, name):
    path = tmp_path / ("%s.json" % name.replace(":", "_"))
    save_group(catalog_entry(name), path)
    return str(path)


def walls_file(tmp_path):
    ws = FiniteWallspace.geometric(
        2, [(-2, 2), (-2, 2)],
        [GeometricWall(RatVector([1, 0]), Fraction(0)),
         GeometricWall(RatVector([0, 1]), Fraction(0))],
        RatVector([Fraction(1, 2), Fraction(1, 3)]))
    path = tmp_path / "walls.json"
    save_wallspace(ws, path)
    return str(path)


# -- parser behaviour -------------------------------------------------


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "cubulate" in out


def test_missing_subcommand_is_a_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "usage error" in err


def test_unknown_flag_is_a_usage_error(capsys):
    code, _, err = run(capsys, "catalog", "--frobnicate")
    assert code == 1
    assert "usage error" in err


def test_json_and_text_are_mutually_exclusive(capsys, tmp_path):
    code, _, err = run(capsys, "catalog", "--json", "--text")
    assert code == 1
    assert "usage error" in err


# -- validate ---------------------------------------------------------


def test_validate_text(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", group_file(tmp_path, "p4"))
    assert code == 0
    assert "valid 2-dimensional crystallographic group" in out
    assert "point group order: 4" in out


def test_validate_json(capsys, tmp_path):
    report = run_json(capsys, "validate", group_file(tmp_path, "p6m"))
    assert report["command"] == "validate"
    assert report["validation"]["point_group_order"] == 12
    assert report["validation"]["element_orders"] == [1, 2, 2, 2, 2, 2, 2, 2,
                                                      3, 3, 6, 6]
    assert len(report["input_digest"]) == 64


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/group.json")
    assert code == 1
    assert "error:" in err


def test_validate_malformed_file(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "wrong"}')
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "error:" in err


def test_zero_denominator_in_a_group_file_exits_one(capsys, tmp_path):
    path = group_file(tmp_path, "p4")
    with open(path) as fh:
        data = json.load(fh)
    data["translation_parts"][0][0] = "1/0"
    with open(path, "w") as fh:
        json.dump(data, fh)
    for command in ("validate", "classify", "cubulate"):
        code, _, err = run(capsys, command, path)
        assert code == 1, command
        assert "zero denominator" in err, command


def test_fractional_dimension_in_a_group_file_exits_one(capsys, tmp_path):
    path = group_file(tmp_path, "p4")
    with open(path) as fh:
        data = json.load(fh)
    data["dimension"] = 2.7
    with open(path, "w") as fh:
        json.dump(data, fh)
    code, _, err = run(capsys, "validate", path)
    assert code == 1
    assert "dimension" in err


def count_defect_passes(monkeypatch):
    calls = []
    original = HyperoctahedralWitness._defects

    def counted(self, g):
        calls.append(g)
        return original(self, g)

    monkeypatch.setattr(HyperoctahedralWitness, "_defects", counted)
    return calls


# -- classify ---------------------------------------------------------


def test_classify_accepted(capsys, tmp_path):
    report = run_json(capsys, "classify", group_file(tmp_path, "p4"))
    assert report["verdict"] == "accepted"
    payload = report["classification"]
    assert "conjugator" in payload
    for entry in payload["elements"]:
        assert all(e == "0" for row in entry["conjugation_residual"]
                   for e in row)


def test_classify_rejected_still_exits_zero(capsys, tmp_path):
    code, out, err = run(capsys, "classify", group_file(tmp_path, "p6"))
    assert code == 0
    assert err == ""
    assert "rejected" in out
    assert "reason: order-obstruction" in out


def test_classify_character_mismatch(capsys, tmp_path):
    report = run_json(capsys, "classify", group_file(tmp_path, "ZxW"))
    assert report["verdict"] == "rejected"
    assert report["classification"]["reason"] == "character-mismatch"


def test_classify_text_mode_checks_the_witness_once(capsys, tmp_path,
                                                   monkeypatch):
    calls = count_defect_passes(monkeypatch)
    code, out, err = run(capsys, "classify", group_file(tmp_path, "Z:W"))
    assert code == 0, err
    assert "residuals are zero" in out
    assert len(calls) == 1


# -- cubulate ---------------------------------------------------------


def test_cubulate_hexagonal_lattice_basis(capsys, tmp_path):
    report = run_json(capsys, "cubulate", group_file(tmp_path, "p6"))
    assert report["N"] == 3
    assert report["basis_source"] == "lattice"
    assert report["stabilized_group"]["dimension"] == 3
    sep = report["linear_separation"]
    assert sep["pairs_checked"] == 100
    assert sep["lower_bound_checked"] is True
    assert len(report["induced_action"]) == 6


def test_cubulate_witness_basis(capsys, tmp_path):
    path = group_file(tmp_path, "Z:W")
    lattice = run_json(capsys, "cubulate", path)
    assert lattice["N"] == 4
    witness = run_json(capsys, "cubulate", path, "--use-witness-basis")
    assert witness["N"] == 3
    assert witness["basis_source"] == "witness"


def test_cubulate_witness_basis_needs_acceptance(capsys, tmp_path):
    code, _, err = run(capsys, "cubulate", group_file(tmp_path, "p6"),
                       "--use-witness-basis")
    assert code == 1
    assert "rejected" in err


def test_cubulate_seed_flag_and_env(capsys, tmp_path, monkeypatch):
    path = group_file(tmp_path, "p1")
    assert run_json(capsys, "cubulate", path, "--seed", "5")["seed"] == 5
    monkeypatch.setenv(cli.SEED_ENV, "7")
    assert run_json(capsys, "cubulate", path)["seed"] == 7
    monkeypatch.setenv(cli.SEED_ENV, "many")
    code, _, err = run(capsys, "cubulate", path)
    assert code == 1
    assert cli.SEED_ENV in err


def test_cubulate_builds_the_wall_family_once(capsys, tmp_path, monkeypatch):
    from cubecrys import walls
    original = walls.direction_class_count
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "direction_class_count", counted)
    monkeypatch.setattr(walls, "direction_class_count", counted)
    report = run_json(capsys, "cubulate", group_file(tmp_path, "p6"))
    assert report["N"] == 3
    assert len(calls) == 1


def test_cubulate_witness_basis_checks_the_witness_once(capsys, tmp_path,
                                                       monkeypatch):
    calls = count_defect_passes(monkeypatch)
    report = run_json(capsys, "cubulate", group_file(tmp_path, "Z:W"),
                      "--use-witness-basis")
    assert report["basis_source"] == "witness"
    assert len(calls) == 1


def test_cubulate_text_output(capsys, tmp_path):
    code, out, _ = run(capsys, "cubulate", group_file(tmp_path, "p4"), "--text")
    assert code == 0
    assert "N = 2" in out
    assert "stabilized group" in out


# -- dual -------------------------------------------------------------


def test_dual_summary(capsys, tmp_path):
    report = run_json(capsys, "dual", walls_file(tmp_path))
    assert report["summary"] == {
        "zero_cubes": 4,
        "edges": 4,
        "walls": 2,
        "median_graph": True,
        "duality_round_trip": True,
    }
    assert len(report["complex"]["zero_cubes"]) == 4


def test_dual_of_ten_crossing_lines(capsys, tmp_path):
    # Lines through the origin with ten directions cross pairwise, so
    # every one of the 2^10 side choices is a 0-cube.
    path = tmp_path / "lines.json"
    save_wallspace(ten_crossing_lines(), path)
    report = run_json(capsys, "dual", str(path))
    assert report["summary"] == {
        "zero_cubes": 1024,
        "edges": 5120,
        "walls": 10,
        "median_graph": True,
        "duality_round_trip": True,
    }


def ten_crossing_lines():
    return FiniteWallspace.geometric(
        2, [(-2, 2), (-2, 2)],
        [GeometricWall(RatVector([1, i]), Fraction(0)) for i in range(10)],
        RatVector([Fraction(1, 2), Fraction(1, 3)]))


def spatial_arrangement():
    """15 planes in a 3-D box: eleven through the origin, and two pairs
    of parallel planes; planes of different directions cross in the
    box, so there are 2^11 * 3 * 3 = 18,432 0-cubes, above
    MEDIAN_VERTEX_CAP."""
    normals = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0),
               (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1), (1, 1, 1),
               (1, 1, -1)]
    walls = [GeometricWall(RatVector(n), Fraction(0)) for n in normals]
    walls += [GeometricWall(RatVector(n), Fraction(c))
              for n in ((1, -1, 1), (-1, 1, 1)) for c in (-1, 1)]
    return FiniteWallspace.geometric(
        3, [(-10, 10)] * 3, walls,
        RatVector([Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)]))


# sha256 of `dual walls.json --json --out complex.json` stdout and of
# complex.json, recorded before the report and the complex files moved
# to exactlin.json_text; every byte must stay the same.
DUAL_PINS = {
    "ten_crossing_lines": (
        "8d31decc51e8af3dd37841e70c44b68621125d17ed90138b6a56a3a82bde276a",
        "06846a62d5f2179f2bdfe94f815fc50cb1e8b2ed720a0c5f79a3bfbf0871d0e6"),
    "spatial_arrangement": (
        "74ff1f13220fc7a8320ebdae82f523cce5070b67925f5ed8140349c9d87a64c4",
        "de091734ed3c3a12b17c80651ea8bd04cb8f06f1b9daa3f9972752a3150a9d35"),
}


@pytest.mark.parametrize("name", sorted(DUAL_PINS))
def test_dual_report_and_complex_file_bytes_are_pinned(
        name, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_wallspace(globals()[name](), "walls.json")
    code, out, err = run(capsys, "dual", "walls.json", "--json",
                         "--out", "complex.json")
    assert code == 0, err
    written = (tmp_path / "complex.json").read_bytes()
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest(),
            hashlib.sha256(written).hexdigest()) == DUAL_PINS[name]


# sha256 of the `dual --json` stdout of the 32 wallspaces of
# seeded_wallspaces(count=32, seed=0, max_walls=5), joined in order:
# the dual-check benchmark's shape, median and duality fields included.
SEEDED_DUAL_PIN = (
    "03e39fb0f774145d55aa02a3a6e6cf891cacd730dded03c37bc4c3201c92a297")


def test_dual_reports_on_seeded_wallspaces_are_pinned(capsys, tmp_path):
    digest = hashlib.sha256()
    spaces = seeded_wallspaces(count=32, seed=0, max_walls=5)
    for i, ws in enumerate(spaces):
        path = tmp_path / ("w%d.json" % i)
        save_wallspace(ws, path)
        code, out, err = run(capsys, "dual", str(path), "--json")
        assert code == 0, err
        digest.update(out.encode("utf-8"))
    assert digest.hexdigest() == SEEDED_DUAL_PIN


def test_dual_out_round_trip(capsys, tmp_path):
    out_path = tmp_path / "complex.json"
    report = run_json(capsys, "dual", walls_file(tmp_path),
                      "--out", str(out_path))
    back = load_complex(out_path)
    assert back.to_json_dict() == report["complex"]
    assert report["written"] == str(out_path)


def test_dual_text_mode_builds_no_complex_dict(capsys, tmp_path, monkeypatch):
    calls = []
    original = CubeComplex.to_json_dict

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(CubeComplex, "to_json_dict", counted)
    path = walls_file(tmp_path)
    code, out, err = run(capsys, "dual", path)
    assert code == 0, err
    assert out.startswith("dual complex: 4 0-cubes") and calls == []
    code, _, err = run(capsys, "dual", path, "--out", str(tmp_path / "c.json"))
    assert code == 0, err
    assert len(calls) == 1


def test_dual_walks_the_flip_closure_once_per_verdict(capsys, tmp_path,
                                                      monkeypatch):
    # One walk enumerates the dual and one decides both report fields.
    calls = []
    original = dual._flip_closure

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(dual, "_flip_closure", counted)
    code, out, err = run(capsys, "dual", walls_file(tmp_path))
    assert code == 0, err
    assert "median graph: True" in out and "round-trip: True" in out
    assert len(calls) == 2


def test_dual_missing_and_malformed_files(capsys, tmp_path):
    code, _, err = run(capsys, "dual", "/nonexistent/walls.json")
    assert code == 1
    assert "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "cubecrys-walls/1"}')
    code, _, err = run(capsys, "dual", str(bad))
    assert code == 1
    assert "missing key" in err


def test_zero_denominator_in_a_walls_file_exits_one(capsys, tmp_path):
    path = walls_file(tmp_path)
    with open(path) as fh:
        data = json.load(fh)
    data["walls"][0]["offset"] = "1/0"
    with open(path, "w") as fh:
        json.dump(data, fh)
    code, _, err = run(capsys, "dual", path)
    assert code == 1
    assert "zero denominator" in err


# -- boundary ---------------------------------------------------------


def test_boundary_finite(capsys):
    report = run_json(capsys, "boundary", "Line*Line")
    assert report["boundary"]["verdict"] == "finite"
    assert report["boundary"]["f_vector"] == [4, 4]
    assert report["factors"] == ["Line", "Line"]


@pytest.mark.parametrize("k", range(1, 9))
def test_boundary_f_vector_matches_the_clique_count(k):
    """The f-polynomial product against enumerating every simplex, on
    every product of k factors up to order (the f-vector ignores it)."""
    for combo in itertools.combinations_with_replacement(
            ("Point", "HalfLine", "Line"), k):
        factors = parse_product("*".join(combo))
        expected = list(product_boundary(factors).as_complex().f_vector())
        assert cli._join_f_vector(factors) == expected, combo


def test_boundary_of_forty_lines(capsys):
    report = run_json(capsys, "boundary", "*".join(["Line"] * 40))
    assert report["boundary"]["f_vector"] == [
        comb(40, k + 1) * 2 ** (k + 1) for k in range(40)]


def test_boundary_text_mode_builds_no_join(capsys, monkeypatch):
    def refused(*parts):
        raise AssertionError("text mode built the joined complex")

    monkeypatch.setattr(boundary, "simplicial_join", refused)
    code, out, err = run(capsys, "boundary", "*".join(["Line"] * 12))
    assert code == 0, err
    assert out.splitlines()[1].startswith("f-vector: [24, 264,")


def test_boundary_symbolic(capsys):
    report = run_json(capsys, "boundary", "Line*Tree(3)")
    assert report["boundary"]["verdict"] == "symbolic"
    assert "infinite-discrete" in report["boundary"]["description"]


def test_boundary_bad_expression(capsys):
    code, _, err = run(capsys, "boundary", "Plane*Line")
    assert code == 1
    assert "error:" in err


# -- catalog ----------------------------------------------------------


def test_catalog_json_is_deterministic(capsys):
    first = run_json(capsys, "catalog")
    second = run_json(capsys, "catalog")
    assert first == second
    entries = first["entries"]
    assert len(entries) == 20
    verdicts = {e["name"]: e["verdict"] for e in entries}
    assert sum(1 for v in verdicts.values() if v == "accepted") == 13
    assert verdicts["p6"] == "rejected"
    assert verdicts["Z:W"] == "accepted"
    by_name = {e["name"]: e for e in entries}
    assert by_name["p6"]["reason"] == "order-obstruction"
    assert by_name["ZxW"]["reason"] == "character-mismatch"
    assert by_name["p6"]["N"] == 3
    assert by_name["p4m"]["N"] == 2


def test_catalog_text_table(capsys):
    code, out, _ = run(capsys, "catalog", "--text")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["name", "dim", "|P|", "verdict", "N", "reason"]
    assert len(lines) == 22  # header, rule, 20 rows


# -- internal failures ------------------------------------------------


def test_internal_errors_exit_two(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("wires crossed")

    monkeypatch.setitem(cli._HANDLERS, "catalog", boom)
    code, _, err = run(capsys, "catalog")
    assert code == 2
    assert "internal error: RuntimeError" in err
