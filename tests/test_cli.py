"""End-to-end tests for the command-line frontend."""

import argparse
import builtins
import hashlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import cubecrys
from cubecrys import boundary, cli, dual
from cubecrys.boundary import parse_product, product_boundary
from cubecrys.crys import (
    CATALOG_NAMES,
    PointTable,
    catalog_entry,
    group_from_json_dict,
    save_group,
    validate,
)
from cubecrys.decide import HyperoctahedralWitness, is_hyperoctahedral
from cubecrys.dual import (
    CubeComplex,
    FiniteWallspace,
    load_wallspace,
    save_wallspace,
    seeded_wallspaces,
)
from cubecrys.exactlin import identity
from cubecrys.sgnperm import SignedPermutation
from cubecrys.walls import GeometricWall
import golden
from groups import b4_generic, plane_families, ten_crossing_lines
from oracles import stored_edge_dual


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
        [GeometricWall([1, 0], Fraction(0)),
         GeometricWall([0, 1], Fraction(0))],
        [Fraction(1, 2), Fraction(1, 3)])
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


def counted_parser_inits(monkeypatch):
    """Clear main's parser cache and count every ArgumentParser built."""
    inits = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        inits.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    return inits


def test_main_builds_its_parser_once(capsys, tmp_path, monkeypatch):
    group, walls = group_file(tmp_path, "p4"), walls_file(tmp_path)
    calls = [["validate", group], ["classify", group, "--json"],
             ["cubulate", group, "--seed", "2"], ["dual", walls, "--json"],
             ["boundary", "Line*Line", "--text"]] * 4
    calls[-1] = ["catalog"]
    inits = counted_parser_inits(monkeypatch)
    codes = []
    for argv in calls:
        codes.append(run(capsys, *argv)[0])
        # The top parser, the shared --json/--text parent and one
        # parser per subcommand.
        assert len(inits) == 8
    assert codes == [0] * 20 and {c[0] for c in calls} == set(cli._HANDLERS)
    assert cli._build_parser.cache_info().misses == 1


def test_a_reused_parser_answers_each_call_as_a_fresh_one(capsys, tmp_path,
                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    group, walls = group_file(tmp_path, "p4"), walls_file(tmp_path)
    calls = [
        ({}, ["dual", walls, "--json", "--out", "complex.json"]),
        ({}, ["dual", walls]),
        ({}, ["cubulate", group, "--seed", "3"]),
        ({cli.SEED_ENV: "7"}, ["cubulate", group]),
        ({}, ["catalog", "--frobnicate"]),
        ({}, ["catalog", "--json", "--text"]),
        ({}, ["--help"]),
        ({}, []),
    ]

    def answers(fresh):
        cli._build_parser.cache_clear()
        out = []
        for env, argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            monkeypatch.delenv(cli.SEED_ENV, raising=False)
            for key, value in env.items():
                monkeypatch.setenv(key, value)
            out.append(run(capsys, *argv))
        return out, (tmp_path / "complex.json").read_bytes()

    reused, fresh = answers(False), answers(True)
    assert reused == fresh
    codes = [code for code, _, _ in reused[0]]
    assert codes == [0, 0, 0, 0, 1, 1, 0, 1]
    text = reused[0][1][1]
    assert "0-cubes" in text and "written" not in text
    assert "(seed 3)" in reused[0][2][1] and "(seed 7)" in reused[0][3][1]
    assert "usage: cubecrys" in reused[0][6][1]
    assert all("usage error" in reused[0][k][2] for k in (4, 5, 7))


def test_importing_the_cli_builds_no_parser():
    src = str(Path(cubecrys.__file__).resolve().parents[1])
    script = (
        "import argparse\n"
        "inits = []\n"
        "original = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    inits.append(self)\n"
        "    original(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import cubecrys.cli\n"
        "print(len(inits))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"0\n", b"")


# -- validate ---------------------------------------------------------


def test_validate_text(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", group_file(tmp_path, "p4"))
    assert code == 0
    assert "valid 2-dimensional crystallographic group" in out
    assert "point group order: 4" in out


def test_validate_json(capsys, tmp_path):
    path = group_file(tmp_path, "p6m")
    report = run_json(capsys, "validate", path)
    assert report["command"] == "validate"
    assert report["validation"]["point_group_order"] == 12
    assert report["validation"]["element_orders"] == [1, 2, 2, 2, 2, 2, 2, 2,
                                                      3, 3, 6, 6]
    assert report["input_digest"] == hashlib.sha256(
        Path(path).read_bytes()).hexdigest()


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


def put_entry(path, where, value):
    """Rewrite the JSON file at path with value at the key path where."""
    with open(path) as fh:
        data = json.load(fh)
    *outer, last = where
    holder = data
    for key in outer:
        holder = holder[key]
    holder[last] = value
    with open(path, "w") as fh:
        json.dump(data, fh)


# A JSON true or false is no rational, even where it would read as the
# entry's own value 1 or 0.
@pytest.mark.parametrize("where, value", [
    (("lattice_basis", 0, 0), True),
    (("point_generators", 0, 1, 0), True),
    (("translation_parts", 0, 1), False),
])
def test_a_boolean_in_a_group_file_exits_one(where, value, capsys, tmp_path):
    path = group_file(tmp_path, "p4")
    put_entry(path, where, value)
    for command in ("validate", "classify", "cubulate"):
        code, out, err = run(capsys, command, path)
        assert (code, out) == (1, ""), command
        assert "malformed cubecrys-group/1 file" in err, command


# A string is no row, though each of its characters reads as an entry;
# the first case passed `validate` as the identity lattice.  Nor is an
# empty string or an object a list of generators or of translation
# parts: both iterate as no items, and the sixth case passed `validate`
# as the trivial group.
@pytest.mark.parametrize("changes", [
    [(("lattice_basis",), ["10", "01"]), (("point_generators",), []),
     (("translation_parts",), [])],
    [(("lattice_basis", 1), "01")],
    [(("point_generators", 0, 0), "01")],
    [(("translation_parts", 0), "00")],
    [(("translation_parts", 0), {"0": 0, "1": 0})],
    [(("point_generators",), ""), (("translation_parts",), "")],
    [(("point_generators",), {}), (("translation_parts",), {})],
    [(("point_generators",), "")],
    [(("translation_parts",), "")],
], ids=repr)
def test_a_string_row_in_a_group_file_exits_one(changes, capsys, tmp_path):
    path = group_file(tmp_path, "p4")
    for where, value in changes:
        put_entry(path, where, value)
    for command in ("validate", "classify", "cubulate"):
        code, out, err = run(capsys, command, path)
        assert (code, out) == (1, ""), command
        assert "malformed cubecrys-group/1 file" in err, command
        assert "must be an array, not a" in err, command


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


# -- input files ------------------------------------------------------


def input_file(tmp_path, command) -> Path:
    """A walls file for dual, a group file (p4) for the others."""
    if command == "dual":
        return Path(walls_file(tmp_path))
    return Path(group_file(tmp_path, "p4"))


@pytest.mark.parametrize("command",
                         ["validate", "classify", "cubulate", "dual"])
def test_the_digest_is_of_the_one_read_of_the_input(capsys, tmp_path,
                                                    monkeypatch, command):
    path = input_file(tmp_path, command)
    opened = []
    original = builtins.open

    def counted(file, *args, **kwargs):
        opened.append(str(file))
        return original(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    report = run_json(capsys, command, str(path))
    assert opened.count(str(path)) == 1
    assert report["input_digest"] == hashlib.sha256(
        path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command",
                         ["validate", "classify", "cubulate", "dual"])
def test_input_files_decode_as_text_mode_does(capsys, tmp_path, command):
    # UTF-8 with universal newlines: CRLF and lone CR line ends read as
    # LF ones, and count as one line each in a syntax error's position;
    # a BOM is a syntax error, and invalid UTF-8 a decoding error.
    path = input_file(tmp_path, command)
    raw = path.read_bytes()
    expected = run(capsys, command, str(path))
    assert expected[0] == 0
    cases = [
        (raw.replace(b"\n", b"\r\n"), expected),
        (raw.replace(b"\n", b"\r"), expected),
        (b"\xef\xbb\xbf" + raw,
         (1, "", "error: not valid JSON at line 1 column 1: Unexpected "
                 "UTF-8 BOM (decode using utf-8-sig)\n")),
        (raw[:40] + b"\xff" + raw[40:],
         (1, "", "error: 'utf-8' codec can't decode byte 0xff in position "
                 "40: invalid start byte\n")),
        (b"\r\n\r\r\n  ]" + raw,
         (1, "", "error: not valid JSON at line 4 column 3: Expecting "
                 "value\n")),
    ]
    for data, outcome in cases:
        path.write_bytes(data)
        assert run(capsys, command, str(path)) == outcome, data[:12]


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


def test_classify_json_checks_the_witness_once(capsys, tmp_path, monkeypatch):
    # The report's residuals come from the defects the check computed.
    calls = count_defect_passes(monkeypatch)
    report = run_json(capsys, "classify", group_file(tmp_path, "Z:W"))
    assert report["verdict"] == "accepted"
    assert all(set(sum(e["conjugation_residual"], [])) == {"0"}
               for e in report["classification"]["elements"])
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


def test_cubulate_extends_the_class_action_once(capsys, tmp_path,
                                                monkeypatch):
    """The wall family extends the generators' signed permutations of
    B4-generic's 268 classes; stabilize does not extend them again."""
    extend = PointTable.extend
    ones = []

    def counted(self, one, images, product):
        ones.append(one)
        return extend(self, one, images, product)

    monkeypatch.setattr(PointTable, "extend", counted)
    path = tmp_path / "b4-generic.json"
    save_group(b4_generic(), path)
    assert run_json(capsys, "cubulate", str(path))["N"] == 268
    assert ones.count(SignedPermutation.identity(268)) == 1


def test_cubulate_stabilized_groups_read_back_as_accepted_group_files(
        capsys, tmp_path):
    for name in ("p3", "p3m1", "p31m", "p6", "p6m", "W", "ZxW"):
        report = run_json(capsys, "cubulate", group_file(tmp_path, name))
        s = group_from_json_dict(report["stabilized_group"])
        assert validate(s).dimension == report["N"], name
        witness = is_hyperoctahedral(s)
        assert isinstance(witness, HyperoctahedralWitness), name
        assert witness.conjugator == identity(report["N"]), name


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


def test_dual_of_three_families_of_parallel_planes(capsys, tmp_path):
    # 24 walls, the wall cap: 9^3 slabs of the box, each a 0-cube.
    path = tmp_path / "planes.json"
    save_wallspace(plane_families(), path)
    code, out, err = run(capsys, "dual", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == [
        "dual complex: 729 0-cubes, 1944 edges from 24 walls",
        "median graph: True"]
    assert run_json(capsys, "dual", str(path))["summary"] == {
        "zero_cubes": 729,
        "edges": 1944,
        "walls": 24,
        "median_graph": True,
        "duality_round_trip": True,
    }


# The sha256 pins of these runs sit in tests/golden.json; each test below
# reproduces its own entries of that manifest.
def assert_golden(tmp_path, *names, stdouts=None):
    problems = golden.check(tmp_path, names, stdouts)
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("name", ["spatial_arrangement",
                                  "ten_crossing_lines"])
def test_dual_report_and_complex_file_bytes_are_pinned(name, tmp_path):
    assert_golden(tmp_path, golden.tests_entry(
        "dual", name + ".json", "--out", "complex.json"))


def test_dual_bytes_at_the_median_vertex_cap_are_pinned(tmp_path):
    stdouts = {}
    names = [golden.tests_entry("dual", "fourteen_crossing_lines.json",
                                mode=mode) for mode in ("json", "text")]
    assert_golden(tmp_path, *names, stdouts=stdouts)
    out = stdouts[names[1]].decode("utf-8")
    assert "16384 0-cubes, 114688 edges" in out and "median graph: True" in out


def test_dual_reports_on_seeded_wallspaces_are_pinned(tmp_path):
    assert_golden(tmp_path, golden.SEEDED_JOIN)


# The catalog groups that --use-witness-basis was pinned on: the 13 that
# are accepted.
WITNESS_PINNED = ["p1", "p2", "pm", "pg", "cm", "pmm", "pmg", "pgg", "cmm",
                  "p4", "p4m", "p4g", "Z:W"]


def assert_cubulate_golden(tmp_path, group_name, *options):
    assert_golden(tmp_path, *[
        golden.tests_entry("cubulate", golden.group_file_name(group_name),
                           *options, mode=mode)
        for mode in ("json", "text")])


@pytest.mark.parametrize("basis, name", [
    ("lattice", name) for name in CATALOG_NAMES] + [
    ("witness", name) for name in WITNESS_PINNED])
def test_cubulate_report_bytes_are_pinned(basis, name, tmp_path):
    extra = ["--use-witness-basis"] if basis == "witness" else []
    assert_cubulate_golden(tmp_path, name, "--seed", "0", *extra)


def test_cubulate_report_bytes_are_pinned_in_a_generic_basis(tmp_path):
    assert_cubulate_golden(tmp_path, "B4-generic", "--seed", "0")


def test_cubulate_report_bytes_are_pinned_for_444_classes(tmp_path):
    assert_cubulate_golden(tmp_path, "W(F4)-D4U", "--seed", "0")


@pytest.mark.parametrize("name, seed", [
    (name, seed) for name in ("p4m", "pg", "B4-generic")
    for seed in (1, 987654321, -3)])
def test_cubulate_report_bytes_are_pinned_at_other_seeds(name, seed,
                                                         tmp_path):
    assert_cubulate_golden(tmp_path, name, "--seed", str(seed))


@pytest.mark.parametrize("name", CATALOG_NAMES + ["W(F4)", "m-skew"])
def test_classify_and_validate_report_bytes_are_pinned(name, tmp_path):
    path = golden.group_file_name(name)
    assert_golden(tmp_path, golden.tests_entry("classify", path),
                  golden.tests_entry("classify", path, mode="text"),
                  golden.tests_entry("validate", path))


def test_text_cubulate_renders_no_json_parts(capsys, tmp_path, monkeypatch):
    path = group_file(tmp_path, "p4")
    expected = run(capsys, "cubulate", path)

    def refuse(g):
        raise AssertionError("text mode rendered the stabilized group")

    monkeypatch.setattr(cli, "group_to_json_dict", refuse)
    assert run(capsys, "cubulate", path) == expected
    assert expected[0] == 0


def test_dual_out_round_trip(capsys, tmp_path):
    out_path = tmp_path / "complex.json"
    path = walls_file(tmp_path)
    report = run_json(capsys, "dual", path, "--out", str(out_path))
    expected = stored_edge_dual(load_wallspace(path)).to_json_dict()
    assert out_path.read_text() == json.dumps(expected, indent=2,
                                              sort_keys=True) + "\n"
    assert report["complex"] == expected
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


@pytest.mark.parametrize("where, value", [
    (("window", 0, 0), False),
    (("walls", 0, "normal", 0), True),
    (("walls", 1, "offset"), False),
])
def test_a_boolean_in_a_walls_file_exits_one(where, value, capsys, tmp_path):
    path = walls_file(tmp_path)
    put_entry(path, where, value)
    code, out, err = run(capsys, "dual", path)
    assert (code, out) == (1, "")
    assert "malformed cubecrys-walls/1 file" in err


@pytest.mark.parametrize("where, value", [
    (("walls", 0, "normal"), "10"),
    (("base_point",), "11"),
    (("window", 0), "02"),
    # These gave a wallspace with no walls, and a dual of one 0-cube.
    (("walls",), ""),
    (("walls",), {}),
])
def test_a_string_row_in_a_walls_file_exits_one(where, value, capsys,
                                                tmp_path):
    path = walls_file(tmp_path)
    put_entry(path, where, value)
    code, out, err = run(capsys, "dual", path)
    assert (code, out) == (1, "")
    assert "malformed cubecrys-walls/1 file" in err


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


def module_env():
    """The environment for `python -m cubecrys` on this checkout."""
    src = str(Path(cubecrys.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src if not path else src + os.pathsep + path)


def test_python_dash_m_runs_the_same_main(capsys):
    """`python -m cubecrys` goes through __main__.py to the same main."""
    proc = subprocess.run([sys.executable, "-m", "cubecrys", "catalog"],
                          capture_output=True, env=module_env(),
                          timeout=120)
    code, out, err = run(capsys, "catalog")
    assert (proc.returncode, code) == (0, 0)
    assert proc.stdout == out.encode()
    assert proc.stderr == err.encode() == b""


@pytest.mark.parametrize("argv", [
    ["boundary", "Line*Line*Line*Line*Line*Line*Line*Line", "--json"],
    ["catalog", "--json"],
    ["catalog"],
    ["--help"],
    ["classify", "--help"],
])
def test_a_closed_stdout_exits_one_with_an_empty_stderr(argv):
    """A reader that closed the pipe before any byte was written."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "cubecrys", *argv],
                              stdout=write, stderr=subprocess.PIPE,
                              env=module_env(), timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


def big_report_input(tmp_path, command):
    """An input whose `--json` report is far larger than a 64 KiB pipe
    buffer: 581,189 bytes from dual, and B4-generic's cubulate report."""
    path = tmp_path / "input.json"
    if command == "dual":
        save_wallspace(seeded_wallspaces(count=2, seed=1, dimension=3,
                                         max_walls=12)[1], path)
    else:
        save_group(b4_generic(), path)
    return str(path)


@pytest.mark.parametrize("command", ["dual", "cubulate"])
def test_a_pipe_closed_partway_through_a_report_exits_one(command, tmp_path):
    """A reader that takes a few bytes of the report, then closes the
    pipe while the rest is still being written."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "cubecrys", command, "--json",
         big_report_input(tmp_path, command)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env())
    try:
        head = proc.stdout.read(16)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert len(head) == 16 and head.startswith(b'{\n  "')
    assert (code, err) == (1, b"")


@pytest.mark.parametrize("case", [
    "validate-missing", "classify-malformed", "cubulate-witness-basis",
    "cubulate-seed-env", "dual-out-dir", "boundary-plane"])
@pytest.mark.parametrize("mode", ["--json", "--text"])
def test_an_exit_one_leaves_stdout_empty(case, mode, capsys, tmp_path,
                                         monkeypatch):
    """Every handler fails before its output begins."""
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "cubecrys-group/1"}')
    argv = {
        "validate-missing": ["validate", str(tmp_path / "missing.json")],
        "classify-malformed": ["classify", str(bad)],
        "cubulate-witness-basis": ["cubulate", "--use-witness-basis",
                                   group_file(tmp_path, "p6")],
        "cubulate-seed-env": ["cubulate", group_file(tmp_path, "p4m")],
        "dual-out-dir": ["dual", walls_file(tmp_path), "--out",
                         str(tmp_path / "no-such-dir" / "c.json")],
        "boundary-plane": ["boundary", "Plane"],
    }[case]
    monkeypatch.setenv(cli.SEED_ENV, "x" if case == "cubulate-seed-env"
                       else "0")
    code, out, err = run(capsys, *argv, mode)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# -- internal failures ------------------------------------------------


def test_internal_errors_exit_two(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("wires crossed")

    monkeypatch.setitem(cli._HANDLERS, "catalog", boom)
    code, _, err = run(capsys, "catalog")
    assert code == 2
    assert "internal error: RuntimeError" in err
