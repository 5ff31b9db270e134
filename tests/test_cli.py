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
from groups import (
    b4_generic,
    fourteen_crossing_lines,
    pinned_groups,
    spatial_arrangement,
    ten_crossing_lines,
    wf4,
    wf4_generic,
)
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


# sha256 of `dual walls.json --json --out complex.json` stdout and of
# complex.json, recorded before exactlin rendered the report and the
# complex file; every byte must stay the same.
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
    spaces = {"ten_crossing_lines": ten_crossing_lines,
              "spatial_arrangement": spatial_arrangement}
    save_wallspace(spaces[name](), "walls.json")
    code, out, err = run(capsys, "dual", "walls.json", "--json",
                         "--out", "complex.json")
    assert code == 0, err
    written = (tmp_path / "complex.json").read_bytes()
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest(),
            hashlib.sha256(written).hexdigest()) == DUAL_PINS[name]


# sha256 of `dual walls.json --json` stdout and of its text-mode stdout
# on fourteen_crossing_lines, recorded before the flip walk kept its
# edges: the one pinned input on which both the enumeration and the
# median walk run at full size.
CROSSING_14_PINS = (
    "b4cf74c0cf60bc52a4d9ca79aae981a5414c0f74282981c232d31f454ca7e37a",
    "0bd3e88bbe33e9342b3a84e98d05f0ad16a8bfb147e4a7b6c5ceefa4b20b3a44")


def test_dual_bytes_at_the_median_vertex_cap_are_pinned(capsys, tmp_path,
                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_wallspace(fourteen_crossing_lines(), "walls.json")
    digests = []
    for mode in (["--json"], []):
        code, out, err = run(capsys, "dual", "walls.json", *mode)
        assert code == 0, err
        digests.append(hashlib.sha256(out.encode("utf-8")).hexdigest())
    assert tuple(digests) == CROSSING_14_PINS
    assert "16384 0-cubes, 114688 edges" in out and "median graph: True" in out


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


# sha256 of `cubulate --seed 0` stdout in --json and in text mode, per
# catalog group: on the lattice basis for all 20, with
# --use-witness-basis for the 13 accepted ones.  Recorded while the
# wall family still ran on RatMatrix real forms; every byte must stay
# the same.
CUBULATE_LATTICE_PINS = {
    "p1": (
        "6f1641e8183377c5cb9c2c2c5fc1b630aa49b349586c18159666a3bfd9f3898a",
        "565d08c459c86c8e5d683c3ccef35d632cfe561f0fe44de0c12dcc82a8d5bb23"),
    "p2": (
        "03132c52ec5d63398885053f4181b2dce9343420af6cdbc62bc1ff0ddab49103",
        "61b1a0a11e5ceaa0d85a79d91ed012b7d7ba194ef7e3e41b1057f851b061df9a"),
    "pm": (
        "0083f8afd4ffe46ae9cc9e8cf879f419ac9c065db626925b8225d86d2b919d86",
        "1f684b010f1e181547bdc57d0b99ae2177fcd0919f0f19951ce169ebac0c2f21"),
    "pg": (
        "ccde467ed5085d0cd06dd25291c6ec3cd3e0c3bacc6822670324f72765326fcb",
        "51bda7fe3c4de535673875accd70d961c2fff6864fbabd3efb1b1f9498379281"),
    "cm": (
        "e09c6187d170a6cb39bbbef7c2891a1a49f6d154170e4ac30d08ee2523ed0bdb",
        "404ca4e9ea987b1668f4dc2037de2e553ab4606c78386bc117a1aee2234d98a6"),
    "pmm": (
        "825f1cbe435af409428dace6e748632689d3f72cbe87cf10deec24a1c6a4ee4e",
        "082eeba760cfd03ea7fe7f5eec365972ff0654e8e767fa0e9577636975500cba"),
    "pmg": (
        "6f909e85b5fee891eea07bd58b736e16b10ebe464a6d4ff612cd8ccc0a6ee7e6",
        "48124144f33384820c6125117c8a2951a4cb5fc1b1be162ff254762c92c55b26"),
    "pgg": (
        "53cbbc1ff69ac8312238a0b1cb5f056dd5181f848b747578f22be52e5c9b5b1c",
        "1c06fc789de8c52fbe7aa72c79e53ab4fc82553e23a161430eec8336ebc1b3c8"),
    "cmm": (
        "65e8ea155d97e90fb28e16e7f89f4d6e9808318222aae93bb2d5b7e8fc31e1c6",
        "77187d8336c956d9601ab48d49bc19bf55419cc87272f8d2560d08efba6342f5"),
    "p4": (
        "3e0bae07a93de05a34cdb802bdb17152ba76d8b5cc4bd3cbd110ce1bae5fe085",
        "40b41fbdc9c952ad4957da0f7c3e2fdf4a194e5b0bf1142076803bcb93cc699f"),
    "p4m": (
        "482338309151de63d07191d2648a2808e5b6d378e20e0b9d9cfd46a08f2dd928",
        "48c1d3f4739bee9db33b2f5a17cc05b14a15d9a668dce7dbe85f7968f284dc04"),
    "p4g": (
        "f6a76775a4193429a17dbdb370788823c49d3bf44805f649175dfcdd3ebf2a6b",
        "17977cd8fd6caf8b655c90aadb6961fec77afb342d4718225c1ce0b7350e823f"),
    "p3": (
        "baa8ff2278ec0cd5c8c291f5b896f0f78bf62a44be33818e053cb3f923d0e453",
        "10a61128d434ed811e582a10dad02643a94c135113dd025a295e75283890564c"),
    "p3m1": (
        "a2de68fc5a15f556d563662b457e0af7b3868fce53ea9b0cf91c54b3e0d2d71d",
        "c1bc08eb612f0a0e5ac6bc0e0a00f26a7c242bf9c522734d1d96d3bf7600913f"),
    "p31m": (
        "f554da1b16c1276b6762c1c47e31fd8975532e98b2e8e00db6037c3ff1719fe0",
        "f1e49825032fbfb162105f8d8558fd6cfaa15199b9f2d11012f91ce5306888e0"),
    "p6": (
        "e9e7a77ed17c143040d436682d46346237d98e6f6b70a1dae056c602ecd2438c",
        "987d908656fbb5af8c27e00debed87e11ddba3dd3abbc912b0ab9604a9a25a1a"),
    "p6m": (
        "94b22694f41651f40edcb0e72eb2baa98dc3dd7188b45bf7938cdec1d24bc95c",
        "9250dd7145b5ac83a805b7b271770d80e3a0fb6580b9954528ad64d3ccec59a6"),
    "W": (
        "28b4ac92885db1494975e37734db12592ab1ade5c2f39d7a457deb9892ec453c",
        "efc0a2918056d91b7e89c2c984bf8844a6607c216be913acbee162f10ae7ee6c"),
    "ZxW": (
        "904de690229879f32c87da7b193fc37df68545c17346f3113db5b08af3ab22a9",
        "b85612d9c14a1452875f63a11e17103481893b7f1a307e7bca702caf74f7970a"),
    "Z:W": (
        "1f92df935c0f323f6edfac80b8a934774adf371487617fe71534f963f31df984",
        "0caecb9a8a829a6d6edc808131910f012d3e28d822b3be8c98c1c2d22098bc71"),
}

CUBULATE_WITNESS_PINS = {
    "p1": (
        "1064f781e0534508f13f5295b47dc194f6f006a870bba2ffdf76928245ee4bb3",
        "c45189d6bed1bdbc257f141291d051c532d81f956354ae7683d9b2c27040f28d"),
    "p2": (
        "e653bfd1237d3f2f44b0c191cbc4f1ac22b06fa5ecdd09e914b86661df817d64",
        "0e818c831cb725f4f0c889dd89259ab2a267525d7c118cea23f2883c7f88a209"),
    "pm": (
        "0b9684c4c27f74566648b84ae5a81b9ef0117ff9b138ab36b83eb428c0f96ff2",
        "256cedb6e20e423f6a128ae5c5092af805d1c13d2ded7f1f9100c6a4a2acfc41"),
    "pg": (
        "313e03860a08d79e97ca11cff8bcd5f8ae145695156c1fc2071503439b5295c3",
        "e1792a328748c4b46a1d95ee540f8e0455265a3c145892897e392db4c070176c"),
    "cm": (
        "709cf7a80d750c463a2b5f960fce252ddf3127d861a1a7356da400494aba2a1c",
        "374b08b9f6e8738e1f182b2170d1b86e3b0c133a15886472b569a5eddea13fa6"),
    "pmm": (
        "518b96d1421173369bd26150a57182b9b1f4b07d7c14142971ccb23f89996256",
        "f88d14eb11b0a91a2c6b1c2b3add50754e6095f8ecb3b670b6446ead8c64dd00"),
    "pmg": (
        "b7e112b248e9e157e1582abb7bf41222e9551aaf870fdb383d28af434e161675",
        "dc21ee7fa2e3d8812a950b144af4de62f93833e1a6b9e8a80383cdf3b2be74bb"),
    "pgg": (
        "a4c53ab2c20cd8d0efdc0f0e1e05246f9fb75ad2b1dc68c78e087699ae676f93",
        "353d4bb26a72f750983fce6b19f26dadecf90a7f7493a30ed77144ba284cc918"),
    "cmm": (
        "332f7ec0206257ac704353566fe8251aad05b9c35c95ca418e6915bbf736ec1d",
        "30813f64e1f4adfa1afb3fa719b2e4bb02b120eb90c982ba424c2031a46ad31d"),
    "p4": (
        "1e313d56d6a3ee2fbe3ad51fe3244d5e5bb3183eff0e3f545ca612e903a09895",
        "d6536447597ffc46a93c52fba04b4f7694e8e523a2a2d0e62c6b4f2edeceb222"),
    "p4m": (
        "a61c09403d645caa4d5799b2d4d14aa21653f6c1c3d1c0c1db40613354254401",
        "47e00d8a68abb102f274437e1d0e524e5618081fb8c7c531f945c12662cd692b"),
    "p4g": (
        "e9f30c44a44c6dbfd7198e5700c9ea97c44d8d4a19823bb0fd725a569b8d1c39",
        "e1183ea545f7e5b0b3a28b348c7d1f1eed77ff4fb14dd571cc3fe392ed8e2602"),
    "Z:W": (
        "f56efd3c84ab0ac07ae0df29357d76ce211ef898763fec8a0e97e8ff1cd08bad",
        "0f166e95a021b37667601e4f6c36232791c2f7a7393e029889915abc2aa55585"),
}


@pytest.mark.parametrize("basis, name", [
    (basis, name) for basis, pins in (("lattice", CUBULATE_LATTICE_PINS),
                                      ("witness", CUBULATE_WITNESS_PINS))
    for name in pins])
def test_cubulate_report_bytes_are_pinned(basis, name, capsys, tmp_path):
    path = group_file(tmp_path, name)
    extra = ["--use-witness-basis"] if basis == "witness" else []
    digests = []
    for mode in (["--json"], []):
        code, out, err = run(capsys, "cubulate", path, "--seed", "0",
                             *mode, *extra)
        assert code == 0, err
        digests.append(hashlib.sha256(out.encode("utf-8")).hexdigest())
    pins = CUBULATE_WITNESS_PINS if extra else CUBULATE_LATTICE_PINS
    assert tuple(digests) == pins[name]



# sha256 of `cubulate --seed 0` stdout in --json and in text mode for
# B4 in the generic lattice basis U (N = 268), recorded while the class
# walk still applied every element's form to every class.
B4_GENERIC_CUBULATE_PINS = (
    "2e5f8585dd73e273870f74de0d8b2ce40384762d800359d0d54a2679e85535f4",
    "c5c39860d26530e320f5a2d45ca69c727eaea8aab7e0e04ff7556dbc95772eb7")
# The same for W(F4) in the lattice basis D4 * U (N = 444), recorded
# while the classes were still renumbered along every element's action.
WF4_GENERIC_CUBULATE_PINS = (
    "1989d78166a6a1e1a4e499ab9e039b060624b6ef3ce6c7de570acc44367868dc",
    "b12e172664a36e884d6dde373ac8faaa996793eeb437f44f3dd227c4c8524c9c")


def cubulate_digests(capsys, tmp_path, g, seed=0):
    """sha256 of `cubulate --seed seed` stdout on g, in --json and text
    mode."""
    path = tmp_path / "generic.json"
    save_group(g, path)
    digests = []
    for mode in (["--json"], []):
        code, out, err = run(capsys, "cubulate", str(path), "--seed",
                             str(seed), *mode)
        assert code == 0, err
        digests.append(hashlib.sha256(out.encode("utf-8")).hexdigest())
    return tuple(digests)


def test_cubulate_report_bytes_are_pinned_in_a_generic_basis(capsys,
                                                             tmp_path):
    assert (cubulate_digests(capsys, tmp_path, b4_generic())
            == B4_GENERIC_CUBULATE_PINS)


def test_cubulate_report_bytes_are_pinned_for_444_classes(capsys, tmp_path):
    assert (cubulate_digests(capsys, tmp_path, wf4_generic())
            == WF4_GENERIC_CUBULATE_PINS)


# sha256 of `cubulate --seed S` stdout in --json and in text mode at
# seeds other than 0, recorded while the separation sample was still
# drawn as Fractions from randrange.
CUBULATE_SEED_PINS = {
    ("p4m", 1): (
        "f331e47642537cc4ee719bba17ffe911af0958413de0332e63ca975dafeb62d7",
        "07a6b3fdb2244a2595d2d7c2b2daada427042ca66f8eb04b1a7266661934248e"),
    ("p4m", 987654321): (
        "7d79d3f1e6c17f44de24601881973581783d47b214d98a8ae5c99fbfbe9fe00e",
        "a820c1368d204f21b2a0eb1d0833948a698047383007f411e2bf23b62602c1fa"),
    ("p4m", -3): (
        "4653b29b415c8e0b1d75f79fc86db93525e970d22ca8bc1016460b8dfbf483c0",
        "2ffc63b051e3ef39cf5e535d1e37fd5607e72908c16c07213e4af962f5f750d6"),
    ("pg", 1): (
        "9394c10a371b391cb0a8eb7716666416bad9502db9d0a73b58f9625424ebe215",
        "0d3ea7d8b59c791ffd0019f5244285a7d036024a47a463ebbd83fb688b57d405"),
    ("pg", 987654321): (
        "854ba11eeddac48cdaa6ffab0160d87adeed89318c47dcd5313cef817fca75c3",
        "1e036506f509f3a05db41ce5ca2dfc9aab2f2bf2e954903149cfd0c40cfc4570"),
    ("pg", -3): (
        "28fe108c53b22ae9a1ab53aede8d6f0ed27c78da19716a0d5ed717f8134f31fc",
        "f0c18cefcfd58ae0a714d6d57238396a8b2bd42ef2722d3c6981743e6f06d711"),
    ("B4-generic", 1): (
        "a1d56d661024849df735e9fbe2d01ab292b5a2e32c38cd1cb4c2c910ba281899",
        "2d00fc20feebdc805f5fc0b2fbf1da71a704cd423dd9c112c01fd9fc42fe759e"),
    ("B4-generic", 987654321): (
        "8aa407a51e38507c101ecce53a98da2718a2b57a8a7fbdcb91a7020c1744d721",
        "13d902087ef9be1e700b88278843195aa93ed39648ad0f16d676567d46b130c6"),
    ("B4-generic", -3): (
        "843e2135b50714ec6019067d594b043c5b9908788c5969cdce2241e076158b41",
        "46aff36531892cc88a6e8b5fc71410215ca82e7dc463269521dad59b245463db"),
}


@pytest.mark.parametrize("name, seed", list(CUBULATE_SEED_PINS))
def test_cubulate_report_bytes_are_pinned_at_other_seeds(name, seed, capsys,
                                                         tmp_path):
    g = b4_generic() if name == "B4-generic" else catalog_entry(name)
    assert (cubulate_digests(capsys, tmp_path, g, seed)
            == CUBULATE_SEED_PINS[name, seed])


def test_text_cubulate_renders_no_json_parts(capsys, tmp_path, monkeypatch):
    path = group_file(tmp_path, "p4")
    expected = run(capsys, "cubulate", path)

    def refuse(g):
        raise AssertionError("text mode rendered the stabilized group")

    monkeypatch.setattr(cli, "group_to_json_dict", refuse)
    assert run(capsys, "cubulate", path) == expected
    assert expected[0] == 0

# sha256 of `classify --json`, `classify` (text) and `validate --json`
# stdout, per group: the 20 catalog groups, W(F4) (1,152 elements) and
# m-skew, a 3-D group that takes the embedding search.  The reports
# print every point element and obstruction element.  Recorded while
# the point group was still held as one RatMatrix per element; every
# byte must stay the same.
CLASSIFY_VALIDATE_PINS = {
    "p1": (
        "d35affc219aae6e2cad029f4ffd5bc7a1b3765b73c23ecc4cb13711afa5c8f66",
        "53c58a99182339e797adba2d09c9125876c78853a8e7466fd46387d9a24960e6",
        "0c518f63b308e78820e706994aecb0561cb4e326ad95a46cd2f0e3e3e1f31982"),
    "p2": (
        "4afa41e012a77d04cf4f446bb3760723af708fe7c002f9f0bf6f0e113cd9d063",
        "f6416fab47ee6eb5038a17f3de06f33a3b7169b319423424b85eca5a2353b19e",
        "c79c3baea6f971cb25509d5301f6594562991a9bb25519c0cf95cbcc608f4178"),
    "pm": (
        "f50b4338560814fed1b5e353204a6c81b08abafdaed7f3a91c4994cdb488300f",
        "e9569d36e0deaeb55f3fa85da916139348d406f5493ae94d247b952b46334b95",
        "74e065d7e90bfc1061744e69779d250a5c87d59ce37e35dd2d6d6a0702d3322b"),
    "pg": (
        "341ca2982bdf56ddde699ebfdc23c186390be3fa323adc9796c2b1bd2a6e33b3",
        "fbdf8d241541311c7087d7805d6f0f5e5a30889cdc23621ab2d4fe8ee30d34c2",
        "b504aca726686dc86b7bec592a9dca7903917ef4087205f2333987a0435598fb"),
    "cm": (
        "a202e9e518aaa5ac16e1023d990affc88e85942e0a74c25ceef1d42b6173e310",
        "a510cc42cbb86e5df2b99dc86ba8a72a6ab9ea5810b195c37438cc9a4a4caad5",
        "960c43efe832d4ad092e00d19a2d61b16b614930017fb56c59c448da1cec3186"),
    "pmm": (
        "4d2529cc7b184581e208d186a00fe159cbc0c149f8b1022a8f880695432521c0",
        "f62baf7b07526e6bc3434a62c543dcdfcf7db75192b1c2707c09b8fd2d13821f",
        "2ac61b82eb0bbfa89c0141ca1e8685b52d4a3ee4714bd98cc3751bf4fe6d36e9"),
    "pmg": (
        "2cdb0e19e5b4a2a99be3891401671133ae632abae31c659ab868ccad74850601",
        "607f0656b90ddbed417c2a2d8b8019f12d2866f7e628ace210497ccabc01de86",
        "dac2cd6479799adb1cc91a867c4e5e4f4d63a3a68546dcb36c7cdc7498d7b27b"),
    "pgg": (
        "343cabeafc2832f328f6e947566fd0d5c453af329aba96c8a6075438ab49c65f",
        "ca7ef89896a64796c5ea3360f03b457d1758a7eece2b55342e546504b09135ec",
        "0fcb261f9ed08610f933651a9df0a2774a202705e0d0d8588c205d4255072e06"),
    "cmm": (
        "2895ebf586c61d44227da60071bb673625c9de3d6a9f3f12734fba314f465472",
        "75b1093a9696efdd93dc9bd2372c4a680411ae2056604ffd07d389e6a22c9c6b",
        "db059596b87134d1fac92e370b9ef4540a52069dd3779a531ae044ffcc30773c"),
    "p4": (
        "25411d77e885098bc81985a11df4ef80578cdff62faf6e0770395a1b17104f9c",
        "fd0b40bc1c5930ab1b777b9969166ec805bf4d2bddfb682aecd05238c294c54f",
        "5e5fb35487b69b2e45b1521879a49979ce9ace94cab099e567125c44044ddb44"),
    "p4m": (
        "2421ec3c2ab158a6b172f39a4691766de86fc0945eb59ab51123f228760a3c32",
        "2a79672655d58983d9b2f18430bc814b567f11f878fbfcb6b043f2c8d1daf21e",
        "8b325d5e349ea01795690b5326bc58f393d16dfd2e580e97bb13ea96eb587776"),
    "p4g": (
        "4e989ffd5ccda8ad4f6da6a16d6b7067fefa2d256dd432f16fb5e57f0a37afd2",
        "c0b445f034c03643c7b3fdb034ddfd7fba70b90aad17be03137febbf7264ddff",
        "70ae30858376fc3b04cc63085508d6e1a87b2ffd301d6f7a4ffe727c323075bb"),
    "p3": (
        "dd516b35b6dea0f1c7cba971ecc0a86c40c7aae26569d49da0a62f4763aa8b9d",
        "9d607a55be8c18ff28eda4fe049cfe9b9e6b43c41f9d03b0c3e090caca5cd28b",
        "614d44351fc738bea215ca05ba326f6587e2eaa5460196209bd39429ef3e1af6"),
    "p3m1": (
        "dab744e364f55de2e6e3cd171320815b6bb9764c5b24844def821a643bf76981",
        "c023f58e7cc580abc851e9fbd1c760962176196436dc452e8bde52e8b07e866f",
        "ba3cbb9950ec3704a8173e5e59f862a3192f7fe180ed0687bdaf4ff71c3b03d1"),
    "p31m": (
        "43526a81421dffb7d8474f775eb29e99bdc70f2ed1a1b4127faea2d7736ab02a",
        "c9aedbb8761c3d8793eca5c99f76a9e0c4d3fe72a99d2730eaf64c72944d2356",
        "5b4704bce88211317ba05a984c5e00ce73a1ca3c923e6380f6513e5222508c17"),
    "p6": (
        "9b68edb46958b608b1cdefaab6625cab0ae0b35b94670e1e7e9a5415ca15def6",
        "18fd83d8ba2d5cd1c90c2dc228cec037b943c7c88e6eceecd14c2daead7739d3",
        "fa18e7528a22d526159295ee4607b1e83f28d99808f0e54ab63773552346e839"),
    "p6m": (
        "a4040b18d02661fe518df0bf8157bac61ee04da1c77ab67a255e3d7df5a66853",
        "8ed42ce5817fb5dfe4c2a0aa9dfaf3a29e51eab9222e4d7becd8e4d7595c185e",
        "9ce8418610dabcc6ab958138ce7419faee5a89b7511e20e56c2177634955cf38"),
    "W": (
        "abd4e17bbb9003bd716271af22f2cebca0e19e1f0bd372ddf0c1a7fa2a7fd116",
        "2fc51fb947bc2abcf6a226a5d97d6f3f181fded98d145bc189466999f1e77f43",
        "a25aa9c59f659a1e6bd218278c4c55e6d6d4943dbead6113e25e64d02d57ed22"),
    "ZxW": (
        "a02feb315d92904f829b6bd28e86cafca42a0868c6418d30760f7caf2bbc09b0",
        "139cbd69ff639d08eb11ba30b908d20268c4387be69bfe7cf7a75b455f0ed0e0",
        "e18057b293201819df195e4d72066cc4a1c735744b6fea06479891296123121f"),
    "Z:W": (
        "70f8c8cf01eddaf68517016732421d90b8a6af238d8e3ffe2fff86f5305fa174",
        "8fe9f7432f62b81c96e76b41996c522fe70e7696a807fc35dd0bf8a2416e69cb",
        "abc251f0110da0d223a9230d600c5ccdfc3cbf9469123e53e81dc06f71d30ddf"),
    "W(F4)": (
        "9a822be9452af4dd6c8e3214e0f40f846e462691ab7b91d720f6af1d57cbb63e",
        "2c2d07aa7685f8ac46562879a90ecb769f934378a38d1f80e65812888bf87c1a",
        "9a525e6deb694eb044c04941e677627276a0cf52a6f23b71a7ca05f7a9a6ad35"),
    "m-skew": (
        "03f2f1aefe1e5429f873f6291d142b59930057d179e87395b0666a91d163a1d1",
        "624ba4257144aed493ab97b5184ae35adfa09303db30157dc858d055d2210556",
        "869fb4f7efec05bb74f32e048e2df14e015620b64a95bf04d62b8099f6b1d47a"),
}


def _pinned_group(name):
    if name == "W(F4)":
        return wf4()
    if name == "m-skew":
        return pinned_groups()[name]
    return catalog_entry(name)


@pytest.mark.parametrize("name", list(CLASSIFY_VALIDATE_PINS))
def test_classify_and_validate_report_bytes_are_pinned(name, capsys,
                                                       tmp_path):
    path = tmp_path / "group.json"
    save_group(_pinned_group(name), path)
    digests = []
    for argv in (["classify", "--json"], ["classify"], ["validate", "--json"]):
        code, out, err = run(capsys, *argv, str(path))
        assert code == 0, err
        digests.append(hashlib.sha256(out.encode("utf-8")).hexdigest())
    assert tuple(digests) == CLASSIFY_VALIDATE_PINS[name]

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
