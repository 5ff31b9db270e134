"""The benchmark tracer's contract with the package, checked in-process.

perfbench/spans.py patches the functions named in its TARGETS by
module and attribute path.  A renamed or deleted target would
otherwise show only in the slow traced benchmark runs; here the tracer
is installed around one small run of each subcommand it measures, and
every patched attribute must be the original again afterwards.
"""

import importlib
import os
import types

from cubecrys import cli
from cubecrys.crys import catalog_entry, save_group
from cubecrys.dual import FiniteWallspace, save_wallspace
from cubecrys.walls import GeometricWall

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "spans.py")


def load_spans():
    """The tracer module, compiled from its source and never imported,
    so no bytecode cache is written under perfbench/."""
    module = types.ModuleType("perfbench_spans")
    with open(SPANS, encoding="utf-8") as fh:
        exec(compile(fh.read(), SPANS, "exec"), module.__dict__)
    return module


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def resolve(mod, path):
    owner = importlib.import_module("cubecrys." + mod)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def test_every_target_resolves_counts_and_is_restored(tmp_path, capsys):
    spans = load_spans()
    group = tmp_path / "zw.json"
    save_group(catalog_entry("Z:W"), group)
    walls = tmp_path / "walls.json"
    save_wallspace(FiniteWallspace(
        2, [(-2, 2), (-2, 2)],
        [GeometricWall([1, 0], 0), GeometricWall([0, 1], 0)],
        ["1/2", "1/3"]), walls)

    tracer = spans.Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        for argv in (["classify", str(group)],
                     ["cubulate", str(group), "--json"],
                     ["dual", str(walls)],
                     ["boundary", "Line*Line", "--json"]):
            assert cli.main(argv) == 0, capsys.readouterr().err
            if argv[0] == "classify":
                classify_inverses = tracer.calls.get("exactlin.inverse", 0)
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert {"cli.main", "dual.dual_complex", "dual.is_median_graph",
            "walls.direction_class_count", "decide.is_hyperoctahedral",
            "boundary.product_boundary"} <= set(tracer.calls)
    # install raises on a target it cannot find; each one it found was
    # patched, and is the original again now.
    originals = [original for _, _, original in patches]
    for name, mod, path, _, _ in spans.TARGETS:
        assert any(current(*resolve(mod, path)) is original
                   for original in originals), name
    for name in ("crys.closure.elements", "walls.classes", "dual.zero_cubes"):
        assert tracer.counters.get(name, 0) > 0, name
    # The real forms invert the lattice basis through the traced name:
    # no caller reaches the inverse around its span.
    assert classify_inverses > 0
    # Every run above, cubulate included, works on integer real forms.
    for name in ("crys.point_group_real", "exactlin.matmul"):
        assert tracer.calls.get(name, 0) == 0, name
    for owner, attr, original in patches:
        assert current(owner, attr) is original, (owner, attr)


def test_no_production_path_builds_a_ratmatrix(tmp_path, capsys,
                                                monkeypatch):
    """RatMatrix is the type of the test oracles and of the two tracer
    targets point_group_real and average_intertwiner, which nothing in
    the package calls: every subcommand runs on rows."""
    from cubecrys.crys import _catalog, load_catalog
    from cubecrys.dual import seeded_wallspaces
    from cubecrys.exactlin import RatMatrix
    from inputs import pinned_groups, wf4

    groups = load_catalog() + [wf4(), pinned_groups()["m-skew"]]
    group_files = []
    for k, g in enumerate(groups):
        group_files.append(str(tmp_path / ("g%d.json" % k)))
        save_group(g, group_files[-1])
    walls_files = []
    for k, ws in enumerate(seeded_wallspaces(count=3, seed=0)):
        walls_files.append(str(tmp_path / ("w%d.json" % k)))
        save_wallspace(ws, walls_files[-1])
    out = str(tmp_path / "complex.json")

    def refuse(self, rows):
        raise AssertionError("a RatMatrix was built")

    monkeypatch.setattr(RatMatrix, "__init__", refuse)
    assert len(_catalog.__wrapped__()) == 20
    runs = 0
    for path in group_files:
        for argv in (["validate", path], ["classify", "--json", path],
                     ["cubulate", "--json", path],
                     ["cubulate", "--json", "--use-witness-basis", path]):
            code = cli.main(argv)
            assert code == 0 or "--use-witness-basis" in argv, \
                capsys.readouterr().err
            runs += code == 0
    for path in walls_files:
        assert cli.main(["dual", "--json", "--out", out, path]) == 0
    for expression in ("Line*Line*Line", "HalfLine*RegularTree(3)"):
        assert cli.main(["boundary", "--json", expression]) == 0
    assert cli.main(["catalog", "--json"]) == 0
    capsys.readouterr()
    # 22 groups validate, classify and cubulate; 14 take a witness basis.
    assert runs == 3 * 22 + 14


def test_one_cubulate_call_is_one_separation_span(tmp_path, capsys,
                                                  monkeypatch):
    """perfbench's walls.check_linear_separation span covers the whole
    separation self-test: each cubulate call makes one call of the
    checker, whose straight-line scan runs inside that span and counts
    every sample pair."""
    from cubecrys import walls

    spans = load_spans()
    group = tmp_path / "p4m.json"
    save_group(catalog_entry("p4m"), group)
    tracer = spans.Tracer()
    scans = []
    scan = walls._SCANS[2]

    def watched(samples, *args):
        top = tracer._stack[-1][2] if tracer._stack else None
        found = scan(samples, *args)
        scans.append((top is not None and tracer.spans[top][0]
                      == "walls.check_linear_separation",
                      len(samples), found[0]))
        return found

    monkeypatch.setitem(walls._SCANS, 2, watched)
    try:
        tracer.install()
        for mode in (["--json"], []):
            assert cli.main(["cubulate", str(group), *mode]) == 0, \
                capsys.readouterr().err
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.calls["walls.check_linear_separation"] == 2
    # Inside the span, and past all 100 pairs with none violated.
    assert scans == [(True, 100, 100)] * 2
