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
from cubecrys.exactlin import RatVector
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
    save_wallspace(FiniteWallspace.geometric(
        2, [(-2, 2), (-2, 2)],
        [GeometricWall(RatVector([1, 0]), 0),
         GeometricWall(RatVector([0, 1]), 0)],
        RatVector(["1/2", "1/3"])), walls)

    tracer = spans.Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        for argv in (["classify", str(group)],
                     ["cubulate", str(group), "--json"],
                     ["dual", str(walls)],
                     ["boundary", "Line*Line", "--json"]):
            assert cli.main(argv) == 0, capsys.readouterr().err
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
    # Every run above, cubulate included, works on integer real forms.
    for name in ("crys.point_group_real", "exactlin.matmul"):
        assert tracer.calls.get(name, 0) == 0, name
    for owner, attr, original in patches:
        assert current(owner, attr) is original, (owner, attr)
