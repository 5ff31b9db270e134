"""Self-test of the benchmark: known answers and repeatable trace counts.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import corpus  # noqa: E402
import oracle  # noqa: E402

# Counts that must repeat exactly from one traced run to the next.
REPEATED_COUNTS = ("decide.extend.calls", "crys.closure.elements",
                   "exactlin.matmul.calls", "dual.feasible.calls",
                   "dual.zero_cubes")
DUAL_COUNTS = ("dual.feasible.calls", "dual.is_median_graph.calls",
               "dual.zero_cubes")


def _int_generators(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    gens = [tuple(tuple(int(Fraction(x)) for x in row) for row in m)
            for m in data["point_generators"]]
    return data["dimension"], gens


@pytest.mark.parametrize("seed", [0, 1])
def test_every_3d_classify_verdict_matches_the_oracle(tmp_path, seed):
    items = corpus.group_corpus(str(tmp_path), seed)["classify"]
    checked = 0
    for item in items:
        if item.argv[0] != "classify":
            continue
        dim, gens = _int_generators(item.argv[-1])
        if dim != 3:
            continue
        assert oracle.embeds(gens, 3) == (
            item.expect["verdict"] == "accepted"), item.name
        checked += 1
    # 32 classes in two bases, plus the catalog's ZxW and Z:W.
    assert checked == 66


def test_clock_counts_work_in_calibration_runs():
    import run
    clock = run.Clock()
    with clock.timing() as seconds:
        for _ in range(400):
            run.calibrate()
    wall, rescaled = seconds
    assert wall > 0
    # 400 calibration runs take 400 REF_CAL_S at reference speed, at
    # whatever speed the host runs them; single runs jitter, so the
    # check only catches a wrong scale or sign.
    assert 0.5 < rescaled / (400 * run.REF_CAL_S) < 2


def _traced(workload, seed=0):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stdout
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_trace_counts_repeat_and_idle_layers_stay_idle(workload):
    first, second = _traced(workload), _traced(workload)
    for name in REPEATED_COUNTS:
        assert first[name] == second[name], name
    if workload != "classify":
        assert first["decide.extend.calls"] == 0
    if workload == "dual-enum":
        assert first["dual.is_median_graph.calls"] == 0
    if workload in ("classify", "cubulate"):
        assert all(first[name] == 0 for name in DUAL_COUNTS)
    else:
        assert first["dual.zero_cubes"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
