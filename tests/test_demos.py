"""Each demo, run as a script under `python -W error`, prints exactly
its recorded output in demos/expected/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubecrys

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_recorded_output():
    assert len(DEMOS) == 5
    assert sorted(p.stem for p in DEMOS) == sorted(
        p.stem for p in (ROOT / "demos" / "expected").glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_the_recorded_output(demo):
    src = str(Path(cubecrys.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)],
                          capture_output=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    expected = ROOT / "demos" / "expected" / (demo.stem + ".txt")
    assert proc.stdout == expected.read_bytes()
