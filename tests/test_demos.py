"""Each demo script runs to completion against the source tree, with every warning an error."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr


def test_free_operations_demo_prints_no_negative_dac():
    # the CLI's rule: a dac in [-1e-12, 0] is roundoff and prints as 0
    demo = ROOT / "demos" / "03_free_operations.py"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env,
                         timeout=120, check=True).stdout
    lines = [line for line in out.splitlines() if "dac" in line]
    assert len(lines) == 7
    values = [v for line in lines for v in re.findall(r"-?\d+\.\d+(?:e[+-]\d+)?", line)]
    assert len(values) == 10 and not [v for v in values if v.startswith("-")], lines
