import os
import subprocess
import sys
from pathlib import Path

import pytest

import nearfactor

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))
# The demos import the same package the tests do, from any shell.
SRC = str(Path(nearfactor.__file__).resolve().parents[1])


def test_demo_scripts_present():
    names = {p.name for p in DEMOS}
    assert names == {
        "crt_equivalence.py",
        "exhaustive_counts.py",
        "modular_family.py",
        "perfect_pairs.py",
        "product_family.py",
    }


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    assert not result.stderr
