"""Each demo script runs to completion in a subprocess with nothing on stderr."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["criticality_tour", "minmax_covers", "tok4_certificates"])
def test_demo_runs_clean(name):
    r = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")], capture_output=True, text=True, timeout=300)
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout
