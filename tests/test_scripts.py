"""Each demo script runs end to end on tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tamedspde

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
_SRC = str(Path(tamedspde.__file__).resolve().parents[1])


@pytest.mark.parametrize("script, args", [
    ("convolution_rates.py", ["--modes", "8", "--levels", "3"]),
    ("blowup_contrast.py", ["--paths", "3", "--modes", "8", "--steps", "20"]),
    ("invariant_average_demo.py", ["--modes", "4", "--dt", "0.1",
                                   "--horizon", "1.0", "--burn-in", "0.2",
                                   "--paths", "8"]),
])
def test_script_runs(script, args):
    proc = _run(script, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_off_grid_horizon_is_refused():
    # 1.05 is not a whole number of steps of 0.1; rounding would run 11
    proc = _run("invariant_average_demo.py",
                ["--modes", "4", "--dt", "0.1", "--horizon", "1.05",
                 "--burn-in", "0.2", "--paths", "8"])
    assert proc.returncode != 0
    assert "does not divide" in proc.stderr


def _run(script, args):
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(_SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
