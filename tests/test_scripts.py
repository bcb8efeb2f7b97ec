"""The demo script runs end to end on tiny arguments."""

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
])
def test_script_runs(script, args):
    proc = _run(script, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def _run(script, args):
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(_SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
