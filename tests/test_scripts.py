"""The experiment scripts run end to end at tiny sizes.

Apart from aligned_dots, whose reference readers test_gram checks the
library's against, no test imports them, so this is what notices a
library signature they still call in an old form."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["hereditary_trend.py", "--max-N", "3"],
    ["distance_bound_experiment.py", "--max-N", "3"],
    ["distance_bound_experiment.py", "--max-N", "3", "--json"],
    ["christoffel_contrast.py", "--grid", "3"],
    ["fork_floors.py", "--tiny", "--repeats", "1"],
    ["aligned_dots.py", "--tiny"],
    ["code_lines.py"],
])
def test_script_runs(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
