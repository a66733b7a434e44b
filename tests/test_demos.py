"""The demo scripts run to completion against the in-tree package.

Demos 01, 02, 03 and 05 take about 4 s together.  Demo 04 (two-term
splitting) takes about 16 s on its own and is left out to keep the suite
fast; demo 02 is the one that prints an inexact-gradient bundle's value.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = (
    "01_restarted_fast_gradient.py",
    "02_inexact_partial_max.py",
    "03_extragradient_baseline.py",
    "05_saddle_end_to_end.py",
)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
