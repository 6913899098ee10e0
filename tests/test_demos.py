"""The demo scripts under scripts/ still run against the library API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/identity_region_demo.py", "--budget", "1", "--out-dir", "{tmp}"],
        ["scripts/dephasing_hybrid_sim.py", "--seeds", "1"],
    ],
    ids=["identity_region_demo", "dephasing_hybrid_sim"],
)
def test_demo_exits_0(tmp_path, argv):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, *(a.format(tmp=tmp_path) for a in argv)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
