"""The demo scripts under scripts/ still run against the library API."""

import os
import re
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


def test_output_digest_region(tmp_path):
    """The digest tool runs the 48 region-l2 items and prints one SHA-256,
    leaving nothing behind in its working directory."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digest.py"), "region-l2"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"region-l2 [0-9a-f]{64}\n", proc.stdout)
    assert list(tmp_path.iterdir()) == []
