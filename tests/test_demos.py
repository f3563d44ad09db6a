"""Every demo script runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )


def test_every_demo_exits_zero():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    for demo in demos:
        done = run_demo(demo)
        assert done.returncode == 0, (demo.name, done.stderr)


def test_the_extremal_demo_prints_the_vertex_census():
    lines = run_demo(ROOT / "demos" / "07_extremal.py").stdout.splitlines()
    assert [line.split() for line in lines[1:4]] == [
        ["k=2,", "d=2", "64", "16", "8"],
        ["k=2,", "d=3", "5,184", "128", "64"],
        ["k=3,", "d=3", "5,184", "192", "96"],
    ]
    assert lines[-1] == "  local: False, conclusion: POSTQUANTUM"
