"""Every demo script runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_demo_exits_zero():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for demo in demos:
        done = subprocess.run(
            [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, (demo.name, done.stderr)
