"""Smoke tests for the helper scripts under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_find_instances_prints_instances_and_the_twisted_demo():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, str(ROOT / "scripts" / "find_instances.py"), "--p", "101", "--count", "2", "--twisted-demo"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 6
    assert all(line.startswith("matrix=") for line in lines[:2])
    assert [line.split(":")[0] for line in lines[2:5]] == ["N=1000", "N=10000", "N=100000"]
    assert lines[5].startswith("period ")
