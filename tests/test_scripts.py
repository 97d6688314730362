"""Smoke tests for the helper scripts under scripts/."""

import json
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


def _output_tree(root: Path, created: str) -> Path:
    run = root / "bsz_report_p1009"
    run.mkdir(parents=True)
    (run / "bsz_report.json").write_bytes(b'{"rows": []}\n')
    (run / "manifest.json").write_text(json.dumps({"created_utc": created, "outputs": {"bsz_report.json": "ab"}}))
    return root


def test_compare_outputs_ignores_only_the_manifest_timestamp(tmp_path):
    old = _output_tree(tmp_path / "old", "2020-01-01T00:00:00+00:00")
    new = _output_tree(tmp_path / "new", "2030-06-30T12:00:00+00:00")
    script = [sys.executable, str(ROOT / "scripts" / "compare_outputs.py")]
    same = subprocess.run(script + [str(old), str(new)], capture_output=True, text=True, timeout=60)
    assert same.returncode == 0, same.stdout + same.stderr
    report = new / "bsz_report_p1009" / "bsz_report.json"
    data = bytearray(report.read_bytes())
    data[3] ^= 1
    report.write_bytes(bytes(data))
    flipped = subprocess.run(script + [str(old), str(new)], capture_output=True, text=True, timeout=60)
    assert flipped.returncode == 1
    assert "bsz_report_p1009/bsz_report.json" in flipped.stdout


def test_check_scale_names_an_unknown_config_and_imports_no_numpy():
    # its children's RSS readings count its own peak, so it must import neither numpy nor mobiusdyn
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-X", "importtime", str(ROOT / "scripts" / "check_scale.py"), "no_such_config"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode != 0
    lines = proc.stderr.splitlines()
    assert "usage: check_scale.py [NAME ...]; no scale config named no_such_config" in lines
    imported = {line.rsplit("|", 1)[1].strip().split(".")[0] for line in lines if line.startswith("import time:")}
    assert "json" in imported
    assert not imported & {"numpy", "mobiusdyn"}
