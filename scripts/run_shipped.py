#!/usr/bin/env python3
"""Run every shipped config end to end into OUT_ROOT/<config-name>/.

Usage: run_shipped.py [OUT_ROOT]   (default: out/ at the repository root)

A convenience wrapper over the CLI; exits nonzero if any run does.  Two runs
into different roots, then compare_outputs.py on the two roots, check that
every artifact is byte-identical.
"""

import pathlib
import sys
import time

from mobiusdyn.cli_runner import main

SHIPPED = [
    ("verify-spectral", "verify_spectral_p101.json"),
    ("sum-scan", "sum_scan_p10007.json"),
    ("sum-scan", "corr_scan_p1009.json"),
    ("weil-check", "weil_check_small.json"),
    ("bsz-report", "bsz_report_p1009.json"),
    ("mobius-check", "mobius_check_1e6.json"),
]


REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_all(out_root=None, config_root=None):
    out_root = pathlib.Path(out_root) if out_root else REPO_ROOT / "out"
    config_root = pathlib.Path(config_root) if config_root else REPO_ROOT / "configs"
    worst = 0
    for command, name in SHIPPED:
        outdir = out_root / name.removesuffix(".json")
        config = str(config_root / name)
        print(f"== {command} {config} -> {outdir}")
        start = time.perf_counter()
        code = main([command, "--config", config, "--out", str(outdir)])
        print(f"   exit {code} ({time.perf_counter() - start:.2f} s)")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit("usage: run_shipped.py [OUT_ROOT]")
    sys.exit(run_all(sys.argv[1] if len(sys.argv) > 1 else None))
