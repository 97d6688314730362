#!/usr/bin/env python3
"""Record reference outputs for the output checker from the code as it stands.

    python3 perfbench/refgen.py --workload twisted --seeds 0-20

Runs each invocation of each seed once as a CLI child, requires it to pass
every check except the reference comparison, and stores its parsed
artifacts in perfbench/reference/<workload>.json.gz keyed by the sha256 of
the config bytes, so invocations that do not depend on the seed (the pinned
shipped configs) are stored once and checked for every seed.  Entries
already present are kept.  Only run this on code whose outputs are trusted:
the references were recorded from the initial import of the package.
"""

from __future__ import annotations

import argparse
import gzip
import json
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(workload: str, seeds: list[int]) -> dict:
    refs = check.load_references(workload)
    workdir = run.WORK / f"refgen-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    with run.Launcher() as launcher:
        for seed in seeds:
            bench = run.Bench(workload, seed, workdir / str(seed), time.perf_counter(), launcher)
            bench.setup(workdir / str(seed) / "setup")
            for inv in bench.wl.invocations:
                key = check.sha256(inv.config_bytes())
                if key in refs:
                    continue
                outdir = workdir / str(seed) / inv.name
                argv = [sys.executable, "-m", "mobiusdyn.cli_runner", *bench.argv(inv, outdir)]
                code, wall, _, _ = launcher.run(argv, outdir.with_suffix(".log"), 170.0)
                expected = inv.expected() if inv.expected else None
                problems, _, parsed = check.check_invocation(inv, outdir, code, None, expected)
                if problems:
                    raise SystemExit(f"{workload} seed {seed} {inv.name}: " + "; ".join(problems))
                refs[key] = parsed
                print(f"{workload} seed {seed} {inv.name}: recorded ({wall:.2f} s)", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    return refs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seeds", required=True, type=seed_range, help="a seed or an inclusive range, e.g. 0-20")
    args = ap.parse_args()
    run.WORK.mkdir(exist_ok=True)
    refs = record(args.workload, args.seeds)
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    with open(check.reference_path(args.workload), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(json.dumps(refs, sort_keys=True).encode("utf-8"))
    print(f"{len(refs)} reference entries in {check.reference_path(args.workload).relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
