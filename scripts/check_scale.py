#!/usr/bin/env python3
"""Rerun every scale config and compare its outputs with the pinned ones.

Usage: PYTHONPATH=src python scripts/check_scale.py

Each configs/scale/<name>.json runs as one child process,
`python -m mobiusdyn.cli_runner <command> --config <name>.json --out <tmp>`
(its "command" field names the subcommand), under the PYTHONPATH given, so
another checkout's src/ can be measured against the same pins.  Every file
pinned under configs/scale/expected/<name>/ must then match the new output
byte for byte.  When the bytes differ, the two files are compared value by
value: ints, strings and booleans exactly, floats within 1e-9 relative.  A
config whose values all agree that way is reported as drift (last-bit
differences, such as cos/sin results that differ between machines); any
other difference, a missing file or a nonzero exit is a wrong answer.  Each
line gives the verdict, the child's wall time and its peak RSS (ru_maxrss
from os.wait4, in MiB).  Exits 1 if any config is wrong, else 0.

A spawned child's ru_maxrss also counts this process's own peak at the
spawn, so this script imports neither numpy nor mobiusdyn: its ~10 MiB sits
below every child's reading.

The pinned files are the outputs of the tree before the change they guard,
without manifest.json, which holds a timestamp.
"""

import csv
import io
import json
import math
import os
import pathlib
import sys
import tempfile
import time

SCALE = pathlib.Path(__file__).resolve().parent.parent / "configs" / "scale"
REL_TOL = 1e-9


def _close(old, new) -> bool:
    """Equal, floats within REL_TOL relative; lists and dicts compared entry by entry."""
    if isinstance(old, float) and isinstance(new, float):
        return math.isclose(old, new, rel_tol=REL_TOL)
    if type(old) is not type(new):
        return False
    if isinstance(old, dict):
        return old.keys() == new.keys() and all(_close(old[k], new[k]) for k in old)
    if isinstance(old, list):
        return len(old) == len(new) and all(map(_close, old, new))
    return old == new


def _cell(text: str):
    """A CSV cell as an int, else a float, else the string."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _values(path: pathlib.Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    return [[_cell(c) for c in row] for row in csv.reader(io.StringIO(path.read_text()))]


def run_child(command: str, config: pathlib.Path, outdir: pathlib.Path) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS (MiB) of one CLI child."""
    argv = [sys.executable, "-m", "mobiusdyn.cli_runner", command, "--config", str(config), "--out", str(outdir)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss / 1024


def verdict(code: int, config: pathlib.Path, outdir: pathlib.Path) -> str:
    """'identical', 'drift' or 'wrong: <why>' for one scale config's run."""
    if code != 0:
        return f"wrong: exit {code}"
    expected = SCALE / "expected" / config.stem
    pinned = sorted(p for p in expected.iterdir() if p.is_file()) if expected.is_dir() else []
    if not pinned:
        return f"wrong: nothing pinned under {expected}"
    result = "identical"
    for old in pinned:
        new = outdir / old.name
        if not new.is_file():
            return f"wrong: no {old.name} written"
        if old.read_bytes() == new.read_bytes():
            continue
        if not _close(_values(old), _values(new)):
            return f"wrong: {old.name} differs beyond {REL_TOL:g} relative"
        result = "drift"
    return result


def run_all() -> int:
    wrong = 0
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted(SCALE.glob("*.json")):
            outdir = pathlib.Path(tmp) / config.stem
            code, wall, rss = run_child(json.loads(config.read_text())["command"], config, outdir)
            result = verdict(code, config, outdir)
            print(f"{config.stem}: {result} ({wall:.2f} s, {rss:.1f} MiB peak RSS)", flush=True)
            wrong += result.startswith("wrong")
    return 1 if wrong else 0


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit("usage: check_scale.py")
    sys.exit(run_all())
