#!/usr/bin/env python3
"""Rerun every scale config and compare its outputs with the pinned ones.

Usage: PYTHONPATH=src python scripts/check_scale.py

Each configs/scale/<name>.json runs through the CLI (its "command" field
names the subcommand) into a temporary directory.  Every file pinned under
configs/scale/expected/<name>/ must then match the new output byte for byte.
When the bytes differ, the two files are compared value by value: ints,
strings and booleans exactly, floats within 1e-9 relative.  A config whose
values all agree that way is reported as drift (last-bit differences, such as
cos/sin results that differ between machines); any other difference, a
missing file or a nonzero exit is a wrong answer.  Exits 1 if any config is
wrong, else 0.

The pinned files are the outputs of the tree before the change they guard,
without manifest.json, which holds a timestamp.
"""

import csv
import io
import json
import math
import pathlib
import sys
import tempfile
import time

from mobiusdyn.cli_runner import main

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


def check(config: pathlib.Path, outdir: pathlib.Path) -> str:
    """'identical', 'drift' or 'wrong: <why>' for one scale config."""
    command = json.loads(config.read_text())["command"]
    code = main([command, "--config", str(config), "--out", str(outdir)])
    if code != 0:
        return f"wrong: exit {code}"
    expected = SCALE / "expected" / config.stem
    pinned = sorted(p for p in expected.iterdir() if p.is_file()) if expected.is_dir() else []
    if not pinned:
        return f"wrong: nothing pinned under {expected}"
    verdict = "identical"
    for old in pinned:
        new = outdir / old.name
        if not new.is_file():
            return f"wrong: no {old.name} written"
        if old.read_bytes() == new.read_bytes():
            continue
        if not _close(_values(old), _values(new)):
            return f"wrong: {old.name} differs beyond {REL_TOL:g} relative"
        verdict = "drift"
    return verdict


def run_all() -> int:
    wrong = 0
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted(SCALE.glob("*.json")):
            start = time.perf_counter()
            verdict = check(config, pathlib.Path(tmp) / config.stem)
            print(f"{config.stem}: {verdict} ({time.perf_counter() - start:.2f} s)")
            wrong += verdict.startswith("wrong")
    return 1 if wrong else 0


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit("usage: check_scale.py")
    sys.exit(run_all())
