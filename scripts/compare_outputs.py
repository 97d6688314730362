#!/usr/bin/env python3
"""Compare two output trees of scripts/run_shipped.py file by file.

Usage: compare_outputs.py OLD NEW

Every file under either tree must exist in both and match byte for byte,
except manifest.json, which is compared as JSON without its created_utc
timestamp.  Exits 0 when the trees agree; otherwise prints the first
differing path (relative, in sorted order) and exits 1.
"""

import json
import pathlib
import sys


def _files(root: pathlib.Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _content(path: pathlib.Path):
    if path.name == "manifest.json":
        manifest = json.loads(path.read_text())
        manifest.pop("created_utc", None)
        return manifest
    return path.read_bytes()


def first_difference(old: pathlib.Path, new: pathlib.Path) -> str | None:
    """The first relative path whose content differs or that one tree lacks, else None."""
    old_files, new_files = _files(old), _files(new)
    for rel in sorted(old_files | new_files):
        if rel not in old_files or rel not in new_files:
            return rel
        if _content(old / rel) != _content(new / rel):
            return rel
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_outputs.py OLD NEW", file=sys.stderr)
        return 2
    old, new = map(pathlib.Path, argv)
    for root in (old, new):
        if not root.is_dir():
            print(f"not a directory: {root}", file=sys.stderr)
            return 2
    rel = first_difference(old, new)
    if rel is not None:
        print(f"differs: {rel}")
        return 1
    print(f"identical: {len(_files(old))} files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
