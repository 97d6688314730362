"""Output checks for one CLI invocation; any problem fails the operation.

An invocation passes when it exited 0, its manifest lists exactly the
expected artifacts with matching sha256 values, the values the generator
and the oracle module predict agree with the artifact, and every field
agrees with the stored reference for the same config: integers, strings
and booleans exactly, floats within ATOL + RTOL * |reference|.  The tolerance is far below
one unit-modulus term (1.0), yet admits a change of summation order.  The
caller also requires the artifact bytes to repeat across the passes of a
run.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import re
from pathlib import Path

ATOL = 1e-8
RTOL = 1e-9

ARTIFACTS = {
    "verify-spectral": ("verify_spectral.json",),
    "sum-scan": ("sum_scan.csv",),
    "weil-check": ("weil_check.csv", "weil_check_summary.json"),
    "bsz-report": ("bsz_report.json",),
    "mobius-check": ("mobius_check.json",),
}

_INT = re.compile(r"-?[0-9]+")
# CSV columns printed with format(x, ".17g"), which drops the point of 0 or 12
_FLOAT_COLUMNS = frozenset(("re", "im", "abs", "bound", "ratio"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cell(column: str, text: str):
    if text == "":
        return None
    if column in _FLOAT_COLUMNS:
        return float(text)
    return int(text) if _INT.fullmatch(text) else text


def parse_artifact(name: str, data: bytes):
    """CSV -> {"header": [...], "rows": [[cell, ...], ...]}; JSON -> the object."""
    text = data.decode("utf-8")
    if name.endswith(".json"):
        return json.loads(text)
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    return {"header": header, "rows": [[_cell(h, c) for h, c in zip(header, line.split(","))] for line in lines[1:]]}


def compare(ref, got, path: str = "") -> list[str]:
    """Differences between a reference value and an output value."""
    where = path or "<root>"
    if isinstance(ref, bool) or isinstance(got, bool) or ref is None or isinstance(ref, str):
        return [] if type(ref) is type(got) and ref == got else [f"{where}: {got!r} != {ref!r}"]
    if isinstance(ref, int):
        return [] if type(got) is int and got == ref else [f"{where}: {got!r} != {ref!r} (exact)"]
    if isinstance(ref, float):
        if not isinstance(got, (int, float)):
            return [f"{where}: {got!r} is not a number"]
        if math.isnan(ref) or math.isinf(ref):
            same = math.isnan(got) if math.isnan(ref) else got == ref
            return [] if same else [f"{where}: {got!r} != {ref!r}"]
        if not abs(got - ref) <= ATOL + RTOL * abs(ref):
            return [f"{where}: {got!r} differs from {ref!r} by {abs(got - ref):.3g}"]
        return []
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: length {len(got) if isinstance(got, list) else '-'} != {len(ref)}"]
        return [d for i, (r, g) in enumerate(zip(ref, got)) for d in compare(r, g, f"{path}[{i}]")]
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{where}: keys differ"]
        return [d for k in ref for d in compare(ref[k], got[k], f"{path}.{k}" if path else k)]
    return [f"{where}: unsupported reference type {type(ref).__name__}"]


VIEW_COLUMNS = ("sum_kind", "p", "a", "b", "c", "d", "xi0", "u", "v", "k", "m", "N", "re", "im", "abs")


def view(command: str, parsed: dict) -> dict:
    """The fields of an artifact that workloads.py and oracle.py predict, in their shape."""
    if command == "bsz-report":
        body = parsed["bsz_report.json"]
        agg = body["aggregates"]
        return {
            "instance": [body["p"], body["matrix"], body["xi0"], body["params"]["period"], body["params"]["n"]],
            "collisions": agg["collisions"],
            "lhs": [agg["lhs_re"], agg["lhs_im"], agg["lhs_abs"]],
            "sum_pq": agg["sum_pq"],
            "rows": [[row["j"], row["p_count"], row["q_count"], row["w"]] for row in body["rows"]],
        }
    table = parsed["sum_scan.csv"]
    cols = [table["header"].index(c) for c in VIEW_COLUMNS]
    return {"rows": [[row[c] for c in cols] for row in table["rows"]]}


def check_invocation(invocation, outdir: Path, exit_code: int, reference: dict | None, expected: dict | None = None):
    """Return (problems, {artifact: sha256}, {artifact: parsed}) for one finished invocation.

    expected is invocation.expected(), computed once per run by the caller.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}, {}
    try:
        manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
        listed = manifest["outputs"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"manifest unreadable: {exc}"], {}, {}
    names = ARTIFACTS[invocation.command]
    if sorted(listed) != sorted(names):
        return [f"manifest lists {sorted(listed)}, expected {sorted(names)}"], {}, {}
    problems, digests, parsed = [], {}, {}
    for name in names:
        try:
            data = (outdir / name).read_bytes()
        except OSError as exc:
            problems.append(f"{name}: {exc}")
            continue
        digests[name] = sha256(data)
        if digests[name] != listed[name]:
            problems.append(f"{name}: sha256 does not match the manifest")
            continue
        try:
            parsed[name] = parse_artifact(name, data)
        except (UnicodeDecodeError, ValueError) as exc:
            problems.append(f"{name}: unparsable: {exc}")
    if problems:
        return problems, digests, parsed
    if expected is not None:
        try:
            got = view(invocation.command, parsed)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            return [f"artifact lacks a predicted field: {exc!r}"], digests, parsed
        problems += [f"predicted {d}" for d in compare(expected, got)]
    if reference is not None:
        for name in names:
            problems += [f"{name} {d}" for d in compare(reference[name], parsed[name])]
    return problems, digests, parsed


REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_references(workload: str) -> dict:
    """{config sha256: {artifact: parsed value}}, as refgen.py recorded them."""
    path = reference_path(workload)
    if not path.exists():
        return {}
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)
