"""Reproducible experiment driver: five commands, one JSON config per run.

A run is parse -> compute -> write.  `SCHEMAS[command]` (and `POINT_SCHEMAS`
for sum-scan points) is the one place the config rules live: each field's
parser, default and the branch that reads it.  `parse_fields` refuses every
config error before any work starts: a key the command does not read (most
often a misspelling) or the chosen branch never reads, a bad or out-of-range
field, or a `command` that is not the subcommand all exit 2 naming the field;
a field over its cap exits 3.  Exact fields take decimal strings or JSON
integers, never a float or a boolean.  The handler in `COMMANDS` then computes
the artifacts, and `main` writes each atomically plus a manifest of checksums,
so a failed run leaves nothing partial; identical configs give byte-identical
CSV/JSON.  Runs use one thread: `--threads` and `threads` are validated
(>= 1) for existing command lines and configs but change nothing.

Exit codes: 0 success, 1 mathematical mismatch, 2 configuration or usage
error, 3 resource guard.
"""

from __future__ import annotations

import os

# No path in this package calls BLAS: with one thread, numpy's bundled OpenBLAS
# starts no thread pool when numpy is first imported (below), which took ~70 ms
# of every run's start-up on a 2-CPU host.  It must be set before that import.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import datetime
import json
import math
import random
import re
import sys
from collections import ChainMap
from collections.abc import Mapping
from pathlib import Path

try:  # the builtin sha256, as the stdlib's random takes it: hashlib loads OpenSSL, ~3 MB of every run's peak RSS
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

import numpy as np

from . import __version__
from .arith_fn import (
    _SEGMENT,
    _SIEVE_LIMIT,
    _atomic_write,
    MobiusTable,
    ResourceGuard,
    mobius_by_spf,
    mobius_segments,
    mobius_sieve,
)
from .char_sums import (
    _WEIL_FP2_LIMIT,
    _WEIL_FP_LIMIT,
    CSV_HEADER,
    SumReport,
    _angles,
    _prefix_segments,
    _unit,
    correlation_sum,
    single_sum,
    twisted_sum_schedule,
    weil_sum_fp,
    weil_sum_fp2_norm_one,
)
from .field_arith import FpElem, PrimeModulus, RepeatedRoot, sqrt_mod
from .mobius_dynamics import DegenerateSpectral, InvalidMatrix, MobiusMatrix, normalize_to_sl2, period, verify_three_way
from .sampling import (
    admissible_instance,
    random_admissible_instance,
    random_rational_function_fp,
    random_rational_function_fp2,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3

WEIL_RATIO_ENVELOPE = 10.0


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


_DECIMAL = re.compile(r"[+-]?[0-9]+")
_DECIMAL_FLOAT = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?")


# Field parsers take (raw, name, cfg), where cfg holds the fields parsed so far,
# and return the value or raise naming the field.


def _exact_int(raw, name: str, cfg=None) -> int:
    """A decimal string or a true JSON integer; floats and booleans are refused."""
    if isinstance(raw, str) and _DECIMAL.fullmatch(raw):
        try:
            return int(raw, 10)
        except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
            raise ConfigError(f"field '{name}' has {len(raw)} characters, too many digits") from None
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    raise ConfigError(f"field '{name}' must be a decimal string or an integer, got {raw!r}")


def _finite(raw, name: str, cfg) -> float:
    """A JSON number or an ASCII decimal-float string, finite; booleans are refused."""
    value = math.nan
    if (isinstance(raw, str) and _DECIMAL_FLOAT.fullmatch(raw)) or type(raw) in (int, float):
        try:
            value = float(raw)
        except OverflowError:  # a JSON integer beyond the float range
            pass
    if not math.isfinite(value):
        raise ConfigError(f"field '{name}' is not a finite number: {raw!r}")
    return value


def _one_of(*choices: str):
    def parse(raw, name: str, cfg) -> str:
        if not (isinstance(raw, str) and raw in choices):
            raise ConfigError(f"field '{name}' must be one of {', '.join(choices)}, got {raw!r}")
        return raw

    return parse


def _list_of(item):
    def parse(raw, name: str, cfg) -> list:
        if not isinstance(raw, list):
            raise ConfigError(f"field '{name}' must be a list, got {raw!r}")
        return [item(value, f"{name}[{i}]", cfg) for i, value in enumerate(raw)]

    return parse


def _checked(parse, ok, problem: str, error=ConfigError):
    """`parse`, then `error` unless ok(value, cfg); `problem` is formatted with the field's name and value."""

    def check(raw, name: str, cfg):
        value = parse(raw, name, cfg)
        if not ok(value, cfg):
            raise error(problem.format(name=name, value=value, cfg=cfg))
        return value

    return check


def _at_least(lo: int):
    return _checked(_exact_int, lambda value, cfg: value >= lo, f"field '{{name}}' must be >= {lo}, got {{value}}")


def _modulus(raw, name: str, cfg) -> PrimeModulus:
    p = _exact_int(raw, name)
    try:
        return PrimeModulus(p)
    except ValueError as exc:
        raise ConfigError(f"field '{name}': {exc}") from None


def _weil_prime(cap: int):
    # checked before a generator search factorises p - 1 or p + 1
    problem = f"field '{{name}}': exhaustive sums are capped at p <= {cap}, got {{value}}"
    return _checked(lambda raw, name, cfg: _modulus(raw, name, cfg).p, lambda p, cfg: p <= cap, problem, ResourceGuard)


def _matrix(raw, name: str, cfg) -> MobiusMatrix:
    """Four exact entries, normalised into SL2 over F_p; the roots must be distinct."""
    if not (isinstance(raw, list) and len(raw) == 4):
        raise ConfigError(f"field '{name}' must be a list [a, b, c, d]")
    entries = [cfg["p"].elem(_exact_int(value, f"{name}[{i}]")) for i, value in enumerate(raw)]
    try:
        matrix = normalize_to_sl2(*entries)
        matrix.roots
    except (InvalidMatrix, RepeatedRoot) as exc:
        raise ConfigError(f"field '{name}': {exc}") from None
    return matrix


def _seed(raw, name: str, cfg) -> FpElem:
    return cfg["p"].elem(_exact_int(raw, name))


def _residue(raw, name: str, cfg) -> int:
    return _exact_int(raw, name) % cfg["p"].p


def _points(raw, name: str, cfg) -> list[dict]:
    """Scan points, each checked against the sub-schema of its kind."""
    if not isinstance(raw, list):
        raise ConfigError(f"field '{name}' must be a list of scan points, got {raw!r}")
    points = []
    for i, point in enumerate(raw):
        kind = point.get("kind") if isinstance(point, dict) else None
        if not isinstance(kind, str) or kind not in POINT_SCHEMAS or kind not in cfg["kinds"]:
            raise ConfigError(f"field '{name}[{i}]' needs a 'kind' listed in field 'kinds', got {point!r}")
        points.append(parse_fields(POINT_SCHEMAS[kind], point, "scan point", cfg))
    return points


def _schedule(raw, name: str, cfg) -> list[int]:
    schedule = _list_of(_exact_int)(raw, name, cfg)
    if any(n < 1 for n in schedule) or schedule != sorted(schedule):
        raise ConfigError(f"field '{name}' must be ascending with every checkpoint >= 1")
    if schedule and schedule[-1] > _SIEVE_LIMIT:
        raise ResourceGuard(f"field '{name}': the Mobius sieve stops at {_SIEVE_LIMIT}, got {schedule[-1]}")
    return schedule


def _bsz():
    """bsz_harness, imported on first use: bsz-report alone runs it, so no other command compiles it."""
    from . import bsz_harness

    return bsz_harness


def __getattr__(name: str):
    """cli_runner.decomposition_report, as bsz_harness binds it now (PEP 562)."""
    if name == "decomposition_report":
        return _bsz().decomposition_report
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _alpha(raw, name: str, cfg) -> float:
    """alpha as make_params takes it, whose sieve sets at field 'n' stay inside their cap (sieve_range)."""
    alpha = _finite(raw, name, cfg)
    try:
        bsz = _bsz()
        bsz.sieve_range(bsz.make_params(alpha, cfg["n"]))
    except ResourceGuard as exc:
        raise ResourceGuard(f"fields 'n' and '{name}': {exc}") from None
    except ValueError as exc:  # outside (0, 1/2), or 1 + alpha == 1.0
        raise ConfigError(f"field '{name}': {exc}") from None
    return alpha


# Each command's fields in reading order: (parser, default) or (parser, default,
# read_when, text).  A parser does the type check, the range check (exit 2) and
# the cap (ResourceGuard, exit 3).  When read_when(cfg) is false the chosen branch
# never reads the field, and `text` says when it does.
REQUIRED = object()
_NONZERO = _checked(_residue, lambda u, cfg: u != 0, "field '{name}' must be nonzero mod p")
_SIEVED = _checked(  # the product audit allocates an (n + 1)-byte bitmap, for nu = one too
    _at_least(1),
    lambda n, cfg: n <= _SIEVE_LIMIT,
    f"field '{{name}}': the Mobius sieve and the product bitmap stop at {_SIEVE_LIMIT}, got {{value}}",
    ResourceGuard,
)
_ORACLE_LIMIT = _checked(
    _at_least(1),
    lambda n, cfg: n <= 10**7,
    "field '{name}': exhaustive oracle mode capped at limit <= 10**7, got {value}",
    ResourceGuard,
)
_EPSILON = _checked(  # t = 1 in the report: the two sides that move with epsilon do not read t
    _checked(_finite, lambda e, cfg: e > 0, "field '{name}' must be > 0, got {value}"),
    lambda e, cfg: all(
        math.isfinite(row[side])
        for row in _bsz().theorem_conditions(cfg["alpha"], cfg["n"], cfg["p"].p, 1, e)["conditions"]
        for side in ("lhs", "rhs")
    ),
    "field '{name}' overflows a side of the condition report at p = {cfg[p].p}, got {value}",
)
_ABOVE_K = _checked(
    _exact_int, lambda m, cfg: m > cfg["k"], "scan point fields 'k' and 'm' need 0 <= k < m, got k={cfg[k]}, m={value}"
)
_TWISTED = (lambda cfg: "twisted" in cfg["kinds"], "only when field 'kinds' lists twisted")
_DECIMATED = (lambda cfg: {"correlation", "single"} & set(cfg["kinds"]), "only when field 'kinds' lists correlation/single")
_SAMPLED = (lambda cfg: cfg["matrix"] is None, "only when field 'matrix' is absent")
_INSTANCE = {"p": (_modulus, REQUIRED), "matrix": (_matrix, REQUIRED), "seed": (_seed, REQUIRED)}

SCHEMAS = {
    command: {"command": (_one_of(command), command), **fields, "threads": (_at_least(1), 1)}
    for command, fields in {
        "verify-spectral": {
            "p": (_modulus, REQUIRED),
            "matrix": (_matrix, None),
            "seed": (_seed, REQUIRED, lambda cfg: cfg["matrix"] is not None, "only with field 'matrix'"),
            "samples": (_at_least(1), 50, *_SAMPLED),
            "window": (_at_least(1), 2000),
            "rng_seed": (_exact_int, 1, *_SAMPLED),
        },
        "sum-scan": {
            **_INSTANCE,
            "kinds": (_list_of(_one_of("twisted", "correlation", "single")), ("twisted",)),
            "psi_u": (_NONZERO, 1),  # checked on a twisted-only scan too, though its rows do not read it
            "n_schedule": (_schedule, REQUIRED, *_TWISTED),
            "frequencies": (_list_of(_NONZERO), (1,), *_TWISTED),
            "points": (_points, REQUIRED, *_DECIMATED),
        },
        "weil-check": {
            "primes": (_list_of(_weil_prime(_WEIL_FP_LIMIT)), (101, 199, 293)),
            "norm_one_primes": (_list_of(_weil_prime(_WEIL_FP2_LIMIT)), ()),
            "functions_per_prime": (_at_least(1), 100),
            "rng_seed": (_exact_int, 1),
            "max_degree": (_at_least(1), 3),
        },
        "bsz-report": {
            **_INSTANCE,
            "nu": (_one_of("mobius", "one"), "mobius"),
            "f": (_one_of("psi_xi", "one"), "psi_xi"),
            "n": (_SIEVED, REQUIRED),
            "alpha": (_alpha, REQUIRED),
            "epsilon": (_EPSILON, 0.1),
            "psi_u": (_NONZERO, 1, lambda cfg: cfg["f"] == "psi_xi", "only when field 'f' is psi_xi"),
        },
        "mobius-check": {"limit": (_ORACLE_LIMIT, REQUIRED)},
    }.items()
}

# A scan point's sub-schema, by kind; n defaults to the full period and is cut to it.
POINT_SCHEMAS = {
    "correlation": {
        "kind": (_one_of("correlation"), REQUIRED),
        "u": (_residue, REQUIRED),
        "v": (
            _checked(_residue, lambda v, cfg: cfg["u"] or v, "scan point fields 'u' and 'v' must not both be 0 mod p"),
            REQUIRED,
        ),
        "k": (_at_least(0), REQUIRED),
        "m": (_ABOVE_K, REQUIRED),
        "n": (_at_least(1), None),
    },
    "single": {
        "kind": (_one_of("single"), REQUIRED),
        "u": (_NONZERO, REQUIRED),
        "m": (_at_least(1), REQUIRED),
        "n": (_at_least(1), None),
    },
}


def parse_fields(schema: dict, raw: dict, where: str, cfg: Mapping | None = None) -> dict:
    """Check `raw` against `schema`; return the fields the chosen branch reads, defaults filled in.

    A key outside the schema is refused first, then the fields go in table
    order: a key whose read-when rule is false is refused, an absent field
    takes its default, and a present one goes through its parser, which sees
    the fields parsed so far over `cfg` (the enclosing config, for scan
    points).  A field required only on some branch is reported missing after
    the walk, so an unread key later in the table is named first.
    """
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        names = ", ".join(f"'{k}'" for k in unknown)
        raise ConfigError(f"unknown {where} field {names}; allowed: {', '.join(sorted(schema))}")
    out: dict = {}
    seen = ChainMap(out, cfg or {})
    missing = []
    for name, (parse, default, *read_when) in schema.items():
        if read_when and not read_when[0](seen):
            if name in raw:
                raise ConfigError(f"field '{name}' is read {read_when[1]}")
        elif name in raw:
            out[name] = parse(raw[name], name, seen)
        elif default is not REQUIRED:
            out[name] = default
        elif read_when:
            missing.append(name)
        else:
            raise ConfigError(f"missing {where} field '{name}'")
    if missing:
        raise ConfigError(f"missing {where} field '{missing[0]}'")
    return out


def _load_config(path: str) -> tuple[bytes, dict]:
    """The config's bytes (they feed the manifest hash) and its JSON object."""
    try:
        blob = Path(path).read_bytes()
        raw = json.loads(blob.decode("utf-8"))  # ValueError also covers an integer of too many digits
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"config file unreadable: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return blob, raw


def _out_dir(raw: str) -> Path:
    """The --out path, refused unless it or its nearest existing ancestor is a directory; nothing is created."""
    path = Path(raw)
    found = next((probe for probe in (path, *path.parents) if probe.exists()), path)
    if not found.is_dir():
        raise ConfigError(f"option '--out': {found} is not a directory")
    return path


def _write_outputs(outdir: Path, outputs: dict[str, bytes], config_blob: bytes) -> None:
    """Write every artifact atomically, then the manifest covering them all; a failed write names --out."""
    manifest = {
        "schema_version": 1,
        "tool_version": __version__,
        "config_sha256": sha256(config_blob).hexdigest(),
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": {name: sha256(data).hexdigest() for name, data in sorted(outputs.items())},
    }
    try:
        for name, data in {**outputs, "manifest.json": _json_bytes(manifest)}.items():
            _atomic_write(outdir / name, data)
    except OSError as exc:
        raise ConfigError(f"option '--out': cannot write the outputs: {exc}") from None


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _csv_bytes(rows: list[str]) -> bytes:
    return ("\n".join([CSV_HEADER] + rows) + "\n").encode("utf-8")


def _mu_stream(limit: int, cache: str | None):
    """mu(1..limit) as (start, int8 segment) pairs, for every command that reads mu.

    Without a cache the segments are sieved as they are drawn.  A cache
    that covers limit is read slice by slice, a bad slice failing as a
    mu-cache error when it is reached; a missing or too-short one (only its
    header is read) is replaced by `mobius_sieve(limit)`, saved, as one pair
    sieved on the first draw, so the orbit-table budget check comes first.
    """
    if not cache:
        return mobius_segments(limit)
    try:
        return _cache_slices(MobiusTable.slices(cache, limit))
    except (FileNotFoundError, ResourceGuard):
        return _rebuilt_cache(limit, cache)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"mu-cache file unusable: {exc}") from None


def _rebuilt_cache(limit: int, cache: str):
    table = mobius_sieve(limit)
    try:
        table.save(cache)
    except OSError as exc:
        raise ConfigError(f"option '--mu-cache': cannot write the rebuilt table: {exc}") from None
    yield 1, table.values[1:]


def _cache_slices(slices):
    """The slices as they come, a read or check failure reported as a mu-cache error."""
    try:
        yield from slices
    except (ValueError, OSError) as exc:
        raise ConfigError(f"mu-cache file unusable: {exc}") from None


# Every handler takes the parsed config and the --mu-cache path, and returns
# its exit code and its artifacts by file name; main writes them.


def cmd_verify_spectral(cfg: dict, mu_cache: str | None) -> tuple[int, dict[str, bytes]]:
    """three-way orbit equivalence suite: map iteration vs linear lift vs closed form"""
    modulus, matrix = cfg["p"], cfg["matrix"]
    if matrix is not None:
        try:
            instances = [admissible_instance(matrix, cfg["seed"])]
        except DegenerateSpectral as exc:
            raise ConfigError(f"field 'seed': {exc}") from None
    else:
        rng = random.Random(cfg["rng_seed"])
        instances = (random_admissible_instance(rng, modulus)[2:] for _ in range(cfg["samples"]))

    rows = []
    for traj, form in instances:
        window = min(traj.period, cfg["window"])
        row = dict(zip("abcd", traj.matrix.entries()), xi0=traj.seed.value, period=traj.period, window=window)
        row.update(theta_sq_order=traj.theta_sq_order, mismatches=verify_three_way(traj, form, window))
        rows.append(row)
        del traj, form  # one orbit table alive at a time: none is held while the next is drawn
    mismatches = sum(row["mismatches"] for row in rows)
    body = {
        "schema_version": 1,
        "p": modulus.p,
        "instances": rows,
        "total_mismatches": mismatches,
        "period_divides_order": all(row["theta_sq_order"] % row["period"] == 0 for row in rows),
        "period_equality_rate": sum(row["period"] == row["theta_sq_order"] for row in rows) / len(rows),
    }
    return (EXIT_OK if mismatches == 0 else EXIT_MISMATCH), {"verify_spectral.json": _json_bytes(body)}


def cmd_sum_scan(cfg: dict, mu_cache: str | None) -> tuple[int, dict[str, bytes]]:
    """trajectory sum scan to CSV: twisted, correlation and single sums over the configured grid"""
    matrix, xi0, schedule, points = cfg["matrix"], cfg["seed"], cfg.get("n_schedule"), cfg.get("points")
    # one orbit build per scan: the points read the whole period, twisted its prefix
    traj = period(matrix, xi0) if points is not None else None
    reports = []
    if schedule:
        mu = _mu_stream(schedule[-1], mu_cache)
        reports += twisted_sum_schedule(matrix, xi0, cfg["frequencies"], schedule, mu, traj)
    for point in points or ():
        n = min(point["n"] or traj.period, traj.period)
        if point["kind"] == "correlation":
            reports.append(correlation_sum(traj, cfg["psi_u"], point["u"], point["v"], point["k"], point["m"], n))
        else:
            reports.append(single_sum(traj, cfg["psi_u"], point["u"], point["m"], n))
    return EXIT_OK, {"sum_scan.csv": _csv_bytes([report.csv_row() for report in reports])}


def cmd_weil_check(cfg: dict, mu_cache: str | None) -> tuple[int, dict[str, bytes]]:
    """square-root-bound ratio scan to CSV: exhaustive Weil sums on a random grid"""
    grid = cfg["functions_per_prime"], cfg["rng_seed"], cfg["max_degree"]
    reports = [r for p in cfg["primes"] for r in _weil_fp_batch(p, *grid)]
    reports += [r for p in cfg["norm_one_primes"] for r in _weil_fp2_batch(p, *grid)]
    rows = [r.csv_row() for r in reports]
    finite = [r.ratio for r in reports if math.isfinite(r.ratio)]
    summary = {
        "schema_version": 1,
        "reports": len(reports),
        "max_ratio": max(finite) if finite else 0.0,
        "envelope": WEIL_RATIO_ENVELOPE,
        "within_envelope": all(r <= WEIL_RATIO_ENVELOPE for r in finite),
    }
    outputs = {"weil_check.csv": _csv_bytes(rows), "weil_check_summary.json": _json_bytes(summary)}
    return (EXIT_OK if summary["within_envelope"] else EXIT_MISMATCH), outputs


def _weil_fp_batch(p: int, count: int, rng_seed: int, max_degree: int) -> list[SumReport]:
    # string seeds hash stably across processes; tuple seeds do not
    rng = random.Random(f"{rng_seed}:fp:{p}")
    rfs = [random_rational_function_fp(rng, p, max_degree) for _ in range(count)]
    return _interleave(weil_sum_fp, rfs)


def _weil_fp2_batch(p: int, count: int, rng_seed: int, max_degree: int) -> list[SumReport]:
    rng = random.Random(f"{rng_seed}:fp2:{p}")
    e = _first_irreducible_extension(p)
    rfs = [random_rational_function_fp2(rng, e, p, max_degree) for _ in range(count)]
    return _interleave(weil_sum_fp2_norm_one, rfs)


def _interleave(kernel, rfs: list) -> list[SumReport]:
    """Each function's plain row, then its row under chi(g^i) = e(i/|G|) (h = 1), both with psi_1.

    A function's two rows stay together.
    """
    return [r for pair in zip(kernel(rfs, 1), kernel(rfs, 1, 1)) for r in pair]


def _first_irreducible_extension(p: int) -> int:
    """The smallest e >= 0 with e^2 - 4 a non-residue mod p; e = +-2 is skipped, as sqrt_mod(0, p) = 0."""
    return next(e for e in range(p) if sqrt_mod(e * e - 4, p) is None)


def cmd_bsz_report(cfg: dict, mu_cache: str | None) -> tuple[int, dict[str, bytes]]:
    """sieve-block decomposition report to JSON, with the admissibility-condition block"""
    modulus, matrix, xi0, n, alpha = cfg["p"], cfg["matrix"], cfg["seed"], cfg["n"], cfg["alpha"]
    traj = period(matrix, xi0)
    if cfg["nu"] == "mobius":
        nu = _mu_stream(n, mu_cache)
    else:  # one segment-long run of ones, handed out once per segment
        ones = np.ones(min(n, _SEGMENT), dtype=np.int8)
        nu = ((lo, ones[: n + 1 - lo]) for lo in range(1, n + 1, ones.size))
    if cfg["f"] == "psi_xi":  # F(n) = phase[(n - 1) % t]; the left side is the twisted sum at N
        phase = _unit(_angles(traj.orbit_table, modulus.p, cfg["psi_u"]))
        lhs = twisted_sum_schedule(matrix, xi0, [cfg["psi_u"]], [n], nu, traj)[0].value
    else:
        phase = np.ones(1, dtype=complex)
        lhs = complex(sum(int(segment.sum(dtype=np.int64)) for _, segment in _prefix_segments(nu, n)))

    bsz = _bsz()
    decomposition = bsz.decomposition_report(lhs, phase, n, alpha, traj.period)
    conditions = bsz.theorem_conditions(alpha, n, modulus.p, traj.period, cfg["epsilon"])
    body = dict(decomposition, conditions=conditions, matrix=list(matrix.entries()), xi0=xi0.value, p=modulus.p)
    return EXIT_OK, {"bsz_report.json": _json_bytes(body)}


def cmd_mobius_check(cfg: dict, mu_cache: str | None) -> tuple[int, dict[str, bytes]]:
    """sieve vs smallest-prime-factor oracle for every n <= limit

    Reports the first ten n where they differ, in ascending order.
    """
    limit = cfg["limit"]
    sieve = mobius_sieve(limit).values
    oracle = mobius_by_spf(limit)
    mismatches = (np.flatnonzero(sieve[1:] != oracle[1:])[:10] + 1).tolist()
    body = {"schema_version": 1, "limit": limit, "mismatches": mismatches, "ok": not mismatches}
    return (EXIT_OK if not mismatches else EXIT_MISMATCH), {"mobius_check.json": _json_bytes(body)}


COMMANDS = {
    "verify-spectral": cmd_verify_spectral,
    "sum-scan": cmd_sum_scan,
    "weil-check": cmd_weil_check,
    "bsz-report": cmd_bsz_report,
    "mobius-check": cmd_mobius_check,
}


def build_parser() -> argparse.ArgumentParser:
    description = "Reproducible experiments for fractional-linear dynamics over F_p"
    parser = argparse.ArgumentParser(prog="mobiusdyn", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in COMMANDS.items():
        cmd = sub.add_parser(name, help=handler.__doc__.splitlines()[0])
        cmd.add_argument("--config", required=True, help="path to the JSON run config")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--mu-cache", default=None, help="optional Mobius table cache file")
        cmd.add_argument("--threads", type=int, help="accepted for compatibility (>= 1); runs use one thread")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads is not None and args.threads < 1:
            raise ConfigError(f"option '--threads' must be >= 1, got {args.threads}")
        outdir = _out_dir(args.out)
        blob, raw = _load_config(args.config)
        cfg = parse_fields(SCHEMAS[args.command], raw, f"{args.command} config")
        code, outputs = COMMANDS[args.command](cfg, args.mu_cache)
        _write_outputs(outdir, outputs, blob)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ResourceGuard, MemoryError) as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except AssertionError as exc:
        print(f"mathematical mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
