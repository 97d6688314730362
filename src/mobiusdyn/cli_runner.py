"""Reproducible experiment driver.

One JSON config per run; exact quantities (primes, matrix entries, seeds,
checkpoints) are decimal strings so no float literal can corrupt them.  Every
command writes its artifacts plus a manifest with per-output checksums; files
land via write-to-temp plus atomic rename, so failures leave nothing partial
behind.  Identical configs produce byte-identical CSV/JSON.  Every command
runs in one thread: `--threads` and the config field `threads` are still
accepted and validated (>= 1) so existing command lines and configs keep
working, but they change nothing.  A thread pool over the grid points was
measured slower than one thread, since the kernels hold the interpreter lock.

Exact fields also accept a JSON integer, but never a float or a boolean.  A
bad or out-of-range field exits 2 and names the field; so does a key the
command does not read, which is most often a misspelling.

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
import hashlib
import json
import math
import random
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .arith_fn import (
    _SIEVE_LIMIT,
    _atomic_write,
    LimitOverflow,
    MobiusTable,
    TableTooSmall,
    mobius_by_spf,
    mobius_sieve,
)
from .bsz_harness import MemoryGuard, decomposition_report, theorem_conditions
from .char_sums import (
    _WEIL_FP2_LIMIT,
    _WEIL_FP_LIMIT,
    CSV_HEADER,
    RangeGuard,
    SumReport,
    _angles,
    _unit,
    correlation_sum,
    single_sum,
    twisted_sum_schedule,
    weil_sum_fp,
    weil_sum_fp2_norm_one,
)
from .field_arith import _mul_pairs, FpElem, PrimeModulus, RepeatedRoot, sqrt_mod
from .mobius_dynamics import (
    DegenerateSpectral,
    InvalidMatrix,
    MobiusMatrix,
    NonSquareDeterminant,
    SingularMatrix,
    SpectralForm,
    Trajectory,
    normalize_to_sl2,
    period,
    spectral_form,
)
from .sampling import (
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


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing config field '{key}'")
    return cfg[key]


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _exact_int(raw, name: str) -> int:
    """A decimal string or a true JSON integer; floats and booleans are refused."""
    if isinstance(raw, str) and _DECIMAL.fullmatch(raw):
        return int(raw, 10)
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    raise ConfigError(f"field '{name}' must be a decimal string or an integer, got {raw!r}")


def _as_int(cfg: dict, key: str, default=None) -> int:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing config field '{key}'")
        return default
    return _exact_int(cfg[key], key)


def _as_float(cfg: dict, key: str, default=None) -> float:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing config field '{key}'")
        return default
    raw = cfg[key]
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = math.nan
    if isinstance(raw, bool) or not math.isfinite(value):
        raise ConfigError(f"field '{key}' is not a finite number: {raw!r}")
    return value


def _as_int_list(cfg: dict, key: str, default=None) -> list[int]:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing config field '{key}'")
        return default
    raw = cfg[key]
    if not isinstance(raw, list):
        raise ConfigError(f"field '{key}' must be a list")
    return [_exact_int(item, f"{key}[{i}]") for i, item in enumerate(raw)]


# the fields each command reads; `command` and `threads` are allowed everywhere
_COMMAND_KEYS = {
    "verify-spectral": {"p", "matrix", "seed", "samples", "window", "rng_seed"},
    "sum-scan": {"p", "matrix", "seed", "kinds", "psi_u", "n_schedule", "frequencies", "points"},
    "weil-check": {"primes", "norm_one_primes", "functions_per_prime", "rng_seed", "max_degree"},
    "bsz-report": {"p", "matrix", "seed", "n", "alpha", "epsilon", "nu", "f", "psi_u"},
    "mobius-check": {"limit"},
}
_COMMON_KEYS = {"command", "threads"}
_POINT_KEYS = {"kind", "u", "v", "k", "m", "n"}


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    """A key nobody reads is a typo: refuse it rather than run without it."""
    unknown = sorted(set(obj) - allowed)
    if unknown:
        names = ", ".join(f"'{k}'" for k in unknown)
        raise ConfigError(f"unknown {where} field {names}; allowed: {', '.join(sorted(allowed))}")


def _reject_unread(cfg: dict, keys: tuple, when: str) -> None:
    """A key the chosen branch never reads would be ignored: refuse it instead."""
    for key in keys:
        if key in cfg:
            raise ConfigError(f"field '{key}' is read {when}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's validated configuration: the raw JSON object plus its bytes.

    Exact fields arrive as decimal strings; command handlers pull and check
    what they need through the typed accessors, so a bad field fails with its
    name in the message.  The original bytes feed the manifest hash.
    """

    command: str
    raw: dict
    blob: bytes

    @classmethod
    def load(cls, command: str, path: str | Path) -> "ExperimentConfig":
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except OSError as exc:
            raise ConfigError(f"config file unreadable: {exc}") from None
        try:
            raw = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        _reject_unknown(raw, _COMMAND_KEYS[command] | _COMMON_KEYS, f"{command} config")
        return cls(command, raw, blob)


@dataclass(frozen=True)
class RunManifest:
    """Provenance record written atomically alongside every run's outputs."""

    tool_version: str
    config_sha256: str
    created_utc: str
    outputs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "tool_version": self.tool_version,
            "config_sha256": self.config_sha256,
            "created_utc": self.created_utc,
            "outputs": dict(sorted(self.outputs.items())),
        }


def _parse_modulus(cfg: dict) -> PrimeModulus:
    p = _as_int(cfg, "p")
    try:
        return PrimeModulus(p)
    except ValueError as exc:
        raise ConfigError(f"field 'p': {exc}") from None


def _parse_matrix(cfg: dict, modulus: PrimeModulus, need_distinct_roots: bool) -> MobiusMatrix:
    raw = _require(cfg, "matrix")
    if not (isinstance(raw, list) and len(raw) == 4):
        raise ConfigError("field 'matrix' must be a list [a, b, c, d]")
    vals = _as_int_list({"matrix": raw}, "matrix")
    a, b, c, d = (modulus.elem(v) for v in vals)
    try:
        matrix = normalize_to_sl2(a, b, c, d)
    except (SingularMatrix, NonSquareDeterminant, InvalidMatrix) as exc:
        raise ConfigError(f"field 'matrix': {exc}") from None
    if need_distinct_roots:
        try:
            matrix.roots
        except RepeatedRoot as exc:
            raise ConfigError(f"field 'matrix': {exc}") from None
    return matrix


def _parse_seed(cfg: dict, modulus: PrimeModulus) -> FpElem:
    return modulus.elem(_as_int(cfg, "seed"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_outputs(outdir: Path, outputs: dict[str, bytes], config_blob: bytes) -> None:
    """Write every artifact atomically, then the manifest covering them all."""
    for name, data in outputs.items():
        _atomic_write(outdir / name, data)
    manifest = RunManifest(
        tool_version=__version__,
        config_sha256=_sha256(config_blob),
        created_utc=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        outputs={name: _sha256(data) for name, data in outputs.items()},
    )
    _atomic_write(outdir / "manifest.json", _json_bytes(manifest.to_dict()))


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _csv_bytes(rows: list[str]) -> bytes:
    return ("\n".join([CSV_HEADER] + rows) + "\n").encode("utf-8")


def _load_or_build_mu(limit: int, cache: str | None) -> MobiusTable:
    if cache and os.path.exists(cache):
        try:
            table = MobiusTable.load(cache)
        except (ValueError, OSError) as exc:
            raise ConfigError(f"mu-cache file unusable: {exc}") from None
        if table.limit >= limit:
            return table
    table = mobius_sieve(limit)
    if cache:
        table.save(cache)
    return table


def cmd_verify_spectral(cfg: dict, outdir: Path, config_blob: bytes) -> int:
    """Three-way orbit equivalence: map iteration vs linear lift vs closed form."""
    modulus = _parse_modulus(cfg)
    window_cap = _as_int(cfg, "window", 2000)
    if window_cap < 1:
        raise ConfigError("field 'window' must be >= 1")
    if "matrix" in cfg:
        _reject_unread(cfg, ("samples", "rng_seed"), "only when field 'matrix' is absent")
        matrix = _parse_matrix(cfg, modulus, need_distinct_roots=True)
        xi0 = _parse_seed(cfg, modulus)
        try:
            form = spectral_form(matrix, xi0)
        except DegenerateSpectral as exc:
            raise ConfigError(f"field 'seed': {exc}") from None
        traj = period(matrix, xi0)
        if not traj.pole_free:
            raise ConfigError("field 'seed': the orbit passes through the pole; pick another seed")
        instances = [(traj, form)]
    else:
        _reject_unread(cfg, ("seed",), "only with field 'matrix'")
        samples = _as_int(cfg, "samples", 50)
        if samples < 1:
            raise ConfigError("field 'samples' must be >= 1")
        rng = random.Random(_as_int(cfg, "rng_seed", 1))
        # one orbit table alive at a time
        instances = (random_admissible_instance(rng, modulus)[2:] for _ in range(samples))

    mismatches = 0
    periods_checked = []
    for traj, form in instances:
        window = min(traj.period, window_cap)
        report = verify_three_way(traj, form, window)
        mismatches += report["mismatches"]
        row = dict(zip("abcd", traj.matrix.entries()), xi0=traj.seed.value, period=traj.period, window=window)
        periods_checked.append(dict(row, theta_sq_order=traj.theta_sq_order, mismatches=report["mismatches"]))
    body = {
        "schema_version": 1,
        "p": modulus.p,
        "instances": periods_checked,
        "total_mismatches": mismatches,
        "period_divides_order": all(
            row["theta_sq_order"] % row["period"] == 0 for row in periods_checked
        ),
        "period_equality_rate": (
            sum(1 for row in periods_checked if row["period"] == row["theta_sq_order"])
            / len(periods_checked)
        ),
    }
    _write_outputs(outdir, {"verify_spectral.json": _json_bytes(body)}, config_blob)
    return EXIT_OK if mismatches == 0 else EXIT_MISMATCH


def verify_three_way(traj: Trajectory, form: SpectralForm, window: int) -> dict:
    """Compare the three orbit views for n = 1..window on a pole-free orbit, on raw ints mod p.

    Each view is stepped on its own from the seed:
    - the map: x -> (a*x + b) * (c*x + d)^-1, with the pole sent to a/c;
    - the lift: (u, v) -> (a*u + b*v, c*u + d*v);
    - the closed form of `form`: cur = theta^(2n) by one pair product per
      step, read through `form.evaluate`.
    Index n is a mismatch unless the closed form is defined there, lies in
    F_p and equals x_n, u_n = x_n * v_n (so v_n != 0, as (u_n, v_n) != (0, 0)),
    and orbit-table entry n - 1 equals x_n: the table, built from the lift by
    doubling, is held to the map.
    """
    a, b, c, d = traj.matrix.entries()
    p = traj.matrix.p
    step = _mul_pairs(form.theta, form.theta, form.e, p)
    pole_image = a * pow(c, -1, p) % p
    x = u = traj.seed.value
    v, cur = 1, (1, 0)
    mismatches = 0
    for raw in traj.orbit_table[:window].tolist():
        den = (c * x + d) % p
        x = (a * x + b) * pow(den, -1, p) % p if den else pole_image
        u, v = (a * u + b * v) % p, (c * u + d * v) % p
        cur = _mul_pairs(cur, step, form.e, p)
        val = form.evaluate(cur)
        if val is None or val != (x, 0) or u != x * v % p or raw != x:
            mismatches += 1
    return {"mismatches": mismatches}


def cmd_sum_scan(cfg: dict, outdir: Path, config_blob: bytes, mu_cache: str | None) -> int:
    """CSV of twisted / correlation / single sums over the configured grid."""
    modulus = _parse_modulus(cfg)
    matrix = _parse_matrix(cfg, modulus, need_distinct_roots=True)
    xi0 = _parse_seed(cfg, modulus)
    kinds = cfg.get("kinds", ["twisted"])
    if not isinstance(kinds, list) or not all(k in ("twisted", "correlation", "single") for k in kinds):
        raise ConfigError("field 'kinds' must be a list drawn from twisted/correlation/single")
    for keys, readers in ((("n_schedule", "frequencies"), "twisted"), (("points",), "correlation/single")):
        if not any(k in readers.split("/") for k in kinds):
            _reject_unread(cfg, keys, f"only when field 'kinds' lists {readers}, got {kinds}")
    p = modulus.p
    psi_u = _as_int(cfg, "psi_u", 1)
    if psi_u % p == 0:
        raise ConfigError("field 'psi_u' must be nonzero")
    if "twisted" in kinds:
        schedule = _as_int_list(cfg, "n_schedule")
        frequencies = _as_int_list(cfg, "frequencies", [1])
        if any(n < 1 for n in schedule) or schedule != sorted(schedule):
            raise ConfigError("field 'n_schedule' must be ascending with every checkpoint >= 1")
        if schedule and schedule[-1] > _SIEVE_LIMIT:
            raise RangeGuard(f"field 'n_schedule': the Mobius sieve stops at {_SIEVE_LIMIT}, got {schedule[-1]}")
        if any(u % p == 0 for u in frequencies):
            raise ConfigError("field 'frequencies': twisted-sum frequencies must be nonzero")

    # one orbit build per scan: the points read the whole period, twisted its prefix
    points = _require(cfg, "points") if "correlation" in kinds or "single" in kinds else None
    if "points" in cfg and not isinstance(points, list):  # present only when the kinds read it
        raise ConfigError(f"field 'points' must be a list of scan points, got {points!r}")
    traj = period(matrix, xi0) if points is not None else None
    jobs = []
    if "twisted" in kinds and schedule:
        table = _load_or_build_mu(schedule[-1], mu_cache)
        jobs.append(lambda: twisted_sum_schedule(matrix, xi0, frequencies, schedule, table, traj))
    if traj is not None:
        for point in points:
            if not isinstance(point, dict):
                raise ConfigError(f"scan points must be objects, got {point!r}")
            _reject_unknown(point, _POINT_KEYS, "scan point")
            kind = point.get("kind")
            if kind not in ("correlation", "single") or kind not in kinds:
                raise ConfigError(f"scan point with unusable kind: {point!r}")
            n = _as_int(point, "n", traj.period)
            if n < 1:
                raise ConfigError(f"scan point field 'n' must be >= 1, got {n}")
            n = min(n, traj.period)
            u = _as_int(point, "u")
            m = _as_int(point, "m")
            if kind == "correlation":
                v = _as_int(point, "v")
                k = _as_int(point, "k")
                if not 0 <= k < m:
                    raise ConfigError(f"scan point fields 'k' and 'm' need 0 <= k < m, got k={k}, m={m}")
                if u % p == 0 and v % p == 0:
                    raise ConfigError("scan point fields 'u' and 'v' must not both be 0 mod p")
                jobs.append(
                    lambda u=u, v=v, k=k, m=m, n=n: [correlation_sum(traj, psi_u, u, v, k, m, n)]
                )
            else:
                if m < 1:
                    raise ConfigError(f"scan point field 'm' must be >= 1, got {m}")
                if u % p == 0:
                    raise ConfigError("scan point field 'u' must be nonzero mod p")
                jobs.append(lambda u=u, m=m, n=n: [single_sum(traj, psi_u, u, m, n)])

    rows = [report.csv_row() for job in jobs for report in job()]
    _write_outputs(outdir, {"sum_scan.csv": _csv_bytes(rows)}, config_blob)
    return EXIT_OK


def cmd_weil_check(cfg: dict, outdir: Path, config_blob: bytes) -> int:
    """Ratio table for the exhaustive square-root-bound sums on a random grid."""
    primes = _as_int_list(cfg, "primes", [101, 199, 293])
    norm_one_primes = _as_int_list(cfg, "norm_one_primes", [])
    per_prime = _as_int(cfg, "functions_per_prime", 100)
    rng_seed = _as_int(cfg, "rng_seed", 1)
    max_degree = _as_int(cfg, "max_degree", 3)
    if per_prime < 1 or max_degree < 1:
        raise ConfigError("fields 'functions_per_prime' and 'max_degree' must be >= 1")
    caps = {"primes": _WEIL_FP_LIMIT, "norm_one_primes": _WEIL_FP2_LIMIT}
    for key, values in (("primes", primes), ("norm_one_primes", norm_one_primes)):
        for i, p in enumerate(values):
            try:
                PrimeModulus(p)
            except ValueError as exc:
                raise ConfigError(f"field '{key}[{i}]': {exc}") from None
            if p > caps[key]:  # before a generator search factorises p - 1 or p + 1
                raise RangeGuard(f"field '{key}[{i}]': exhaustive sums are capped at p <= {caps[key]}, got {p}")

    reports = [r for p in primes for r in _weil_fp_batch(p, per_prime, rng_seed, max_degree)]
    reports += [r for p in norm_one_primes for r in _weil_fp2_batch(p, per_prime, rng_seed, max_degree)]
    rows = [r.csv_row() for r in reports]
    finite = [r.ratio for r in reports if math.isfinite(r.ratio)]
    summary = {
        "schema_version": 1,
        "reports": len(reports),
        "max_ratio": max(finite) if finite else 0.0,
        "envelope": WEIL_RATIO_ENVELOPE,
        "within_envelope": all(r <= WEIL_RATIO_ENVELOPE for r in finite),
    }
    _write_outputs(
        outdir,
        {"weil_check.csv": _csv_bytes(rows), "weil_check_summary.json": _json_bytes(summary)},
        config_blob,
    )
    return EXIT_OK if summary["within_envelope"] else EXIT_MISMATCH


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


def cmd_bsz_report(cfg: dict, outdir: Path, config_blob: bytes, mu_cache: str | None) -> int:
    """JSON decomposition ledger plus the admissibility-condition block."""
    modulus = _parse_modulus(cfg)
    matrix = _parse_matrix(cfg, modulus, need_distinct_roots=True)
    xi0 = _parse_seed(cfg, modulus)
    n = _as_int(cfg, "n")
    if n < 1:
        raise ConfigError(f"field 'n' must be >= 1, got {n}")
    alpha = _as_float(cfg, "alpha")
    if not 0.0 < alpha < 0.5:
        raise ConfigError(f"field 'alpha' must lie in (0, 1/2), got {alpha}")
    epsilon = _as_float(cfg, "epsilon", 0.1)
    if epsilon <= 0.0:
        raise ConfigError(f"field 'epsilon' must be > 0, got {epsilon}")
    nu_kind = cfg.get("nu", "mobius")
    f_kind = cfg.get("f", "psi_xi")
    if nu_kind not in ("mobius", "one") or f_kind not in ("psi_xi", "one"):
        raise ConfigError("fields 'nu' in {mobius,one} and 'f' in {psi_xi,one}")
    if nu_kind == "mobius" and n > _SIEVE_LIMIT:
        raise RangeGuard(f"field 'n': the Mobius sieve stops at {_SIEVE_LIMIT}, got {n}")
    if f_kind == "one":
        _reject_unread(cfg, ("psi_u",), "only when field 'f' is psi_xi")

    traj = period(matrix, xi0)
    if f_kind == "psi_xi":
        psi_u = _as_int(cfg, "psi_u", 1) % modulus.p
        if not psi_u:
            raise ConfigError("field 'psi_u' must be nonzero")
        phase = _unit(_angles(traj.orbit_table, modulus.p, psi_u))  # F(n) = phase[(n - 1) % t]
    else:
        phase = np.ones(1, dtype=complex)
    if nu_kind == "mobius":
        nu = _load_or_build_mu(n, mu_cache).values[: n + 1]
    else:
        nu = np.ones(n + 1, dtype=np.int8)

    decomposition = decomposition_report(nu, phase, n, alpha, traj.period)
    conditions = theorem_conditions(alpha, n, modulus.p, traj.period, epsilon)
    body = decomposition.to_dict()
    body["conditions"] = conditions.to_dict()
    body["matrix"] = list(matrix.entries())
    body["xi0"] = xi0.value
    body["p"] = modulus.p
    _write_outputs(outdir, {"bsz_report.json": _json_bytes(body)}, config_blob)
    return EXIT_OK


def cmd_mobius_check(cfg: dict, outdir: Path, config_blob: bytes) -> int:
    """Compare the sieve table with the smallest-prime-factor oracle for every n <= limit.

    Reports the first ten n where they differ, in ascending order.
    """
    limit = _as_int(cfg, "limit")
    if limit < 1:
        raise ConfigError("field 'limit' must be >= 1")
    if limit > 10**7:
        raise RangeGuard(f"field 'limit': exhaustive oracle mode capped at limit <= 10**7, got {limit}")
    sieve = mobius_sieve(limit).values
    oracle = mobius_by_spf(limit)
    mismatches = (np.flatnonzero(sieve[1:] != oracle[1:])[:10] + 1).tolist()
    body = {
        "schema_version": 1,
        "limit": limit,
        "mismatches": mismatches,
        "ok": not mismatches,
    }
    _write_outputs(outdir, {"mobius_check.json": _json_bytes(body)}, config_blob)
    return EXIT_OK if not mismatches else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobiusdyn",
        description="Reproducible experiments for fractional-linear dynamics over F_p",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("verify-spectral", "three-way orbit equivalence suite"),
        ("sum-scan", "trajectory sum scan to CSV"),
        ("weil-check", "square-root-bound ratio scan to CSV"),
        ("bsz-report", "sieve-block decomposition report to JSON"),
        ("mobius-check", "sieve vs smallest-prime-factor oracle"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON run config")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--mu-cache", default=None, help="optional Mobius table cache file")
        cmd.add_argument(
            "--threads", type=int, default=None, help="accepted for compatibility (>= 1); runs use one thread"
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.load(args.command, args.config)
        cfg, config_blob = config.raw, config.blob
        # accepted for compatibility and validated, but every command runs in one thread
        threads = args.threads if args.threads is not None else _as_int(cfg, "threads", 1)
        if threads < 1:
            raise ConfigError("threads must be >= 1")
        outdir = Path(args.out)
        if args.command == "verify-spectral":
            return cmd_verify_spectral(cfg, outdir, config_blob)
        if args.command == "sum-scan":
            return cmd_sum_scan(cfg, outdir, config_blob, args.mu_cache)
        if args.command == "weil-check":
            return cmd_weil_check(cfg, outdir, config_blob)
        if args.command == "bsz-report":
            return cmd_bsz_report(cfg, outdir, config_blob, args.mu_cache)
        if args.command == "mobius-check":
            return cmd_mobius_check(cfg, outdir, config_blob)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (LimitOverflow, MemoryGuard, TableTooSmall, RangeGuard, MemoryError) as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except AssertionError as exc:
        print(f"mathematical mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
