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

import argparse
import datetime
import hashlib
import json
import math
import os
import random
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .arith_fn import (
    _atomic_write,
    AdditiveCharacter,
    LimitOverflow,
    MobiusTable,
    MultiplicativeCharacter,
    TableTooSmall,
    mobius_oracle,
    mobius_sieve,
)
from .bsz_harness import MemoryGuard, decomposition_report, theorem_conditions
from .char_sums import (
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
from .field_arith import (
    FpElem,
    PrimeModulus,
    QuadExtension,
    RepeatedRoot,
    norm_group_generator,
    primitive_root,
    sqrt_mod,
)
from .mobius_dynamics import (
    InvalidMatrix,
    MobiusMatrix,
    NonSquareDeterminant,
    SingularMatrix,
    Trajectory,
    apply,
    linear_lift,
    normalize_to_sl2,
    period,
    spectral_form,
    spectral_orbit,
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
            matrix.extension
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
        matrix = _parse_matrix(cfg, modulus, need_distinct_roots=True)
        instances = [period(matrix, _parse_seed(cfg, modulus))]
    else:
        samples = _as_int(cfg, "samples", 50)
        if samples < 1:
            raise ConfigError("field 'samples' must be >= 1")
        rng = random.Random(_as_int(cfg, "rng_seed", 1))
        # one orbit table alive at a time
        instances = (random_admissible_instance(rng, modulus)[2] for _ in range(samples))

    mismatches = 0
    periods_checked = []
    for traj in instances:
        matrix, xi0 = traj.matrix, traj.seed
        if not traj.pole_free:
            raise ConfigError("configured seed orbit passes through the pole; pick another seed")
        window = min(traj.period, window_cap)
        report = verify_three_way(traj, window)
        mismatches += report["mismatches"]
        periods_checked.append(
            {
                "a": matrix.entries()[0],
                "b": matrix.entries()[1],
                "c": matrix.entries()[2],
                "d": matrix.entries()[3],
                "xi0": xi0.value,
                "period": traj.period,
                "theta_sq_order": traj.theta_sq_order,
                "window": window,
                "mismatches": report["mismatches"],
            }
        )
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


def verify_three_way(traj: Trajectory, window: int) -> dict:
    """Compare the three orbit views for n = 1..window on a pole-free orbit.

    The map view steps `apply` itself, so it does not share the linear lift
    that the orbit table is built from; the table is held to it as well.
    """
    matrix, xi0 = traj.matrix, traj.seed
    mismatches = 0
    lift = linear_lift(matrix, xi0)
    closed = spectral_orbit(spectral_form(matrix, xi0))
    next(lift)  # n = 0
    next(closed)
    x = xi0
    for raw, (u, v), s in zip(traj.orbit_table[:window].tolist(), lift, closed):
        x = apply(matrix, x)
        if not v or s is None or u != x * v or s != x or raw != x.value:
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
    for key, readers in (("n_schedule", "twisted"), ("frequencies", "twisted"), ("points", "correlation/single")):
        if key in cfg and not any(k in readers.split("/") for k in kinds):
            raise ConfigError(f"field '{key}' is read only when field 'kinds' lists {readers}, got {kinds}")
    psi = AdditiveCharacter(modulus.elem(_as_int(cfg, "psi_u", 1)))
    if not psi.is_nontrivial:
        raise ConfigError("field 'psi_u' must be nonzero")

    # one orbit build per scan: the points read the whole period, twisted its prefix
    traj = period(matrix, xi0) if "correlation" in kinds or "single" in kinds else None
    jobs = []
    if "twisted" in kinds:
        schedule = _as_int_list(cfg, "n_schedule", [])
        frequencies = _as_int_list(cfg, "frequencies", [1])
        if any(n < 1 for n in schedule) or schedule != sorted(schedule):
            raise ConfigError("field 'n_schedule' must be ascending with every checkpoint >= 1")
        if any(u % modulus.p == 0 for u in frequencies):
            raise ConfigError("field 'frequencies': twisted-sum frequencies must be nonzero")
        if schedule:
            table = _load_or_build_mu(max(schedule), mu_cache)
            chars = [AdditiveCharacter(modulus.elem(u)) for u in frequencies]
            jobs.append(lambda: twisted_sum_schedule(matrix, xi0, chars, schedule, table, traj))
    if traj is not None:
        for point in cfg.get("points", []):
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
            u = modulus.elem(_as_int(point, "u"))
            m = _as_int(point, "m")
            if kind == "correlation":
                v = modulus.elem(_as_int(point, "v"))
                k = _as_int(point, "k")
                if not 0 <= k < m:
                    raise ConfigError(f"scan point fields 'k' and 'm' need 0 <= k < m, got k={k}, m={m}")
                if not (u or v):
                    raise ConfigError("scan point fields 'u' and 'v' must not both be 0 mod p")
                jobs.append(
                    lambda u=u, v=v, k=k, m=m, n=n: [correlation_sum(traj, psi, u, v, k, m, n)]
                )
            else:
                if m < 1:
                    raise ConfigError(f"scan point field 'm' must be >= 1, got {m}")
                if not u:
                    raise ConfigError("scan point field 'u' must be nonzero mod p")
                jobs.append(lambda u=u, m=m, n=n: [single_sum(traj, psi, u, m, n)])

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
    for key, values in (("primes", primes), ("norm_one_primes", norm_one_primes)):
        for i, p in enumerate(values):
            try:
                PrimeModulus(p)
            except ValueError as exc:
                raise ConfigError(f"field '{key}[{i}]': {exc}") from None

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
    modulus = PrimeModulus(p)
    # string seeds hash stably across processes; tuple seeds do not
    rng = random.Random(f"{rng_seed}:fp:{p}")
    psi = AdditiveCharacter(modulus.one)
    chi = MultiplicativeCharacter(primitive_root(modulus), p - 1, 1)
    out = []
    for _ in range(count):
        rf = random_rational_function_fp(rng, modulus, max_degree)
        out.append(weil_sum_fp(rf, psi))
        out.append(weil_sum_fp(rf, psi, chi))
    return out


def _weil_fp2_batch(p: int, count: int, rng_seed: int, max_degree: int) -> list[SumReport]:
    modulus = PrimeModulus(p)
    rng = random.Random(f"{rng_seed}:fp2:{p}")
    ext = _first_irreducible_extension(modulus)
    gen = norm_group_generator(ext)
    psi = AdditiveCharacter(modulus.one)
    chi = MultiplicativeCharacter(gen, p + 1, 1)
    out = []
    for _ in range(count):
        rf = random_rational_function_fp2(rng, ext, gen, max_degree)
        out.append(weil_sum_fp2_norm_one(rf, psi, None, gen))
        out.append(weil_sum_fp2_norm_one(rf, psi, chi, gen))
    return out


def _first_irreducible_extension(modulus: PrimeModulus) -> QuadExtension:
    """Deterministic choice: smallest e >= 0 with e^2 - 4 a non-residue."""
    for e in range(modulus.p):
        if e in (2, modulus.p - 2):
            continue
        disc = modulus.elem(e * e - 4)
        if sqrt_mod(disc) is None:
            return QuadExtension(modulus, modulus.elem(e))
    raise AssertionError("no irreducible quadratic found; p is not an odd prime?")


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
    """Exhaustive sieve-vs-oracle comparison up to the configured limit."""
    limit = _as_int(cfg, "limit")
    if limit < 1:
        raise ConfigError("field 'limit' must be >= 1")
    if limit > 10**7:
        raise ConfigError("exhaustive oracle mode capped at limit <= 10**7")
    table = mobius_sieve(limit)
    mismatches = []
    values = table.values
    for n in range(1, limit + 1):
        if int(values[n]) != mobius_oracle(n):
            mismatches.append(n)
            if len(mismatches) >= 10:
                break
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
        ("mobius-check", "sieve vs trial-division oracle"),
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
