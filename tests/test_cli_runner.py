"""Config validation, exit codes, manifests, and output determinism."""

import csv
import json
from pathlib import Path

import pytest

from mobiusdyn.cli_runner import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RESOURCE,
    main,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_cfg(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


def run(tmp_path, command, cfg_body, out_name="out", extra=()):
    cfg = write_cfg(tmp_path, f"{command}.json", cfg_body)
    outdir = tmp_path / out_name
    code = main([command, "--config", cfg, "--out", str(outdir), *extra])
    return code, outdir


# --- validation and exit codes --------------------------------------------------


def test_missing_config_file(tmp_path):
    code = main(["mobius-check", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_composite_p_rejected(tmp_path):
    code, _ = run(
        tmp_path,
        "verify-spectral",
        {"p": "91", "matrix": ["1", "1", "1", "2"], "seed": "0"},
    )
    assert code == EXIT_CONFIG


def test_repeated_root_matrix_rejected(tmp_path):
    # trace 2 mod 101: (Z - 1)^2, a clean diagnostic and exit 2
    code, _ = run(
        tmp_path,
        "verify-spectral",
        {"p": "101", "matrix": ["1", "0", "1", "1"], "seed": "3"},
    )
    assert code == EXIT_CONFIG


def test_singular_matrix_rejected(tmp_path):
    code, _ = run(
        tmp_path,
        "sum-scan",
        {"p": "101", "matrix": ["1", "2", "2", "4"], "seed": "3", "n_schedule": ["10"]},
    )
    assert code == EXIT_CONFIG


def test_matrix_normalised_on_ingestion(tmp_path):
    # det = 4: the driver rescales to SL2 rather than rejecting
    code, outdir = run(
        tmp_path,
        "verify-spectral",
        {"p": "101", "matrix": ["4", "2", "2", "2"], "seed": "0"},
    )
    assert code == EXIT_OK
    report = json.loads((outdir / "verify_spectral.json").read_text())
    inst = report["instances"][0]
    a, b, c, d = inst["a"], inst["b"], inst["c"], inst["d"]
    assert (a * d - b * c) % 101 == 1


def test_mobius_check_limit_zero_usage_error(tmp_path):
    code, _ = run(tmp_path, "mobius-check", {"limit": "0"})
    assert code == EXIT_CONFIG


def test_failed_run_leaves_no_partial_outputs(tmp_path):
    code, outdir = run(
        tmp_path,
        "sum-scan",
        {"p": "91", "matrix": ["27", "39", "5", "11"], "seed": "55", "n_schedule": ["10"]},
    )
    assert code == EXIT_CONFIG
    assert not outdir.exists() or not any(outdir.iterdir())


def test_resource_guard_exit_code(tmp_path):
    # a Mobius table beyond the sieve cap trips the resource guard, not a crash
    code, _ = run(
        tmp_path,
        "sum-scan",
        {
            "p": "101",
            "matrix": ["27", "39", "5", "11"],
            "seed": "55",
            "kinds": ["twisted"],
            "frequencies": ["1"],
            "n_schedule": ["2000000000"],
        },
    )
    assert code == EXIT_RESOURCE


def test_mobius_check_small_pass(tmp_path):
    code, outdir = run(tmp_path, "mobius-check", {"limit": "10"})
    assert code == EXIT_OK
    body = json.loads((outdir / "mobius_check.json").read_text())
    assert body["ok"] is True


# --- outputs and manifests -------------------------------------------------------


def test_empty_schedule_gives_header_only_csv(tmp_path):
    code, outdir = run(
        tmp_path,
        "sum-scan",
        {
            "p": "101",
            "matrix": ["27", "39", "5", "11"],
            "seed": "55",
            "kinds": ["twisted"],
            "frequencies": ["1"],
            "n_schedule": [],
        },
    )
    assert code == EXIT_OK
    content = (outdir / "sum_scan.csv").read_text()
    assert content.count("\n") == 1
    assert content.startswith("sum_kind,")


def test_manifest_covers_outputs(tmp_path):
    import hashlib

    code, outdir = run(
        tmp_path,
        "sum-scan",
        {
            "p": "101",
            "matrix": ["27", "39", "5", "11"],
            "seed": "55",
            "kinds": ["twisted"],
            "frequencies": ["1"],
            "n_schedule": ["100"],
        },
    )
    assert code == EXIT_OK
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    for name, digest in manifest["outputs"].items():
        data = (outdir / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


def test_rerun_is_byte_identical(tmp_path):
    cfg = {
        "p": "101",
        "matrix": ["27", "39", "5", "11"],
        "seed": "55",
        "kinds": ["twisted"],
        "frequencies": ["1", "3"],
        "n_schedule": ["50", "500"],
    }
    _, out1 = run(tmp_path, "sum-scan", cfg, out_name="o1")
    _, out2 = run(tmp_path, "sum-scan", cfg, out_name="o2")
    assert (out1 / "sum_scan.csv").read_bytes() == (out2 / "sum_scan.csv").read_bytes()


def test_verify_spectral_shipped_config_passes(tmp_path):
    code = main(
        [
            "verify-spectral",
            "--config",
            str(CONFIG_DIR / "verify_spectral_p101.json"),
            "--out",
            str(tmp_path / "vs"),
        ]
    )
    assert code == EXIT_OK
    report = json.loads((tmp_path / "vs" / "verify_spectral.json").read_text())
    assert report["total_mismatches"] == 0
    assert report["period_divides_order"] is True


def test_verify_three_way_steps_the_map_itself():
    # a table entry that disagrees with the map is a mismatch: the map view
    # is stepped by `apply`, not read from the table built from the lift
    import dataclasses

    from mobiusdyn.cli_runner import verify_three_way
    from mobiusdyn.field_arith import PrimeModulus
    from mobiusdyn.mobius_dynamics import MobiusMatrix, period

    m = PrimeModulus(101)
    traj = period(MobiusMatrix(*(m.elem(x) for x in (27, 39, 5, 11))), m.elem(55))
    assert verify_three_way(traj, traj.period) == {"mismatches": 0}
    table = traj.orbit_table.copy()
    table[7] = (table[7] + 1) % 101
    bad = dataclasses.replace(traj, orbit_table=table)
    assert verify_three_way(bad, traj.period) == {"mismatches": 1}


def test_mu_cache_roundtrip(tmp_path):
    cache = tmp_path / "mu.bin"
    cfg = {
        "p": "101",
        "matrix": ["27", "39", "5", "11"],
        "seed": "55",
        "kinds": ["twisted"],
        "frequencies": ["1"],
        "n_schedule": ["200"],
    }
    code, out1 = run(tmp_path, "sum-scan", cfg, out_name="c1", extra=["--mu-cache", str(cache)])
    assert code == EXIT_OK
    assert cache.exists()
    code, out2 = run(tmp_path, "sum-scan", cfg, out_name="c2", extra=["--mu-cache", str(cache)])
    assert code == EXIT_OK
    assert (out1 / "sum_scan.csv").read_bytes() == (out2 / "sum_scan.csv").read_bytes()


def test_corrupt_mu_cache_is_config_error(tmp_path):
    cache = tmp_path / "mu.bin"
    cache.write_bytes(b"garbage bytes here")
    cfg = {
        "p": "101",
        "matrix": ["27", "39", "5", "11"],
        "seed": "55",
        "kinds": ["twisted"],
        "frequencies": ["1"],
        "n_schedule": ["50"],
    }
    code, _ = run(tmp_path, "sum-scan", cfg, extra=["--mu-cache", str(cache)])
    assert code == EXIT_CONFIG


def test_bsz_report_sanity_modes(tmp_path):
    code, outdir = run(
        tmp_path,
        "bsz-report",
        {
            "p": "101",
            "matrix": ["27", "39", "5", "11"],
            "seed": "55",
            "alpha": "0.25",
            "n": "2000",
            "nu": "one",
            "f": "one",
        },
    )
    assert code == EXIT_OK
    body = json.loads((outdir / "bsz_report.json").read_text())
    assert body["aggregates"]["lhs_re"] == pytest.approx(2000)
    assert body["aggregates"]["lhs_im"] == pytest.approx(0.0)
    for row in body["rows"]:
        assert row["w"] == pytest.approx(row["p_count"] * row["q_count"])
    assert body["conditions"]["alpha_range_empty"] is True


def test_weil_check_fills_h_on_the_chi_rows_only(tmp_path):
    # every function gives two rows, without and with the character chi; the
    # h column holds chi's multiplier on the second and stays empty on the first
    cfg = {"primes": ["101"], "norm_one_primes": ["13"], "functions_per_prime": "2"}
    code, outdir = run(tmp_path, "weil-check", cfg)
    assert code == EXIT_OK
    with open(outdir / "weil_check.csv", newline="") as fh:
        header = fh.readline().strip()
        rows = list(csv.DictReader(fh, fieldnames=header.split(",")))
    assert header == "sum_kind,p,a,b,c,d,xi0,u,v,k,m,h,N,re,im,abs,bound,ratio"
    assert [r["sum_kind"] for r in rows] == ["weil_fp"] * 4 + ["weil_fp2_norm1"] * 4
    assert [r["h"] for r in rows] == ["", "1"] * 4


def test_interrupted_mu_cache_write_keeps_the_old_table(tmp_path, monkeypatch):
    import mobiusdyn.arith_fn as af

    cache = tmp_path / "mu.bin"
    af.mobius_sieve(50).save(cache)
    before = cache.read_bytes()

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(af.os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        af.mobius_sieve(500).save(cache)
    monkeypatch.undo()
    assert cache.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["mu.bin"]


def test_mu_cache_in_a_missing_directory_is_created(tmp_path):
    # the cache goes through the same atomic writer as the artifacts, which makes its directory
    cache = tmp_path / "cache" / "sub" / "mu.bin"
    cfg = {**SCAN_BASE, "kinds": ["twisted"], "n_schedule": ["50"]}
    code, _ = run(tmp_path, "sum-scan", cfg, extra=["--mu-cache", str(cache)])
    assert code == EXIT_OK
    assert [f.name for f in cache.parent.iterdir()] == ["mu.bin"]


def test_mu_cache_values_outside_mu_range_are_config_error(tmp_path, capsys):
    import struct

    cache = tmp_path / "mu.bin"
    cache.write_bytes(b"MUTB" + struct.pack("<IQ", 1, 60) + bytes([1, 255, 255, 0, 5]) + bytes(55))
    cfg = {
        "p": "101",
        "matrix": ["27", "39", "5", "11"],
        "seed": "55",
        "kinds": ["twisted"],
        "frequencies": ["1"],
        "n_schedule": ["50"],
    }
    code, _ = run(tmp_path, "sum-scan", cfg, extra=["--mu-cache", str(cache)])
    assert code == EXIT_CONFIG
    assert "mu-cache" in capsys.readouterr().err
    # a header limit the file cannot back is rejected before anything is read
    cache.write_bytes(b"MUTB" + struct.pack("<IQ", 1, 2**40) + bytes(60))
    code, _ = run(tmp_path, "sum-scan", cfg, extra=["--mu-cache", str(cache)])
    assert code == EXIT_CONFIG
    assert "mu-cache" in capsys.readouterr().err


# --- parameter errors name their field and exit 2 -----------------------------------

BSZ_BASE = {
    "p": "101",
    "matrix": ["27", "39", "5", "11"],
    "seed": "55",
    "alpha": "0.25",
    "n": "2000",
}
SCAN_BASE = {"p": "101", "matrix": ["27", "39", "5", "11"], "seed": "55"}


@pytest.mark.parametrize(
    "command, base, change, field",
    [
        ("bsz-report", BSZ_BASE, {"alpha": "0.7"}, "'alpha'"),
        ("bsz-report", BSZ_BASE, {"epsilon": "0"}, "'epsilon'"),
        ("bsz-report", BSZ_BASE, {"n": "0"}, "'n'"),
        ("bsz-report", BSZ_BASE, {"n": 100000.9}, "'n'"),
        ("bsz-report", BSZ_BASE, {"psi_u": True}, "'psi_u'"),
        ("bsz-report", BSZ_BASE, {"alpha": True}, "'alpha'"),
        (
            "sum-scan",
            SCAN_BASE,
            {"kinds": ["correlation"], "points": [{"kind": "correlation", "u": "1", "v": "2", "k": "3", "m": "3"}]},
            "'k' and 'm'",
        ),
        ("sum-scan", SCAN_BASE, {"n_schedule": ["100", 50.5]}, "'n_schedule[1]'"),
        ("sum-scan", SCAN_BASE, {"n_schedule": ["500", "100"]}, "'n_schedule'"),
        ("sum-scan", SCAN_BASE, {"n_schedule": ["100"], "psi_u": True}, "'psi_u'"),
        ("sum-scan", {**SCAN_BASE, "seed": 55.0}, {"n_schedule": ["100"]}, "'seed'"),
        ("verify-spectral", {**SCAN_BASE, "matrix": ["27", "39", "5", False]}, {}, "'matrix[3]'"),
        ("weil-check", {"functions_per_prime": "2"}, {"primes": ["101", "91"]}, "'primes[1]'"),
        ("weil-check", {"functions_per_prime": "2"}, {"norm_one_primes": ["1"]}, "'norm_one_primes[0]'"),
        ("weil-check", {"functions_per_prime": "2"}, {"max_degree": "0"}, "'max_degree'"),
        ("weil-check", {}, {"functions_per_prime": "-2"}, "'functions_per_prime'"),
        ("verify-spectral", SCAN_BASE, {"window": "-5"}, "'window'"),
    ],
    ids=[
        "bsz-alpha-0.7",
        "bsz-epsilon-0",
        "bsz-n-0",
        "bsz-n-float",
        "bsz-psi_u-bool",
        "bsz-alpha-bool",
        "scan-k-not-below-m",
        "scan-schedule-float",
        "scan-schedule-descending",
        "scan-psi_u-bool",
        "scan-seed-float",
        "spectral-matrix-bool",
        "weil-composite-prime",
        "weil-norm-one-prime-1",
        "weil-max-degree-0",
        "weil-negative-count",
        "spectral-negative-window",
    ],
)
def test_parameter_errors_exit_2_and_name_the_field(tmp_path, capsys, command, base, change, field):
    code, outdir = run(tmp_path, command, {**base, **change})
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert field in err
    assert "Traceback" not in err
    assert not outdir.exists() or not any(outdir.iterdir())


def test_exact_fields_take_true_ints_and_decimal_strings(tmp_path):
    body = {**BSZ_BASE, "n": 2000, "psi_u": "+1", "nu": "one", "f": "one"}
    code, outdir = run(tmp_path, "bsz-report", body)
    assert code == EXIT_OK
    assert json.loads((outdir / "bsz_report.json").read_text())["params"]["n"] == 2000


def test_threads_is_validated_but_changes_nothing(tmp_path):
    cfg = {**SCAN_BASE, "kinds": ["twisted"], "frequencies": ["1", "3"], "n_schedule": ["50", "500"]}
    code, _ = run(tmp_path, "sum-scan", cfg, out_name="t0", extra=["--threads", "0"])
    assert code == EXIT_CONFIG
    code, _ = run(tmp_path, "sum-scan", {**cfg, "threads": "0"}, out_name="t0cfg")
    assert code == EXIT_CONFIG
    _, out1 = run(tmp_path, "sum-scan", cfg, out_name="t1", extra=["--threads", "1"])
    _, out3 = run(tmp_path, "sum-scan", cfg, out_name="t3", extra=["--threads", "3"])
    assert (out1 / "sum_scan.csv").read_bytes() == (out3 / "sum_scan.csv").read_bytes()


# --- unknown keys are refused, not ignored --------------------------------------------


@pytest.mark.parametrize(
    "command, body, key",
    [
        ("sum-scan", {**SCAN_BASE, "kinds": ["twisted"], "n_schedul": ["100"]}, "'n_schedul'"),
        ("sum-scan", {**SCAN_BASE, "n_schedule": ["100"], "limit": "10"}, "'limit'"),
        (
            "sum-scan",
            {**SCAN_BASE, "kinds": ["single"], "points": [{"kind": "single", "u": "1", "m": "1", "w": "2"}]},
            "'w'",
        ),
        ("bsz-report", {**BSZ_BASE, "alhpa": "0.2"}, "'alhpa'"),
        ("verify-spectral", {**SCAN_BASE, "windw": "10"}, "'windw'"),
        ("weil-check", {"functions_per_prime": "2", "prime": ["101"]}, "'prime'"),
        ("mobius-check", {"limit": "10", "rng_seed": "1"}, "'rng_seed'"),
    ],
    ids=["scan-misspelled", "scan-foreign", "scan-point", "bsz", "spectral", "weil", "mobius"],
)
def test_unknown_keys_exit_2_and_name_the_key(tmp_path, capsys, command, body, key):
    code, outdir = run(tmp_path, command, body)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert key in err
    assert "Traceback" not in err
    assert not outdir.exists()


# --- fields the chosen kinds do not read are refused, not ignored --------------------


@pytest.mark.parametrize(
    "body, key",
    [
        ({"kinds": ["twisted"], "points": [{"kind": "single", "u": "1", "m": "1"}]}, "'points'"),
        ({"kinds": ["single"], "n_schedule": ["100"]}, "'n_schedule'"),
        ({"kinds": ["correlation", "single"], "frequencies": ["1"]}, "'frequencies'"),
    ],
    ids=["points", "n_schedule", "frequencies"],
)
def test_scan_fields_unread_by_kinds_exit_2(tmp_path, capsys, body, key):
    code, outdir = run(tmp_path, "sum-scan", {**SCAN_BASE, **body})
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert key in err and "'kinds'" in err
    assert "Traceback" not in err
    assert not outdir.exists()


# --- one orbit build per scan ----------------------------------------------------------


def test_mixed_scan_builds_the_orbit_once(tmp_path, monkeypatch):
    from mobiusdyn import char_sums, mobius_dynamics

    pinned = json.loads((CONFIG_DIR / "sum_scan_p10007.json").read_text())
    instance = {key: pinned[key] for key in ("p", "matrix", "seed")}
    twisted = {**instance, "kinds": ["twisted"], "n_schedule": ["100000"]}
    single = {"kind": "single", "u": "3", "m": "2"}
    mixed = {**twisted, "kinds": ["twisted", "single"], "points": [single]}
    calls = []
    build = mobius_dynamics._orbit_prefix

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(mobius_dynamics, "_orbit_prefix", counted)
    monkeypatch.setattr(char_sums, "_orbit_prefix", counted)
    code, out_mixed = run(tmp_path, "sum-scan", mixed, out_name="mixed")
    assert code == EXIT_OK
    assert len(calls) == 1
    code, out_twisted = run(tmp_path, "sum-scan", twisted, out_name="twisted")
    assert code == EXIT_OK
    mixed_rows = (out_mixed / "sum_scan.csv").read_text().splitlines()
    twisted_rows = (out_twisted / "sum_scan.csv").read_text().splitlines()
    assert mixed_rows[: len(twisted_rows)] == twisted_rows
    assert [row.split(",")[0] for row in mixed_rows[len(twisted_rows) :]] == ["single"]
