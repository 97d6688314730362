"""Config validation, exit codes, manifests, and output determinism."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mobiusdyn.cli_runner import (
    EXIT_CONFIG,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_RESOURCE,
    POINT_SCHEMAS,
    SCHEMAS,
    main,
)

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def write_cfg(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


def run(tmp_path, command, cfg_body, out_name="out", extra=()):
    cfg = write_cfg(tmp_path, f"{command}.json", cfg_body)
    outdir = tmp_path / out_name
    code = main([command, "--config", cfg, "--out", str(outdir), *extra])
    return code, outdir


@pytest.fixture
def refuse_work(monkeypatch):
    """Every orbit build, mu-cache read, sieve, sampler and Weil batch raises: config checks must come first."""
    from mobiusdyn import cli_runner

    def refuse(*args):
        raise AssertionError("work started before every config field was checked")

    for name in (
        "period",
        "spectral_form",
        "random_admissible_instance",
        "_mu_stream",
        "mobius_segments",
        "mobius_sieve",
        "mobius_by_spf",
        "_weil_fp_batch",
        "_weil_fp2_batch",
    ):
        monkeypatch.setattr(cli_runner, name, refuse)


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


@pytest.mark.parametrize(
    "command, body, field, cap",
    [
        ("mobius-check", {"limit": "10000001"}, "'limit'", "10**7"),
        (
            "sum-scan",
            {"p": "101", "matrix": ["27", "39", "5", "11"], "seed": "55", "n_schedule": ["100", "1000000001"]},
            "'n_schedule'",
            "1000000000",
        ),
        (
            "bsz-report",
            {"p": "101", "matrix": ["27", "39", "5", "11"], "seed": "55", "alpha": "0.25", "n": "1000000001"},
            "'n'",
            "1000000000",
        ),
        (
            "bsz-report",
            {
                "p": "101",
                "matrix": ["27", "39", "5", "11"],
                "seed": "55",
                "alpha": "0.25",
                "n": "1000000000000",
                "nu": "one",
            },
            "'n'",
            "1000000000",
        ),
    ],
    ids=["mobius-check-limit", "sum-scan-n_schedule", "bsz-report-n", "bsz-report-n-nu-one"],
)
def test_caps_are_resource_guards_naming_the_field(tmp_path, capsys, refuse_work, command, body, field, cap):
    # each cap is checked next to its field, before any orbit build, mu-cache read or sieve
    code, outdir = run(tmp_path, command, body, extra=("--mu-cache", str(tmp_path / "mu.bin")))
    err = capsys.readouterr().err
    assert code == EXIT_RESOURCE
    assert field in err and cap in err
    assert "Traceback" not in err
    assert not outdir.exists()


def test_mobius_check_small_pass(tmp_path):
    code, outdir = run(tmp_path, "mobius-check", {"limit": "10"})
    assert code == EXIT_OK
    body = json.loads((outdir / "mobius_check.json").read_text())
    assert body["ok"] is True


@pytest.mark.parametrize("target", ["mobius_sieve", "mobius_by_spf"], ids=["sieve", "oracle"])
def test_mobius_check_reports_flipped_signs(tmp_path, monkeypatch, target):
    # a flipped sign in either table fails the check; the first ten flips are reported in order
    from mobiusdyn import cli_runner

    flipped = [997, 2, 30, 7, 101, 15, 510, 3, 13, 991, 66, 5]  # squarefree, so mu != 0
    real = getattr(cli_runner, target)

    def corrupted(limit):
        out = real(limit)
        values = getattr(out, "values", out)
        assert values[flipped].all()
        values[flipped] *= -1
        return out

    monkeypatch.setattr(cli_runner, target, corrupted)
    code, outdir = run(tmp_path, "mobius-check", {"limit": "1000"})
    assert code == EXIT_MISMATCH
    body = json.loads((outdir / "mobius_check.json").read_text())
    assert body["ok"] is False
    assert body["mismatches"] == [2, 3, 5, 7, 13, 15, 30, 66, 101, 510]


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


def test_empty_points_list_gives_header_only_csv(tmp_path):
    code, outdir = run(tmp_path, "sum-scan", {**SCAN_BASE, "kinds": ["single"], "points": []})
    assert code == EXIT_OK
    assert (outdir / "sum_scan.csv").read_text().count("\n") == 1


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
    # is stepped on its own, not read from the table built from the lift
    import dataclasses

    from mobiusdyn.cli_runner import verify_three_way
    from mobiusdyn.field_arith import PrimeModulus
    from mobiusdyn.mobius_dynamics import MobiusMatrix, period, spectral_form

    m = PrimeModulus(101)
    matrix, xi0 = MobiusMatrix(*(m.elem(x) for x in (27, 39, 5, 11))), m.elem(55)
    traj, form = period(matrix, xi0), spectral_form(matrix, xi0)
    assert verify_three_way(traj, form, traj.period) == {"mismatches": 0}
    table = traj.orbit_table.copy()
    table[7] = (table[7] + 1) % 101
    bad = dataclasses.replace(traj, orbit_table=table)
    assert verify_three_way(bad, form, traj.period) == {"mismatches": 1}


def test_verify_three_way_holds_the_map_to_the_closed_form():
    # a wrong gamma moves every closed-form value; shifting alpha by 1 keeps the
    # values in F_p but off by one, and by Z moves them out of F_p
    import dataclasses

    from mobiusdyn.cli_runner import verify_three_way
    from mobiusdyn.field_arith import PrimeModulus
    from mobiusdyn.mobius_dynamics import MobiusMatrix, period, spectral_form

    m = PrimeModulus(1009)
    matrix, xi0 = MobiusMatrix(*(m.elem(x) for x in (590, 448, 600, 406))), m.elem(50)
    traj, form = period(matrix, xi0), spectral_form(matrix, xi0)
    window = 300
    assert verify_three_way(traj, form, window) == {"mismatches": 0}
    (a0, a1), (g0, g1) = form.alpha, form.gamma
    for wrong in (
        dataclasses.replace(form, gamma=((g0 + 1) % 1009, g1)),
        dataclasses.replace(form, alpha=((a0 + 1) % 1009, a1)),
        dataclasses.replace(form, alpha=(a0, (a1 + 1) % 1009)),
    ):
        assert verify_three_way(traj, wrong, window) == {"mismatches": window}


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_verify_three_way_agrees_with_object_views_exhaustive(p):
    # every SL2 matrix with c != 0 and distinct roots, one seed per orbit that is
    # not a fixed point, pole orbits included: the int check counts exactly the
    # indices where `apply`, `linear_lift` and the oracle's `spectral_orbit` disagree
    import itertools

    from oracles import apply, linear_lift, spectral_orbit

    from mobiusdyn.cli_runner import verify_three_way
    from mobiusdyn.field_arith import PrimeModulus
    from mobiusdyn.mobius_dynamics import (
        DegenerateSpectral,
        MobiusMatrix,
        period,
        spectral_form,
    )

    m = PrimeModulus(p)
    checked = with_mismatches = 0
    for a, c, d in itertools.product(range(p), range(1, p), range(p)):
        if (a + d) % p in (2, p - 2):
            continue
        matrix = MobiusMatrix(*(m.elem(x) for x in (a, (a * d - 1) * pow(c, -1, p), c, d)))
        seen = set()
        for x0 in range(p):
            if x0 in seen:
                continue
            traj = period(matrix, m.elem(x0))
            seen.update(traj.orbit_table.tolist())
            try:
                form = spectral_form(matrix, traj.seed)
            except DegenerateSpectral:
                continue
            lift = itertools.islice(linear_lift(matrix, traj.seed), 1, None)
            closed = itertools.islice(spectral_orbit(form), 1, None)
            x, expected = traj.seed, 0
            for raw, (u, v), s in zip(traj.orbit_table.tolist(), lift, closed):
                x = apply(matrix, x)
                expected += not v or s is None or u != x * v or s != x or raw != x.value
            got = verify_three_way(traj, form, traj.period)["mismatches"]
            assert got == expected
            assert (expected == 0) == traj.pole_free
            checked += 1
            with_mismatches += expected > 0
    assert checked and with_mismatches


def assert_no_loaded_module_binds_the_object_extension():
    import sys

    loaded = [name for name in sys.modules if name == "mobiusdyn" or name.startswith("mobiusdyn.")]
    assert "mobiusdyn.cli_runner" in loaded
    for name in loaded:
        for banned in ("Fp2Elem", "QuadExtension", "MultiplicativeCharacter", "AdditiveCharacter", "unit_circle"):
            assert not hasattr(sys.modules[name], banned), (name, banned)


def test_no_module_binds_the_object_extension():
    # every CLI path runs on raw ints and int pairs: the object extension, the characters and
    # unit_circle are test oracles
    import importlib
    import pkgutil

    import mobiusdyn

    names = [f"mobiusdyn.{m.name}" for m in pkgutil.iter_modules(mobiusdyn.__path__)]
    assert "mobiusdyn.cli_runner" in names and "mobiusdyn.char_sums" in names
    for name in ["mobiusdyn"] + names:
        importlib.import_module(name)
    assert_no_loaded_module_binds_the_object_extension()


def test_verify_spectral_path_does_no_object_arithmetic(monkeypatch):
    # sampling an instance and checking it three ways runs on raw ints and int pairs:
    # an Fp2Elem product or inverse anywhere on the path fails this test
    import random

    from oracles import Fp2Elem

    from mobiusdyn.cli_runner import verify_three_way
    from mobiusdyn.field_arith import PrimeModulus
    from mobiusdyn.sampling import random_admissible_instance

    def refuse(*args):
        raise AssertionError("object arithmetic on the verify-spectral path")

    monkeypatch.setattr(Fp2Elem, "__mul__", refuse)
    monkeypatch.setattr(Fp2Elem, "inv", refuse)
    _, _, traj, form = random_admissible_instance(random.Random(3), PrimeModulus(101))
    assert verify_three_way(traj, form, traj.period) == {"mismatches": 0}
    assert_no_loaded_module_binds_the_object_extension()


@pytest.mark.parametrize(
    "command, name",
    [
        ("verify-spectral", "verify_spectral_p101.json"),
        ("sum-scan", "sum_scan_p10007.json"),
        ("sum-scan", "corr_scan_p1009.json"),
        ("bsz-report", "bsz_report_p1009.json"),
    ],
)
def test_period_and_spectral_paths_build_no_fp2_elements(tmp_path, monkeypatch, command, name):
    # roots, ord(theta^2) and the closed form are solved on int pairs: building an Fp2Elem fails the run
    from oracles import Fp2Elem

    def refuse(*args, **kwargs):
        raise AssertionError("Fp2Elem built on a period or spectral path")

    monkeypatch.setattr(Fp2Elem, "__init__", refuse)
    code = main([command, "--config", str(CONFIG_DIR / name), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert_no_loaded_module_binds_the_object_extension()


def test_verify_spectral_shipped_config_output_is_pinned(tmp_path):
    # the sampler's RNG order and every recorded field: the digest of verify_spectral.json
    import hashlib

    config, outdir = CONFIG_DIR / "verify_spectral_p101.json", tmp_path / "vs"
    code = main(["verify-spectral", "--config", str(config), "--out", str(outdir)])
    assert code == EXIT_OK
    digest = hashlib.sha256((outdir / "verify_spectral.json").read_bytes()).hexdigest()
    assert digest == "2541ac23a40f27b08ecbff51bbc05c826dfd6c65c8701722d92ad000e2f61168"


def test_weil_check_shipped_rng_stream_is_pinned(tmp_path):
    # the samplers' RNG order and the exact columns of every row; the float columns can
    # differ in the last bits between platforms' cos/sin, so they are left out of the digest
    import hashlib

    config, outdir = CONFIG_DIR / "weil_check_small.json", tmp_path / "wc"
    assert main(["weil-check", "--config", str(config), "--out", str(outdir)]) == EXIT_OK
    with open(outdir / "weil_check.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1000
    text = "\n".join(",".join(r[k] for k in ("sum_kind", "p", "u", "h", "N")) for r in rows)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "2350da367a7fa76f1b20373d30b0faf944245733710d5562323f612573fc953f"


@pytest.mark.parametrize("seed", ["23", "79"])
def test_verify_spectral_fixed_point_seed_exits_2_and_names_seed(tmp_path, capsys, seed):
    # 23 and 79 = (1 +- 45)/2 mod 101 (45^2 = 5) are the fixed points of x -> (2x + 1)/(x + 1)
    code, outdir = run(tmp_path, "verify-spectral", {"p": "101", "matrix": ["2", "1", "1", "1"], "seed": seed})
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'seed'" in err
    assert "Traceback" not in err
    assert not (outdir / "verify_spectral.json").exists()


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


def test_short_mu_cache_is_not_held_while_the_table_is_rebuilt(tmp_path):
    # a cache too short for the run is replaced; its table must be gone before the new one is sieved
    import tracemalloc

    from mobiusdyn.arith_fn import mobius_sieve
    from mobiusdyn.cli_runner import _mu_stream

    limit = 2 * 10**6
    short = tmp_path / "short.bin"
    mobius_sieve(limit // 2).save(short)
    peaks = []
    for cache in (short, tmp_path / "absent.bin"):
        tracemalloc.start()
        try:
            pairs = _mu_stream(limit, str(cache))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        [(start, values)] = pairs
        assert start == 1 and values.size == limit
        del pairs, values
    assert short.stat().st_size == 16 + limit  # the short cache was rebuilt in place
    assert short.read_bytes() == (tmp_path / "absent.bin").read_bytes()
    assert peaks[1] > limit
    assert peaks[0] - peaks[1] <= limit // 4, peaks


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
    code, outdir = run(tmp_path, "bsz-report", BSZ_BASE, out_name="bsz", extra=["--mu-cache", str(cache)])
    assert code == EXIT_CONFIG
    assert not (outdir / "bsz_report.json").exists()
    assert cache.read_bytes() == b"garbage bytes here"


@pytest.mark.parametrize("command", ["sum-scan", "bsz-report"])
def test_short_mu_cache_with_a_bad_body_is_rebuilt(tmp_path, command):
    # only the header of a too-short cache is read, so a bad value in its body is never seen: the file is replaced
    from mobiusdyn.arith_fn import mobius_sieve

    cache = tmp_path / "mu.bin"
    mobius_sieve(1000).save(cache)
    data = bytearray(cache.read_bytes())
    data[16 + 500] = 2  # mu(501)
    cache.write_bytes(bytes(data))
    body = BSZ_BASE if command == "bsz-report" else {**SCAN_BASE, "kinds": ["twisted"], "n_schedule": ["2000"]}
    code, cached = run(tmp_path, command, body, out_name="cached", extra=["--mu-cache", str(cache)])
    assert code == EXIT_OK
    fresh = tmp_path / "fresh.bin"
    mobius_sieve(2000).save(fresh)
    assert cache.read_bytes() == fresh.read_bytes()
    code, plain = run(tmp_path, command, body, out_name="plain")
    assert code == EXIT_OK
    name = "bsz_report.json" if command == "bsz-report" else "sum_scan.csv"
    assert (cached / name).read_bytes() == (plain / name).read_bytes()


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


@pytest.mark.parametrize(
    "body, field",
    [
        ({"primes": ["1000000000000007243"]}, "'primes[0]'"),  # (p - 1)/2 is prime
        ({"norm_one_primes": ["1000000000000001323"]}, "'norm_one_primes[0]'"),  # (p + 1)/4 is prime
    ],
    ids=["primes", "norm_one_primes"],
)
def test_weil_check_caps_are_checked_before_any_generator(tmp_path, capsys, monkeypatch, body, field):
    # a generator search would factorise p - 1 or p + 1 first; the cap must refuse the prime before that
    from mobiusdyn import char_sums, sampling

    def refuse(*args):
        raise AssertionError("generator searched for a prime over the cap")

    monkeypatch.setattr(char_sums, "primitive_root", refuse)
    monkeypatch.setattr(char_sums, "norm_group_generator", refuse)
    monkeypatch.setattr(sampling, "norm_group_generator", refuse)
    code, outdir = run(tmp_path, "weil-check", {"functions_per_prime": "2", **body})
    err = capsys.readouterr().err
    assert code == EXIT_RESOURCE
    assert field in err
    assert "Traceback" not in err
    assert not outdir.exists()


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
        ("sum-scan", SCAN_BASE, {"kinds": ["single"], "points": None}, "'points'"),
        ("sum-scan", SCAN_BASE, {"kinds": ["single"], "points": 5}, "'points'"),
        ("sum-scan", SCAN_BASE, {"kinds": ["single"], "points": {"kind": "single", "u": "1", "m": "1"}}, "'points'"),
        ("sum-scan", {**SCAN_BASE, "seed": 55.0}, {"n_schedule": ["100"]}, "'seed'"),
        ("verify-spectral", {**SCAN_BASE, "matrix": ["27", "39", "5", False]}, {}, "'matrix[3]'"),
        ("weil-check", {"functions_per_prime": "2"}, {"primes": ["101", "91"]}, "'primes[1]'"),
        ("weil-check", {"functions_per_prime": "2"}, {"norm_one_primes": ["1"]}, "'norm_one_primes[0]'"),
        ("weil-check", {"functions_per_prime": "2"}, {"max_degree": "0"}, "'max_degree'"),
        ("weil-check", {}, {"functions_per_prime": "-2"}, "'functions_per_prime'"),
        ("verify-spectral", SCAN_BASE, {"window": "-5"}, "'window'"),
        # seed 4 has period 50 and its orbit passes through the pole
        ("verify-spectral", SCAN_BASE, {"seed": "4"}, "'seed'"),
        ("sum-scan", SCAN_BASE, {"n_schedule": ["100"], "command": "bsz-report"}, "'command'"),
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
        "scan-points-null",
        "scan-points-int",
        "scan-points-object",
        "scan-seed-float",
        "spectral-matrix-bool",
        "weil-composite-prime",
        "weil-norm-one-prime-1",
        "weil-max-degree-0",
        "weil-negative-count",
        "spectral-negative-window",
        "spectral-pole-orbit-seed",
        "scan-command-mismatch",
    ],
)
def test_parameter_errors_exit_2_and_name_the_field(tmp_path, capsys, command, base, change, field):
    code, outdir = run(tmp_path, command, {**base, **change})
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert field in err
    assert "Traceback" not in err
    assert not outdir.exists() or not any(outdir.iterdir())


def test_frequencies_and_points_outside_the_field_print_their_residues(tmp_path):
    # the kernels take psi_u, the twisted frequencies and the point coefficients mod p
    def scan(psi_u, frequencies, u, v):
        points = [{"kind": "correlation", "u": u, "v": v, "k": "0", "m": "2"}, {"kind": "single", "u": u, "m": "3"}]
        body = {**SCAN_BASE, "kinds": ["twisted", "correlation", "single"], "n_schedule": ["10", "100"]}
        body.update(psi_u=psi_u, frequencies=frequencies, points=points)
        code, outdir = run(tmp_path, "sum-scan", body, out_name=f"out-{psi_u}-{u}")
        assert code == EXIT_OK
        return (outdir / "sum_scan.csv").read_bytes()

    reduced = scan("1", ["100", "1"], "100", "2")
    assert scan("102", ["-1", "102"], "-1", "103") == reduced
    assert b",100,2,0,2," in reduced  # the correlation row records u = 100, v = 2


def test_exact_fields_take_true_ints_and_decimal_strings(tmp_path):
    body = {**BSZ_BASE, "n": 2000, "psi_u": "+1", "nu": "one", "f": "psi_xi"}
    code, outdir = run(tmp_path, "bsz-report", body)
    assert code == EXIT_OK
    assert json.loads((outdir / "bsz_report.json").read_text())["params"]["n"] == 2000


def test_threads_is_validated_but_changes_nothing(tmp_path, capsys):
    cfg = {**SCAN_BASE, "kinds": ["twisted"], "frequencies": ["1", "3"], "n_schedule": ["50", "500"]}
    code, _ = run(tmp_path, "sum-scan", cfg, out_name="t0", extra=["--threads", "0"])
    assert code == EXIT_CONFIG
    code, _ = run(tmp_path, "sum-scan", {**cfg, "threads": "0"}, out_name="t0cfg")
    assert code == EXIT_CONFIG
    # the config field is checked even when --threads is given: an exact field takes no float or bool
    for bad in (1.5, True):
        capsys.readouterr()
        code, _ = run(tmp_path, "sum-scan", {**cfg, "threads": bad}, out_name="tbad", extra=["--threads", "1"])
        assert code == EXIT_CONFIG
        assert "'threads'" in capsys.readouterr().err
    _, out1 = run(tmp_path, "sum-scan", cfg, out_name="t1", extra=["--threads", "1"])
    _, out3 = run(tmp_path, "sum-scan", cfg, out_name="t3", extra=["--threads", "3"])
    assert (out1 / "sum_scan.csv").read_bytes() == (out3 / "sum_scan.csv").read_bytes()


# --- unknown keys, and keys the chosen branch never reads or needs, exit 2 ------------


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
        ("verify-spectral", {**SCAN_BASE, "samples": "5"}, "'samples'"),
        ("verify-spectral", {**SCAN_BASE, "rng_seed": "2"}, "'rng_seed'"),
        ("verify-spectral", {"p": "101", "samples": "5", "seed": "55"}, "'seed'"),
        ("bsz-report", {**BSZ_BASE, "nu": "one", "f": "one", "psi_u": "1"}, "'psi_u'"),
        ("sum-scan", SCAN_BASE, "'n_schedule'"),
        ("sum-scan", {**SCAN_BASE, "kinds": ["twisted", "single"], "n_schedule": ["100"]}, "'points'"),
        ("sum-scan", {**SCAN_BASE, "kinds": ["correlation"]}, "'points'"),
        (
            "sum-scan",
            {**SCAN_BASE, "kinds": ["single"], "points": [{"kind": "single", "u": "1", "m": "1", "v": "7"}]},
            "'v'",
        ),
        (
            "sum-scan",
            {**SCAN_BASE, "kinds": ["single"], "points": [{"kind": "single", "u": "1", "m": "1", "k": "0"}]},
            "'k'",
        ),
    ],
    ids=[
        "scan-misspelled",
        "scan-foreign",
        "scan-point",
        "bsz",
        "spectral",
        "weil",
        "mobius",
        "spectral-matrix-samples",
        "spectral-matrix-rng_seed",
        "spectral-sampled-seed",
        "bsz-f-one-psi_u",
        "scan-twisted-no-schedule",
        "scan-single-no-points",
        "scan-correlation-no-points",
        "scan-single-point-v",
        "scan-single-point-k",
    ],
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


# --- every config error is refused before any work starts ----------------------------


_POINT = {"u": "1", "v": "1", "k": "0", "m": "1"}


@pytest.mark.parametrize(
    "command, body, field",
    [
        ("bsz-report", {**BSZ_BASE, "psi_u": "0"}, "'psi_u'"),
        (
            "sum-scan",
            {
                **SCAN_BASE,
                "kinds": ["twisted", "single"],
                "n_schedule": ["100"],
                "points": [{"kind": "single", "u": "1", "m": "1"}, {"kind": "single", "u": "101", "m": "1"}],
            },
            "'u'",
        ),
        (
            "sum-scan",
            {**SCAN_BASE, "kinds": ["correlation"], "points": [{"kind": "correlation", **_POINT, "n": "0"}]},
            "'n'",
        ),
        ("verify-spectral", {**SCAN_BASE, "window": "0"}, "'window'"),
        ("weil-check", {"primes": ["101", "91"]}, "'primes[1]'"),
    ],
    ids=["bsz-psi_u-zero", "scan-single-point-u-zero", "scan-correlation-point-n-zero", "spectral-window", "weil-prime"],
)
def test_config_errors_are_refused_before_any_work(tmp_path, capsys, refuse_work, command, body, field):
    code, outdir = run(tmp_path, command, body, extra=("--mu-cache", str(tmp_path / "mu.bin")))
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert field in err
    assert "Traceback" not in err
    assert not outdir.exists()


# --- the schema walk: every field of every command refuses bad input by name ----------

_VS = {"command": "verify-spectral", **SCAN_BASE, "window": "10", "threads": "1"}
_VS_SAMPLED = {"command": "verify-spectral", "p": "101", "samples": "1", "rng_seed": "1", "window": "10"}
_TWISTED = {
    "command": "sum-scan",
    **SCAN_BASE,
    "kinds": ["twisted"],
    "psi_u": "1",
    "n_schedule": ["10"],
    "frequencies": ["1"],
    "threads": "1",
}
_CORR_POINT = {"kind": "correlation", "u": "101", "v": "2", "k": "0", "m": "2", "n": "5"}
_SINGLE_POINT = {"kind": "single", "u": "1", "m": "1", "n": "5"}
_SINGLES = {"command": "sum-scan", **SCAN_BASE, "kinds": ["single"], "points": [_SINGLE_POINT]}
_WEIL = {
    "command": "weil-check",
    "primes": ["101"],
    "norm_one_primes": ["13"],
    "functions_per_prime": "1",
    "rng_seed": "1",
    "max_degree": "1",
    "threads": "1",
}
_BSZ = {"command": "bsz-report", **BSZ_BASE, "nu": "mobius", "f": "psi_xi", "epsilon": "0.1", "psi_u": "1", "threads": "1"}
_MOBIUS = {"command": "mobius-check", "limit": "10", "threads": "1"}
_NO_PSI_U = {k: v for k, v in _BSZ.items() if k != "psi_u"}

# (command or point kind, field): (a valid config holding the field, values out of its range with
# their exit codes, a config whose chosen branch does not read the field or None).  A field with
# no out-of-range value lists none: seeds, rng seeds and a correlation point's u (its v is
# nonzero) take every integer.
SCHEMA_CASES = {
    ("verify-spectral", "command"): (_VS, [("sum-scan", 2)], None),
    ("verify-spectral", "p"): (_VS, [("91", 2), ("2", 2)], None),
    ("verify-spectral", "matrix"): (_VS, [(["1", "2", "2", "4"], 2), (["1", "0", "1", "1"], 2), (["1", "2"], 2)], None),
    ("verify-spectral", "seed"): (_VS, [], _VS_SAMPLED),
    ("verify-spectral", "samples"): (_VS_SAMPLED, [("0", 2)], _VS),
    ("verify-spectral", "window"): (_VS, [("0", 2)], None),
    ("verify-spectral", "rng_seed"): (_VS_SAMPLED, [], _VS),
    ("verify-spectral", "threads"): (_VS, [("0", 2)], None),
    ("sum-scan", "command"): (_TWISTED, [("bsz-report", 2)], None),
    ("sum-scan", "p"): (_TWISTED, [("1", 2), ("9223372036854775837", 2)], None),
    ("sum-scan", "matrix"): (_TWISTED, [(["1", "2", "2", "4"], 2), (["1", "0", "0", "1"], 2)], None),
    ("sum-scan", "seed"): (_TWISTED, [], None),
    ("sum-scan", "kinds"): (_TWISTED, [(["twisted", "weil"], 2)], None),
    ("sum-scan", "psi_u"): (_TWISTED, [("0", 2), ("-101", 2)], None),
    ("sum-scan", "n_schedule"): (_TWISTED, [(["0"], 2), (["100", "10"], 2), (["1000000001"], 3)], _SINGLES),
    ("sum-scan", "frequencies"): (_TWISTED, [(["1", "0"], 2), (["202"], 2)], _SINGLES),
    ("sum-scan", "points"): (_SINGLES, [([_CORR_POINT], 2)], _TWISTED),
    ("sum-scan", "threads"): (_TWISTED, [("-1", 2)], None),
    ("weil-check", "command"): (_WEIL, [("weil", 2)], None),
    ("weil-check", "primes"): (_WEIL, [(["91"], 2), (["1000000000000007243"], 3)], None),
    ("weil-check", "norm_one_primes"): (_WEIL, [(["1"], 2), (["1000000000000001323"], 3)], None),
    ("weil-check", "functions_per_prime"): (_WEIL, [("0", 2)], None),
    ("weil-check", "rng_seed"): (_WEIL, [], None),
    ("weil-check", "max_degree"): (_WEIL, [("0", 2)], None),
    ("weil-check", "threads"): (_WEIL, [("0", 2)], None),
    ("bsz-report", "command"): (_BSZ, [("mobius-check", 2)], None),
    ("bsz-report", "p"): (_BSZ, [("100", 2)], None),
    ("bsz-report", "matrix"): (_BSZ, [(["0", "1", "0", "1"], 2)], None),
    ("bsz-report", "seed"): (_BSZ, [], None),
    ("bsz-report", "nu"): (_BSZ, [("mu", 2)], None),
    ("bsz-report", "f"): (_BSZ, [("psi", 2)], None),
    ("bsz-report", "n"): (_BSZ, [("0", 2), ("1000000001", 3)], None),
    ("bsz-report", "alpha"): (
        _BSZ,
        [("0.5", 2), ("0", 2), ("nan", 2), ("1e400", 2), (10**400, 2), (" 0.25 ", 2), ("0.2_5", 2), ("\u0660.25", 2)],
        None,
    ),
    ("bsz-report", "epsilon"): (_BSZ, [("0", 2), (-1, 2), ("0.1\n", 2), ("1_0", 2), ("\u0661", 2), ("\uff11", 2)], None),
    ("bsz-report", "psi_u"): (_BSZ, [("0", 2), ("101", 2)], {**_NO_PSI_U, "f": "one"}),
    ("bsz-report", "threads"): (_BSZ, [("0", 2)], None),
    ("mobius-check", "command"): (_MOBIUS, [("verify-spectral", 2)], None),
    ("mobius-check", "limit"): (_MOBIUS, [("0", 2), ("10000001", 3)], None),
    ("mobius-check", "threads"): (_MOBIUS, [("0", 2)], None),
    ("correlation", "kind"): (_CORR_POINT, [("single", 2), ("twisted", 2)], None),
    ("correlation", "u"): (_CORR_POINT, [], None),
    ("correlation", "v"): (_CORR_POINT, [("0", 2), ("-101", 2)], None),
    ("correlation", "k"): (_CORR_POINT, [("-1", 2), ("2", 2)], None),
    ("correlation", "m"): (_CORR_POINT, [("0", 2)], None),
    ("correlation", "n"): (_CORR_POINT, [("0", 2)], None),
    ("single", "kind"): (_SINGLE_POINT, [("correlation", 2)], None),
    ("single", "u"): (_SINGLE_POINT, [("0", 2), ("202", 2)], None),
    ("single", "m"): (_SINGLE_POINT, [("0", 2)], None),
    ("single", "n"): (_SINGLE_POINT, [("-5", 2)], None),
}
_FLOAT_FIELDS = {"alpha", "epsilon"}
_WORDS = {"twisted", "correlation", "single", "mobius", "one", "psi_xi", *SCHEMAS}


def test_schema_cases_cover_every_field():
    fields = {(command, name) for command, schema in SCHEMAS.items() for name in schema}
    fields |= {(kind, name) for kind, schema in POINT_SCHEMAS.items() for name in schema}
    assert set(SCHEMA_CASES) == fields


def _config(owner: str, point_or_config: dict) -> tuple[str, dict]:
    """The command and the full config: a point goes into a sum-scan of its own kind."""
    if owner in POINT_SCHEMAS:
        return "sum-scan", {**SCAN_BASE, "kinds": [owner], "points": [point_or_config]}
    return owner, point_or_config


def _float_text(s: str) -> bool:
    """Whether a float field takes s: an ASCII decimal float, finite."""
    return bool(re.fullmatch(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?", s)) and math.isfinite(float(s))


_NOT_A_NUMBER = st.text(max_size=8).filter(
    lambda s: not re.fullmatch(r"[+-]?[0-9]+", s) and not _float_text(s) and s not in _WORDS
)


@pytest.mark.parametrize("owner, field", sorted(SCHEMA_CASES), ids=lambda v: v)
@settings(max_examples=5, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    number=st.floats(allow_nan=True, allow_infinity=True),
    flag=st.booleans(),
    text=_NOT_A_NUMBER,
    edit=st.tuples(st.integers(0, 30), st.sampled_from("abcdefghijklmnopqrstuvwxyz_"), st.sampled_from("dis")),
)
def test_schema_walk_every_bad_field_exits_by_name(tmp_path, capsys, refuse_work, owner, field, number, flag, text, edit):
    # a float where an int is exact, a bool, a non-decimal string (each whole and as a list entry),
    # every out-of-range value, a misspelled key and a key the chosen branch does not read
    base, out_of_range, unread = SCHEMA_CASES[(owner, field)]
    valid = base[field]

    def check(body, expect_code, name):
        command, cfg = _config(owner, body)
        capsys.readouterr()
        code, outdir = run(tmp_path, command, cfg)
        err = capsys.readouterr().err
        assert code == expect_code, (body, err)
        assert re.search(rf"'{re.escape(name)}(\[\d+\])?'", err), (body, err)
        assert "Traceback" not in err
        assert not outdir.exists()

    bad = [flag, text] + ([] if field in _FLOAT_FIELDS else [number])
    for value in bad:
        check({**base, field: value}, EXIT_CONFIG, field)
        if isinstance(valid, list):  # the same value as the last list entry
            check({**base, field: valid[:-1] + [value]}, EXIT_CONFIG, field)
    for value, code in out_of_range:
        check({**base, field: value}, code, field)
    i, letter, how = edit  # delete, insert or substitute one letter
    i %= len(field) + 1
    typo = field[:i] + (letter if how in "is" else "") + field[i + (how in "ds") :]
    if typo in (POINT_SCHEMAS.get(owner) or SCHEMAS[owner]):  # an edit that spells another field
        typo = field + "_"
    misspelled = {(typo if k == field else k): v for k, v in base.items()}
    # a point without its kind cannot pick its sub-schema, so the missing kind is what gets named
    check(misspelled, EXIT_CONFIG, field if field == "kind" else typo)
    if unread is not None:
        check({**unread, field: valid}, EXIT_CONFIG, field)


# --- sum-scan streams mu ----------------------------------------------------------------

STREAM_SCAN = {**SCAN_BASE, "kinds": ["twisted"], "frequencies": ["1", "3"], "n_schedule": ["1", "63", "64", "200", "500"]}


@pytest.fixture
def small_segments(monkeypatch):
    """64-value sieve segments and cache slices, so a short scan spans several."""
    from mobiusdyn import arith_fn

    monkeypatch.setattr(arith_fn, "_SEGMENT", 64)


def _no_whole_table(monkeypatch):
    from mobiusdyn import arith_fn, cli_runner

    def refuse(*args):
        raise AssertionError("a whole Mobius table was built or loaded")

    for owner in (arith_fn, cli_runner):
        monkeypatch.setattr(owner, "mobius_sieve", refuse)
    monkeypatch.setattr(arith_fn.MobiusTable, "load", classmethod(refuse))
    streamed = cli_runner._mu_stream

    def segments_only(limit, cache):
        for start, segment in streamed(limit, cache):
            if segment.size > arith_fn._SEGMENT:
                refuse()
            yield start, segment

    monkeypatch.setattr(cli_runner, "_mu_stream", segments_only)


def test_sum_scan_without_a_cache_builds_no_table(tmp_path, monkeypatch, small_segments):
    code, built = run(tmp_path, "sum-scan", STREAM_SCAN, out_name="built")
    assert code == EXIT_OK
    _no_whole_table(monkeypatch)
    code, streamed = run(tmp_path, "sum-scan", STREAM_SCAN, out_name="streamed")
    assert code == EXIT_OK
    assert (streamed / "sum_scan.csv").read_bytes() == (built / "sum_scan.csv").read_bytes()


def test_sum_scan_reads_a_covering_cache_in_slices(tmp_path, monkeypatch, small_segments):
    from mobiusdyn.arith_fn import mobius_sieve

    code, plain = run(tmp_path, "sum-scan", STREAM_SCAN, out_name="plain")
    assert code == EXIT_OK
    cache = tmp_path / "mu.bin"
    mobius_sieve(1000).save(cache)
    before = cache.read_bytes()
    _no_whole_table(monkeypatch)
    code, cached = run(tmp_path, "sum-scan", STREAM_SCAN, out_name="cached", extra=["--mu-cache", str(cache)])
    assert code == EXIT_OK
    assert (cached / "sum_scan.csv").read_bytes() == (plain / "sum_scan.csv").read_bytes()
    assert cache.read_bytes() == before


def test_bad_value_in_a_later_cache_slice_is_config_error(tmp_path, capsys, small_segments):
    from mobiusdyn.arith_fn import mobius_sieve

    cache = tmp_path / "mu.bin"
    mobius_sieve(1000).save(cache)
    data = bytearray(cache.read_bytes())
    data[16 + 300] = 2  # mu(301), in the fifth 64-value slice
    cache.write_bytes(bytes(data))
    code, outdir = run(tmp_path, "sum-scan", STREAM_SCAN, extra=["--mu-cache", str(cache)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "mu-cache" in err and "Traceback" not in err
    assert not (outdir / "sum_scan.csv").exists()


# --- bsz-report reads mu through the same stream ----------------------------------------


def test_bsz_rows_do_not_depend_on_nu(tmp_path):
    # mu and 1 are +-1 with one sign on every prime, so every W_j row is the same; only the left side differs
    code, mobius = run(tmp_path, "bsz-report", {**BSZ_BASE, "nu": "mobius"}, out_name="mobius")
    assert code == EXIT_OK
    code, one = run(tmp_path, "bsz-report", {**BSZ_BASE, "nu": "one"}, out_name="one")
    assert code == EXIT_OK
    rows = [json.loads((outdir / "bsz_report.json").read_text())["rows"] for outdir in (mobius, one)]
    assert rows[0] == rows[1] and rows[0]


def test_bsz_report_bytes_with_a_cache_of_n_of_2n_and_without(tmp_path, small_segments):
    from mobiusdyn.arith_fn import mobius_sieve

    n = int(BSZ_BASE["n"])
    code, plain = run(tmp_path, "bsz-report", BSZ_BASE, out_name="plain")
    assert code == EXIT_OK
    want = (plain / "bsz_report.json").read_bytes()
    for limit in (n, 2 * n):
        cache = tmp_path / f"mu{limit}.bin"
        mobius_sieve(limit).save(cache)
        code, cached = run(tmp_path, "bsz-report", BSZ_BASE, out_name=f"cached{limit}", extra=["--mu-cache", str(cache)])
        assert code == EXIT_OK
        assert (cached / "bsz_report.json").read_bytes() == want


@pytest.mark.parametrize("nu", ["mobius", "one"])
def test_bsz_report_builds_no_table(tmp_path, monkeypatch, small_segments, nu):
    # a covering cache is read in slices, and nu = one needs no mu at all
    from mobiusdyn.arith_fn import mobius_sieve

    body = {**BSZ_BASE, "nu": nu}
    code, built = run(tmp_path, "bsz-report", body, out_name="built")
    assert code == EXIT_OK
    cache = tmp_path / "mu.bin"
    mobius_sieve(4000).save(cache)
    _no_whole_table(monkeypatch)
    code, streamed = run(tmp_path, "bsz-report", body, out_name="streamed", extra=["--mu-cache", str(cache)])
    assert code == EXIT_OK
    assert (streamed / "bsz_report.json").read_bytes() == (built / "bsz_report.json").read_bytes()


def test_cli_import_leaves_hashlib_for_the_manifest():
    # hashlib loads OpenSSL (~3.6 MB resident), so only _write_outputs imports it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code = "import sys, mobiusdyn.cli_runner; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


# --- process start-up ------------------------------------------------------------------


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_cli_child_runs_one_os_thread():
    # no path calls BLAS, so importing the CLI must not leave numpy's OpenBLAS thread pool running;
    # the variables that would cap that pool from outside are cleared, so the module has to do it
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = "import os, mobiusdyn.cli_runner; print(len(os.listdir('/proc/self/task')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"
