"""Tests of the benchmark itself: generator, output checker and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import functools
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mobiusdyn import arith_fn, bsz_harness, char_sums, cli_runner, sampling  # noqa: E402
from mobiusdyn.field_arith import PrimeModulus  # noqa: E402
from mobiusdyn.mobius_dynamics import MobiusMatrix, period  # noqa: E402
from mobiusdyn.sampling import random_sl2  # noqa: E402


# --- generator ---------------------------------------------------------------------


@pytest.mark.parametrize("p", [5, 7, 13, 101, 103, 1009])
def test_orbit_period_matches_the_program(p):
    modulus = PrimeModulus(p)
    rng = random.Random(p)
    for _ in range(300):
        matrix = random_sl2(rng, modulus)
        xi0 = rng.randrange(p)
        traj = period(matrix, modulus.elem(xi0))
        got = workloads.orbit_period(p, matrix.entries(), xi0)
        if got is None:
            assert traj.period == 1 and traj.pole_free
        else:
            assert got == (traj.period, not traj.pole_free)


def test_default_seed_reproduces_the_pinned_configs():
    def instance(name):
        cfg = json.loads((ROOT / "configs" / f"{name}.json").read_text())
        return cfg["p"], cfg["matrix"], cfg["seed"]

    seed = workloads.DEFAULT_SEED
    for name, pinned in (("twisted", "sum_scan_p10007"), ("bsz", "bsz_report_p1009")):
        cfg = workloads.build(name, seed, ROOT).invocations[0].config
        assert (cfg["p"], cfg["matrix"], cfg["seed"]) == instance(pinned)
    for inv in workloads.build("shipped", seed, ROOT).invocations:
        assert inv.config == json.loads((ROOT / "configs" / f"{inv.name}.json").read_text())


@pytest.mark.parametrize("seed", range(6))
def test_instances_keep_their_properties(seed):
    p = workloads.ORBIT_P
    orbit = workloads.build("orbit", seed, ROOT).properties["instances"]
    assert [inst["pole"] for inst in orbit] == [False, True]
    assert all(p / 4 <= inst["period"] <= p / 2 + 1 for inst in orbit)
    for name in ("twisted", "bsz"):
        props = workloads.build(name, seed, ROOT).properties
        assert not props["pole"] and props["period"] >= (props["p"] - 1) // 2


def test_orbit_instances_agree_with_period():
    modulus = PrimeModulus(workloads.ORBIT_P)
    for inst in workloads.build("orbit", workloads.DEFAULT_SEED, ROOT).properties["instances"]:
        traj = period(MobiusMatrix(*(modulus.elem(v) for v in inst["matrix"])), modulus.elem(inst["xi0"]))
        assert (traj.period, not traj.pole_free) == (inst["period"], inst["pole"])


# --- output checker ----------------------------------------------------------------


def _small_scan(tmp_path):
    """A real sum-scan child at p = 101 with a predicted instance."""
    p, rng = 101, random.Random("small")
    matrix, xi0, t = workloads.draw_instance(p, rng, pole=False)
    config = {
        "command": "sum-scan", "p": str(p), "matrix": [str(v) for v in matrix], "seed": str(xi0),
        "kinds": ["twisted", "single"], "n_schedule": ["100", "1000"], "psi_u": "1",
        "points": [{"kind": "single", "u": "1", "m": "3"}],
    }
    cells = [workloads._cells("twisted", p, matrix, xi0, n, 1) for n in (100, 1000)]
    cells.append(workloads._cells("single", p, matrix, xi0, t, 1, m=3))

    def sums():
        return oracle.twisted_sums(p, matrix, xi0, t, (1,), (100, 1000)) + oracle.decimated_sums(
            p, matrix, xi0, t, (), ((1, 3),)
        )

    expected = functools.partial(workloads.expected_scan, cells, sums)
    inv = workloads.Invocation("small", "sum-scan", config, expected=expected)
    bench = run.Bench("twisted", 0, tmp_path, run.time.perf_counter(), None)
    bench.references = {}
    bench.wl = workloads.Workload("small", 0, [inv])
    bench.setup_dir = tmp_path
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "small.json").write_bytes(inv.config_bytes())
    outdir = tmp_path / "out"
    argv = [sys.executable, "-m", "mobiusdyn.cli_runner", *bench.argv(inv, outdir)]
    with run.Launcher() as launcher:
        code, *_ = launcher.run(argv, tmp_path / "out.log", 60.0)
    return bench, inv, outdir, code


def test_a_corrupted_artifact_is_a_failed_operation(tmp_path):
    bench, inv, outdir, code = _small_scan(tmp_path)
    bench.record(inv, outdir, code)
    assert (bench.attempted, bench.failed) == (1, 0)
    _, _, parsed = check.check_invocation(inv, outdir, code, None)
    bench.references = {check.sha256(inv.config_bytes()): parsed}

    csv = outdir / "sum_scan.csv"
    good = csv.read_bytes()
    corrupt = good.replace(b",100,", b",101,", 1)
    assert corrupt != good
    csv.write_bytes(corrupt)
    bench.record(inv, outdir, code)
    assert (bench.attempted, bench.failed) == (2, 1)  # sha256 no longer matches the manifest

    manifest = json.loads((outdir / "manifest.json").read_text())
    manifest["outputs"]["sum_scan.csv"] = check.sha256(corrupt)
    (outdir / "manifest.json").write_text(json.dumps(manifest))
    bench.record(inv, outdir, code)
    assert (bench.attempted, bench.failed) == (3, 2)  # manifest consistent, term count wrong

    bench.record(inv, outdir, 1)
    assert (bench.attempted, bench.failed) == (4, 3)  # nonzero exit


def test_oracle_catches_a_wrong_sum_without_a_reference(tmp_path):
    bench, inv, outdir, code = _small_scan(tmp_path)
    bench.record(inv, outdir, code)
    assert (bench.attempted, bench.failed) == (1, 0)
    csv = outdir / "sum_scan.csv"
    table = check.parse_artifact("sum_scan.csv", csv.read_bytes())
    re_col = table["header"].index("re")
    lines = csv.read_text().splitlines()
    cells = lines[1].split(",")
    cells[re_col] = repr(table["rows"][0][re_col] + 1e-6)
    lines[1] = ",".join(cells)
    data = ("\n".join(lines) + "\n").encode()
    csv.write_bytes(data)
    manifest = json.loads((outdir / "manifest.json").read_text())
    manifest["outputs"]["sum_scan.csv"] = check.sha256(data)
    (outdir / "manifest.json").write_text(json.dumps(manifest))
    bench.digests.clear()
    bench.record(inv, outdir, code)
    assert (bench.attempted, bench.failed) == (2, 1)


def test_bytes_must_repeat_across_passes(tmp_path):
    bench, inv, outdir, code = _small_scan(tmp_path)
    bench.record(inv, outdir, code)
    bench.digests["small"] = {"sum_scan.csv": "0" * 64}
    bench.record(inv, outdir, code)
    assert (bench.attempted, bench.failed) == (2, 1)


def test_float_tolerance_admits_reordering_but_not_a_term():
    ref = {"rows": [[10007, 471.61487903774355, None]], "w": 707370.1003256578}
    close = {"rows": [[10007, 471.61487903774355 + 3e-13, None]], "w": 707370.1003256578 * (1 + 1e-12)}
    assert check.compare(ref, close) == []
    assert check.compare(ref, {"rows": [[10007, 471.6148790377 + 1e-6, None]], "w": ref["w"]})
    assert check.compare(ref, {"rows": [[10007.0, 471.61487903774355, None]], "w": ref["w"]})  # exact int
    assert check.compare(ref, {"rows": [[10007, 471.61487903774355, None]], "w": ref["w"] + 1.0})


def test_csv_float_columns_stay_floats():
    table = check.parse_artifact("sum_scan.csv", b"sum_kind,p,N,re,im\ntwisted,101,10,0,-3\n")
    assert table["rows"] == [["twisted", 101, 10, 0.0, -3.0]]
    assert isinstance(table["rows"][0][3], float)


# --- tracer --------------------------------------------------------------------------


def _bindings():
    mods = [sys.modules[f"mobiusdyn.{m}"] for m in spans.MODULES]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}, vars(arith_fn.MobiusTable)["load"]


def test_tracer_wraps_every_importer_and_restores(tmp_path):
    cfg = tmp_path / "bsz.json"
    cfg.write_text(json.dumps({
        "p": "1009", "matrix": ["590", "448", "600", "406"], "seed": "50", "alpha": "0.2", "n": "20000",
    }))
    before = _bindings()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            for owner in (cli_runner, char_sums, sampling):
                assert hasattr(owner.period, spans.WRAPPED)
            assert hasattr(bsz_harness.wj_sums, spans.WRAPPED)
            assert hasattr(cli_runner.decomposition_report, spans.WRAPPED)
            with tracer.span("cli_runner.main"):
                assert cli_runner.main(["bsz-report", "--config", str(cfg), "--out", str(tmp_path / "o"),
                                        "--mu-cache", str(tmp_path / "mu.bin")]) == 0
            raise RuntimeError("restore must survive an exception")
    after = _bindings()
    assert after[1] is before[1]
    assert after[0].keys() == before[0].keys()
    assert all(after[0][k] is v for k, v in before[0].items())
    assert not any(hasattr(v, spans.WRAPPED) for v in after[0].values())

    names = {s[0] for s in tracer.spans}
    assert {"mobius_dynamics.period", "arith_fn.mobius_sieve", "bsz_harness.wj_sums",
            "bsz_harness.decomposition_report", "field_arith.mult_order"} <= names
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["mobius_dynamics.period_steps"] == 505
    assert metrics["arith_fn.sieve_limit"] == 20000
    assert metrics["bsz_harness.blocks"] > 0 and metrics["bsz_harness.products"] > 0


def test_child_peak_memory_excludes_the_client(tmp_path):
    ballast = bytearray(200 * 2**20)
    ballast[:: 2**12] = b"\x01" * len(ballast[:: 2**12])  # touch every page
    with run.Launcher() as launcher:
        code, _, rss_mb, _ = launcher.run([sys.executable, "-c", "pass"], tmp_path / "log", 60.0)
    assert code == 0 and rss_mb < 100


def test_self_time_subtracts_children():
    spans_ = [
        ["cli_runner.main", 0.0, 10.0, None, 0, {}],
        ["bsz_harness.decomposition_report", 1.0, 9.0, 0, 0, {}],
        ["bsz_harness.wj_sums", 2.0, 5.0, 1, 0, {}],
        ["mobius_dynamics.period", 5.0, 6.0, 1, 0, {"steps": 4}],
        ["field_arith.mult_order", 5.5, 5.75, 3, 0, {}],
    ]
    m = spans.layer_metrics(spans_)
    assert m["cli_runner.self_s"] == 2.0
    assert m["bsz_harness.lhs_s"] == 4.0
    assert m["bsz_harness.self_s"] == 7.0
    assert m["mobius_dynamics.self_s"] == 0.75
    assert m["mobius_dynamics.period_us_per_step"] == 0.25e6
    assert m["field_arith.busy_s"] == 0.25
