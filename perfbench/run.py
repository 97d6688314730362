#!/usr/bin/env python3
"""mobiusdyn benchmark: CLI workloads timed end to end, plus a traced per-module run.

Usage, from the repository root:

    python3 perfbench/run.py --workload {shipped,twisted,bsz,orbit} \
        --seed N --seconds S --trace {0,1}

One client process runs each workload as a closed loop: one
`python -m mobiusdyn.cli_runner <command> --threads 1` child at a time,
never two alive, started by launcher.py and timed from outside with
os.wait4, so wall time, CPU time and ru_maxrss come per child.  A pass is one
run of the workload's invocations.  Passes repeat while the next one is
expected to end within S seconds, so a run takes about S seconds whatever
the speed of the program.  Every invocation is checked (see check.py); one
that fails any check is a failed operation.

--trace 0 prints the end-to-end metrics: setup_s (median of the set-ups,
SETUPS_PER_PASS before each pass: config generation, instance search, one
program import and, for bsz, the mu-cache build), run_s (median over passes
of the wall time summed over the pass's children), peak_rss_mb (median over
passes of the largest child ru_maxrss) and ok_rate (1 - error_rate:
operations that passed over operations attempted).

--trace 1 prints the per-module metrics: the same invocations run in this
process through cli_runner.main, untraced, then with the wrappers of
spans.py installed, then untraced again (the traced pass minus the mean of
the other two is trace.overhead_s), next to one untraced child pass for
per-command wall and CPU time.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Spans go to perfbench/work/trace-<workload>-seed<N>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import workloads  # noqa: E402

BUDGET_S = 120  # start no pass after this; the run must end within 180 s
SETUPS_PER_PASS = 3
COMMANDS = ("verify-spectral", "sum-scan", "weil-check", "bsz-report", "mobius-check")

WARMUP = (
    "import sys\n"
    "import mobiusdyn.cli_runner as cli\n"
    "print(cli.__file__)\n"
    "if len(sys.argv) > 2:\n"
    "    from mobiusdyn.arith_fn import mobius_sieve\n"
    "    mobius_sieve(int(sys.argv[2])).save(sys.argv[1])\n"
)

# ROADMAP "Baseline" rows: (label, value, unit, where it was measured)
BASELINE = {
    "twisted": ("twisted_sum_schedule", 600.0, "ns/term", "N = 1e6 and 1e7"),
    "period": ("period()", 4.6, "us/step", "p ~ 1e6, t = 5e5"),
    "sieve": ("mobius_sieve", 0.22, "s", "limit 1e7"),
    "weil": ("weil_sum_fp", 0.16, "s/function", "p = 99991"),
}


class SetupFailed(RuntimeError):
    """The program could not be imported or prepared; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """Runs children through launcher.py, so their ru_maxrss excludes this process's memory."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, argv: list[str], log: Path, timeout: float) -> tuple[int, float, float, float]:
        """Run one child to completion: (exit code, wall s, peak RSS MiB, CPU s)."""
        request = {"argv": argv, "log": str(log), "timeout": timeout, "env": child_env(), "cwd": str(ROOT)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher.py exited")
        code, wall, maxrss_kib, cpu = json.loads(reply)
        return code, wall, maxrss_kib / 1024.0, cpu

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        if exc_type is not None:
            self.proc.terminate()  # the launcher stops a running child first
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def environment(seed: int) -> dict:
    import numpy

    def first_line(path: str, prefix: str = "") -> str | None:
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(prefix):
                        return line.split(":", 1)[-1].strip() if prefix else line.strip()
        except OSError:
            pass
        return None

    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "l3_cache": first_line("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "git_commit": commit,
        "seed": seed,
    }


class Bench:
    def __init__(self, workload: str, seed: int, workdir: Path, started: float, launcher: Launcher):
        self.workload_name, self.seed, self.workdir, self.started = workload, seed, workdir, started
        self.launcher = launcher
        self.references = check.load_references(workload)
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, dict] = {}
        self.expected: dict[str, dict] = {}

    def remaining(self) -> float:
        return max(5.0, 175.0 - (time.perf_counter() - self.started))

    # --- set-up ----------------------------------------------------------------

    def setup(self, where: Path):
        """Generate configs, check the program imports from this checkout, prebuild the mu-cache."""
        wl = workloads.build(self.workload_name, self.seed, ROOT)
        (where / "configs").mkdir(parents=True)
        for inv in wl.invocations:
            (where / "configs" / f"{inv.name}.json").write_bytes(inv.config_bytes())
        argv = [sys.executable, "-c", WARMUP]
        if wl.mu_cache_limit:
            argv += [str(where / "mu.bin"), str(wl.mu_cache_limit)]
        code, *_ = self.launcher.run(argv, where / "warmup.log", self.remaining())
        log = (where / "warmup.log").read_text(encoding="utf-8", errors="replace")
        if code != 0 or not log.strip().startswith(str(ROOT / "src")):
            raise SetupFailed(f"program warm-up failed (exit {code}):\n{log[-2000:]}")
        self.wl, self.setup_dir = wl, where
        return wl

    def argv(self, inv, outdir: Path) -> list[str]:
        args = [inv.command, "--config", str(self.setup_dir / "configs" / f"{inv.name}.json"),
                "--out", str(outdir), "--threads", "1"]
        if inv.mu_cache:
            args += ["--mu-cache", str(self.setup_dir / "mu.bin")]
        return args

    # --- checking ----------------------------------------------------------------

    def record(self, inv, outdir: Path, code: int) -> int:
        """Check one invocation's outputs; return the artifact bytes it wrote."""
        reference = self.references.get(check.sha256(inv.config_bytes()))
        if inv.expected is not None and inv.name not in self.expected:
            self.expected[inv.name] = inv.expected()  # once per run, outside any timed region
        problems, digests, parsed = check.check_invocation(inv, outdir, code, reference, self.expected.get(inv.name))
        if inv.command == "bsz-report" and not problems:
            self.wl.properties["products"] = parsed["bsz_report.json"]["aggregates"]["sum_pq"]
        if not problems and self.digests.setdefault(inv.name, digests) != digests:
            problems.append("artifact bytes differ from the first pass of this run")
        self.attempted += 1
        if problems:
            self.failed += 1
            log = outdir.with_suffix(".log")
            tail = log.read_text(encoding="utf-8", errors="replace")[-1500:] if log.exists() else ""
            print(f"FAILED {inv.name}: " + "; ".join(problems[:5]) + (f"\n{tail}" if tail else ""), file=sys.stderr)
        return sum(p.stat().st_size for p in outdir.glob("*") if p.name != "manifest.json" and p.is_file())

    # --- passes ----------------------------------------------------------------

    def child_pass(self, k: int) -> dict:
        passdir = self.workdir / f"pass{k}"
        passdir.mkdir()
        out = {"wall": 0.0, "rss": 0.0, "cpu": 0.0, "bytes": 0, "commands": dict.fromkeys(COMMANDS, 0.0)}
        for inv in self.wl.invocations:
            outdir = passdir / inv.name
            argv = [sys.executable, "-m", "mobiusdyn.cli_runner", *self.argv(inv, outdir)]
            code, wall, rss, cpu = self.launcher.run(argv, outdir.with_suffix(".log"), self.remaining())
            out["bytes"] += self.record(inv, outdir, code)
            out["wall"] += wall
            out["cpu"] += cpu
            out["rss"] = max(out["rss"], rss)
            out["commands"][inv.command] += wall
        shutil.rmtree(passdir)
        return out

    def inprocess_pass(self, k: int, tracer=None) -> float:
        from mobiusdyn import cli_runner

        passdir = self.workdir / f"inproc{k}"
        passdir.mkdir()
        start = time.perf_counter()
        for i, inv in enumerate(self.wl.invocations):
            outdir = passdir / inv.name
            try:
                if tracer is None:
                    code = cli_runner.main(self.argv(inv, outdir))
                else:
                    tracer.run_id = i
                    with tracer.span("cli_runner.main"):
                        code = cli_runner.main(self.argv(inv, outdir))
            except (Exception, SystemExit) as exc:  # a crash is a failed operation, not a benchmark crash
                print(f"{inv.name}: in-process run raised {exc!r}", file=sys.stderr)
                code = -1
            self.record(inv, outdir, code)
        wall = time.perf_counter() - start
        shutil.rmtree(passdir)
        return wall


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def repeat(bench: Bench, seconds: float, step) -> list:
    """Call step(k) for k = 0, 1, ... while another call is expected to end within `seconds`."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step(len(results)))
        durations.append(time.perf_counter() - t0)
        expected_end = time.perf_counter() - start + statistics.median(durations)
        if expected_end > seconds or time.perf_counter() - bench.started > BUDGET_S:
            return results


def end_to_end(bench: Bench, seconds: float) -> dict:
    def step(k: int):
        # set up again before every pass, so set-up samples spread over the run like the passes
        times = []
        for i in range(SETUPS_PER_PASS):
            where = bench.workdir / f"setup{k}-{i}"
            t0 = time.perf_counter()
            bench.setup(where)
            times.append(time.perf_counter() - t0)
            if i + 1 < SETUPS_PER_PASS:
                shutil.rmtree(where)
        result = bench.child_pass(k)
        shutil.rmtree(where)
        return times, result

    setup_lists, passes = zip(*repeat(bench, seconds, step))
    setups = [t for times in setup_lists for t in times]
    walls = [p["wall"] for p in passes]
    rss = [p["rss"] for p in passes]
    ok_rate = (bench.attempted - bench.failed) / bench.attempted
    print(f"setup_s     median {statistics.median(setups):.6g} s  ({summary(setups)})")
    print(f"run_s       median {statistics.median(walls):.6g} s  ({summary(walls)})")
    print(f"peak_rss_mb median {statistics.median(rss):.6g} MB ({summary(rss)})")
    print(f"error_rate  {bench.failed}/{bench.attempted} = {bench.failed / bench.attempted:.6g}")
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "run_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        "ok_rate": {"value": ok_rate, "unit": "ratio"},
    }


PER_LAYER_UNITS = {"_s": "s", "_ns_per_term": "ns", "_us_per_step": "us", "_ratio": "ratio", "_bytes": "bytes"}


def _unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(bench: Bench, seconds: float) -> dict:
    import spans

    sys.path.insert(0, str(ROOT / "src"))
    tracers = []

    def step(k: int) -> dict:
        child = bench.child_pass(k)
        _, import_s, _, _ = bench.launcher.run([sys.executable, "-c", "import mobiusdyn.cli_runner"],
                                               bench.workdir / f"import{k}.log", bench.remaining())
        # untraced passes on both sides, so warm-up effects do not land on one side
        before = bench.inprocess_pass(3 * k)
        tracer = spans.Tracer()
        with tracer.installed():
            traced = bench.inprocess_pass(3 * k + 1, tracer)
        after = bench.inprocess_pass(3 * k + 2)
        tracers.append(tracer)
        metrics = spans.layer_metrics(tracer.spans)
        metrics["trace.overhead_s"] = traced - (before + after) / 2
        metrics["cli_runner.import_s"] = import_s
        metrics["cli_runner.cpu_s"] = child["cpu"]
        metrics["cli_runner.output_bytes"] = child["bytes"]
        for command, wall in child["commands"].items():
            metrics[f"cli_runner.{command}.wall_s"] = wall
        return metrics

    rounds = repeat(bench, seconds, step)
    values = spans.median_metrics(rounds)
    missing = sorted({m for t in tracers for m in t.missing})
    if missing:
        print(f"not traced (absent from the package): {', '.join(missing)}")
    print_baseline(values)
    trace_file = WORK / f"trace-{bench.workload_name}-seed{bench.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": bench.workload_name, "seed": bench.seed, "properties": bench.wl.properties,
        "columns": ["name", "start", "end", "parent", "run_id", "info"],
        "rounds": [t.spans for t in tracers], "metrics": rounds,
    }))
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    return {name: {"value": values[name], "unit": _unit(name)} for name in sorted(values)}


def print_baseline(v: dict) -> None:
    """Numbers comparable with the ROADMAP Baseline table, where this workload has them."""
    rows = []
    if v["char_sums.twisted_terms"]:
        rows.append(("twisted", v["char_sums.twisted_ns_per_term"], f"{v['char_sums.twisted_terms']:.0f} terms"))
    if v["mobius_dynamics.period_steps"]:
        steps = v["mobius_dynamics.period_steps"]
        rows.append(("period", v["mobius_dynamics.period_us_per_step"], f"{steps:.0f} steps"))
    if v["arith_fn.sieve_limit"]:
        rows.append(("sieve", v["arith_fn.mobius_sieve_s"], f"largest limit {v['arith_fn.sieve_limit']:.0f}"))
    if v["char_sums.weil_fp_calls"]:
        rows.append(("weil", v["char_sums.weil_fp_s"] / v["char_sums.weil_fp_calls"], "p <= 293, per call"))
    if rows:
        print("ROADMAP baseline vs this run:")
    for key, value, note in rows:
        label, base, unit, where = BASELINE[key]
        print(f"  {label:22s} baseline {base:g} {unit} ({where})  this run {value:.4g} {unit} ({note})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind: stop the child, remove the work dir
    if not (ROOT / "src" / "mobiusdyn" / "cli_runner.py").is_file():
        print(f"no mobiusdyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        with Launcher() as launcher:
            bench = Bench(args.workload, args.seed, workdir, started, launcher)
            print("env: " + json.dumps(environment(args.seed), sort_keys=True))
            if args.trace:
                bench.setup(workdir / "setup")
                metrics = per_layer(bench, args.seconds)
            else:
                metrics = end_to_end(bench, args.seconds)
            print(f"workload {args.workload}: " + json.dumps(bench.wl.properties, sort_keys=True))
    except SetupFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
