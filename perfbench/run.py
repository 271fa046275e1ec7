"""Benchmark of the roughvol pipeline: four workloads, each run in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``roughvol`` from ``src``.
The master seed becomes the program's config seed (see workloads.py). Load
is closed-loop: one child process at a time, each one full CLI-shaped run
(import, validate, run, write), with at most two BLAS threads.

Both modes start with one warm-up run that is checked but not timed.
``--trace 0`` then repeats the workload until S seconds have passed (at
least twice) and prints the end-to-end metrics as medians over the timed
runs; set-up time is the median over every run. ``--trace 1`` alternates
untraced and traced runs for S seconds, makes one traced run with one BLAS
thread, and prints per-layer self times and exact counts from the traced
runs.

Every run's outputs are checked (finite cells, no flags, the paper's limits
at the bounds in workloads.py), and CSV and SVG bytes must repeat exactly
across the runs of one seed. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
# No child is started or left running past this many seconds after start,
# so a run ends well within three minutes.
DEADLINE_S = 160.0
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Counts and computed sizes that must repeat exactly across traced runs.
EXACT = (
    "gaussian.factor_misses",
    "gaussian.factor_fallbacks",
    "gaussian.normals_drawn",
    "gaussian.matmul_gflop",
    "gaussian.array_mb",
    "models.array_mb",
    "pricing.implied_vol_calls",
    "stats.delta_method_calls",
    "local_vol.low_weight_warnings",
)


def log(message: str) -> None:
    print(message, flush=True)


class Bench:
    """Launches, checks and records the child runs of one benchmark run."""

    def __init__(self, spec: dict, started: float) -> None:
        self.spec = spec
        self.deadline = started + DEADLINE_S
        self.spec_path = WORK / "spec.json"
        self.spec_path.write_text(json.dumps(spec), encoding="utf-8")
        self.attempted = 0
        self.failed = 0
        self.setups: list = []
        self.longest = 0.0
        # Output bytes per BLAS thread count: the matmul's summation order,
        # and so the last digits, depend on the thread count.
        self.expected_bytes: dict = {}

    def out_of_time(self) -> bool:
        return time.monotonic() + self.longest > self.deadline

    def run(self, label: str, trace: bool = False, threads: int = BLAS_THREADS):
        """One child run of the workload, its outputs checked; its report, or
        None if it failed."""
        self.attempted += 1
        index = self.attempted
        out = WORK / f"out{index}"
        result = WORK / f"result{index}.json"
        stderr_path = WORK / f"stderr{index}.txt"
        cmd = [sys.executable, str(HERE / "child.py"), str(self.spec_path), str(out), str(result)]
        env = dict(os.environ, PYTHONPATH=str(SRC), **{v: str(threads) for v in BLAS_VARS})
        launched = time.monotonic()
        with open(stderr_path, "w", encoding="utf-8") as stderr:
            proc = subprocess.Popen(
                cmd + (["--trace"] if trace else []),
                cwd=ROOT,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
            )
            try:
                code = proc.wait(timeout=max(self.deadline - launched, 1.0))
            except subprocess.TimeoutExpired:
                proc.kill()
                code = proc.wait()
        self.longest = max(self.longest, time.monotonic() - launched)
        if code != 0 or not result.exists():
            tail = stderr_path.read_text(encoding="utf-8").strip().splitlines()[-3:]
            return self.fail(label, index, f"exit {code}: {' | '.join(tail)}")
        report = json.loads(result.read_text(encoding="utf-8"))
        report["setup_s"] = report["ready"] - launched
        self.setups.append(report["setup_s"])

        problem = None
        if report["flags"]:
            problem = f"flags raised: {report['flags']}"
        else:
            try:
                report["se"] = workloads.check_outputs(self.spec, out)
            except (ValueError, KeyError, OSError) as exc:
                problem = f"output check failed: {exc}"
        found = workloads.output_bytes(self.spec, out)
        if self.expected_bytes.setdefault(threads, found) != found:
            problem = problem or "CSV or SVG bytes differ between runs of one seed"
        shutil.rmtree(out, ignore_errors=True)
        if problem is not None:
            return self.fail(label, index, problem)
        log(
            f"{label} {index}: wall {report['wall_s']:.4f} s, set-up "
            f"{report['setup_s']:.4f} s, peak RSS {report['peak_rss_mb']:.1f} MB, "
            f"SE {report['se']:.6g}, BLAS threads {threads}"
        )
        return report

    def fail(self, label: str, index: int, problem: str) -> None:
        self.failed += 1
        log(f"{label} {index} failed: {problem}")

    def end_to_end(self, seconds: float) -> dict:
        self.warm_up()
        start = time.monotonic()
        runs = []
        while len(runs) < 2 or time.monotonic() - start < seconds:
            if self.out_of_time():
                break
            runs.append(self.run("run"))
        runs = [r for r in runs if r is not None]
        if not runs:
            raise RuntimeError("no run succeeded")
        return {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "se2_s": statistics.median(r["se"] ** 2 * r["wall_s"] for r in runs),
            "ok_frac": (self.attempted - self.failed) / self.attempted,
        }

    def warm_up(self) -> None:
        """One checked run left out of the timings. The first run after a
        pause reads 10 to 40% slower on every layer, even pure-CPU normal
        draws, so only runs after it are timed."""
        self.run("warm-up")

    def per_layer(self, seconds: float) -> dict:
        self.warm_up()
        start = time.monotonic()
        plain, traced = [], []
        while not traced or time.monotonic() - start < seconds:
            if self.out_of_time():
                break
            # alternate which of the pair goes first, so drift cancels
            for trace in (False, True) if len(plain) % 2 == 0 else (True, False):
                if trace:
                    traced.append(self.run("traced", trace=True))
                else:
                    plain.append(self.run("run"))
        single = None if self.out_of_time() else self.run("traced", trace=True, threads=1)
        plain = [r for r in plain if r is not None]
        traced = [r for r in traced if r is not None]
        if not plain or not traced or single is None:
            raise RuntimeError("no complete set of untraced, traced and one-thread runs")
        layers = [layer_metrics(r["trace"], r["warnings"]) for r in traced + [single]]
        for run_layers in layers[1:]:
            differing = [k for k in EXACT if run_layers[k] != layers[0][k]]
            if differing:
                self.failed += 1
                log(f"counts differ between traced runs: {differing}")
        metrics = {
            name: value if name in EXACT else statistics.median(l[name] for l in layers[:-1])
            for name, value in layers[0].items()
        }
        simulate = statistics.median(simulate_total(r["trace"]) for r in traced)
        metrics["gaussian.thread_speedup"] = simulate_total(single["trace"]) / simulate
        metrics["trace.overhead_s"] = statistics.median(
            r["wall_s"] for r in traced
        ) - statistics.median(r["wall_s"] for r in plain)
        return metrics


def simulate_total(trace: dict) -> float:
    """Inclusive time in simulate_joint_paths over one traced run."""
    return sum(end - start for name, start, end, _ in trace["spans"] if name == "gaussian.simulate")


def layer_metrics(trace: dict, warnings: list) -> dict:
    """Per-layer self times, rates and counts of one traced run."""
    spans = trace["spans"]
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    self_s = defaultdict(float)
    for (name, *_), seconds in zip(spans, own):
        self_s[name] += seconds
    counts = defaultdict(int, trace["counts"])
    gauges = trace["gauges"]
    return {
        "gaussian.factor_s": self_s["gaussian.factor"],
        "gaussian.factor_misses": counts["gaussian.factor_misses"],
        "gaussian.factor_fallbacks": counts["gaussian.factor_fallbacks"],
        "gaussian.normals_s": self_s["gaussian.normals"],
        "gaussian.normals_drawn": counts["gaussian.normals_drawn"],
        "gaussian.simulate_self_s": self_s["gaussian.simulate"],
        "gaussian.matmul_gflop": counts["gaussian.matmul_gflop"],
        "gaussian.matmul_gflops": counts["gaussian.matmul_gflop"] / self_s["gaussian.simulate"],
        "gaussian.array_mb": gauges["gaussian.array_mb"],
        "models.array_mb": gauges["models.array_mb"],
        "models.sigma_path_s": self_s["models.sigma_path"],
        "models.sigma_path_gbps": counts["models.sigma_path_gb"] / self_s["models.sigma_path"],
        "pricing.estimator_s": self_s["pricing.estimator"],
        "pricing.implied_vol_calls": counts["pricing.implied_vol_calls"],
        "stats.delta_method_s": self_s["stats.delta_method"],
        "stats.delta_method_calls": counts["stats.delta_method_calls"],
        "local_vol.estimator_s": self_s["local_vol.estimator"],
        "local_vol.min_ess_frac": gauges["local_vol.min_ess_frac"],
        "local_vol.low_weight_warnings": warnings.count("LowWeightWarning"),
        "experiments.runner_self_s": self_s["experiments.runner"],
        "experiments.write_s": self_s["experiments.write"],
    }


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=20_260_815)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "roughvol" / "__init__.py").is_file():
        print(f"no roughvol package under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The output checks need roughvol here; import it before the first child
    # so the gap between children is the same before every timed run.
    import roughvol.asymptotics  # noqa: F401
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    spec = workloads.make_spec(args.workload, args.seed)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    bench = Bench(spec, started)
    try:
        measured = bench.per_layer(args.seconds) if args.trace else bench.end_to_end(args.seconds)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if set(measured) != set(units):
        print(f"metrics {sorted(measured)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    for name, value in measured.items():
        log(f"{name} = {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in measured.items()}
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
