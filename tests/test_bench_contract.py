"""The contract between ``roughvol`` and the checked-in benchmark in ``perfbench/``.

``perfbench/child.py --trace`` wraps module attributes of ``roughvol`` by name
and ``perfbench/run.py`` turns the recorded spans into per-layer metrics. A
renamed or unused attribute breaks the traced benchmark without failing any
other test, so each workload shape runs here once, tiny, through the real
child process and the real metric code.
"""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
MODEL = {"s0": 100.0, "sigma0": 0.3, "nu": 1.1, "rho": -0.6, "hurst": 0.2}

SPECS = {
    "skew-ratio": {
        "kind": "experiment",
        "experiment": "skew-ratio",
        "config": {
            "experiment": "skew-ratio",
            "model": MODEL,
            "seed": 20_260_815,
            "n_paths": 4096,
            "n_steps": 32,
            "maturities": [0.01, 0.05],
        },
    },
    # more paths than one group of the runners' path engine
    "skew-ratio-groups": {
        "kind": "experiment",
        "experiment": "skew-ratio",
        "config": {
            "experiment": "skew-ratio",
            "model": MODEL,
            "seed": 20_260_815,
            "n_paths": 20480,
            "n_steps": 16,
            "maturities": [0.01, 0.05],
        },
    },
    "power-law": {
        "kind": "experiment",
        "experiment": "power-law",
        "config": {
            "experiment": "power-law",
            "model": MODEL,
            "seed": 20_260_815,
            "n_paths": 4096,
            "n_steps": 64,
            "maturities": {"min": 0.004, "max": 0.25, "count": 5},
        },
    },
    # from 128 steps up an unheld factorization's BLAS sums depend on the thread count
    "power-law-256": {
        "kind": "experiment",
        "experiment": "power-law",
        "config": {
            "experiment": "power-law",
            "model": MODEL,
            "seed": 20_260_815,
            "n_paths": 4096,
            "n_steps": 256,
            "maturities": {"min": 0.004, "max": 0.25, "count": 5},
        },
    },
    "dupire-grid": {
        "kind": "dupire-grid",
        "model": MODEL,
        "hursts": [0.2, 0.5],
        "maturity": 0.32,
        "n_steps": 32,
        "n_paths": 4096,
        "seed": 20_260_815,
        "centres_t": [0.2],
        "centres_k": [100.0],
        "step_t": 0.01,
        "step_k": 1.0,
    },
}

# Span names the tracer records for each workload shape: every layer the
# per-layer metrics time must be entered at least once.
SPANS = {
    "gaussian.simulate",
    "gaussian.factor",
    "gaussian.normals",
    "models.sigma_path",
    "pricing.estimator",
    "local_vol.estimator",
    "stats.delta_method",
    "experiments.runner",
    "experiments.write",
}


@pytest.fixture(scope="module")
def bench_run():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("run")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_output_checks_import_their_names():
    from roughvol._stats import weighted_level_fit
    from roughvol.asymptotics import skew_ratio_limit

    assert weighted_level_fit([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], [0.1] * 3, ())[0] == pytest.approx(1.0)
    assert skew_ratio_limit(0.5) == 0.5


def run_child(shape: str, work: Path, blas_threads: int, *flags: str) -> dict:
    """One child.py run of ``shape`` in ``work``; its outputs go to work/out."""
    work.mkdir(exist_ok=True)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(SPECS[shape]))
    result_path = work / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=str(blas_threads))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), str(spec_path),
         str(work / "out"), str(result_path), *flags],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(result_path.read_text())


@pytest.mark.parametrize("shape", ["skew-ratio-groups", "power-law-256"])
def test_estimates_do_not_depend_on_the_blas_thread_count(shape, tmp_path):
    # the factorization and the runners hold OpenBLAS at one thread, so every
    # column, the standard errors included, has the same bits at any count
    tables = []
    for threads in (1, 2):
        run_child(shape, tmp_path / str(threads), threads)
        (csv_path,) = (tmp_path / str(threads) / "out").glob("*.csv")
        tables.append(csv_path.read_bytes())
    assert tables[0] == tables[1]


def test_grid_factors_do_not_depend_on_the_blas_thread_count():
    code = (
        "import hashlib\n"
        "from roughvol import gaussian\n"
        "coef, L, method, jitter = gaussian._grid_factors(gaussian.SimGrid(0.05, 256), 0.2)\n"
        "print(hashlib.sha1(coef.tobytes() + L.tobytes()).hexdigest(), method, jitter)\n"
    )
    digests = []
    for threads in (1, 2):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=str(threads))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


@pytest.mark.parametrize("shape", sorted(SPECS))
def test_traced_child_feeds_every_layer_metric(shape, tmp_path, bench_run):
    report = run_child(shape, tmp_path, 1, "--trace")
    trace = report["trace"]
    entered = {name for name, *_ in trace["spans"]}
    assert SPANS <= entered, f"layers never entered: {sorted(SPANS - entered)}"
    metrics = bench_run.layer_metrics(trace, report["warnings"])
    assert len(metrics) == 21
    assert all(math.isfinite(value) for value in metrics.values()), metrics
    assert metrics["stats.delta_method_calls"] > 0
    if shape != "dupire-grid":
        assert metrics["pricing.implied_vol_calls"] > 0
    if shape == "skew-ratio-groups":
        # the runner calls the wrapped names once per 16384-path group, so the
        # array gauges read one group's (dW, W^H) bytes and the terminal
        # (sigma_T, V, M) columns it keeps
        group, n = 4 * 4096, 16
        assert sum(name == "gaussian.simulate" for name, *_ in trace["spans"]) == 2 * 2
        assert metrics["gaussian.array_mb"] == group * 2 * n * 8 / 1e6
        assert metrics["models.array_mb"] == group * 3 * 8 / 1e6
        assert metrics["gaussian.matmul_gflop"] == pytest.approx(2 * 4.0 * n * n * 20480 / 1e9)
