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


@pytest.mark.parametrize("shape", sorted(SPECS))
def test_traced_child_feeds_every_layer_metric(shape, tmp_path, bench_run):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPECS[shape]))
    result_path = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), str(spec_path),
         str(tmp_path / "out"), str(result_path), "--trace"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(result_path.read_text())
    trace = report["trace"]
    entered = {name for name, *_ in trace["spans"]}
    assert SPANS <= entered, f"layers never entered: {sorted(SPANS - entered)}"
    metrics = bench_run.layer_metrics(trace, report["warnings"])
    assert len(metrics) == 21
    assert all(math.isfinite(value) for value in metrics.values()), metrics
    assert metrics["stats.delta_method_calls"] > 0
    if shape != "dupire-grid":
        assert metrics["pricing.implied_vol_calls"] > 0
