"""Workload inputs made from a master seed, and the checks on their outputs.

Each workload is one configuration of the program. The master seed becomes
the program's own ``seed`` unchanged, so ``--seed N`` here reproduces the
CLI run ``roughvol <experiment> --seed N`` with the same sizes.

Sizes (2 cores, OpenBLAS, per fresh process):

* ``ladder-skew``: the CLI default ``skew-ratio`` run (H = 0.2, 24
  maturities, 256 steps, csv+svg) at 8192 paths; about 6 s and 240 MB.
  Cost is spread over every layer.
* ``desk-slice``: ``skew-ratio`` at the single maturity T = 0.05 with
  65536 x 256 paths; about 2 s and 1 GB. Path arrays dominate memory and
  time; factorization is about 2% of the run.
* ``fine-power``: ``power-law`` at 1024 steps, 4096 paths and 8
  maturities; about 10 s, of which the 8 factorizations are over half.
* ``dupire-grid``: one simulation to T = 0.32 at 256 steps and 65536
  paths for H = 0.2 and H = 0.5, read on 3 x 3 (T, K) grids around nine
  centres by ``mixing_price_grid``, ``dupire_local_vol_fd`` and
  ``mixing_local_vol``. It reads intermediate steps through
  ``SigmaPath.truncated``, and H = 0.5 takes the degenerate factorization.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Dict, List

MODEL = {"s0": 100.0, "sigma0": 0.3, "nu": 1.1, "rho": -0.6, "hurst": 0.2}

# Stated bounds of the output checks. Each sits well outside the seed-to-seed
# scatter of a correct program, and well inside the error of a broken one.
# Ladder level fit: |level - 1/(H + 3/2)| within this many standard errors.
LEVEL_Z = 4.0
# One maturity: finite-T bias of the ratio (about -0.06 at T = 0.05, H = 0.2)
# plus this many standard errors.
SLICE_BIAS = 0.1
SLICE_Z = 4.0
# Curvature power-law exponents: |exponent - (2H - 1)| within the
# desk-scale acceptance tolerance plus this many standard errors of the fitted
# slope. At 4096 paths the implied curvature at the shortest maturity can be
# smaller than its own standard error, so the error term carries the check.
EXPONENT_TOL = 0.1
EXPONENT_Z = 4.0
# Mixing against Dupire local vol: worst |z| over all nodes below this.
DUPIRE_Z = 4.0

NAMES = ("ladder-skew", "desk-slice", "fine-power", "dupire-grid")


def make_spec(name: str, seed: int) -> Dict:
    """The program's input for workload ``name`` at master seed ``seed``."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    if name == "ladder-skew":
        config = {"n_paths": 8192}
        return _experiment("skew-ratio", config, seed)
    if name == "desk-slice":
        config = {"n_paths": 65536, "maturities": [0.05]}
        return _experiment("skew-ratio", config, seed)
    if name == "fine-power":
        config = {
            "n_paths": 4096,
            "n_steps": 1024,
            "maturities": {"min": 0.004, "max": 0.25, "count": 8},
        }
        return _experiment("power-law", config, seed)
    if name == "dupire-grid":
        return {
            "kind": "dupire-grid",
            "model": dict(MODEL),
            "hursts": [0.2, 0.5],
            "maturity": 0.32,
            "n_steps": 256,
            "n_paths": 65536,
            "seed": seed,
            "centres_t": [0.2, 0.25, 0.3],
            "centres_k": [90.0, 100.0, 110.0],
            "step_t": 0.01,
            "step_k": 1.0,
        }
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


def _experiment(experiment: str, config: Dict, seed: int) -> Dict:
    config = dict(config, experiment=experiment, seed=seed, model=dict(MODEL))
    return {"kind": "experiment", "experiment": experiment, "config": config}


def output_name(spec: Dict) -> str:
    return spec["experiment"] if spec["kind"] == "experiment" else "dupire-grid"


def read_table(path: Path) -> Dict[str, List[float]]:
    """CSV columns as floats; raises ValueError on a non-finite cell."""
    with open(path, newline="", encoding="ascii") as handle:
        rows = list(csv.reader(handle))
    if len(rows) < 2:
        raise ValueError(f"{path.name}: no data rows")
    header, body = rows[0], rows[1:]
    table: Dict[str, List[float]] = {name: [] for name in header}
    for row in body:
        if len(row) != len(header):
            raise ValueError(f"{path.name}: ragged row {row}")
        for name, cell in zip(header, row):
            value = float(cell)
            if not math.isfinite(value):
                raise ValueError(f"{path.name}: non-finite {name} = {cell}")
            table[name].append(value)
    return table


def check_outputs(spec: Dict, out_dir: Path) -> float:
    """Check one run's outputs against the paper's limits.

    Returns the workload's headline standard error. Raises ValueError naming
    the first failed check.
    """
    from roughvol._stats import weighted_level_fit
    from roughvol.asymptotics import skew_ratio_limit

    name = output_name(spec)
    table = read_table(out_dir / f"{name}.csv")
    if spec["kind"] == "dupire-grid":
        worst = max(table["z"])
        if not worst < DUPIRE_Z:
            raise ValueError(f"mixing vs Dupire worst |z| = {worst:.3g} >= {DUPIRE_Z}")
        se = sum(table["mixing_se"]) / len(table["mixing_se"])
        return se

    meta = json.loads((out_dir / f"{name}.meta.json").read_text(encoding="ascii"))
    if meta["flags"]:
        raise ValueError(f"flagged run: {meta['flags']}")
    config = spec["config"]
    hurst = config["model"]["hurst"]
    if spec["experiment"] == "skew-ratio":
        limit = skew_ratio_limit(hurst)
        ts, ratio, se = table["T"], table["ratio"], table["se_ratio"]
        if len(ts) == 1:
            gap = abs(ratio[0] - limit)
            if not gap <= SLICE_BIAS + SLICE_Z * se[0]:
                raise ValueError(
                    f"skew ratio {ratio[0]:.4g} +- {se[0]:.3g} is {gap:.3g} from "
                    f"the limit {limit:.4g} (allowed {SLICE_BIAS} + {SLICE_Z} SE)"
                )
        else:
            keep = [i for i, t in enumerate(ts) if t <= 0.25]
            level, level_se = weighted_level_fit(
                [ts[i] for i in keep],
                [ratio[i] for i in keep],
                [se[i] for i in keep],
                powers=(2.0 * hurst,),
            )
            if not abs(level - limit) <= LEVEL_Z * level_se:
                raise ValueError(
                    f"fitted skew-ratio level {level:.4g} +- {level_se:.3g} vs "
                    f"limit {limit:.4g} (allowed {LEVEL_Z} SE)"
                )
        return se[0]

    target = 2.0 * hurst - 1.0
    for fit_name, fit in meta["fits"].items():
        slope_se = _slope_se(table["T"], table[fit_name], table["se_" + fit_name], config)
        allowed = EXPONENT_TOL + EXPONENT_Z * slope_se
        if not abs(fit["exponent"] - target) <= allowed:
            raise ValueError(
                f"{fit_name} exponent {fit['exponent']:.4g} vs 2H - 1 = "
                f"{target:.4g} (allowed {EXPONENT_TOL} + {EXPONENT_Z} x {slope_se:.3g})"
            )
    return table["se_curv_iv"][0]


def _slope_se(ts, values, ses, config) -> float:
    """Standard error of the least-squares slope of log|value| on log T.

    Uses the points the program fits: those in the configured window, up to
    the first sign change. Each log|value| has error se/|value|.
    """
    lo, hi = config.get("window", (0.0, 0.25))
    points = [(t, v, s) for t, v, s in zip(ts, values, ses) if lo <= t <= hi]
    lead = math.copysign(1.0, points[0][1])
    used = []
    for t, v, s in points:
        if v == 0.0 or math.copysign(1.0, v) != lead:
            break
        used.append((math.log(t), s / abs(v)))
    mean_x = sum(x for x, _ in used) / len(used)
    sxx = sum((x - mean_x) ** 2 for x, _ in used)
    return math.sqrt(sum(((x - mean_x) / sxx * e) ** 2 for x, e in used))


def output_bytes(spec: Dict, out_dir: Path) -> Dict[str, bytes]:
    """The CSV and SVG bytes that must repeat exactly for one seed."""
    name = output_name(spec)
    found = {}
    for suffix in (".csv", ".svg"):
        path = out_dir / f"{name}{suffix}"
        if path.exists():
            found[suffix] = path.read_bytes()
    return found
