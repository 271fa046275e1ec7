"""Deterministic smile-asymptotics experiments over a maturity ladder.

Three experiments, each writing ``<out>/<experiment>.csv`` (fixed columns,
'%.12g' formatting, '.' decimal), an optional ``.svg`` plot and a
``.meta.json`` echo of the resolved configuration:

* ``skew-ratio``: Monte Carlo implied and local ATM skews of a rough
  Bergomi model per maturity, and their ratio with a jointly propagated
  standard error. The ratio tends to 1/(H + 3/2) at the short end.
* ``sabr-curvature``: fully analytic lognormal-SABR curvature term
  structures, the transfer gap (local curvature)/3 - implied curvature,
  and the implied/local curvature ratio.
* ``power-law``: Monte Carlo implied and local ATM curvatures over the
  ladder with log-log power-law fits of both series on a short-end window.

Everything is reproducible: identical configuration implies identical CSV
and SVG bytes. Each maturity derives its own seed from (master seed,
maturity index), so ladder entries are independent of one another and of
the ladder layout.
"""

from __future__ import annotations

import json
import math
import platform
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np
import scipy

from . import __version__
from ._stats import delta_method
from .asymptotics import PowerLawFit, TermSeries, fit_power_law, sabr_curvature_gap, skew_ratio_limit
from .gaussian import SimGrid, simulate_joint_paths, volterra_cross_covariance
from .local_vol import local_vol_curvature_fd, mixing_local_vol, mixing_local_vol_skew
from .models import (
    RoughBergomiParams,
    SabrParams,
    SigmaPath,
    bergomi_sigma_path,
    log_strike_convert,
    sabr_implied_vol_derivs,
    sabr_local_vol_derivs,
)
from .pricing import (
    ConditionalLaw,
    SmileSlice,
    bs_d1_d2,
    bs_price,
    implied_curvature_fd,
    implied_skew_digital,
    implied_skew_fd,
    implied_vol,
    log_euler_terminal,
    mixing_call_price,
    mixing_put_price,
    mixing_smile_slice,
)
from .svg import PlotStyle, render_line_plot

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentResult",
    "SelftestCheck",
    "run_skew_ratio",
    "run_sabr_curvature",
    "run_power_law",
    "run_selftest",
    "run_experiment",
    "write_outputs",
]

EXPERIMENTS = ("skew-ratio", "sabr-curvature", "power-law")

_BERGOMI_KEYS = ("s0", "sigma0", "nu", "rho", "hurst")
_SABR_KEYS = ("s0", "alpha", "nu", "rho")

_DEFAULT_MODEL: Dict[str, Dict[str, float]] = {
    "skew-ratio": dict(s0=100.0, sigma0=0.3, nu=1.1, rho=-0.6, hurst=0.2),
    "power-law": dict(s0=100.0, sigma0=0.3, nu=1.1, rho=-0.6, hurst=0.2),
    "sabr-curvature": dict(s0=100.0, alpha=0.3, nu=0.6, rho=-0.6),
}
_DEFAULT_LADDER: Dict[str, Dict[str, float]] = {
    "skew-ratio": dict(min=0.004, max=1.0, count=24),
    "power-law": dict(min=0.004, max=1.0, count=24),
    "sabr-curvature": dict(min=0.001, max=1.0, count=24),
}
_MAX_STEPS = 2048  # dense-factorization cap of the Gaussian engine


class ConfigError(ValueError):
    """Invalid experiment configuration; the message lists every failure."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved, validated configuration of one experiment run.

    Build with ``from_mapping`` (defaults <- JSON file <- CLI overrides);
    the constructor itself trusts its inputs.
    """

    experiment: str
    model: Mapping[str, float]
    maturities: np.ndarray
    n_paths: int
    n_steps: int
    seed: int
    skew_bump: float
    curvature_bump: float
    window: Tuple[float, float]
    out_dir: str
    format: str

    @staticmethod
    def from_mapping(
        experiment: str,
        file_config: Optional[Mapping] = None,
        overrides: Optional[Mapping] = None,
    ) -> "ExperimentConfig":
        """Merge defaults, a JSON-document mapping and override values.

        Raises ConfigError listing every problem found; nothing is computed
        before the configuration is fully validated.
        """
        errors: List[str] = []
        if experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}"
            )
        merged: Dict = {
            "experiment": experiment,
            "model": dict(_DEFAULT_MODEL[experiment]),
            "maturities": dict(_DEFAULT_LADDER[experiment]),
            "n_paths": 200_000,
            "n_steps": 256,
            "seed": 20_260_815,
            "skew_bump": 0.005,
            "curvature_bump": 0.05,
            "window": (0.0, 0.25),
            "out_dir": "out",
            "format": "csv+svg",
        }
        for layer in (file_config or {}, overrides or {}):
            for key, value in layer.items():
                if value is None:
                    continue
                if key not in merged:
                    errors.append(f"unknown config key {key!r}")
                elif key == "model":
                    if isinstance(value, Mapping):
                        merged["model"].update(value)
                    else:
                        errors.append("model must be an object of parameter values")
                else:
                    merged[key] = value

        if merged["experiment"] != experiment:
            errors.append(
                f"config is for experiment {merged['experiment']!r}, "
                f"but {experiment!r} was requested"
            )

        model_keys = _SABR_KEYS if experiment == "sabr-curvature" else _BERGOMI_KEYS
        for key in merged["model"]:
            if key not in model_keys:
                errors.append(
                    f"unknown model parameter {key!r} for {experiment} "
                    f"(expected {model_keys})"
                )
        params_cls = SabrParams if experiment == "sabr-curvature" else RoughBergomiParams
        defaults = _DEFAULT_MODEL[experiment]
        resolved_model: Dict[str, float] = {}
        for key in model_keys:
            # probe each parameter against defaults so one bad field does
            # not mask the others
            trial = {k: float(defaults[k]) for k in model_keys}
            try:
                trial[key] = float(merged["model"].get(key, defaults[key]))
            except (TypeError, ValueError):
                errors.append(f"model.{key} must be a number, got {merged['model'][key]!r}")
                continue
            try:
                params_cls(**trial)
            except ValueError as exc:
                errors.append(f"model: {exc}")
                continue
            resolved_model[key] = trial[key]
        if len(resolved_model) == len(model_keys):
            try:
                params_cls(**resolved_model)
            except ValueError as exc:
                errors.append(f"model: {exc}")
        if params_cls is RoughBergomiParams and abs(resolved_model.get("rho", 0.0)) == 1.0:
            # the local-vol density divides by the residual vol sqrt(1 - rho^2)
            errors.append("model: rho must lie in (-1, 1) for the Monte Carlo experiments")

        maturities = _resolve_ladder(merged["maturities"], errors)
        n_paths = _check_int(merged, "n_paths", 2, 2**31, errors)
        n_steps = _check_int(merged, "n_steps", 1, _MAX_STEPS, errors)
        seed = _check_int(merged, "seed", 0, 2**64 - 1, errors)
        skew_bump = _check_bump(merged, "skew_bump", errors)
        curvature_bump = _check_bump(merged, "curvature_bump", errors)
        window = _check_window(merged["window"], errors)
        if not (isinstance(merged["out_dir"], str) and merged["out_dir"]):
            errors.append("out_dir must be a non-empty string")
        if merged["format"] not in ("csv", "csv+svg"):
            errors.append(
                f"format must be 'csv' or 'csv+svg', got {merged['format']!r}"
            )
        if errors:
            raise ConfigError("; ".join(errors))
        return ExperimentConfig(
            experiment=experiment,
            model=resolved_model,
            maturities=maturities,
            n_paths=n_paths,
            n_steps=n_steps,
            seed=seed,
            skew_bump=skew_bump,
            curvature_bump=curvature_bump,
            window=window,
            out_dir=str(merged["out_dir"]),
            format=str(merged["format"]),
        )

    def bergomi_params(self) -> RoughBergomiParams:
        return RoughBergomiParams(**self.model)

    def sabr_params(self) -> SabrParams:
        return SabrParams(**self.model)

    def maturity_seed(self, index: int) -> int:
        """Independent 64-bit sub-seed for ladder entry ``index``."""
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(index,))
        return int(seq.generate_state(1, np.uint64)[0])

    def to_dict(self) -> Dict:
        return {
            "experiment": self.experiment,
            "model": dict(self.model),
            "maturities": [float(t) for t in self.maturities],
            "n_paths": self.n_paths,
            "n_steps": self.n_steps,
            "seed": self.seed,
            "skew_bump": self.skew_bump,
            "curvature_bump": self.curvature_bump,
            "window": [self.window[0], self.window[1]],
            "out_dir": self.out_dir,
            "format": self.format,
        }


def _resolve_ladder(spec, errors: List[str]) -> np.ndarray:
    fallback = np.array([1.0])
    if isinstance(spec, Mapping):
        extra = set(spec) - {"min", "max", "count"}
        if extra:
            errors.append(f"maturities: unknown keys {sorted(extra)}")
            return fallback
        try:
            lo, hi, count = float(spec["min"]), float(spec["max"]), int(spec["count"])
        except (KeyError, TypeError, ValueError):
            errors.append("maturities: need numeric 'min', 'max' and integer 'count'")
            return fallback
        if not (0.0 < lo < hi and np.isfinite(hi)):
            errors.append(f"maturities: need 0 < min < max, got ({lo}, {hi})")
            return fallback
        if count < 2:
            errors.append(f"maturities: count must be >= 2, got {count}")
            return fallback
        return np.geomspace(lo, hi, count)
    try:
        ladder = np.asarray(spec, dtype=float)
    except (TypeError, ValueError):
        errors.append("maturities must be a list of values or a min/max/count object")
        return fallback
    if ladder.ndim != 1 or ladder.size == 0:
        errors.append("maturities list must be non-empty and one-dimensional")
        return fallback
    if not (np.all(ladder > 0) and np.all(np.isfinite(ladder))):
        errors.append("maturities must be positive and finite")
        return fallback
    if not np.all(np.diff(ladder) > 0):
        errors.append("maturities must be strictly increasing")
        return fallback
    return ladder


def _check_int(merged: Mapping, key: str, lo: int, hi: int, errors: List[str]) -> int:
    value = merged[key]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        errors.append(f"{key} must be an integer, got {merged[key]!r}")
        return lo
    if not (lo <= value <= hi):
        errors.append(f"{key} must lie in [{lo}, {hi}], got {value}")
        return lo
    return value


def _check_bump(merged: Mapping, key: str, errors: List[str]) -> float:
    try:
        value = float(merged[key])
    except (TypeError, ValueError):
        errors.append(f"{key} must be a number, got {merged[key]!r}")
        return 0.01
    if not (0.0 < value < 0.5):
        errors.append(f"{key} must be a log-strike width in (0, 0.5), got {value}")
        return 0.01
    return value


def _check_window(spec, errors: List[str]) -> Tuple[float, float]:
    try:
        lo, hi = float(spec[0]), float(spec[1])
    except (TypeError, ValueError, IndexError):
        errors.append(f"window must be a pair [lo, hi], got {spec!r}")
        return (0.0, 0.25)
    if not (0.0 <= lo < hi):
        errors.append(f"window must satisfy 0 <= lo < hi, got ({lo}, {hi})")
        return (0.0, 0.25)
    return (lo, hi)


@dataclass
class ExperimentResult:
    """Tabular output of one run plus everything needed to write files."""

    config: ExperimentConfig
    columns: Tuple[str, ...]
    table: Dict[str, np.ndarray]
    plot_series: Tuple[TermSeries, ...]
    plot_style: PlotStyle
    ref_lines: Tuple[Tuple[str, float], ...]
    fits: Dict[str, PowerLawFit] = field(default_factory=dict)
    flags: Tuple[str, ...] = ()
    notes: Tuple[str, ...] = ()
    wall_time: float = 0.0
    factorization: Dict[str, float] = field(default_factory=dict)

    def csv_text(self) -> str:
        lines = [",".join(self.columns)]
        n_rows = len(self.table[self.columns[0]])
        for i in range(n_rows):
            lines.append(
                ",".join("%.12g" % float(self.table[c][i]) for c in self.columns)
            )
        return "\n".join(lines) + "\n"

    def meta_dict(self) -> Dict:
        meta: Dict = {
            "config": self.config.to_dict(),
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "roughvol": __version__,
            },
            "wall_time_seconds": round(self.wall_time, 3),
            "flags": list(self.flags),
            "notes": list(self.notes),
        }
        if self.factorization:
            meta["factorization"] = {
                "method": ",".join(self.factorization),
                "jitter": max(self.factorization.values()),
            }
        if self.fits:
            meta["fits"] = {
                name: {
                    "exponent": fit.exponent,
                    "intercept": fit.intercept,
                    "r_squared": fit.r_squared,
                }
                for name, fit in self.fits.items()
            }
            if len(self.fits) == 2:
                a, b = (f.exponent for f in self.fits.values())
                meta["exponent_difference"] = abs(a - b)
        return meta


def _simulate(
    p: RoughBergomiParams,
    config: ExperimentConfig,
    index: int,
    t: float,
    factorization: Dict[str, float],
) -> SigmaPath:
    """Vol paths at ladder entry ``index``.

    Records the factorization method of the draw in ``factorization``
    (method -> largest jitter over the ladder so far).
    """
    grid = SimGrid(t, config.n_steps)
    batch = simulate_joint_paths(grid, p.hurst, config.n_paths, config.maturity_seed(index))
    method = batch.factorization
    factorization[method] = max(factorization.get(method, 0.0), batch.jitter)
    return bergomi_sigma_path(batch, p)


def _factorization_flags(factorization: Mapping[str, float]) -> List[str]:
    if "eigh-clip" not in factorization:
        return []
    return [
        "the conditional W^H covariance is not positive definite; its "
        "factorization clipped eigenvalues (eigh-clip), so the path law is approximate"
    ]


def _ladder(
    config: ExperimentConfig,
    columns: Tuple[str, ...],
    row: Callable[[int, float], Tuple[Tuple[float, ...], List[str]]],
) -> Tuple[Dict[str, np.ndarray], List[str]]:
    """The maturity loop shared by every experiment.

    ``row(i, t)`` returns the values of every column after ``T`` and its
    flags for ladder entry i. An estimator failure at one maturity (a
    ValueError such as an implied vol outside the no-arbitrage bounds or a
    strike without density mass, or an ArithmeticError) leaves that row NaN
    and raises a flag instead of ending the run. Repeated flags are kept once.
    """
    table = {name: np.full(config.maturities.size, np.nan) for name in columns}
    flags: List[str] = []
    for i, t in enumerate(config.maturities):
        t = float(t)
        table["T"][i] = t
        try:
            values, row_flags = row(i, t)
        except (ValueError, ArithmeticError) as exc:
            row_flags = [f"T={t:.6g}: estimator failed: {exc}"]
        else:
            for name, value in zip(columns[1:], values):
                table[name][i] = value
        flags.extend(f for f in row_flags if f not in flags)
    return table, flags


def _skew_ratio_with_se(
    sig: SigmaPath, p: RoughBergomiParams, t: float
) -> Tuple[float, float]:
    """(implied skew)/(local skew) with a joint delta-method standard error.

    Both skews come from the same paths, so the ratio's error must keep
    their correlation: the six per-path features (conditional call price,
    conditional digital, four density features) go through one delta method
    whose map is the quotient of the two published skew maps.
    """
    law = ConditionalLaw(sig, p, t)
    k = p.s0
    features = np.column_stack([law.call(k), law.digital(k), law.density(k)])
    return delta_method(features, lambda m: law.implied_skew(m[:2], k) / law.local_skew(m[2:], k))


def _fd_bump(config: ExperimentConfig, t: float) -> float:
    """Log-strike half-width for curvature differences at maturity t.

    The smile's natural width scales like sqrt(T), so the bump does too;
    ``curvature_bump`` is the width used at the top of the ladder.
    """
    return config.curvature_bump * math.sqrt(t / config.maturities[-1])


_SKEW_COLUMNS = ("T", "skew_iv", "se_iv", "skew_lv", "se_lv", "ratio", "se_ratio")
_SABR_COLUMNS = (
    "T", "curv_lv", "se_curv_lv", "curv_iv", "se_curv_iv", "gap", "se_gap", "ratio", "se_ratio",
)
_POWER_COLUMNS = ("T", "curv_iv", "se_curv_iv", "curv_lv", "se_curv_lv")


def run_skew_ratio(config: ExperimentConfig) -> ExperimentResult:
    """Implied and local ATM skew term structures and their ratio.

    Per maturity: the implied skew by the digital estimator (reported; a
    finite-difference smile read of the same paths is kept as a consistency
    check), the analytic local-vol skew, and the ratio with its joint
    standard error. A zero local skew (nu = 0) gives a NaN ratio and a flag.
    """
    start = time.perf_counter()
    p = config.bergomi_params()
    strikes = p.s0 * np.exp(np.array([-config.skew_bump, 0.0, config.skew_bump]))
    factorization: Dict[str, float] = {}

    def row(i: int, t: float):
        sig = _simulate(p, config, i, t, factorization)
        sk_dig = implied_skew_digital(sig, p, t)
        sk_fd = implied_skew_fd(mixing_smile_slice(sig, p, t, strikes))
        sk_loc = mixing_local_vol_skew(sig, p, t, p.s0)
        flags = []
        if sk_loc.value == 0.0:
            ratio, ratio_se = float("nan"), float("nan")
            flags.append(f"T={t:.6g}: local skew is zero, ratio undefined")
        else:
            ratio, ratio_se = _skew_ratio_with_se(sig, p, t)
        # The floor covers the implied-vol inversion: its price residual
        # (below 1e-14 s) moves each slice vol by up to ~1e-12 and the FD
        # skew by that over the bump. It matters only when both errors
        # vanish, as in the exact nu = 0 law.
        tol = max(
            12.0 * math.hypot(sk_dig.std_error, sk_fd.std_error),
            0.3 * abs(sk_dig.value) + 1e-8,
        )
        if abs(sk_dig.value - sk_fd.value) > tol:
            flags.append(
                f"T={t:.6g}: digital and finite-difference implied skews "
                f"disagree ({sk_dig.value:.6g} vs {sk_fd.value:.6g})"
            )
        values = (sk_dig.value, sk_dig.std_error, sk_loc.value, sk_loc.std_error, ratio, ratio_se)
        return values, flags

    cols, flags = _ladder(config, _SKEW_COLUMNS, row)
    flags += _factorization_flags(factorization)
    series = (
        TermSeries(cols["T"], cols["ratio"], cols["se_ratio"], "implied/local skew ratio"),
        TermSeries(cols["T"], cols["skew_iv"], cols["se_iv"], "implied ATM skew"),
        TermSeries(cols["T"], cols["skew_lv"], cols["se_lv"], "local ATM skew"),
    )
    limit = skew_ratio_limit(p.hurst)
    return ExperimentResult(
        config=config,
        columns=_SKEW_COLUMNS,
        table=cols,
        plot_series=series,
        plot_style=PlotStyle(
            title="ATM skews and implied/local ratio", x_log=True, y_log=False
        ),
        ref_lines=((f"limit {limit:.4g}", limit),),
        flags=tuple(flags),
        wall_time=time.perf_counter() - start,
        factorization=factorization,
    )


def run_sabr_curvature(config: ExperimentConfig) -> ExperimentResult:
    """Analytic lognormal-SABR curvature gap and ratio term structures.

    No Monte Carlo: local and implied log-strike curvatures at the money
    come from the closed-form smiles, so every SE column is zero. The gap
    column is (local curvature)/3 - implied curvature, whose short-end
    limit is rho^2 nu^2 / (6 alpha).
    """
    start = time.perf_counter()
    q = config.sabr_params()

    def row(i: int, t: float):
        _, curv_lv = log_strike_convert(*sabr_local_vol_derivs(q.s0, q), q.s0)
        _, curv_iv = log_strike_convert(*sabr_implied_vol_derivs(q.s0, t, q), q.s0)
        if curv_lv == 0.0:
            ratio, flags = float("nan"), ["local curvature is zero, ratio undefined"]
        else:
            ratio, flags = curv_iv / curv_lv, []
        return (curv_lv, 0.0, curv_iv, 0.0, curv_lv / 3.0 - curv_iv, 0.0, ratio, 0.0), flags

    cols, flags = _ladder(config, _SABR_COLUMNS, row)
    refs: List[Tuple[str, float]] = []
    try:
        gap_limit = sabr_curvature_gap(q)
    except ArithmeticError:
        gap_limit = math.nan
    if math.isfinite(gap_limit):
        refs.append((f"gap limit {gap_limit:.4g}", gap_limit))
    else:
        flags.append("gap limit rho^2 nu^2 / (6 alpha) overflows; reference line dropped")
    if q.rho == 0.0:
        refs.append(("ratio limit 1/3", 1.0 / 3.0))
    series = (
        TermSeries(cols["T"], cols["gap"], cols["se_gap"], "curvature gap lv/3 - iv"),
        TermSeries(cols["T"], cols["ratio"], cols["se_ratio"], "curvature ratio iv/lv"),
    )
    return ExperimentResult(
        config=config,
        columns=_SABR_COLUMNS,
        table=cols,
        plot_series=series,
        plot_style=PlotStyle(title="SABR ATM curvature transfer", x_log=True),
        ref_lines=tuple(refs),
        flags=tuple(flags),
        wall_time=time.perf_counter() - start,
    )


def _fit_with_shrink(
    series: TermSeries,
    window: Tuple[float, float],
    notes: List[str],
) -> PowerLawFit:
    """Power-law fit that shrinks the window on an interior sign change."""
    lo, hi = window
    while True:
        try:
            return fit_power_law(series, (lo, hi))
        except ValueError as exc:
            if "sign" not in str(exc):
                raise
        mask = (series.maturities >= lo) & (series.maturities <= hi)
        ts = series.maturities[mask]
        vals = series.values[mask]
        lead = np.sign(vals[0])
        bad = np.nonzero((np.sign(vals) != lead) | (vals == 0.0))[0]
        cut = int(bad[0])
        if cut < 4:
            raise ArithmeticError(
                f"curvature series {series.label!r} changes sign before four "
                f"short-end points; no power-law window"
            )
        hi = float(0.5 * (ts[cut - 1] + ts[cut]))
        message = (
            f"{series.label}: sign change inside window, shrunk to ({lo:.6g}, {hi:.6g})"
        )
        warnings.warn(message, stacklevel=3)
        notes.append(message)


def run_power_law(config: ExperimentConfig) -> ExperimentResult:
    """Monte Carlo curvature term structures and their power-law exponents.

    Per maturity: implied curvature from a three-strike smile slice and
    local curvature from the analytic-skew difference, on the same paths
    with a sqrt(T)-scaled log-strike bump. Both series are fitted on the
    short-end window; the exponents and their difference land in the meta
    output. A series that admits no fit raises a flag instead.
    """
    start = time.perf_counter()
    p = config.bergomi_params()
    factorization: Dict[str, float] = {}

    def row(i: int, t: float):
        sig = _simulate(p, config, i, t, factorization)
        h = _fd_bump(config, t)
        strikes = p.s0 * np.exp(np.array([-h, 0.0, h]))
        curv_iv = implied_curvature_fd(mixing_smile_slice(sig, p, t, strikes))
        curv_lv = local_vol_curvature_fd(sig, p, t, h)
        return (curv_iv.value, curv_iv.std_error, curv_lv.value, curv_lv.std_error), []

    cols, flags = _ladder(config, _POWER_COLUMNS, row)
    flags += _factorization_flags(factorization)
    notes: List[str] = []
    fits: Dict[str, PowerLawFit] = {}
    for name, label in (("curv_iv", "implied ATM curvature"), ("curv_lv", "local ATM curvature")):
        series = TermSeries(cols["T"], cols[name], cols["se_" + name], label)
        try:
            fits[name] = _fit_with_shrink(series, config.window, notes)
        except (ValueError, ArithmeticError) as exc:
            flags.append(f"{name}: no power-law fit: {exc}")
    plot_series = (
        TermSeries(
            cols["T"], np.abs(cols["curv_iv"]), cols["se_curv_iv"], "|implied curvature|"
        ),
        TermSeries(
            cols["T"], np.abs(cols["curv_lv"]), cols["se_curv_lv"], "|local curvature|"
        ),
    )
    return ExperimentResult(
        config=config,
        columns=_POWER_COLUMNS,
        table=cols,
        plot_series=plot_series,
        plot_style=PlotStyle(
            title="ATM curvature power laws", x_log=True, y_log=True
        ),
        ref_lines=(),
        fits=fits,
        flags=tuple(flags),
        notes=tuple(notes),
        wall_time=time.perf_counter() - start,
        factorization=factorization,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Dispatch on ``config.experiment``."""
    runner = {
        "skew-ratio": run_skew_ratio,
        "sabr-curvature": run_sabr_curvature,
        "power-law": run_power_law,
    }[config.experiment]
    return runner(config)


def write_outputs(result: ExperimentResult) -> List[Path]:
    """Write CSV (+ optional SVG) and the meta JSON; returns written paths."""
    out_dir = Path(result.config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = result.config.experiment
    written: List[Path] = []

    csv_path = out_dir / f"{name}.csv"
    csv_path.write_text(result.csv_text(), encoding="ascii")
    written.append(csv_path)

    if result.config.format == "csv+svg":
        try:
            svg = render_line_plot(result.plot_series, result.plot_style, result.ref_lines)
        except ValueError:
            pass  # no finite point to plot; the flags say why
        else:
            svg_path = out_dir / f"{name}.svg"
            svg_path.write_text(svg, encoding="utf-8")
            written.append(svg_path)

    meta_path = out_dir / f"{name}.meta.json"
    meta_path.write_text(
        json.dumps(result.meta_dict(), indent=2, sort_keys=True) + "\n",
        encoding="ascii",
    )
    written.append(meta_path)
    return written


# ---------------------------------------------------------------------------
# Selftest: the numerics suite as a standalone, CI-friendly battery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelftestCheck:
    name: str
    passed: bool
    detail: str


def _roundtrip_check() -> SelftestCheck:
    worst = 0.0
    s0 = 100.0
    for sigma in (0.05, 0.1, 0.3, 0.8, 2.0):
        for m in (0.5, 0.8, 1.0, 1.2, 2.0):
            for t in (0.01, 0.1, 0.5, 1.0, 2.0):
                k = m * s0
                price = float(bs_price(s0, k, t, sigma))
                d1, _ = bs_d1_d2(s0, k, t, sigma)
                if abs(d1) > 8.0 or price - max(s0 - k, 0.0) < 1e-7 * price:
                    continue  # no recoverable time value at this node
                worst = max(worst, abs(implied_vol(price, s0, k, t) - sigma) / sigma)
    return SelftestCheck(
        "implied-vol round trip", worst < 1e-10, f"worst relative error {worst:.3e}"
    )


def _fd_quadratic_check() -> SelftestCheck:
    s0, h = 100.0, 0.05
    x = np.array([-h, 0.0, h])
    vols = 0.25 - 0.21 * x + 0.8 * x**2
    sl = SmileSlice(
        maturity=0.5,
        strikes=s0 * np.exp(x),
        vols=vols,
        std_errors=np.zeros(3),
    )
    skew_err = abs(implied_skew_fd(sl).value - (-0.21))
    curv_err = abs(implied_curvature_fd(sl).value - 1.6)
    ok = skew_err < 1e-10 and curv_err < 1e-10
    return SelftestCheck(
        "finite differences on a quadratic smile",
        ok,
        f"skew error {skew_err:.3e}, curvature error {curv_err:.3e}",
    )


def _volterra_moment_check(seed: int, n_paths: int, n_steps: int) -> SelftestCheck:
    t, hurst = 1.0, 0.2
    batch = simulate_joint_paths(SimGrid(t, n_steps), hurst, n_paths, seed)
    wh_t = batch.wh[:, -1]
    w_t = batch.dW.sum(axis=1)
    zs = []
    for sample, target in (
        (wh_t, 0.0),
        (wh_t**2, t ** (2 * hurst) / (2 * hurst)),
        (w_t**2, t),
        (wh_t * w_t, volterra_cross_covariance(t, t, hurst)),
    ):
        mean = sample.mean()
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        zs.append(abs(mean - target) / se)
    worst = max(zs)
    return SelftestCheck(
        "Volterra moment battery", worst < 3.0, f"worst |z| = {worst:.2f}"
    )


def _martingale_parity_check(seed: int, n_paths: int, n_steps: int) -> SelftestCheck:
    p = RoughBergomiParams(s0=100.0, sigma0=0.3, nu=1.1, rho=-0.6, hurst=0.2)
    t = 0.25
    batch = simulate_joint_paths(SimGrid(t, n_steps), p.hurst, n_paths, seed)
    sig = bergomi_sigma_path(batch, p)
    s_t = log_euler_terminal(sig, batch, p)
    mart_z = abs(s_t.mean() - p.s0) / (s_t.std(ddof=1) / math.sqrt(n_paths))
    k = 0.9 * p.s0
    call, _ = mixing_call_price(sig, p, t, k)
    put, _ = mixing_put_price(sig, p, t, k)
    s_eff_mean = ConditionalLaw(sig, p, t).s_eff.mean()
    parity_err = abs((call - put) - (s_eff_mean - k)) / p.s0
    ok = mart_z < 3.0 and parity_err < 1e-12
    return SelftestCheck(
        "martingale and put-call parity",
        ok,
        f"martingale |z| = {mart_z:.2f}, parity error {parity_err:.3e}",
    )


def _deterministic_vol_check(seed: int, n_paths: int, n_steps: int) -> SelftestCheck:
    p = RoughBergomiParams(s0=100.0, sigma0=0.3, nu=0.0, rho=-0.6, hurst=0.5)
    t, k = 0.5, 110.0
    batch = simulate_joint_paths(SimGrid(t, n_steps), p.hurst, min(n_paths, 1000), seed)
    sig = bergomi_sigma_path(batch, p)
    price, se = mixing_call_price(sig, p, t, k)
    err = abs(price - float(bs_price(p.s0, k, t, p.sigma0)))
    lv, lv_se = mixing_local_vol(sig, p, t, k)
    ok = err == 0.0 and se == 0.0 and lv == p.sigma0 and lv_se == 0.0
    return SelftestCheck(
        "deterministic-volatility collapse",
        ok,
        f"price error {err:.3e}, local vol {lv:.6g}",
    )


def run_selftest(
    seed: int = 20_260_815, n_paths: int = 20_000, n_steps: int = 64
) -> List[SelftestCheck]:
    """Run the numerics battery at a small, fast scale.

    Covers the implied-vol round trip, finite-difference readers on an
    exact quadratic smile, the simulated Volterra moments, martingale and
    parity checks and the deterministic-volatility collapse.
    """
    return [
        _roundtrip_check(),
        _fd_quadratic_check(),
        _volterra_moment_check(seed, n_paths, n_steps),
        _martingale_parity_check(seed + 1, n_paths, n_steps),
        _deterministic_vol_check(seed + 2, n_paths, n_steps),
    ]
