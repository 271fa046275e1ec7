"""Short-maturity smile asymptotics and power-law fitting.

At the money the implied and local volatility surfaces are tied together as
the maturity shrinks. For a volatility driver of Hurst index H:

* skew: the implied-vol skew is 1/(H + 3/2) times the local-vol skew, both
  blowing up like T^(H - 1/2) when H < 1/2 (the classical one-half rule is
  the H = 1/2 case);
* curvature: T^(1-2H) * implied_curvature converges to an affine function
  of the squared local skew limit and the local curvature limit, with
  H-dependent coefficients (``curvature_bracket`` and 1/(2(H+1)));
* both curvatures follow the same power law T^(2H - 1).

This module exposes the limit constants, all in closed form, and a log-log
fitter for measured term structures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .models import RoughBergomiParams, SabrParams

__all__ = [
    "TermSeries",
    "PowerLawFit",
    "skew_ratio_limit",
    "bergomi_skew_limit",
    "curvature_bracket",
    "implied_curv_from_local",
    "local_curv_from_implied",
    "bergomi_curvature_limit",
    "sabr_curvature_gap",
    "fit_power_law",
]


def _check_hurst(hurst: float) -> float:
    hurst = float(hurst)
    if not (0.0 < hurst < 1.0):
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    return hurst


@dataclass(frozen=True)
class TermSeries:
    """A quantity measured on a ladder of maturities, with standard errors.

    Maturities must be strictly increasing and positive; the three arrays
    must have equal length. ``std_errors`` is zero for analytic entries.
    """

    maturities: np.ndarray
    values: np.ndarray
    std_errors: np.ndarray
    label: str

    def __post_init__(self) -> None:
        mats = np.asarray(self.maturities, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        ses = np.asarray(self.std_errors, dtype=float)
        if mats.ndim != 1 or mats.size == 0:
            raise ValueError("maturities must be a non-empty 1-d array")
        if vals.shape != mats.shape or ses.shape != mats.shape:
            raise ValueError(
                "maturities, values and std_errors must have equal lengths"
            )
        if not np.all(mats > 0.0):
            raise ValueError("maturities must be positive")
        if not np.all(np.diff(mats) > 0.0):
            raise ValueError("maturities must be strictly increasing")
        object.__setattr__(self, "maturities", mats)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "std_errors", ses)


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of value = exp(intercept) * T^exponent.

    ``residuals`` are in log space, one per fitted point; ``window`` is the
    maturity window fitted, cut short at a sign change.
    """

    exponent: float
    intercept: float
    r_squared: float
    residuals: np.ndarray = field(repr=False)
    window: Tuple[float, float]

    def __post_init__(self) -> None:
        if not (0.0 <= self.r_squared <= 1.0):
            raise ValueError(
                f"r_squared must lie in [0, 1], got {self.r_squared}"
            )


def skew_ratio_limit(hurst: float) -> float:
    """Short-maturity limit of (implied ATM skew) / (local ATM skew).

    Equals 1/(H + 3/2): 0.5 for a diffusion (H = 1/2), larger for rough
    drivers. Strictly decreasing in H with range (2/5, 2/3) on (0, 1).
    """
    hurst = _check_hurst(hurst)
    return 1.0 / (hurst + 1.5)


def bergomi_skew_limit(p: RoughBergomiParams) -> float:
    """Limit of T^(1/2-H) * ATM implied skew in the rough Bergomi model.

    The skew limit is rho/(2 sigma0^2) times the normalised double integral
    of the conditional-expectation kernel 2 nu sqrt(2H) sigma0^2 (u-r)^(H-1/2)
    over 0 < r < u < T, which evaluates to

        rho * nu * sqrt(2H) / ((H + 1/2) (H + 3/2)).
    """
    h = p.hurst
    return p.rho * p.nu * math.sqrt(2.0 * h) / ((h + 0.5) * (h + 1.5))


def curvature_bracket(hurst: float) -> float:
    """H-dependent coefficient multiplying the squared local skew limit.

    C(H) = 3/((H+3/2)(H+1)) - 6/(H+3/2)^2 + 1/(2(H+1)); C(1/2) = -1/6.
    """
    h = _check_hurst(hurst)
    return (
        3.0 / ((h + 1.5) * (h + 1.0))
        - 6.0 / (h + 1.5) ** 2
        + 1.0 / (2.0 * (h + 1.0))
    )


def _check_transfer_args(hurst: float, sigma0: float, skew_sq: float) -> None:
    _check_hurst(hurst)
    if not (sigma0 > 0.0):
        raise ValueError(f"sigma0 must be > 0, got {sigma0}")
    if not (skew_sq >= 0.0):
        raise ValueError(f"squared skew limit must be >= 0, got {skew_sq}")


def implied_curv_from_local(
    hurst: float,
    sigma0: float,
    lim_skew_local_sq: float,
    lim_curv_local: float,
) -> float:
    """Implied curvature limit from the local skew and curvature limits.

    lim T^(1-2H) d2I/dk2 = C(H)/sigma0 * lim T^(1-2H) (d sigma_loc/dx)^2
                           + 1/(2(1+H)) * lim T^(1-2H) d2 sigma_loc/dx2.

    All limits are at the money in log coordinates and share the T^(1-2H)
    normalisation (which is 1 when H = 1/2).
    """
    _check_transfer_args(hurst, sigma0, lim_skew_local_sq)
    return curvature_bracket(hurst) / sigma0 * lim_skew_local_sq + (
        lim_curv_local / (2.0 * (1.0 + hurst))
    )


def local_curv_from_implied(
    hurst: float,
    sigma0: float,
    lim_skew_implied_sq: float,
    lim_curv_implied: float,
) -> float:
    """Local curvature limit from the implied skew and curvature limits.

    Inverts ``implied_curv_from_local`` after replacing the squared local
    skew limit by (H + 3/2)^2 = 1/skew_ratio_limit(H)^2 times the squared
    implied skew limit, so only quotable quantities enter:

    lim T^(1-2H) d2 sigma_loc/dx2 = 2(1+H) * [ lim T^(1-2H) d2I/dk2
        - (H + 3/2)^2 C(H)/sigma0 * lim T^(1-2H) (dI/dk)^2 ].

    At H = 1/2 the factor is 4, the classical one-half skew rule squared.
    """
    _check_transfer_args(hurst, sigma0, lim_skew_implied_sq)
    lim_skew_local_sq = lim_skew_implied_sq / skew_ratio_limit(hurst) ** 2
    return 2.0 * (1.0 + hurst) * (
        lim_curv_implied - curvature_bracket(hurst) / sigma0 * lim_skew_local_sq
    )


def bergomi_curvature_limit(p: RoughBergomiParams) -> float:
    """Limit of T^(1-2H) * ATM implied curvature in the rough Bergomi model.

    With time scaled to [0, 1], the time integral of the first Malliavin
    derivative of sigma_u^2 tends, as T -> 0, to the kernel
    k1(r) = 2 nu sqrt(2H) sigma0^2 (1 - r)^(H+1/2) / (H + 1/2), and the limit
    is the sum of three kernel integrals, each elementary or a Beta function:

        t1 = 1/(4 sigma0^5) int_0^1 k1^2 = H nu^2 / (sigma0 (H+1/2)^2 (H+1)),
        t2 = -3 rho^2/(2 sigma0^5) (int_0^1 k1)^2
           = -12 H rho^2 nu^2 / (sigma0 (H+1/2)^2 (H+3/2)^2),
        t3 = (2 H rho^2 nu^2 / sigma0) [2 B(H+3/2, H+3/2) / (H+1/2)^2
             + 4 / ((H+1/2)(2H+1)(2H+2))].

    t3 is the second-derivative term: the D_s sigma_r piece gives the Beta
    function, the D_s D_r sigma^2 piece the integral of (u-y)^(2H)/(H+1/2)
    over 0 < y < u < 1. The first term survives at rho = 0; the other two
    carry rho^2, so the limit is even in rho. At H = 1/2 the sum collapses
    to nu^2/sigma0 (1/3 - rho^2/2).
    """
    h, nu, rho, s0 = p.hurst, p.nu, p.rho, p.sigma0
    a = h + 0.5
    beta = math.gamma(a + 1.0) ** 2 / math.gamma(2.0 * a + 2.0)
    t1 = h * nu**2 / (s0 * a**2 * (h + 1.0))
    t2 = -12.0 * h * rho**2 * nu**2 / (s0 * a**2 * (h + 1.5) ** 2)
    t3 = (2.0 * h * rho**2 * nu**2 / s0) * (
        2.0 * beta / a**2 + 4.0 / (a * (2.0 * h + 1.0) * (2.0 * h + 2.0))
    )
    return t1 + t2 + t3


def sabr_curvature_gap(p: SabrParams) -> float:
    """Short-end gap (local curvature)/3 - (implied curvature) in SABR.

    For the lognormal SABR model (H = 1/2, uncorrelated coefficient 1/3)
    the curvature-transfer identity leaves a residual driven entirely by
    the squared local skew (alpha rho nu in log coordinates):

        lim_{T->0} [ d2 sigma_loc/dx2 / 3 - d2I/dk2 ] = rho^2 nu^2 / (6 alpha).

    The gap vanishes only in the uncorrelated case.
    """
    return p.rho**2 * p.nu**2 / (6.0 * p.alpha)


# The power laws are short-end statements and the largest maturities leave
# the asymptotic regime, so fits keep T <= 0.25.
FIT_WINDOW: Tuple[float, float] = (0.0, 0.25)


def fit_power_law(series: TermSeries) -> PowerLawFit:
    """Fit value ~ exp(intercept) * T^exponent on the window ``FIT_WINDOW``.

    Plain least squares on (log T, log |value|) over the finite points in the
    window (a failed maturity is NaN, not a sign change), up to the first one
    that is zero or of the other sign than the first; the upper end of the
    window then moves halfway to it, as ``PowerLawFit.window`` records. Fewer
    than 4 points in the window raise ValueError, fewer than 4 before the cut
    ArithmeticError.
    """
    lo, hi = FIT_WINDOW
    mask = np.isfinite(series.values) & (series.maturities >= lo) & (series.maturities <= hi)
    ts, vals = series.maturities[mask], series.values[mask]
    if ts.size < 4:
        raise ValueError(f"need at least 4 points in window ({lo}, {hi}), got {ts.size}")
    bad = np.nonzero((np.sign(vals) != np.sign(vals[0])) | (vals == 0.0))[0]
    if bad.size:
        cut = int(bad[0])
        if cut < 4:
            raise ArithmeticError(
                f"curvature series {series.label!r} changes sign before four "
                f"short-end points; no power-law window"
            )
        hi = float(0.5 * (ts[cut - 1] + ts[cut]))
        ts, vals = ts[:cut], vals[:cut]
    log_t = np.log(ts)
    log_v = np.log(np.abs(vals))
    slope, intercept = np.polyfit(log_t, log_v, 1)
    residuals = log_v - (slope * log_t + intercept)
    ss_res = float(np.dot(residuals, residuals))
    ss_tot = float(np.dot(log_v - log_v.mean(), log_v - log_v.mean()))
    if ss_tot <= ss_res:
        r_squared = 1.0 if ss_res <= 1e-28 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return PowerLawFit(
        exponent=float(slope),
        intercept=float(intercept),
        r_squared=min(max(r_squared, 0.0), 1.0),
        residuals=residuals,
        window=(lo, hi),
    )
