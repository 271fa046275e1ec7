"""Local volatility from simulated paths, with a Dupire finite-difference oracle.

Conditionally on the volatility path and its driving Brownian increments the
terminal spot is lognormal, so the marginal density of S_T at a strike is the
expectation of an explicit Gaussian kernel over paths. Local volatility is
then a ratio of two weighted averages,

    sigma_loc^2(T, K) = E[sigma_T^2 w] / E[w],
    w = phi(d) / (K s),  s^2 = (1 - rho^2) V,
    d = (log(K / S0) + V / 2 - rho M) / s,

with V = int sigma^2 du and M = int sigma dW. The weight is the full
normalised conditional density: with the normalisation dropped the two
averages reweight differently (sigma_T and V are correlated) and the result
no longer matches Dupire's formula. The density columns and the maps from
their means to the level and skew are ``pricing.ConditionalLaw``'s; this
module adds the weight checks and the delta-method errors. The Dupire
finite-difference reader over a call-price grid is kept as an independent
oracle only.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np

from ._stats import delta_method
from .models import RoughBergomiParams, SigmaPath, grid_step_index  # grid_step_index: re-export
from .pricing import ConditionalLaw

__all__ = [
    "LowWeightWarning",
    "mixing_local_vol",
    "mixing_local_vol_skew",
    "local_vol_curvature_fd",
    "dupire_local_vol_fd",
    "grid_step_index",
    "mixing_price_grid",
]

# Below this effective sample size of the density weights the ratio estimator
# is dominated by a handful of paths and the delta-method error is unreliable.
_ESS_FLOOR = 100.0


class LowWeightWarning(UserWarning):
    """Effective sample size of the density weights fell below the floor."""


def _check_weights(w: np.ndarray, t: float, k: float) -> None:
    total = float(w.sum())
    if not (total > 0 and np.isfinite(total)):
        raise ValueError(f"no density mass at T={t:g}, K={k:g}")
    ess = total * total / float(w @ w)
    # Equal weights (an ESS equal to the row count, as in the exact rows of a
    # deterministic-volatility law) lose nothing to reweighting.
    if ess < min(_ESS_FLOOR, w.size):
        warnings.warn(
            f"effective sample size {ess:.1f} below {_ESS_FLOOR:.0f} "
            f"at T={t:g}, K={k:g}; estimate unreliable",
            LowWeightWarning,
            stacklevel=3,
        )


def mixing_local_vol(
    sig: SigmaPath, p: RoughBergomiParams, t: float, k: float
) -> tuple[float, float]:
    """Local volatility at one (T, K) node from simulated paths.

    Args:
        sig: Volatility paths simulated to at least maturity t.
        p: Model parameters consistent with sig.
        t: Maturity; a time of the grid of sig.
        k: Strike.

    Returns:
        (local vol, standard error). The error comes from the delta method
        on the ratio of means; nu = 0 gives (sigma0, 0) exactly.

    Warns:
        LowWeightWarning: when the effective sample size of the density
            weights drops below the documented floor of 100.
    """
    law = ConditionalLaw(sig, p, t)
    feats = law.density(k)
    _check_weights(feats[:, 0], t, k)
    return delta_method(feats[:, :2], law.local_vol)


def mixing_local_vol_skew(
    sig: SigmaPath, p: RoughBergomiParams, t: float, k: float
) -> tuple[float, float]:
    """Analytic strike derivative of the local vol, in log-strike.

    Returns (skew, standard error). The derivative is taken through the
    density weights rather than by bumping the strike, so one simulation
    yields the skew directly; the delta method over the four feature means,
    corrected by the exact control ``ConditionalLaw.control``, gives the error.
    """
    law = ConditionalLaw(sig, p, t)
    feats = law.density(k)
    _check_weights(feats[:, 0], t, k)
    return delta_method(feats, lambda m: law.local_skew(m, k), law.control)


def local_vol_curvature_fd(
    sig: SigmaPath, p: RoughBergomiParams, t: float, h: float
) -> tuple[float, float]:
    """Log-strike curvature of the local vol by differencing the analytic skew.

    Returns (curvature, standard error). Evaluates the analytic skew at
    K = S0 e^{+/-h} on the same paths and takes the centered difference, so
    the error is a joint delta method over the eight feature means and the
    common noise cancels in the difference. Exact when the skew is linear in
    log-strike.
    """
    law = ConditionalLaw(sig, p, t)
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"bump must be positive and finite, got {h!r}")
    kp = p.s0 * math.exp(h)
    km = p.s0 * math.exp(-h)
    up = law.density(kp)
    dn = law.density(km)
    _check_weights(np.minimum(up[:, 0], dn[:, 0]), t, p.s0)
    return delta_method(np.hstack([up, dn]), lambda m: law.local_curvature(m, h))


# ---------------------------------------------------------------------------
# Dupire finite-difference oracle
# ---------------------------------------------------------------------------


def dupire_local_vol_fd(
    prices: np.ndarray,
    ts: Sequence[float],
    ks: Sequence[float],
    price_cov: np.ndarray,
) -> tuple[float, float]:
    """Local vol at the center of a 3x3 call-price grid via Dupire's formula.

    sigma_loc^2 = 2 dC/dT / (K^2 d2C/dK2) with centered differences; rows of
    prices run over the three maturities ts, columns over the three strikes
    ks, both uniformly spaced. Kept as an independent oracle for the
    conditional-density estimator, not for production estimates.

    Args:
        prices: 3x3 call prices.
        ts: Three increasing, uniformly spaced maturities.
        ks: Three increasing, uniformly spaced strikes.
        price_cov: 9x9 covariance of the price estimates in row-major
            order; propagated linearly to the vol.

    Returns:
        (local vol, standard error).

    Raises:
        ValueError: on non-uniform grids, a butterfly violation
            (d2C/dK2 <= 0) or a calendar violation (dC/dT <= 0).
    """
    prices = np.asarray(prices, dtype=float)
    ts = np.asarray(ts, dtype=float)
    ks = np.asarray(ks, dtype=float)
    if prices.shape != (3, 3) or ts.shape != (3,) or ks.shape != (3,):
        raise ValueError("need a 3x3 price grid with three maturities and strikes")
    dts = np.diff(ts)
    dks = np.diff(ks)
    if np.any(dts <= 0) or abs(dts[1] - dts[0]) > 1e-9 * dts[0]:
        raise ValueError("maturities must be increasing and uniformly spaced")
    if np.any(dks <= 0) or abs(dks[1] - dks[0]) > 1e-9 * dks[0]:
        raise ValueError("strikes must be increasing and uniformly spaced")
    span_t = ts[2] - ts[0]
    dk = dks[0]
    k = ks[1]
    a = (prices[2, 1] - prices[0, 1]) / span_t
    b = (prices[1, 0] - 2.0 * prices[1, 1] + prices[1, 2]) / dk**2
    if b <= 0:
        raise ValueError("butterfly violation: prices not convex in strike")
    if a <= 0:
        raise ValueError("calendar violation: prices not increasing in maturity")
    vol = math.sqrt(2.0 * a / (k * k * b))
    cov = np.asarray(price_cov, dtype=float)
    if cov.shape != (9, 9):
        raise ValueError("price_cov must be 9x9 in row-major node order")
    grad = np.zeros(9)
    da = vol / (2.0 * a)
    db = -vol / (2.0 * b)
    grad[2 * 3 + 1] = da / span_t
    grad[0 * 3 + 1] = -da / span_t
    grad[1 * 3 + 0] = db / dk**2
    grad[1 * 3 + 1] = -2.0 * db / dk**2
    grad[1 * 3 + 2] = db / dk**2
    var = float(grad @ cov @ grad)
    return vol, math.sqrt(max(var, 0.0))


def mixing_price_grid(
    sig: SigmaPath,
    p: RoughBergomiParams,
    ts: Sequence[float],
    ks: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Call prices over a (T, K) grid with their joint sampling covariance.

    All maturities are read off one simulation by truncating the paths at the
    matching grid step, so every node shares the same random numbers and the
    same time discretisation; the covariance then carries the strong
    correlation that finite differences in maturity and strike rely on.
    Covariance indices are row-major over (T, K).

    Args:
        sig: Paths simulated to at least max(ts); every t in ts must lie on
            its time grid.
        p: Model parameters consistent with sig.
        ts: Increasing maturities.
        ks: Increasing strikes.

    Returns:
        (prices with shape (len(ts), len(ks)), covariance of the price
        means with shape (n_nodes, n_nodes)). nu = 0 yields the exact
        deterministic-vol prices with zero covariance.
    """
    ts = np.asarray(ts, dtype=float)
    ks = np.asarray(ks, dtype=float)
    if np.any(np.diff(ts) <= 0) or np.any(np.diff(ks) <= 0):
        raise ValueError("maturities and strikes must be strictly increasing")
    laws = [ConditionalLaw(sig, p, float(t)) for t in ts]
    per_path = np.column_stack([law.call(float(k)) for law in laws for k in ks])
    n, n_nodes = per_path.shape
    means = per_path.mean(axis=0)
    cov = np.cov(per_path, rowvar=False, ddof=1).reshape(n_nodes, n_nodes) / n
    return means.reshape(ts.size, ks.size), cov
