"""Small estimation helpers: means with standard errors and the delta method."""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = ["mean_and_se", "delta_method", "weighted_level_fit"]


def mean_and_se(x: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        return float(x.mean()), float("inf")
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(n))


def delta_method(
    features: np.ndarray,
    g: Callable[[np.ndarray], float],
    control: Optional[np.ndarray] = None,
) -> tuple[float, float]:
    """Value and SE of g(mean of per-path feature rows).

    features has shape (n_paths, m). The gradient of g at the sample means is
    taken by central differences with per-component steps scaled to the
    component's magnitude; the SE is the usual quadratic form against the
    sample covariance of the mean vector. Exact for affine g, first-order
    otherwise.

    control, when given, is a per-path column with mean exactly 0. Each
    feature mean is then corrected by its OLS regression on it,
    m_j - beta_j mean(c) with beta = S_Fc / S_cc, and the covariance is the
    residual one, the Schur complement S_FF - S_Fc S_cF / S_cc scaled by
    (n - 1) / (n - 2) for the fitted beta. The control is skipped, and the
    result is the plain one bit for bit, when n < 3 or S_cc == 0 (a control
    that is identically zero carries no information). A value or SE that is
    not finite raises ValueError, except the SE inf returned for n < 2.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    n, m = features.shape
    means = features.mean(axis=0)
    if n < 2:
        return float(g(means)), float("inf")
    cov = None
    if control is not None and n >= 3:
        joint = np.cov(features, control, rowvar=False, ddof=1)
        s_fc, s_cc = joint[:m, m], joint[m, m]
        if s_cc > 0:
            means = means - s_fc / s_cc * np.mean(control)
            cov = (joint[:m, :m] - np.outer(s_fc, s_fc) / s_cc) * ((n - 1) / (n - 2) / n)
    if cov is None:
        cov = np.cov(features, rowvar=False, ddof=1).reshape(m, m) / n
    value = float(g(means))
    # a Schur complement can round a variance a hair below 0
    sd = np.sqrt(np.maximum(np.diag(cov), 0.0))
    grad = np.zeros(m)
    for i in range(m):
        h = 1e-6 * max(abs(means[i]), sd[i] * math.sqrt(n), 1e-30)
        up = means.copy()
        dn = means.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (g(up) - g(dn)) / (2.0 * h)
    se = math.sqrt(max(float(grad @ cov @ grad), 0.0))
    if not (math.isfinite(value) and math.isfinite(se)):
        raise ValueError(f"delta-method estimate is not finite: {value!r} +- {se!r}")
    return value, se


def weighted_level_fit(
    ts: Sequence[float],
    values: Sequence[float],
    ses: Sequence[float],
    powers: Sequence[float],
) -> tuple[float, float]:
    """Weighted LS intercept of values ~ 1 + sum_j T^powers_j, weights 1/se^2.

    Returns the fitted level at T = 0 and its standard error (from the normal
    equations, valid when the supplied SEs are correct).
    """
    t = np.asarray(ts, dtype=float)
    v = np.asarray(values, dtype=float)
    se = np.asarray(ses, dtype=float)
    if t.size < len(powers) + 2:
        raise ValueError("need at least two more points than correction terms")
    if np.any(se <= 0):
        raise ValueError("all standard errors must be positive for weighting")
    X = np.column_stack([np.ones_like(t)] + [t**p for p in powers])
    w = 1.0 / se
    Xw = X * w[:, None]
    vw = v * w
    xtx = Xw.T @ Xw
    beta = np.linalg.solve(xtx, Xw.T @ vw)
    cov = np.linalg.inv(xtx)
    return float(beta[0]), float(math.sqrt(cov[0, 0]))
