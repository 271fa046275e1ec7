"""Black-Scholes utilities and conditional Monte Carlo pricing.

Every estimator here prices through the conditional (mixing) representation:
given the volatility path and its Brownian driver, the terminal log-price is
Gaussian, so calls, digitals and smiles reduce to Black-Scholes evaluations at
a per-path effective spot and residual volatility. That removes the Euler
discretisation of the price and cuts the Monte Carlo variance, especially for
digitals and densities. ``ConditionalLaw`` holds that law at one maturity and
is the one feature layer under every mixing estimator, here and in
``local_vol``. Nothing here draws the Brownian leg orthogonal to the
volatility driver: the log-Euler scheme that prices the same paths by
stepping the spot is the tests' reference (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from ._stats import delta_method, mean_and_se
from .models import RoughBergomiParams, SigmaPath, grid_step_index

__all__ = [
    "ConditionalLaw",
    "ImpliedVolBoundsError",
    "SmileSlice",
    "bs_price",
    "bs_vega",
    "bs_d1_d2",
    "implied_vol",
    "mixing_call_price",
    "mixing_put_price",
    "mixing_smile_slice",
    "implied_skew_digital",
    "implied_skew_fd",
    "implied_curvature_fd",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Newton residual target for implied vol, relative to spot.
_IV_RTOL = 1e-14


# ---------------------------------------------------------------------------
# Black-Scholes primitives (zero rate, zero dividend)
# ---------------------------------------------------------------------------


def bs_d1_d2(s, k, t, sigma):
    """d1 and d2 of the zero-rate Black-Scholes formula.

    Broadcasts over numpy inputs. Where sigma * sqrt(t) vanishes the terms
    are +/-inf according to the sign of log(s / k); both cdf factors then
    collapse to the exact indicator limits.
    """
    s, k, sigma = np.asarray(s, float), np.asarray(k, float), np.asarray(sigma, float)
    tot = sigma * np.sqrt(t)
    logm = np.log(s / k)
    limit = np.where(logm > 0, np.inf, np.where(logm < 0, -np.inf, 0.0))
    d1 = np.where(tot > 0, logm / np.where(tot > 0, tot, 1.0) + 0.5 * tot, limit)
    d2 = d1 - tot
    return d1, d2


def bs_price(s, k, t, sigma):
    """Zero-rate Black-Scholes call price; sigma = 0 returns the payoff."""
    s, k = np.asarray(s, float), np.asarray(k, float)
    d1, d2 = bs_d1_d2(s, k, t, sigma)
    out = s * ndtr(d1) - k * ndtr(d2)
    return out if out.ndim else float(out)


def bs_vega(s, k, t, sigma):
    """dPrice/dSigma of the zero-rate Black-Scholes call."""
    s = np.asarray(s, float)
    d1, _ = bs_d1_d2(s, k, t, sigma)
    with np.errstate(over="ignore"):
        phi = np.exp(-0.5 * d1 * d1) / _SQRT_2PI
    out = s * np.sqrt(t) * np.where(np.isfinite(d1), phi, 0.0)
    return out if out.ndim else float(out)


class ImpliedVolBoundsError(ValueError):
    """Price violates the strict no-arbitrage bounds of a call."""


def implied_vol(price: float, s: float, k: float, t: float) -> float:
    """Invert the Black-Scholes call price for its volatility.

    Args:
        price: Call price; must satisfy max(s - k, 0) < price < s strictly.
        s: Spot.
        k: Strike.
        t: Maturity in years.

    Returns:
        The volatility sigma with bs_price(s, k, t, sigma) = price to a
        residual below 1e-12 * s.

    Raises:
        ImpliedVolBoundsError: if the price is outside the open bounds; the
            message names the violated bound.
    """
    # plain floats, so that messages print 0.0, not np.float64(0.0)
    price, s, k, t = float(price), float(s), float(k), float(t)
    for name, val in (("price", price), ("spot", s), ("strike", k), ("maturity", t)):
        if not (np.isfinite(val) and (val > 0 or name == "price")):
            raise ValueError(f"{name} must be positive and finite, got {val!r}")
    intrinsic = max(s - k, 0.0)
    if not price > intrinsic:
        raise ImpliedVolBoundsError(
            f"price {price!r} does not exceed the intrinsic value {intrinsic!r}"
        )
    if not price < s:
        raise ImpliedVolBoundsError(f"price {price!r} is not below the spot {s!r}")

    lo, hi = 0.0, 0.5
    while bs_price(s, k, t, hi) < price:
        hi *= 2.0
        if hi > 1e6:  # unreachable given price < s; guards malformed floats
            raise ImpliedVolBoundsError("no finite volatility attains the price")
    sigma = min(max(_SQRT_2PI / math.sqrt(t) * price / s, 1e-8), hi)
    tol = _IV_RTOL * s
    for _ in range(200):
        f = bs_price(s, k, t, sigma) - price
        if f >= 0:
            hi = sigma
        else:
            lo = sigma
        vega = bs_vega(s, k, t, sigma)
        if vega > 0 and np.isfinite(vega):
            # Converged only when the residual is small in price AND the
            # Newton increment is small in vol. A residual-only rule stops
            # at the wrong vol on far-from-the-money nodes where the whole
            # price sits below the tolerance.
            if abs(f) < tol and abs(f) <= vega * 1e-10 * max(sigma, 1e-8):
                break
            cand = sigma - f / vega
        else:
            cand = 0.5 * (lo + hi)
        if not lo < cand < hi:
            cand = 0.5 * (lo + hi)
        if cand == sigma:
            break
        sigma = cand
    return float(sigma)


# ---------------------------------------------------------------------------
# Smile slices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmileSlice:
    """Implied vols on a strike ladder at one maturity.

    vol_cov is the joint sampling covariance of the vols across strikes
    under common random numbers; finite-difference readers use it so that
    path-to-path correlation cancels correctly in their errors. An exact
    smile has vol_cov = 0.
    """

    maturity: float
    strikes: np.ndarray
    vols: np.ndarray
    vol_cov: np.ndarray

    def __post_init__(self):
        strikes = np.asarray(self.strikes, dtype=float)
        vols = np.asarray(self.vols, dtype=float)
        cov = np.asarray(self.vol_cov, dtype=float)
        m = strikes.size
        if not (np.all(np.isfinite(strikes)) and np.all(strikes > 0)):
            raise ValueError("strikes must be positive and finite")
        if np.any(np.diff(strikes) <= 0):
            raise ValueError("strikes must be strictly increasing")
        if vols.shape != (m,):
            raise ValueError("vols must match the strike count")
        if not np.all(vols > 0):
            raise ValueError("implied vols must be positive")
        if cov.shape != (m, m):
            raise ValueError("vol_cov must be square over the strikes")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("vol_cov must be symmetric")
        if not np.all(np.diag(cov) >= 0):
            raise ValueError("vol_cov must have a nonnegative diagonal")
        object.__setattr__(self, "strikes", strikes)
        object.__setattr__(self, "vols", vols)
        object.__setattr__(self, "vol_cov", cov)

    @property
    def std_errors(self) -> np.ndarray:
        """Per-strike standard errors, sqrt(diag(vol_cov))."""
        return np.sqrt(np.diag(self.vol_cov))


# ---------------------------------------------------------------------------
# The conditional law: one feature layer under every mixing estimator
# ---------------------------------------------------------------------------


def _validate_strike(k: float) -> None:
    if not (np.isfinite(k) and k > 0):
        raise ValueError(f"strike must be positive and finite, got {k!r}")


class ConditionalLaw:
    """Law of the terminal log-price given the volatility path, at one maturity.

    Conditioning on the volatility path and its driver leaves
    log S_T ~ N(log s_eff - s_res^2 / 2, s_res^2) with
    s_eff = s0 exp(rho M - rho^2 V / 2), s_res^2 = (1 - rho^2) V,
    V = int sigma^2 du and M = int sigma dW. Every mixing estimator averages
    the per-path feature columns ``call``, ``digital`` and ``density`` and
    reads its value, and its standard error through the delta method, from a
    map of their means: ``implied_skew``, ``local_vol``, ``local_skew`` and
    ``local_curvature``. The ATM skew estimators also pass ``control`` to
    the delta method.

    The paths are read at maturity t, which must be a time of the grid of
    sig. With nu = 0 the volatility is deterministic and the law is exact,
    whatever the paths: it is held as two identical rows of the
    unconditional lognormal (rho taken as 0, V = sigma0^2 t, M = 0,
    sigma_T = sigma0), so every mean is exact and every standard error is
    exactly zero.
    """

    def __init__(self, sig: SigmaPath, p: RoughBergomiParams, t: float):
        if not (np.isfinite(t) and t > 0):
            raise ValueError(f"maturity must be positive and finite, got {t!r}")
        self.s0, self.t = p.s0, t
        self.var0 = p.sigma0 * p.sigma0
        if p.nu == 0.0:
            self.rho = 0.0
            sigma_t = np.full(2, p.sigma0)
            self.v, self.m = sigma_t**2 * t, np.zeros(2)
            self.vol = sigma_t
            self.s_res = sigma_t * math.sqrt(t)
        else:
            sig = sig.truncated(grid_step_index(sig, t))
            self.rho = p.rho
            sigma_t = sig.terminal_sigma()
            self.v, self.m = sig.total_var(), sig.total_sdw()
            self.s_res = np.sqrt((1.0 - p.rho**2) * self.v)
            self.vol = self.s_res / math.sqrt(t)
        self.s_eff = p.s0 * np.exp(self.rho * self.m - 0.5 * self.rho**2 * self.v)
        # sigma_T^2 - sigma0^2: centring the local variance on sigma0^2 makes
        # the local-vol maps exact when sigma_T is constant.
        self.excess = sigma_t**2 - self.var0

    @property
    def control(self) -> np.ndarray:
        """Per-path control column s_eff - s0, whose mean is exactly 0.

        W^H at t_{k-1} is jointly Gaussian with the Brownian increments and
        uncorrelated with those after t_{k-1}, so it is independent of them:
        each left-point sigma is independent of its own dW. s_eff is then
        the discrete exponential martingale s0 exp(rho M - rho^2 V / 2) of
        the scheme, with E[s_eff] = s0 on any grid. At rho = 0 and at nu = 0
        the column is identically 0 and ``delta_method`` skips it.
        """
        return self.s_eff - self.s0

    def call(self, k: float) -> np.ndarray:
        """Per-path conditional call prices: Black-Scholes at (s_eff, s_res)."""
        _validate_strike(k)
        return bs_price(self.s_eff, k, self.t, self.vol)

    def _d(self, k: float) -> np.ndarray:
        """Per-path normalised log-strike d with P(S_T > K | path) = ndtr(-d)."""
        _validate_strike(k)
        num = math.log(k / self.s0) + 0.5 * self.v - self.rho * self.m
        limit = np.where(num > 0, np.inf, np.where(num < 0, -np.inf, 0.0))
        return np.where(self.s_res > 0, num / np.where(self.s_res > 0, self.s_res, 1.0), limit)

    def digital(self, k: float) -> np.ndarray:
        """Per-path conditional probabilities P(S_T > k | path)."""
        return ndtr(-self._d(k))

    def density(self, k: float) -> np.ndarray:
        """Per-path columns (w, e w, w d/s, e w d/s) at strike k.

        w = phi(d) / (k s) is the conditional density of S_T at k, s = s_res
        and e = sigma_T^2 - sigma0^2. The first two feed the local-vol level;
        the last two appear when the strike derivative is pushed through the
        Gaussian kernel.
        """
        if abs(self.rho) >= 1.0:
            raise ValueError("local vol extraction requires |rho| < 1")
        d = self._d(k)
        w = np.exp(-0.5 * d * d) / (_SQRT_2PI * k * self.s_res)
        wd = w * d / self.s_res
        return np.column_stack([w, self.excess * w, wd, self.excess * wd])

    def implied_skew(self, m: np.ndarray, k: float) -> float:
        """Log-strike implied skew at k from the means of (call(k), digital(k)).

        Differentiating the Black-Scholes identity in strike gives
        dI/dK = (ndtr(d2) - P(S_T > K)) / vega at the implied vol of the call
        mean, so the smile slope needs one price and one digital at the same
        strike; K dI/dK is the slope in log-strike.
        """
        iv = implied_vol(m[0], self.s0, k, self.t)
        _, d2 = bs_d1_d2(self.s0, k, self.t, iv)
        vega = bs_vega(self.s0, k, self.t, iv)
        if not vega > 0:
            raise ValueError("vanishing vega at the strike; skew undefined")
        return k * (float(ndtr(d2)) - m[1]) / vega

    def local_vol(self, m: np.ndarray) -> float:
        """Local vol from the means of density(k)[:, :2]:
        sigma_loc^2 = E[sigma_T^2 w] / E[w] = sigma0^2 + E[e w] / E[w]."""
        return math.sqrt(self.var0 + m[1] / m[0])

    def local_skew(self, m: np.ndarray, k: float) -> float:
        """Log-strike local-vol skew at k from the four means of density(k).

        Differentiating the ratio of Gaussian-weighted averages in K, the
        kernel contributes -(d/s + 1)/K per weight; the parts without d cancel
        against the level exactly, leaving

            d sigma_loc / dK = (E[e w] E[w d/s] / E[w] - E[e w d/s])
                               / (2 sigma_loc K E[w]).
        """
        dk = (m[1] / m[0] * m[2] - m[3]) / (2.0 * self.local_vol(m) * k * m[0])
        return k * dk

    def local_curvature(self, m: np.ndarray, h: float) -> float:
        """Log-strike local-vol curvature at s0 from the eight means of
        (density(s0 e^h), density(s0 e^-h)): the centred difference of the
        two ``local_skew`` readings over the log-strike span 2h."""
        kp, km = self.s0 * math.exp(h), self.s0 * math.exp(-h)
        return (self.local_skew(m[:4], kp) - self.local_skew(m[4:], km)) / (2.0 * h)


# ---------------------------------------------------------------------------
# Conditional (mixing) estimators
# ---------------------------------------------------------------------------


def mixing_call_price(
    sig: SigmaPath, p: RoughBergomiParams, t: float, k: float
) -> tuple[float, float]:
    """Conditional Monte Carlo price of a call.

    Args:
        sig: Volatility paths simulated to at least maturity t.
        p: Model parameters consistent with sig.
        t: Maturity; a time of the grid of sig.
        k: Strike.

    Returns:
        (price, standard error). With nu = 0 the volatility is deterministic,
        the price is the exact Black-Scholes value and the standard error is
        exactly zero.
    """
    return mean_and_se(ConditionalLaw(sig, p, t).call(k))


def mixing_put_price(
    sig: SigmaPath, p: RoughBergomiParams, t: float, k: float
) -> tuple[float, float]:
    """Conditional Monte Carlo put price, k N(-d2) - s_eff N(-d1) per path;
    priced apart from the call, so parity call - put = s_eff - k checks both."""
    law = ConditionalLaw(sig, p, t)
    _validate_strike(k)
    d1, d2 = bs_d1_d2(law.s_eff, k, t, law.vol)
    return mean_and_se(k * ndtr(-d2) - law.s_eff * ndtr(-d1))


def mixing_smile_slice(
    sig: SigmaPath, p: RoughBergomiParams, t: float, strikes: Sequence[float]
) -> SmileSlice:
    """Implied-vol slice from conditional prices on a strike ladder.

    Implied vols come from inverting the Monte Carlo mean price per strike;
    their joint covariance is the price covariance scaled by the inverse
    vegas at the fitted vols (delta method), preserving the common-random-
    number correlation that finite differences rely on.
    """
    law = ConditionalLaw(sig, p, t)
    strikes = np.asarray(strikes, dtype=float)
    if np.any(np.diff(strikes) <= 0):
        raise ValueError("strikes must be strictly increasing")
    prices = np.column_stack([law.call(float(k)) for k in strikes])
    n, m = prices.shape
    means = prices.mean(axis=0)
    price_cov = np.cov(prices, rowvar=False, ddof=1).reshape(m, m) / n
    vols = np.array([implied_vol(float(means[j]), p.s0, float(strikes[j]), t) for j in range(m)])
    vegas = np.array([bs_vega(p.s0, float(strikes[j]), t, float(vols[j])) for j in range(m)])
    if np.any(vegas <= 0):
        raise ValueError("vanishing vega on the strike ladder; smile not invertible")
    scale = 1.0 / vegas
    vol_cov = price_cov * scale[:, None] * scale[None, :]
    return SmileSlice(maturity=t, strikes=strikes, vols=vols, vol_cov=vol_cov)


def implied_skew_digital(
    sig: SigmaPath, p: RoughBergomiParams, t: float
) -> tuple[float, float]:
    """ATM implied skew in log-strike without finite differencing.

    Returns (skew, standard error). The value is ``ConditionalLaw.implied_skew``
    at the means of the ATM call and digital columns, both corrected by the
    exact control ``ConditionalLaw.control``. Its standard error is the joint
    delta method over both, so the noise of the fitted implied vol is kept.
    """
    law = ConditionalLaw(sig, p, t)
    k = p.s0
    features = np.column_stack([law.call(k), law.digital(k)])
    return delta_method(features, lambda m: law.implied_skew(m, k), law.control)


# ---------------------------------------------------------------------------
# Finite-difference readers of a smile slice
# ---------------------------------------------------------------------------


def _fd_read(sl: SmileSlice, order: int) -> tuple[float, float]:
    if sl.strikes.size != 3:
        raise ValueError("finite differences need exactly three strikes")
    logk = np.log(sl.strikes)
    h1 = logk[1] - logk[0]
    h2 = logk[2] - logk[1]
    if abs(h2 - h1) > 1e-9 * max(h1, h2):
        raise ValueError("log-strike spacing must be uniform for central differences")
    h = 0.5 * (logk[2] - logk[0])
    if order == 1:
        w = np.array([-1.0, 0.0, 1.0]) / (2.0 * h)
    else:
        w = np.array([1.0, -2.0, 1.0]) / (h * h)
    value = float(w @ sl.vols)
    se = math.sqrt(max(float(w @ sl.vol_cov @ w), 0.0))
    if not (math.isfinite(value) and math.isfinite(se)):
        raise ValueError(f"finite-difference estimate is not finite: {value!r} +- {se!r}")
    return value, se


def implied_skew_fd(sl: SmileSlice) -> tuple[float, float]:
    """Central-difference smile slope in log-strike from a three-strike slice.

    Returns (skew, standard error). Exact for smiles quadratic in log-strike.
    The error uses the joint vol covariance, so common-random-number noise
    cancels instead of adding.
    """
    return _fd_read(sl, 1)


def implied_curvature_fd(sl: SmileSlice) -> tuple[float, float]:
    """Central-difference smile curvature in log-strike; see implied_skew_fd."""
    return _fd_read(sl, 2)

