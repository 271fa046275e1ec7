"""Independent oracles that only the tests use.

Each one computes a quantity the library also computes, by a different
route: the Volterra autocovariance by adaptive quadrature instead of the
hypergeometric closed form, the digital as a plain mean of the conditional
column, and the call from the log-Euler terminal spot instead of the mixing
representation.
"""

import math

import numpy as np

from roughvol._stats import mean_and_se
from roughvol.pricing import ConditionalLaw, log_euler_terminal


def volterra_autocovariance_quad(t: float, s: float, H: float) -> float:
    """Cov(W^H_t, W^H_s) by adaptive quadrature (relative tolerance 1e-10).

    The kernel is singular at u = min(t,s) when H < 1/2; the substitution
    u = m * (1 - v^{1/(H+1/2)}) with m = min(t,s) removes it:
    du = -(m/a) v^{1/a - 1} dv with a = H+1/2, and (m-u) = m v^{1/a} turns
    (m-u)^{H-1/2} dv-factor into a constant.
    """
    from scipy import integrate

    lo, hi = min(t, s), max(t, s)
    a = H + 0.5
    gap = hi - lo

    def integrand(v: float) -> float:
        # u = lo * (1 - v^{1/a}); (lo - u)^{H-1/2} * du = (lo^a / a) dv
        return (gap + lo * v ** (1.0 / a)) ** (H - 0.5)

    val, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-10, limit=200)
    return lo**a / a * val


def mc_digital(sig, p, t: float, k: float) -> tuple[float, float]:
    """Conditional Monte Carlo estimate of P(S_T > K) and its standard error.

    Each path contributes the exact conditional probability ndtr(-d) instead
    of an indicator, so the estimate is smooth in K; exact with zero error
    when nu = 0.
    """
    return mean_and_se(ConditionalLaw(sig, p, t).digital(k))


def log_euler_call_price(sig, batch, p, k: float) -> tuple[float, float]:
    """Plain Monte Carlo call price from the log-Euler terminal spot."""
    if not (math.isfinite(k) and k > 0):
        raise ValueError(f"strike must be positive and finite, got {k!r}")
    s_t = log_euler_terminal(sig, batch, p)
    return mean_and_se(np.maximum(s_t - k, 0.0))
