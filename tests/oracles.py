"""Independent oracles that only the tests use.

Each one computes a quantity the library also computes, by a different
route: the Volterra autocovariance by adaptive quadrature instead of the
hypergeometric closed form, the rough Bergomi curvature limit by quadrature
of its kernel integrals instead of their Beta-function reductions, the
digital as a plain mean of the conditional column, the terminal spot and
the call by a log-Euler scheme on a second, orthogonal Brownian leg instead
of the mixing representation, and the lognormal SABR smiles (local-vol
equivalent and Hagan implied vol) whose ATM curvatures
``models.sabr_atm_curvatures`` gives in closed form.
"""

import math

import numpy as np

from roughvol import gaussian
from roughvol._stats import mean_and_se
from roughvol.models import RoughBergomiParams, SabrParams, _sabr_m
from roughvol.pricing import ConditionalLaw

# Stream leg of the orthogonal Brownian motion; leg 0 is the joint (W, W^H) draw.
_LEG_ORTHOGONAL = 1

# |z| below this uses the Taylor series of z/x(z); above, the exact formula.
_SABR_SERIES_THRESHOLD = 1e-4


def _sabr_y(K: float, p: SabrParams) -> float:
    return math.log(K / p.s0) / p.alpha


def sabr_local_vol(K: float, p: SabrParams) -> float:
    """Local-volatility equivalent alpha*sqrt(1 + 2 rho nu y + nu^2 y^2), y = log(K/S0)/alpha.

    Maturity-independent short-end approximation.
    """
    if not (K > 0):
        raise ValueError(f"K must be > 0, got {K}")
    y = _sabr_y(K, p)
    return p.alpha * math.sqrt(1.0 + 2.0 * p.rho * p.nu * y + p.nu**2 * y**2)


def _sabr_f(z: float, rho: float) -> float:
    """f(z) = z/x(z) with x(z) = log[(sqrt(1-2 rho z + z^2) + z - rho)/(1-rho)].

    Near z = 0 the exact expression is 0/0; below the documented threshold the
    series 1 - (rho/2) z + ((2-3 rho^2)/12) z^2 + (rho(5-6 rho^2)/24) z^3 is
    used instead.
    """
    if abs(z) < _SABR_SERIES_THRESHOLD:
        return (
            1.0
            - 0.5 * rho * z
            + (2.0 - 3.0 * rho**2) / 12.0 * z**2
            + rho * (5.0 - 6.0 * rho**2) / 24.0 * z**3
        )
    root = math.sqrt(1.0 - 2.0 * rho * z + z**2)
    # sqrt(A) - 1 = (A-1)/(sqrt(A)+1) avoids cancellation for small z
    x = math.log1p(((z**2 - 2.0 * rho * z) / (root + 1.0) + z) / (1.0 - rho))
    return z / x


def sabr_implied_vol(K: float, T: float, p: SabrParams) -> float:
    """Hagan lognormal-SABR implied volatility alpha * f(z) * m(T).

    z = (nu/alpha) log(S0/K); m(T) = 1 + (rho nu alpha/4 + (2-3 rho^2) nu^2/24) T.
    """
    if not (K > 0 and T > 0):
        raise ValueError(f"K and T must be > 0, got K={K}, T={T}")
    z = p.nu / p.alpha * math.log(p.s0 / K)
    return p.alpha * _sabr_f(z, p.rho) * _sabr_m(T, p)


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


def _quad(func, lo: float, hi: float, epsrel: float) -> float:
    from scipy import integrate

    value, err = integrate.quad(func, lo, hi, epsabs=0.0, epsrel=epsrel, limit=200)
    if not np.isfinite(value) or err > 1e-6 * max(1.0, abs(value)):
        raise ArithmeticError(
            f"quadrature failed to converge (value={value}, err={err})"
        )
    return value


def bergomi_curvature_terms_quad(p: RoughBergomiParams) -> tuple[float, float, float]:
    """The three quadrature terms of the rough Bergomi curvature limit.

    After scaling the time variables to [0, 1], the first Malliavin
    derivative of sigma_u^2 integrates (conditionally on time-r information)
    to the deterministic kernel

        k1(r) = 2 nu sqrt(2H) sigma0^2 (1 - r)^(H+1/2) / (H + 1/2),

    in the T -> 0 limit. The three terms are then

        t1 = 1/(4 sigma0^5) * int_0^1 k1(r)^2 dr,
        t2 = -3 rho^2/(2 sigma0^5) * (int_0^1 k1(r) dr)^2,
        t3 = rho^2/sigma0^4 * (second-derivative double integral),

    where t3 splits, via the product rule on D_s(sigma_r * int D_r sigma^2),
    into a Beta-type 1-d integral (the D_s sigma_r piece, inner power
    integral done in closed form) and a 2-d integral of (u-y)^(2H)/(H+1/2)
    over 0 < y < u < 1 (the D_s D_r sigma^2 piece, reduced from three
    dimensions by integrating the middle variable analytically).
    """
    h, nu, rho, s0 = p.hurst, p.nu, p.rho, p.sigma0
    if nu == 0.0:
        return 0.0, 0.0, 0.0
    c_k1 = 2.0 * nu * math.sqrt(2.0 * h) * s0**2 / (h + 0.5)

    def k1(r: float) -> float:
        return c_k1 * (1.0 - r) ** (h + 0.5)

    t1 = _quad(lambda r: k1(r) ** 2, 0.0, 1.0, 1e-10) / (4.0 * s0**5)
    t2 = (
        -1.5 * rho**2 / s0**5 * _quad(k1, 0.0, 1.0, 1e-10) ** 2
    )

    c3 = 2.0 * h * nu**2 * s0**3
    piece_a = (
        2.0
        * c3
        / (h + 0.5) ** 2
        * _quad(lambda x: (x * (1.0 - x)) ** (h + 0.5), 0.0, 1.0, 1e-10)
    )
    from scipy import integrate

    piece_b_val, piece_b_err = integrate.dblquad(
        lambda u, y: (u - y) ** (2.0 * h) / (h + 0.5),
        0.0,
        1.0,
        lambda y: y,
        1.0,
        epsabs=0.0,
        epsrel=1e-10,
    )
    if not np.isfinite(piece_b_val) or piece_b_err > 1e-6:
        raise ArithmeticError(
            f"quadrature failed to converge (value={piece_b_val}, "
            f"err={piece_b_err})"
        )
    t3 = rho**2 / s0**4 * (piece_a + 4.0 * c3 * piece_b_val)
    return t1, t2, t3


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


def orthogonal_increments(grid, n_paths: int, seed: int, first_block: int = 0) -> np.ndarray:
    """Increments of a Brownian motion independent of simulate_joint_paths.

    Same block engine, separate stream leg under the same seed: row i belongs
    to path first_block * 4096 + i, as in simulate_joint_paths.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    out = gaussian._block_normals(seed, first_block, _LEG_ORTHOGONAL, (n_paths, grid.n_steps))
    np.multiply(out, math.sqrt(grid.dt), out=out)
    out.flags.writeable = False
    return out


def log_euler_terminal(sig, batch, p: RoughBergomiParams) -> np.ndarray:
    """Terminal spot from a left-point log-Euler scheme on the same paths.

    Reads sigma and dW path by path, not the integrals V and M of ``sig``,
    and draws the orthogonal leg from the batch seed and first block, so
    repeated calls reuse identical noise and each row gets the leg of its
    own path.
    """
    if sig.grid is not batch.grid and (
        sig.grid.maturity != batch.grid.maturity or sig.grid.n_steps != batch.grid.n_steps
    ):
        raise ValueError("sigma path and batch must share one grid")
    if sig.n_paths != batch.n_paths:
        raise ValueError("sigma path and batch must have the same path count")
    db = orthogonal_increments(batch.grid, batch.n_paths, batch.seed, batch.first_block)
    left = np.empty_like(sig.sigma)
    left[:, 0] = p.sigma0
    left[:, 1:] = sig.sigma[:, :-1]
    rho_bar = math.sqrt(1.0 - p.rho**2)
    log_increments = left * (p.rho * batch.dW + rho_bar * db) - 0.5 * left**2 * batch.grid.dt
    return p.s0 * np.exp(log_increments.sum(axis=1))
