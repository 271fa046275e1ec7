"""Volatility models: rough Bergomi path construction and lognormal SABR analytics.

Rough Bergomi builds sigma paths on simulated Volterra noise together with the
running integrals every conditional (mixing) estimator needs. SABR (beta = 1)
is fully analytic here: local-vol equivalent, implied vol, and their strike
derivatives, plus the strike <-> log-strike derivative conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from roughvol.gaussian import PathBatch, SimGrid

__all__ = [
    "RoughBergomiParams",
    "SabrParams",
    "SigmaPath",
    "bergomi_sigma_path",
    "grid_step_index",
    "sabr_local_vol",
    "sabr_local_vol_derivs",
    "sabr_implied_vol",
    "sabr_implied_vol_derivs",
    "log_strike_convert",
]

# |z| below this uses the Taylor series of z/x(z); above, the exact formula.
_SABR_SERIES_THRESHOLD = 1e-4


def _check_finite(params) -> None:
    for name, value in vars(params).items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class RoughBergomiParams:
    """Rough Bergomi: sigma_t = sigma0 * exp(nu*sqrt(2H)*W^H_t - nu^2 t^{2H}/2).

    Parameters
    ----------
    s0 : float
        Spot, > 0.
    sigma0 : float
        Initial volatility, > 0.
    nu : float
        Vol-of-vol, >= 0.
    rho : float
        Spot/vol correlation in [-1, 1].
    hurst : float
        Hurst index in (0, 1).
    """

    s0: float
    sigma0: float
    nu: float
    rho: float
    hurst: float

    def __post_init__(self) -> None:
        _check_finite(self)
        if not (self.s0 > 0):
            raise ValueError(f"s0 must be > 0, got {self.s0}")
        if not (self.sigma0 > 0):
            raise ValueError(f"sigma0 must be > 0, got {self.sigma0}")
        if not (self.nu >= 0):
            raise ValueError(f"nu must be >= 0, got {self.nu}")
        if not (-1.0 <= self.rho <= 1.0):
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")
        if not (0.0 < self.hurst < 1.0):
            raise ValueError(f"hurst must lie in (0, 1), got {self.hurst}")


@dataclass(frozen=True)
class SabrParams:
    """Lognormal SABR (beta = 1): dF = sigma F dZ, sigma_t = alpha*exp(nu B_t - nu^2 t/2).

    rho is restricted to the open interval: the Hagan x(z) formula divides by
    1 - rho.
    """

    alpha: float
    nu: float
    rho: float
    s0: float

    def __post_init__(self) -> None:
        _check_finite(self)
        if not (self.alpha > 0):
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not (self.nu >= 0):
            raise ValueError(f"nu must be >= 0, got {self.nu}")
        if not (-1.0 < self.rho < 1.0):
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho}")
        if not (self.s0 > 0):
            raise ValueError(f"s0 must be > 0, got {self.s0}")


@dataclass(frozen=True)
class SigmaPath:
    """Per-path volatility and its running integrals on a grid.

    Fields
    ------
    sigma : (n_paths, n_steps) sigma at the grid times.
    int_var : (n_paths, n_steps) running int_0^{t_k} sigma_u^2 du, left-point rule.
    int_sdw : (n_paths, n_steps) running int_0^{t_k} sigma_u dW_u, left-point
        (Ito) rule. Both integrals start from sigma(0) = sigma0 over the first
        cell since W^H_0 = 0.
    """

    grid: SimGrid
    sigma: np.ndarray = field(repr=False)
    int_var: np.ndarray = field(repr=False)
    int_sdw: np.ndarray = field(repr=False)

    @property
    def n_paths(self) -> int:
        return self.sigma.shape[0]

    def total_var(self) -> np.ndarray:
        """int_0^T sigma^2 du per path."""
        return self.int_var[:, -1]

    def total_sdw(self) -> np.ndarray:
        """int_0^T sigma dW per path."""
        return self.int_sdw[:, -1]

    def terminal_sigma(self) -> np.ndarray:
        """sigma_T per path."""
        return self.sigma[:, -1]

    def truncated(self, n_steps: int) -> "SigmaPath":
        """Restriction of the same paths to the first n_steps grid points.

        The grid is uniform from zero, so the restriction is again a SigmaPath
        on SimGrid(times[n_steps-1], n_steps); the arrays are views. This makes
        one simulation serve every maturity on its grid with common random
        numbers.
        """
        if not 1 <= n_steps <= self.grid.n_steps:
            raise ValueError(
                f"n_steps must be in [1, {self.grid.n_steps}], got {n_steps!r}"
            )
        if n_steps == self.grid.n_steps:
            return self
        grid = SimGrid(float(self.grid.times[n_steps - 1]), n_steps)
        return SigmaPath(
            grid=grid,
            sigma=self.sigma[:, :n_steps],
            int_var=self.int_var[:, :n_steps],
            int_sdw=self.int_sdw[:, :n_steps],
        )


def grid_step_index(sig: SigmaPath, t: float) -> int:
    """Number of grid steps reaching maturity t exactly; errors if t is off-grid."""
    if t > sig.grid.maturity * (1.0 + 1e-9):
        raise ValueError(
            f"maturity {t!r} is beyond the simulated grid ({sig.grid.maturity!r})"
        )
    dt = sig.grid.dt
    n = int(round(t / dt))
    if not 1 <= n <= sig.grid.n_steps or abs(n * dt - t) > 1e-9 * t:
        raise ValueError(
            f"maturity {t!r} does not lie on the simulation grid (dt={dt!r})"
        )
    return n


def bergomi_sigma_path(batch: PathBatch, p: RoughBergomiParams) -> SigmaPath:
    """Rough Bergomi sigma path and running integrals from a simulated batch.

    sigma is evaluated pointwise from wh; the integrals use the left-point
    (Ito) convention, which keeps int sigma dW a martingale increment sum.

    Raises
    ------
    ValueError
        If the batch was generated with a different Hurst index than p.hurst.
    """
    if batch.hurst != p.hurst:
        raise ValueError(
            f"batch simulated with H={batch.hurst} but params have hurst={p.hurst}"
        )
    grid = batch.grid
    times = grid.times
    h2 = 2.0 * p.hurst
    sigma = p.sigma0 * np.exp(
        p.nu * math.sqrt(h2) * batch.wh - 0.5 * p.nu**2 * times**h2
    )
    # left-point values over each cell: sigma(0) = sigma0 on the first cell
    left = np.empty_like(sigma)
    left[:, 0] = p.sigma0
    left[:, 1:] = sigma[:, :-1]
    int_var = np.cumsum(left**2 * grid.dt, axis=1)
    int_sdw = np.cumsum(left * batch.dW, axis=1)
    return SigmaPath(grid=grid, sigma=sigma, int_var=int_var, int_sdw=int_sdw)


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


def sabr_local_vol_derivs(K: float, p: SabrParams) -> tuple[float, float]:
    """(d sigma/dK, d^2 sigma/dK^2) of the SABR local-vol equivalent.

    With y'(K) = 1/(alpha K) and y''(K) = -1/(alpha K^2):
        sigma'  = alpha^2 y' (rho nu + nu^2 y) / sigma
        sigma'' = (alpha^2 y'' (rho nu + nu^2 y) + alpha^2 nu^2 y'^2 - sigma'^2) / sigma
    """
    if not (K > 0):
        raise ValueError(f"K must be > 0, got {K}")
    a, nu, rho = p.alpha, p.nu, p.rho
    y = _sabr_y(K, p)
    yp = 1.0 / (a * K)
    ypp = -1.0 / (a * K**2)
    sig = sabr_local_vol(K, p)
    d1 = a**2 * yp * (rho * nu + nu**2 * y) / sig
    d2 = (a**2 * ypp * (rho * nu + nu**2 * y) + a**2 * nu**2 * yp**2 - d1**2) / sig
    return d1, d2


def _sabr_m(T: float, p: SabrParams) -> float:
    return 1.0 + (0.25 * p.rho * p.nu * p.alpha + (2.0 - 3.0 * p.rho**2) / 24.0 * p.nu**2) * T


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


def _sabr_f_derivs(z: float, rho: float) -> tuple[float, float]:
    """(f'(z), f''(z)) for f = z/x(z); x'(z) = 1/sqrt(1-2 rho z + z^2)."""
    if abs(z) < _SABR_SERIES_THRESHOLD:
        fp = -0.5 * rho + (2.0 - 3.0 * rho**2) / 6.0 * z + rho * (5.0 - 6.0 * rho**2) / 8.0 * z**2
        fpp = (2.0 - 3.0 * rho**2) / 6.0 + rho * (5.0 - 6.0 * rho**2) / 4.0 * z
        return fp, fpp
    A = 1.0 - 2.0 * rho * z + z**2
    root = math.sqrt(A)
    x = math.log1p(((z**2 - 2.0 * rho * z) / (root + 1.0) + z) / (1.0 - rho))
    xp = 1.0 / root
    xpp = (rho - z) / (A * root)
    fp = (x - z * xp) / x**2
    fpp = (-z * xpp * x - 2.0 * xp * (x - z * xp)) / x**3
    return fp, fpp


def sabr_implied_vol(K: float, T: float, p: SabrParams) -> float:
    """Hagan lognormal-SABR implied volatility alpha * f(z) * m(T).

    z = (nu/alpha) log(S0/K); m(T) = 1 + (rho nu alpha/4 + (2-3 rho^2) nu^2/24) T.
    """
    if not (K > 0 and T > 0):
        raise ValueError(f"K and T must be > 0, got K={K}, T={T}")
    z = p.nu / p.alpha * math.log(p.s0 / K)
    return p.alpha * _sabr_f(z, p.rho) * _sabr_m(T, p)


def sabr_implied_vol_derivs(K: float, T: float, p: SabrParams) -> tuple[float, float]:
    """(dI/dK, d^2 I/dK^2) of the Hagan implied vol, analytic in f', f''.

        dI/dK   = -nu f'(z) m(T) / K
        d2I/dK2 = (nu f'(z)/K^2 + nu^2 f''(z)/(alpha K^2)) m(T)
    """
    if not (K > 0 and T > 0):
        raise ValueError(f"K and T must be > 0, got K={K}, T={T}")
    z = p.nu / p.alpha * math.log(p.s0 / K)
    fp, fpp = _sabr_f_derivs(z, p.rho)
    m = _sabr_m(T, p)
    d1 = -p.nu * fp * m / K
    d2 = (p.nu * fp / K**2 + p.nu**2 * fpp / (p.alpha * K**2)) * m
    return d1, d2


def log_strike_convert(dK: float, dKK: float, K: float) -> tuple[float, float]:
    """Convert strike derivatives of a vol function to log-strike derivatives.

    For g(k) = f(e^k): dg/dk = K f'(K) and d2g/dk2 = K f'(K) + K^2 f''(K).
    """
    if not (K > 0):
        raise ValueError(f"K must be > 0, got {K}")
    return K * dK, K * dK + K**2 * dKK
