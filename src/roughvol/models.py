"""Volatility models: rough Bergomi path construction and lognormal SABR analytics.

Rough Bergomi builds sigma paths on simulated Volterra noise together with the
running integrals every conditional (mixing) estimator needs. The three path
arrays are filled in place, chunk of rows by chunk of rows on the path
layer's thread pool, with no full-size temporary. Callers that read only
sigma_T, V and M ask for those alone: each pool job then reuses one
chunk-sized scratch, so no n_paths x n_steps array is written. SABR (beta = 1)
is fully analytic here: local-vol equivalent, implied vol, and their ATM
log-strike curvatures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from roughvol import gaussian
from roughvol.gaussian import PathBatch, SimGrid

__all__ = [
    "RoughBergomiParams",
    "SabrParams",
    "SigmaPath",
    "bergomi_sigma_path",
    "grid_step_index",
    "sabr_atm_curvatures",
    "sabr_local_vol",
    "sabr_implied_vol",
]

# |z| below this uses the Taylor series of z/x(z); above, the exact formula.
_SABR_SERIES_THRESHOLD = 1e-4

# Paths per chunk of bergomi_sigma_path: each chunk is one job of the pool. With
# terminal=True a job reuses one scratch of this many rows, fewer above 256 steps.
_CHUNK_ROWS = 1024


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

    The grid is where the values are read, not always where they were
    simulated: the runners keep only the last columns of a fine grid, as a
    SigmaPath on the one-step grid SimGrid(t, 1).
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


def bergomi_sigma_path(
    batch: PathBatch, p: RoughBergomiParams, terminal: bool = False
) -> SigmaPath:
    """Rough Bergomi sigma path and running integrals from a simulated batch.

    sigma is evaluated pointwise from wh; the integrals use the left-point
    (Ito) convention, which keeps int sigma dW a martingale increment sum.

    With ``terminal`` only sigma_T, V and M are kept, as a SigmaPath on
    SimGrid(T, 1): each pool job fills one chunk-sized scratch, chunk after
    chunk, and copies out its last columns. The values are bitwise the last
    columns of the full arrays.

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
    n_paths, n = batch.wh.shape
    h2 = 2.0 * p.hurst
    scale = p.nu * math.sqrt(h2)
    drift = 0.5 * p.nu**2 * grid.times**h2
    first_var = p.sigma0 * p.sigma0 * grid.dt
    rows_per = _CHUNK_ROWS if not terminal else max(1, min(_CHUNK_ROWS, _CHUNK_ROWS * 256 // n))
    n_chunks = -(-n_paths // rows_per)

    def fill(rows: slice, s: np.ndarray, v: np.ndarray, m: np.ndarray) -> None:
        dW = batch.dW[rows]
        np.multiply(batch.wh[rows], scale, out=s)
        np.subtract(s, drift, out=s)
        np.exp(s, out=s)
        np.multiply(s, p.sigma0, out=s)
        # left-point values over each cell: sigma(0) = sigma0 on the first cell
        v[:, 0] = first_var
        np.square(s[:, :-1], out=v[:, 1:])
        np.multiply(v[:, 1:], grid.dt, out=v[:, 1:])
        np.cumsum(v, axis=1, out=v)
        np.multiply(dW[:, 0], p.sigma0, out=m[:, 0])
        np.multiply(s[:, :-1], dW[:, 1:], out=m[:, 1:])
        np.cumsum(m, axis=1, out=m)

    if not terminal:
        sigma = np.empty((n_paths, n))
        int_var = np.empty((n_paths, n))
        int_sdw = np.empty((n_paths, n))

        def fill_chunk(c: int) -> None:
            rows = slice(c * _CHUNK_ROWS, (c + 1) * _CHUNK_ROWS)
            fill(rows, sigma[rows], int_var[rows], int_sdw[rows])

        gaussian._fan_out(fill_chunk, n_chunks)
        return SigmaPath(grid=grid, sigma=sigma, int_var=int_var, int_sdw=int_sdw)

    ends = np.empty((3, n_paths, 1))
    jobs = min(gaussian._WORKERS, n_chunks)

    def fill_terminal(job: int) -> None:
        scratch = np.empty((3, min(rows_per, n_paths), n))
        for c in range(job, n_chunks, jobs):
            rows = slice(c * rows_per, min((c + 1) * rows_per, n_paths))
            chunk = scratch[:, : rows.stop - rows.start]
            fill(rows, *chunk)
            ends[:, rows] = chunk[:, :, -1:]

    gaussian._fan_out(fill_terminal, jobs)
    return SigmaPath(SimGrid(grid.maturity, 1), *ends)


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


def sabr_implied_vol(K: float, T: float, p: SabrParams) -> float:
    """Hagan lognormal-SABR implied volatility alpha * f(z) * m(T).

    z = (nu/alpha) log(S0/K); m(T) = 1 + (rho nu alpha/4 + (2-3 rho^2) nu^2/24) T.
    """
    if not (K > 0 and T > 0):
        raise ValueError(f"K and T must be > 0, got K={K}, T={T}")
    z = p.nu / p.alpha * math.log(p.s0 / K)
    return p.alpha * _sabr_f(z, p.rho) * _sabr_m(T, p)


def sabr_atm_curvatures(p: SabrParams, t: float) -> tuple[float, float]:
    """ATM log-strike curvatures (local, implied) of the two SABR smiles.

    d2/dk2 at k = log(K/S0) = 0 of sabr_local_vol and of sabr_implied_vol:
        local   = nu^2 (1 - rho^2) / alpha
        implied = m(t) nu^2 (2 - 3 rho^2) / (6 alpha)
    t = 0 gives the short-end limits, where m = 1.

    Raises
    ------
    OverflowError
        If nu^2 or either curvature overflows, naming nu and alpha.
    """
    try:
        nu2 = p.nu**2
        curv_lv = nu2 * (1.0 - p.rho**2) / p.alpha
        curv_iv = _sabr_m(t, p) * nu2 * (2.0 - 3.0 * p.rho**2) / (6.0 * p.alpha)
    except OverflowError:
        curv_lv = curv_iv = math.inf
    if not (math.isfinite(curv_lv) and math.isfinite(curv_iv)):
        raise OverflowError(
            f"sabr_atm_curvatures overflowed at nu={p.nu!r}, alpha={p.alpha!r}"
        )
    return curv_lv, curv_iv
