"""Volatility models: rough Bergomi path construction and lognormal SABR analytics.

Rough Bergomi builds sigma paths on simulated Volterra noise together with the
running integrals every conditional (mixing) estimator needs. One loop fills
them, chunk of rows by chunk of rows on the path layer's thread pool, with no
full-size temporary: into the three full path arrays, or, for callers that
read only sigma_T, V and M, into one reused chunk-sized scratch per pool job
whose last columns are kept, so no n_paths x n_steps array is written.
SABR (beta = 1) enters through the closed-form ATM log-strike curvatures of
its local-vol equivalent and of Hagan's implied-vol smile; the two smiles
themselves serve only as the tests' reference (``tests/oracles.py``).
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
]

# Rows per chunk of bergomi_sigma_path up to 256 steps, fewer above, so a chunk
# holds at most 256K values per array; pool job j fills chunks j, j + jobs, ...
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

    rho is restricted to the open interval: Hagan's implied-vol expansion,
    whose ATM curvature ``sabr_atm_curvatures`` gives, is built on
    x(z) = log[(sqrt(1 - 2 rho z + z^2) + z - rho) / (1 - rho)], which divides
    by zero at rho = 1 and is log 0 for z <= -1 at rho = -1.
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

    Both outputs come from one loop over row chunks on the pool. Without
    ``terminal`` each job writes its chunks straight into the full arrays;
    with ``terminal`` only sigma_T, V and M are kept, as a SigmaPath on
    SimGrid(T, 1): each job fills one chunk-sized scratch, chunk after chunk,
    and copies out its last columns. The values are bitwise the last columns
    of the full arrays.

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
    rows_per = max(1, min(_CHUNK_ROWS, _CHUNK_ROWS * 256 // n))
    n_chunks = -(-n_paths // rows_per)
    jobs = min(gaussian._WORKERS, n_chunks)
    out = np.empty((3, n_paths, 1 if terminal else n))

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

    def fill_job(job: int) -> None:
        scratch = np.empty((3, min(rows_per, n_paths), n)) if terminal else None
        for c in range(job, n_chunks, jobs):
            rows = slice(c * rows_per, min((c + 1) * rows_per, n_paths))
            if scratch is None:
                fill(rows, *out[:, rows])
            else:
                chunk = scratch[:, : rows.stop - rows.start]
                fill(rows, *chunk)
                out[:, rows] = chunk[:, :, -1:]

    gaussian._fan_out(fill_job, jobs)
    return SigmaPath(SimGrid(grid.maturity, 1) if terminal else grid, *out)


def _sabr_m(T: float, p: SabrParams) -> float:
    return 1.0 + (0.25 * p.rho * p.nu * p.alpha + (2.0 - 3.0 * p.rho**2) / 24.0 * p.nu**2) * T


def sabr_atm_curvatures(p: SabrParams, t: float) -> tuple[float, float]:
    """ATM log-strike curvatures (local, implied) of the two SABR smiles.

    d2/dk2 at k = log(K/S0) = 0 of the local-vol equivalent
    alpha sqrt(1 + 2 rho nu y + nu^2 y^2), y = k/alpha, and of Hagan's implied
    vol alpha m(t) z/x(z), z = -(nu/alpha) k (both smiles are in tests/oracles.py):
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
