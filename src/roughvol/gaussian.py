"""Joint simulation of a Brownian motion and its Riemann-Liouville Volterra process.

The Volterra process is W^H_t = int_0^t (t-s)^{H-1/2} dW_s for a Hurst index
H in (0, 1). On a uniform grid the pair (W, W^H) is jointly Gaussian with
covariances available in closed form, so paths can be drawn exactly (no
discretization bias) from a dense factorization. W^H is self-similar,
W^H_{cT} = c^H W^H_T in law, so one factorization of the unit grid serves
every maturity with the same step count and Hurst index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

__all__ = [
    "SimGrid",
    "PathBatch",
    "volterra_autocovariance",
    "volterra_autocovariance_quad",
    "volterra_cross_covariance",
    "simulate_joint_paths",
    "orthogonal_increments",
]

# Paths are generated in fixed-size blocks keyed by (seed, block, leg) so that
# path i is bit-reproducible regardless of how many paths are requested.
_BLOCK = 4096
_LEG_JOINT = 0
_LEG_ORTHOGONAL = 1

# Conditional covariances below this fraction of the W^H variance scale are
# treated as exactly degenerate (W^H measurable from the grid increments,
# which happens at H = 1/2).
_DEGENERATE_TOL = 1e-13

_QUAD_RTOL = 1e-10


def _check_hurst(H: float) -> None:
    if not (0.0 < H < 1.0) or not math.isfinite(H):
        raise ValueError(f"Hurst index must lie in (0, 1), got {H}")


def _check_time(name: str, value: float) -> None:
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a finite positive time, got {value}")


@dataclass(frozen=True)
class SimGrid:
    """Uniform time grid t_k = k * maturity / n_steps, k = 1..n_steps.

    The grid starts at dt (not 0); W^H_0 = 0 is held implicitly.

    Parameters
    ----------
    maturity : float
        Terminal time T > 0.
    n_steps : int
        Number of grid points.
    """

    maturity: float
    n_steps: int
    times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_time("maturity", self.maturity)
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        times = self.maturity * np.arange(1, self.n_steps + 1) / self.n_steps
        times.flags.writeable = False
        object.__setattr__(self, "times", times)

    @property
    def dt(self) -> float:
        return self.maturity / self.n_steps


@dataclass(frozen=True)
class PathBatch:
    """Jointly simulated (dW, W^H) paths on a grid.

    Fields
    ------
    dW : (n_paths, n_steps) increments of the vol-driving Brownian W over
        the grid cells; W at grid times is their cumulative sum.
    wh : (n_paths, n_steps) values of W^H at the grid times.
    seed : 64-bit token; regenerating with the same (grid, hurst, n_paths,
        seed) reproduces identical values bit for bit.
    factorization : how the conditional covariance was factored
        ("cholesky", "cholesky+jitter", "eigh-clip" or "degenerate").
    jitter : diagonal jitter applied, 0.0 if none.
    """

    grid: SimGrid
    hurst: float
    n_paths: int
    seed: int
    dW: np.ndarray
    wh: np.ndarray
    factorization: str
    jitter: float


def volterra_autocovariance(t: float, s: float, H: float) -> float:
    """Cov(W^H_t, W^H_s) = int_0^{min(t,s)} (t-u)^{H-1/2} (s-u)^{H-1/2} du.

    Evaluated in closed form: for s <= t the integral equals
    s^{H+1/2} t^{H-1/2} / (H+1/2) * 2F1(1/2-H, 1; H+3/2; s/t).
    Symmetric in (t, s).
    """
    _check_time("t", t)
    _check_time("s", s)
    _check_hurst(H)
    lo, hi = min(t, s), max(t, s)
    a = H + 0.5
    if lo == hi:
        return lo ** (2.0 * H) / (2.0 * H)
    return lo**a * hi ** (H - 0.5) / a * special.hyp2f1(0.5 - H, 1.0, a + 1.0, lo / hi)


def volterra_autocovariance_quad(t: float, s: float, H: float) -> float:
    """Same integral by adaptive quadrature (relative tolerance 1e-10).

    The kernel is singular at u = min(t,s) when H < 1/2; the substitution
    u = m * (1 - v^{1/(H+1/2)}) with m = min(t,s) removes it:
    du = -(m/a) v^{1/a - 1} dv with a = H+1/2, and (m-u) = m v^{1/a} turns
    (m-u)^{H-1/2} dv-factor into a constant.
    """
    _check_time("t", t)
    _check_time("s", s)
    _check_hurst(H)
    lo, hi = min(t, s), max(t, s)
    a = H + 0.5
    gap = hi - lo

    def integrand(v: float) -> float:
        # u = lo * (1 - v^{1/a}); (lo - u)^{H-1/2} * du = (lo^a / a) dv
        return (gap + lo * v ** (1.0 / a)) ** (H - 0.5)

    val, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=_QUAD_RTOL, limit=200)
    return lo**a / a * val


def volterra_cross_covariance(t: float, s: float, H: float) -> float:
    """Cov(W^H_t, W_s) = (t^{H+1/2} - (t - min(t,s))^{H+1/2}) / (H + 1/2).

    s may be 0 (returns 0). t must be positive.
    """
    _check_time("t", t)
    if not math.isfinite(s) or s < 0.0:
        raise ValueError(f"s must be a finite non-negative time, got {s}")
    _check_hurst(H)
    a = H + 0.5
    return (t**a - (t - min(t, s)) ** a) / a


def _cross_with_increments(times: np.ndarray, H: float) -> np.ndarray:
    """A[i, j] = Cov(W^H_{t_i}, W_{t_{j+1}} - W_{t_j}) with t_0 = 0."""
    a = H + 0.5
    t = times[:, None]
    right = np.minimum(t, times[None, :])
    left = np.minimum(t, np.concatenate(([0.0], times[:-1]))[None, :])
    return ((t - left) ** a - (t - right) ** a) / a


def _autocov_matrix(times: np.ndarray, H: float) -> np.ndarray:
    # hyp2f1 dominates the cost: evaluate it on the strict upper triangle
    # (lo = times[i] < hi = times[j]) and mirror it
    a = H + 0.5
    i, j = np.triu_indices(len(times), 1)
    lo, hi = times[i], times[j]
    upper = lo**a * hi ** (H - 0.5) / a * special.hyp2f1(0.5 - H, 1.0, a + 1.0, lo / hi)
    cov = np.empty((len(times), len(times)))
    cov[i, j] = upper
    cov[j, i] = upper
    np.fill_diagonal(cov, times ** (2.0 * H) / (2.0 * H))
    return cov


def _factor_conditional(cond: np.ndarray, scale: float) -> tuple[np.ndarray, str, float]:
    """PSD factor L with L @ L.T = cond, tolerating tiny asymmetric noise."""
    cond = 0.5 * (cond + cond.T)
    if np.max(np.abs(cond)) <= _DEGENERATE_TOL * scale:
        return np.zeros_like(cond), "degenerate", 0.0
    try:
        return np.linalg.cholesky(cond), "cholesky", 0.0
    except np.linalg.LinAlgError:
        pass
    jitter = 1e-12 * max(np.max(np.diag(cond)), scale)
    try:
        L = np.linalg.cholesky(cond + jitter * np.eye(len(cond)))
        return L, "cholesky+jitter", jitter
    except np.linalg.LinAlgError:
        pass
    eigvals, eigvecs = np.linalg.eigh(cond)
    floor = max(1e-13 * eigvals[-1], 0.0)
    eigvals = np.clip(eigvals, floor, None)
    return eigvecs * np.sqrt(eigvals), "eigh-clip", 0.0


# Unit-grid factors keyed by (n_steps, H). With t = T u the cross
# covariance scales by T^(H+1/2), Cov(W^H) by T^(2H) and dt by T, so
# coef = A/dt scales by T^(H-1/2) and the conditional covariance by T^(2H):
# its factor by T^H, its jitter by T^(2H). The degenerate and Cholesky tests
# of _factor_conditional are scale-free, so the method holds at every T.
_FACTOR_CACHE: dict[tuple[int, float], tuple[np.ndarray, np.ndarray, str, float]] = {}


def _grid_factors(grid: SimGrid, H: float) -> tuple[np.ndarray, np.ndarray, str, float]:
    key = (grid.n_steps, H)
    hit = _FACTOR_CACHE.get(key)
    if hit is None:
        unit = SimGrid(1.0, grid.n_steps)
        A = _cross_with_increments(unit.times, H)
        cov_hh = _autocov_matrix(unit.times, H)
        coef = A / unit.dt
        cond = cov_hh - coef @ A.T
        L, method, jitter = _factor_conditional(cond, float(np.max(np.diag(cov_hh))))
        if len(_FACTOR_CACHE) > 256:
            _FACTOR_CACHE.clear()
        hit = _FACTOR_CACHE[key] = (coef, L, method, jitter)
    coef, L, method, jitter = hit
    T = grid.maturity
    return coef * T ** (H - 0.5), L * T**H, method, jitter * T ** (2.0 * H)


def _block_normals(seed: int, block: int, leg: int, shape: tuple[int, ...]) -> np.ndarray:
    key = np.array([np.uint64(seed), np.uint64((block << 2) | leg)], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.standard_normal(shape)


def simulate_joint_paths(grid: SimGrid, H: float, n_paths: int, seed: int) -> PathBatch:
    """Draw (dW, W^H) with the exact joint Gaussian law on the grid.

    The 2n x 2n covariance of (dW, W^H) is factored in block form:
    dW ~ iid N(0, dt) is its own factor, and
    W^H = (A/dt) @ dW + L_c @ Z with A the cross-covariance against the
    increments and L_c L_c' = Cov(W^H) - A A'/dt the conditional covariance.
    At H = 1/2 the conditional covariance vanishes and W^H is the cumulative
    sum of dW exactly. The factors are those of the unit grid, factored once
    per (n_steps, H) and cached, scaled to the maturity by self-similarity.

    Parameters
    ----------
    grid : SimGrid
        Uniform grid; n_steps is capped at 2048 (dense factorization).
    H : float
        Hurst index in (0, 1).
    n_paths : int
        Number of paths.
    seed : int
        64-bit reproducibility token. Paths are generated in fixed blocks of
        4096 keyed by (seed, block, leg), so path i does not depend on
        n_paths.

    Returns
    -------
    PathBatch
    """
    _check_hurst(H)
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if grid.n_steps > 2048:
        raise ValueError(
            f"n_steps = {grid.n_steps} exceeds the dense-factorization cap of 2048"
        )
    if not (0 <= seed < 2**64):
        raise ValueError("seed must fit in 64 bits")

    n = grid.n_steps
    coef, L, method, jitter = _grid_factors(grid, H)

    sqrt_dt = math.sqrt(grid.dt)
    dW = np.empty((n_paths, n))
    wh = np.empty((n_paths, n))
    n_blocks = -(-n_paths // _BLOCK)
    for b in range(n_blocks):
        start = b * _BLOCK
        take = min(_BLOCK, n_paths - start)
        z = _block_normals(seed, b, _LEG_JOINT, (_BLOCK, 2 * n))[:take]
        dw_blk = sqrt_dt * z[:, :n]
        dW[start : start + take] = dw_blk
        wh[start : start + take] = dw_blk @ coef.T + z[:, n:] @ L.T

    dW.flags.writeable = False
    wh.flags.writeable = False
    return PathBatch(
        grid=grid,
        hurst=H,
        n_paths=n_paths,
        seed=seed,
        dW=dW,
        wh=wh,
        factorization=method,
        jitter=jitter,
    )


def orthogonal_increments(grid: SimGrid, n_paths: int, seed: int) -> np.ndarray:
    """Increments of a Brownian motion independent of simulate_joint_paths.

    Same block engine, separate stream leg under the same seed; used for the
    leg orthogonal to the vol-driving noise (log-Euler cross checks only,
    the mixing estimators integrate it out analytically).
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    n = grid.n_steps
    sqrt_dt = math.sqrt(grid.dt)
    out = np.empty((n_paths, n))
    n_blocks = -(-n_paths // _BLOCK)
    for b in range(n_blocks):
        start = b * _BLOCK
        take = min(_BLOCK, n_paths - start)
        z = _block_normals(seed, b, _LEG_ORTHOGONAL, (_BLOCK, n))[:take]
        out[start : start + take] = sqrt_dt * z
    out.flags.writeable = False
    return out
