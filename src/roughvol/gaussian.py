"""Joint simulation of a Brownian motion and its Riemann-Liouville Volterra process.

The Volterra process is W^H_t = int_0^t (t-s)^{H-1/2} dW_s for a Hurst index
H in (0, 1). On a uniform grid the pair (W, W^H) is jointly Gaussian with
covariances available in closed form, so paths can be drawn exactly (no
discretization bias) from a dense factorization. W^H is self-similar,
W^H_{cT} = c^H W^H_T in law, so one factorization of the unit grid serves
every maturity with the same step count and Hurst index.

Normals are drawn in fixed blocks of 4096 paths, one Philox stream per block.
All blocks of a batch are drawn in one pass straight into the path buffer,
up to four blocks at a time in parallel by a short-lived thread pool; the
W^H products then run in place on that buffer, in fixed 1024-row pieces on
the same pool at one BLAS thread, a short last piece zero-padded to 1024
rows, so every kernel call multiplies 1024 rows and row i always sits at
position i mod 1024 of its call. Both factors are lower triangular (eigh-clip
too, by a QR of its square root), so they are applied in place by OpenBLAS's
dtrmm (bound through ctypes, checked once against GEMM), or by GEMM where
numpy's BLAS has no usable dtrmm.
Every value depends only on (seed, block), never on the number of worker
threads or on n_paths. A batch may start at any block (``first_block``), so
a caller can produce a large path set group by group: the rows of a group
are bitwise the matching rows of the whole batch.
"""

from __future__ import annotations

import ctypes
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy import special

__all__ = [
    "SimGrid",
    "PathBatch",
    "volterra_cross_covariance",
    "simulate_joint_paths",
]

# Paths are generated in fixed-size blocks keyed by (seed, block, leg) so that
# path i is bit-reproducible regardless of how many paths are requested.
_BLOCK = 4096
_LEG_JOINT = 0
MAX_STEPS = 2048  # largest n_steps: the conditional covariance is factorized densely
_PIECE = 1024  # rows of every W^H product call (see the module docstring)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Threads that fill normal blocks (and sigma-path row chunks in models).
_WORKERS = min(4, _usable_cores())

# Conditional covariances below this fraction of the W^H variance scale are
# treated as exactly degenerate (W^H measurable from the grid increments,
# which happens at H = 1/2).
_DEGENERATE_TOL = 1e-13


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
        seed, first_block) reproduces identical values bit for bit.
    first_block : index of the 4096-path block of the first row; row i is
        path first_block * 4096 + i of the seed's path sequence.
    factorization : how the conditional covariance was factored
        ("cholesky", "cholesky+jitter", "eigh-clip" or "degenerate").
    jitter : diagonal jitter applied, 0.0 if none.
    product : BLAS kernel that applied the triangular factors to the normals:
        "trmm" (in place) or "gemm" (no usable dtrmm in the loaded BLAS).
    """

    grid: SimGrid
    hurst: float
    n_paths: int
    seed: int
    dW: np.ndarray
    wh: np.ndarray
    factorization: str
    jitter: float
    product: str
    first_block: int = 0


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
    """PSD factor L with L @ L.T = cond, tolerating tiny asymmetric noise.

    Every method returns a C-contiguous lower-triangular L: eigh-clip's square
    root V sqrt(clipped Lambda) is made triangular by a QR of its transpose.
    """
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
    r = np.linalg.qr((eigvecs * np.sqrt(eigvals)).T, mode="r")
    return np.ascontiguousarray(r.T), "eigh-clip", 0.0


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
        with _one_blas_thread():  # bits independent of the BLAS threads
            cond = cov_hh - coef @ A.T
            L, method, jitter = _factor_conditional(cond, float(np.max(np.diag(cov_hh))))
        if len(_FACTOR_CACHE) > 256:
            _FACTOR_CACHE.clear()
        hit = _FACTOR_CACHE[key] = (coef, L, method, jitter)
    coef, L, method, jitter = hit
    T = grid.maturity
    return coef * T ** (H - 0.5), L * T**H, method, jitter * T ** (2.0 * H)


def _fan_out(job, n_jobs: int, workers: int | None = None) -> None:
    """Run job(0), ..., job(n_jobs - 1) on up to ``workers`` (default _WORKERS) threads.

    The jobs must write disjoint memory; with one job or one worker they run
    inline on the caller's thread. A job's exception is re-raised here.
    """
    workers = min(_WORKERS if workers is None else workers, n_jobs)
    if workers <= 1:
        for i in range(n_jobs):
            job(i)
        return
    with ThreadPoolExecutor(workers) as pool:
        for _ in pool.map(job, range(n_jobs)):
            pass


_OPENBLAS: tuple | None = None  # (thread pairs, TRMM), found at the first product
_OPENBLAS_GET = ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                 "scipy_openblas_get_num_threads64_")
_TRMM = "scipy_cblas_dtrmm64_"  # numpy's OpenBLAS: int64 sizes, int enums


def _openblas() -> tuple:
    """Thread-count (get, set) pairs of every OpenBLAS copy in /proc/self/maps
    (numpy's and scipy's wheels each bundle one), and numpy's cblas_dtrmm as
    bound by _bind_trmm. Empty and None where that file is missing or the
    BLAS is not OpenBLAS: then nothing is held or pooled, and GEMM runs."""
    global _OPENBLAS
    if _OPENBLAS is None:
        copies, trmm = [], None
        try:
            with open("/proc/self/maps") as maps:
                paths = {line.split(None, 5)[-1].rstrip() for line in maps if "openblas" in line}
            for path in sorted(paths):
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
                pairs = [(getattr(lib, g, None), getattr(lib, g.replace("get", "set"), None))
                         for g in _OPENBLAS_GET]
                copies += [pair for pair in pairs if None not in pair][:1]
                trmm = trmm or _bind_trmm(getattr(lib, _TRMM, None))
        except OSError:  # a copy that cannot be reached cannot be held
            copies, trmm = [], None
        _OPENBLAS = copies, trmm
    return _OPENBLAS


def _bind_trmm(fn):
    """trmm(tri, b): b <- b @ tri.T in place for lower-triangular tri, by the
    cblas_dtrmm symbol fn (RowMajor, Right, Lower, Trans, NonUnit). None if fn
    is None or, on a fixed case, raises or disagrees with GEMM beyond 1e-13."""
    if fn is None:
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    fn.argtypes = [ctypes.c_int] * 5 + [i64, i64, ctypes.c_double, ptr, i64, ptr, i64]
    fn.restype = None

    def trmm(tri: np.ndarray, b: np.ndarray) -> None:
        m, n = b.shape
        if tri.shape != (n, n) or not tri.flags.c_contiguous or b.strides[1] != 8 or not (
                tri.dtype == b.dtype == np.float64):
            raise ValueError("trmm needs a C-ordered n x n factor and float64 rows")
        fn(101, 142, 122, 112, 131, m, n, 1.0, tri.ctypes.data, n, b.ctypes.data, b.strides[0] // 8)

    rng = np.random.default_rng(3)
    tri, buf = np.tril(rng.standard_normal((5, 5))), rng.standard_normal((3, 10))
    want = np.hstack([buf[:, :5], buf[:, 5:] @ tri.T])
    try:
        trmm(tri, buf[:, 5:])
    except (ctypes.ArgumentError, TypeError):
        return None
    return trmm if np.max(np.abs(buf - want)) <= 1e-13 * np.max(np.abs(want)) else None


def _gemm(tri: np.ndarray, b: np.ndarray) -> None:
    """b <- b @ tri.T in place by GEMM, numpy buffering the overlap."""
    np.matmul(b, tri.T, out=b)


@contextmanager
def _one_blas_thread():
    """Hold each OpenBLAS copy at one thread, restoring its count on exit;
    yields the copies held (empty where none was found)."""
    copies = _openblas()[0]
    counts = [get() for get, _ in copies]
    try:
        for _, set_ in copies:
            set_(1)
        yield copies
    finally:
        for (_, set_), count in zip(copies, counts):
            set_(count)


def _block_normals(seed: int, block: int, leg: int, shape: tuple[int, int]) -> np.ndarray:
    """Standard normals of shape[0] rows, in 4096-row blocks from ``block`` on.

    Block b fills its rows from its own Philox stream keyed (seed, (b << 2) | leg),
    so its values do not depend on how blocks are grouped or on the thread
    that draws them. A stream fills in C order, so a last, partial block holds
    the first rows of the full-block draw.
    """
    out = np.empty(shape)

    def fill(i: int) -> None:
        b = block + i
        key = np.array([np.uint64(seed), np.uint64((b << 2) | leg)], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        gen.standard_normal(out=out[i * _BLOCK : (i + 1) * _BLOCK])

    _fan_out(fill, -(-shape[0] // _BLOCK))
    return out


def simulate_joint_paths(
    grid: SimGrid, H: float, n_paths: int, seed: int, first_block: int = 0
) -> PathBatch:
    """Draw (dW, W^H) with the exact joint Gaussian law on the grid.

    The 2n x 2n covariance of (dW, W^H) is factored in block form:
    dW ~ iid N(0, dt) is its own factor, and
    W^H = (A/dt) @ dW + L_c @ Z with A the cross-covariance against the
    increments and L_c L_c' = Cov(W^H) - A A'/dt the conditional covariance.
    At H = 1/2 the conditional covariance vanishes and W^H is the cumulative
    sum of dW exactly (the L_c product is skipped). The factors are those of
    the unit grid, factored once per (n_steps, H) and cached, scaled to the
    maturity by self-similarity.

    The normals (Z_1, Z) of all paths are drawn first, in one pass, up to four
    blocks at a time; then, in fixed 1024-row pieces on the same pool at one
    BLAS thread, Z_1 is scaled to dW in place and W^H is written over Z.
    ``dW`` and ``wh`` are read-only views of the two halves of that one
    buffer. A/dt and L_c are lower triangular, so the kernel (dtrmm, or GEMM
    where the BLAS has none; ``product`` records which) overwrites Z with
    Z L_c' in place and adds dW (A/dt)' from a scratch copy of dW (when
    degenerate, dW (A/dt)' goes straight over Z). The two kernels sum in
    different orders: W^H's last bits may differ between them.

    Parameters
    ----------
    grid : SimGrid
        Uniform grid; n_steps is capped at ``MAX_STEPS`` (dense factorization).
    H : float
        Hurst index in (0, 1).
    n_paths : int
        Number of paths.
    seed : int
        64-bit reproducibility token. Paths are generated in fixed blocks of
        4096 keyed by (seed, block, leg), so path i does not depend on
        n_paths.
    first_block : int
        Block of the first row: the batch holds paths first_block * 4096 on,
        bitwise the same rows as in a batch started at block 0.

    Returns
    -------
    PathBatch
    """
    _check_hurst(H)
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if grid.n_steps > MAX_STEPS:
        raise ValueError(
            f"n_steps = {grid.n_steps} exceeds the dense-factorization cap of {MAX_STEPS}"
        )
    if not (0 <= seed < 2**64):
        raise ValueError("seed must fit in 64 bits")

    n = grid.n_steps
    coef, L, method, jitter = _grid_factors(grid, H)

    # every block drawn in one pass; dW and W^H are the two halves of a row
    buf = _block_normals(seed, first_block, _LEG_JOINT, (n_paths, 2 * n))
    dW, wh = buf[:, :n], buf[:, n:]
    sqrt_dt = math.sqrt(grid.dt)
    mul = _openblas()[1] or _gemm  # b <- b tri' in place

    def product(i: int) -> None:
        rows = slice(i * _PIECE, min((i + 1) * _PIECE, n_paths))
        m = rows.stop - rows.start
        np.multiply(dW[rows], sqrt_dt, out=dW[rows])
        piece = buf[rows] if m == _PIECE else np.pad(buf[rows], ((0, _PIECE - m), (0, 0)))
        dw_p, wh_p = piece[:, :n], piece[:, n:]
        if method == "degenerate":
            np.copyto(wh_p, dw_p)
            mul(coef, wh_p)
        else:
            mul(L, wh_p)  # Z L_c' over Z
            drift = dw_p.copy()
            mul(coef, drift)
            np.add(wh_p, drift, out=wh_p)
        if m < _PIECE:
            wh[rows] = wh_p[:m]

    with _one_blas_thread() as copies:
        _fan_out(product, -(-n_paths // _PIECE), _WORKERS if copies else 1)

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
        product="gemm" if mul is _gemm else "trmm",
        first_block=first_block,
    )

