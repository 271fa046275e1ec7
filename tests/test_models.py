import math

import numpy as np
import pytest

from oracles import _SABR_SERIES_THRESHOLD, _sabr_f, sabr_implied_vol, sabr_local_vol
from roughvol import gaussian, models
from roughvol.gaussian import PathBatch, SimGrid, simulate_joint_paths
from roughvol.asymptotics import implied_curv_from_local, sabr_curvature_gap, skew_ratio_limit
from roughvol.models import (
    RoughBergomiParams,
    SabrParams,
    _sabr_m,
    bergomi_sigma_path,
    sabr_atm_curvatures,
)

BERGOMI = RoughBergomiParams(s0=100.0, sigma0=0.3, nu=1.1, rho=-0.6, hurst=0.2)
SABR = SabrParams(alpha=0.3, nu=0.6, rho=-0.6, s0=100.0)


def _zero_noise_batch(grid: SimGrid, H: float, n_paths: int = 3) -> PathBatch:
    shape = (n_paths, grid.n_steps)
    return PathBatch(
        grid=grid,
        hurst=H,
        n_paths=n_paths,
        seed=0,
        dW=np.zeros(shape),
        wh=np.zeros(shape),
        factorization="cholesky",
        jitter=0.0,
        product="gemm",
    )


class TestParams:
    def test_bergomi_validation(self):
        with pytest.raises(ValueError):
            RoughBergomiParams(s0=-1, sigma0=0.3, nu=1.1, rho=-0.6, hurst=0.2)
        with pytest.raises(ValueError):
            RoughBergomiParams(s0=100, sigma0=0.0, nu=1.1, rho=-0.6, hurst=0.2)
        with pytest.raises(ValueError):
            RoughBergomiParams(s0=100, sigma0=0.3, nu=-0.1, rho=-0.6, hurst=0.2)
        with pytest.raises(ValueError):
            RoughBergomiParams(s0=100, sigma0=0.3, nu=1.1, rho=-1.5, hurst=0.2)
        with pytest.raises(ValueError):
            RoughBergomiParams(s0=100, sigma0=0.3, nu=1.1, rho=-0.6, hurst=1.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["s0", "sigma0", "nu", "rho", "hurst"])
    def test_bergomi_rejects_non_finite(self, field, value):
        values = {**dict(s0=100.0, sigma0=0.3, nu=1.1, rho=-0.6, hurst=0.2), field: value}
        with pytest.raises(ValueError, match=f"{field} must"):
            RoughBergomiParams(**values)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["alpha", "nu", "rho", "s0"])
    def test_sabr_rejects_non_finite(self, field, value):
        values = {**dict(alpha=0.3, nu=0.6, rho=-0.6, s0=100.0), field: value}
        with pytest.raises(ValueError, match="finite"):
            SabrParams(**values)

    def test_sabr_excludes_rho_boundary(self):
        with pytest.raises(ValueError):
            SabrParams(alpha=0.3, nu=0.6, rho=1.0, s0=100.0)
        with pytest.raises(ValueError):
            SabrParams(alpha=0.3, nu=0.6, rho=-1.0, s0=100.0)


class TestBergomiSigmaPath:
    def test_zero_noise_path(self):
        grid = SimGrid(1.0, 16)
        sig = bergomi_sigma_path(_zero_noise_batch(grid, 0.2), BERGOMI)
        expected = BERGOMI.sigma0 * np.exp(-0.5 * BERGOMI.nu**2 * grid.times**0.4)
        np.testing.assert_allclose(sig.sigma[0], expected, rtol=1e-14)

    def test_nu_zero_is_flat(self):
        grid = SimGrid(2.0, 8)
        p = RoughBergomiParams(s0=100.0, sigma0=0.3, nu=0.0, rho=-0.6, hurst=0.2)
        batch = simulate_joint_paths(grid, 0.2, 10, seed=1)
        sig = bergomi_sigma_path(batch, p)
        np.testing.assert_allclose(sig.sigma, 0.3, rtol=1e-14)
        np.testing.assert_allclose(
            sig.int_var, np.broadcast_to(0.09 * grid.times, sig.int_var.shape), rtol=1e-12
        )

    def test_lognormal_second_moment(self):
        grid = SimGrid(0.5, 16)
        n = 100_000
        batch = simulate_joint_paths(grid, 0.2, n, seed=31)
        sig = bergomi_sigma_path(batch, BERGOMI)
        for idx in (3, 15):
            t = grid.times[idx]
            x = sig.sigma[:, idx] ** 2
            target = BERGOMI.sigma0**2 * math.exp(BERGOMI.nu**2 * t ** (2 * BERGOMI.hurst))
            se = x.std() / math.sqrt(n)
            assert abs(x.mean() - target) < 3 * se

    def test_h_half_is_classical_lognormal_in_w(self):
        # at H = 1/2 the driver is W itself, so sigma is the textbook
        # lognormal vol sigma0 exp(nu W_t - nu^2 t / 2)
        grid = SimGrid(1.0, 32)
        p = RoughBergomiParams(s0=100.0, sigma0=0.3, nu=1.1, rho=-0.6, hurst=0.5)
        batch = simulate_joint_paths(grid, 0.5, 200, seed=4)
        sig = bergomi_sigma_path(batch, p)
        w = np.cumsum(batch.dW, axis=1)
        expected = 0.3 * np.exp(1.1 * math.sqrt(1.0) * w - 0.5 * 1.1**2 * grid.times)
        np.testing.assert_allclose(sig.sigma, expected, rtol=1e-10)

    def test_sigma_positive_and_int_var_nondecreasing(self):
        grid = SimGrid(1.0, 32)
        batch = simulate_joint_paths(grid, 0.2, 500, seed=8)
        sig = bergomi_sigma_path(batch, BERGOMI)
        assert np.all(sig.sigma > 0)
        assert np.all(np.diff(sig.int_var, axis=1) >= 0)
        assert np.all(sig.int_var[:, 0] > 0)

    def test_hurst_mismatch_rejected(self):
        grid = SimGrid(1.0, 8)
        batch = simulate_joint_paths(grid, 0.3, 5, seed=0)
        with pytest.raises(ValueError, match="hurst"):
            bergomi_sigma_path(batch, BERGOMI)

    def test_truncated_is_prefix_restriction(self):
        grid = SimGrid(0.32, 64)
        batch = simulate_joint_paths(grid, 0.2, 40, seed=3)
        sig = bergomi_sigma_path(batch, BERGOMI)
        sub = sig.truncated(16)
        assert sub.grid.n_steps == 16
        assert sub.grid.maturity == pytest.approx(0.08, rel=1e-12)
        np.testing.assert_allclose(sub.grid.times, grid.times[:16], rtol=1e-12)
        np.testing.assert_array_equal(sub.sigma, sig.sigma[:, :16])
        np.testing.assert_array_equal(sub.total_var(), sig.int_var[:, 15])
        assert sig.truncated(64) is sig

    def test_truncated_bounds(self):
        grid = SimGrid(0.32, 8)
        batch = simulate_joint_paths(grid, 0.2, 4, seed=3)
        sig = bergomi_sigma_path(batch, BERGOMI)
        with pytest.raises(ValueError, match="n_steps"):
            sig.truncated(0)
        with pytest.raises(ValueError, match="n_steps"):
            sig.truncated(9)


def _vectorized_sigma_path(batch, p):
    """Oracle: sigma and the left-point integrals as whole-array expressions."""
    grid = batch.grid
    h2 = 2.0 * p.hurst
    sigma = p.sigma0 * np.exp(
        p.nu * math.sqrt(h2) * batch.wh - 0.5 * p.nu**2 * grid.times**h2
    )
    left = np.empty_like(sigma)
    left[:, 0] = p.sigma0
    left[:, 1:] = sigma[:, :-1]
    int_var = np.cumsum(left**2 * grid.dt, axis=1)
    int_sdw = np.cumsum(left * batch.dW, axis=1)
    return sigma, int_var, int_sdw


class TestChunkedSigmaPath:
    @pytest.mark.parametrize("H", [0.2, 0.5])
    @pytest.mark.parametrize("n_paths", [1, 2 * models._CHUNK_ROWS + 37])
    def test_matches_vectorized_formula_bitwise(self, H, n_paths):
        p = RoughBergomiParams(s0=100.0, sigma0=0.3, nu=1.1, rho=-0.6, hurst=H)
        batch = simulate_joint_paths(SimGrid(0.7, 24), H, n_paths, seed=9)
        sig = bergomi_sigma_path(batch, p)
        got = (sig.sigma, sig.int_var, sig.int_sdw)
        assert [a.tobytes() for a in got] == [
            a.tobytes() for a in _vectorized_sigma_path(batch, p)
        ]

    @pytest.mark.parametrize("n_paths", [1, 4095, 4097, 3 * 4096 + 1])
    def test_path_arrays_independent_of_worker_count(self, n_paths, monkeypatch):
        runs = []
        for workers in (1, 3):
            monkeypatch.setattr(gaussian, "_WORKERS", workers)
            batch = simulate_joint_paths(SimGrid(0.3, 8), 0.2, n_paths, seed=6)
            sig = bergomi_sigma_path(batch, BERGOMI)
            arrays = (batch.dW, batch.wh, sig.sigma, sig.int_var, sig.int_sdw)
            runs.append([a.tobytes() for a in arrays])
        assert runs[0] == runs[1]

    # both outputs share one chunk rule: 1024-row chunks up to 256 steps,
    # 256-row chunks at 1024 steps
    @pytest.mark.parametrize("n_steps, chunk", [(8, 1024), (1024, 256)])
    def test_full_arrays_independent_of_chunking(self, n_steps, chunk, monkeypatch):
        n_paths = 2 * models._CHUNK_ROWS + 37
        batch = simulate_joint_paths(SimGrid(0.3, n_steps), 0.2, n_paths, seed=5)
        jobs = []
        real_fan_out = gaussian._fan_out

        def recording_fan_out(job, n_jobs, workers=None):
            jobs.append(n_jobs)
            real_fan_out(job, n_jobs, workers)

        monkeypatch.setattr(gaussian, "_fan_out", recording_fan_out)
        runs = []
        for workers in (1, 3, 16):
            monkeypatch.setattr(gaussian, "_WORKERS", workers)
            sig = bergomi_sigma_path(batch, BERGOMI)
            runs.append([a.tobytes() for a in (sig.sigma, sig.int_var, sig.int_sdw)])
        # one job per chunk once there are workers enough
        assert jobs == [1, 3, -(-n_paths // chunk)]
        # a serial fill of one chunk that holds every row
        monkeypatch.setattr(gaussian, "_WORKERS", 1)
        monkeypatch.setattr(models, "_CHUNK_ROWS", 4 * n_paths)
        sig = bergomi_sigma_path(batch, BERGOMI)
        runs.append([a.tobytes() for a in (sig.sigma, sig.int_var, sig.int_sdw)])
        assert runs[1:] == runs[:-1]


class TestTerminalSigmaPath:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize(
        "n_paths", [1, models._CHUNK_ROWS - 1, models._CHUNK_ROWS + 1, 3 * 4096 + 1]
    )
    @pytest.mark.parametrize("H", [0.2, 0.5])
    def test_equals_last_columns_of_full_arrays_bitwise(self, H, n_paths, workers, monkeypatch):
        p = RoughBergomiParams(s0=100.0, sigma0=0.3, nu=1.1, rho=-0.6, hurst=H)
        batch = simulate_joint_paths(SimGrid(0.3, 8), H, n_paths, seed=12)
        full = bergomi_sigma_path(batch, p)
        monkeypatch.setattr(gaussian, "_WORKERS", workers)
        end = bergomi_sigma_path(batch, p, terminal=True)
        assert [end.sigma.tobytes(), end.int_var.tobytes(), end.int_sdw.tobytes()] == [
            full.sigma[:, -1:].tobytes(),
            full.int_var[:, -1:].tobytes(),
            full.int_sdw[:, -1:].tobytes(),
        ]

    # above 256 steps the scratch is sized by bytes: 256 rows at 1024 steps
    @pytest.mark.parametrize("workers", [1, 3])
    def test_byte_sized_scratch_keeps_the_bits(self, workers, monkeypatch):
        batch = simulate_joint_paths(SimGrid(0.3, 1024), 0.2, 1000, seed=12)
        full = bergomi_sigma_path(batch, BERGOMI)
        monkeypatch.setattr(gaussian, "_WORKERS", workers)
        end = bergomi_sigma_path(batch, BERGOMI, terminal=True)
        assert end.int_sdw.tobytes() == full.int_sdw[:, -1:].tobytes()
        assert end.int_var.tobytes() == full.int_var[:, -1:].tobytes()

    def test_grid_is_the_one_step_grid(self):
        batch = simulate_joint_paths(SimGrid(0.7, 24), 0.2, 5, seed=2)
        assert bergomi_sigma_path(batch, BERGOMI, terminal=True).grid == SimGrid(0.7, 1)

    def test_nu_zero_terminal_sigma_is_sigma0(self):
        p = RoughBergomiParams(s0=100.0, sigma0=0.3, nu=0.0, rho=-0.6, hurst=0.2)
        batch = simulate_joint_paths(SimGrid(2.0, 8), 0.2, 10, seed=1)
        assert np.all(bergomi_sigma_path(batch, p, terminal=True).terminal_sigma() == 0.3)

    def test_hurst_mismatch_rejected(self):
        batch = simulate_joint_paths(SimGrid(1.0, 8), 0.3, 5, seed=0)
        with pytest.raises(ValueError, match="hurst"):
            bergomi_sigma_path(batch, BERGOMI, terminal=True)


def log_strike_fd(vol, K: float, h: float = 1e-4) -> tuple[float, float]:
    """Central (slope, curvature) of vol in log-strike k = log K at strike K."""
    up, mid, dn = vol(K * math.exp(h)), vol(K), vol(K * math.exp(-h))
    return (up - dn) / (2.0 * h), (up - 2.0 * mid + dn) / h**2


def local_fd(p: SabrParams, K: float = 100.0, h: float = 1e-4) -> tuple[float, float]:
    return log_strike_fd(lambda k: sabr_local_vol(k, p), K, h)


def implied_fd(p: SabrParams, T: float, K: float = 100.0, h: float = 1e-4) -> tuple[float, float]:
    return log_strike_fd(lambda k: sabr_implied_vol(k, T, p), K, h)


class TestSabrLocalVol:
    def test_atm_is_alpha(self):
        assert sabr_local_vol(100.0, SABR) == pytest.approx(0.3, rel=1e-14)

    def test_nu_zero_flat(self):
        p = SabrParams(alpha=0.3, nu=0.0, rho=-0.6, s0=100.0)
        for K in (50.0, 100.0, 180.0):
            assert sabr_local_vol(K, p) == pytest.approx(0.3, rel=1e-14)

    def test_unit_y_value(self):
        # y = 1 at K = S0 e^alpha: alpha*sqrt(1 + 2 rho nu + nu^2) = 0.3*sqrt(0.64)
        K = 100.0 * math.exp(0.3)
        assert sabr_local_vol(K, SABR) == pytest.approx(0.24, rel=1e-12)

    def test_atm_strike_derivative(self):
        # d sigma/dK = rho nu / K at the money: the log-strike skew is rho nu
        h = 1e-4 * SABR.s0
        fd = (sabr_local_vol(100.0 + h, SABR) - sabr_local_vol(100.0 - h, SABR)) / (2 * h)
        assert fd == pytest.approx(SABR.rho * SABR.nu / 100.0, rel=1e-6)
        assert local_fd(SABR)[0] == pytest.approx(-0.36, rel=1e-7)

    def test_rho_zero_atm_slope_vanishes(self):
        p = SabrParams(alpha=0.3, nu=0.6, rho=0.0, s0=100.0)
        assert local_fd(p)[0] == pytest.approx(0.0, abs=1e-10)

    def test_nu_zero_derivatives_vanish(self):
        p = SabrParams(alpha=0.3, nu=0.0, rho=-0.6, s0=100.0)
        for K in (70.0, 100.0, 140.0):
            assert local_fd(p, K) == (0.0, 0.0)
        assert sabr_atm_curvatures(p, 0.5) == (0.0, 0.0)

    @pytest.mark.parametrize("K", [60.0, 85.0, 100.0, 120.0, 170.0])
    def test_derivs_match_finite_differences(self, K):
        # sigma^2 = alpha^2 + 2 rho nu alpha k + nu^2 k^2 in k = log(K/S0), so its
        # log-strike derivatives are 2 (rho nu alpha + nu^2 k) and 2 nu^2
        a, nu, rho = SABR.alpha, SABR.nu, SABR.rho
        k = math.log(K / SABR.s0)
        d1, d2 = log_strike_fd(lambda x: sabr_local_vol(x, SABR) ** 2, K)
        assert d1 == pytest.approx(2.0 * (rho * nu * a + nu**2 * k), rel=1e-6, abs=1e-12)
        assert d2 == pytest.approx(2.0 * nu**2, rel=1e-6)


class TestSabrImpliedVol:
    def test_atm_is_alpha_times_m(self):
        m = 1.0 + (0.25 * -0.6 * 0.6 * 0.3 + (2 - 3 * 0.36) / 24 * 0.36) * 0.5
        assert sabr_implied_vol(100.0, 0.5, SABR) == pytest.approx(0.3 * m, rel=1e-12)
        assert sabr_implied_vol(100.0, 0.5, SABR) == pytest.approx(0.298020, abs=5e-7)

    def test_short_maturity_atm_tends_to_alpha(self):
        assert sabr_implied_vol(100.0, 1e-12, SABR) == pytest.approx(0.3, rel=1e-10)

    def test_continuous_across_series_threshold(self):
        # both branches evaluated at the threshold z itself must agree
        scale = SABR.alpha * _sabr_m(0.3, SABR)
        for sign in (+1, -1):
            z = sign * _SABR_SERIES_THRESHOLD
            below = _sabr_f(math.nextafter(z, 0.0), SABR.rho)
            above = _sabr_f(math.nextafter(z, 2.0 * z), SABR.rho)
            assert scale * abs(above - below) < 1e-10

    def test_atm_log_skew_is_half_local(self):
        # one-half rule: dI/dk at ATM -> (rho nu)/2 as T -> 0
        assert implied_fd(SABR, 1e-10)[0] == pytest.approx(0.5 * SABR.rho * SABR.nu, rel=1e-7)

    def test_one_half_rule_ratio(self):
        local_d1 = local_fd(SABR)[0]
        ratios = [local_d1 / implied_fd(SABR, T)[0] for T in (0.2, 0.05, 1e-3, 1e-6)]
        assert ratios[-1] == pytest.approx(2.0, rel=1e-6)
        # monotone approach to the limit
        assert abs(ratios[0] - 2.0) > abs(ratios[-1] - 2.0)

    def test_rho_zero_atm_first_derivative_vanishes(self):
        p = SabrParams(alpha=0.3, nu=0.6, rho=0.0, s0=100.0)
        assert implied_fd(p, 0.25)[0] == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("K", [60.0, 85.0, 99.0, 100.0, 101.0, 120.0, 170.0])
    @pytest.mark.parametrize("T", [0.02, 0.5])
    def test_derivs_match_finite_differences(self, K, T):
        # The smile is alpha m(T) z / x(z), z = -(nu/alpha) k, where Hagan's x
        # solves x' = 1/sqrt(A), A = 1 - 2 rho z + z^2, so x'' = (rho - z)/A^(3/2).
        # Read x back off the smile and difference it in log-strike.
        a, nu, rho = SABR.alpha, SABR.nu, SABR.rho
        m = _sabr_m(T, SABR)

        def x_of(K):
            z = nu / a * math.log(SABR.s0 / K)
            return z * a * m / sabr_implied_vol(K, T, SABR)

        z = nu / a * math.log(SABR.s0 / K)
        A = 1.0 - 2.0 * rho * z + z**2
        d1, d2 = log_strike_fd(x_of, K)
        assert d1 == pytest.approx(-nu / a / math.sqrt(A), rel=1e-6)
        assert d2 == pytest.approx((nu / a) ** 2 * (rho - z) / A**1.5, rel=1e-5)


SABR_GRID = [
    SabrParams(alpha=alpha, nu=nu, rho=rho, s0=100.0)
    for alpha in (0.05, 0.3, 1.7)
    for nu in (0.0, 0.2, 0.6)
    for rho in (-0.6, 0.0, 0.4)
]


class TestSabrAtmCurvatures:
    @pytest.mark.parametrize("T", [0.01, 1.0])
    @pytest.mark.parametrize("p", SABR_GRID, ids=str)
    def test_match_smile_differences(self, p, T):
        # a step of 1e-3 in z = (nu/alpha) k balances truncation and rounding
        h = 1e-3 * p.alpha / max(p.nu, p.alpha)
        curv_lv, curv_iv = sabr_atm_curvatures(p, T)
        assert curv_lv == pytest.approx(local_fd(p, h=h)[1], rel=1e-5, abs=1e-9)
        assert curv_iv == pytest.approx(implied_fd(p, T, h=h)[1], rel=1e-5, abs=1e-9)

    @pytest.mark.parametrize("nu, alpha", [(1e200, 0.3), (1e154, 1e-3)])
    def test_overflow_names_the_parameters(self, nu, alpha):
        huge = SabrParams(alpha=alpha, nu=nu, rho=-0.6, s0=100.0)
        want = f"sabr_atm_curvatures overflowed at nu={nu!r}, alpha={alpha!r}"
        with pytest.raises(OverflowError, match=want.replace("+", r"\+")):
            sabr_atm_curvatures(huge, 0.1)


class TestSabrCurvatureLimits:
    def test_atm_log_curvatures(self):
        # closed-form short-end targets used by the asymptotics module
        a, nu, rho = SABR.alpha, SABR.nu, SABR.rho
        for T in (0.0, 1e-8):
            curv_lv, curv_iv = sabr_atm_curvatures(SABR, T)
            assert curv_lv == pytest.approx(nu**2 / a * (1 - rho**2), rel=1e-14)
            assert curv_iv == pytest.approx(nu**2 / a * (1.0 / 3.0 - rho**2 / 2.0), rel=1e-8)


# The paper's rules at H = 1/2, where rough Bergomi is lognormal SABR
HALF_SETS = [
    SabrParams(alpha=0.3, nu=0.6, rho=-0.6, s0=100.0),
    SabrParams(alpha=0.05, nu=0.2, rho=0.4, s0=100.0),
    SabrParams(alpha=1.7, nu=3.0, rho=-0.95, s0=50.0),
    SabrParams(alpha=0.2, nu=1.1, rho=0.7, s0=100.0),
]


@pytest.mark.parametrize("p", HALF_SETS, ids=str)
class TestSabrHalfIdentities:
    def test_transfer_formula_is_exact(self, p):
        curv_lv, curv_iv = sabr_atm_curvatures(p, 0.0)
        skew_sq = (p.rho * p.nu) ** 2
        want = implied_curv_from_local(0.5, p.alpha, skew_sq, curv_lv)
        assert curv_iv == pytest.approx(want, rel=1e-12)

    def test_gap_is_the_curvature_difference(self, p):
        curv_lv, curv_iv = sabr_atm_curvatures(p, 0.0)
        assert curv_lv / 3.0 - curv_iv == pytest.approx(sabr_curvature_gap(p), rel=1e-12)

    def test_skew_ratio_is_one_half(self, p):
        ratio = implied_fd(p, 1e-12, p.s0)[0] / local_fd(p, p.s0)[0]
        assert skew_ratio_limit(0.5) == 0.5
        assert ratio == pytest.approx(skew_ratio_limit(0.5), rel=1e-6)
