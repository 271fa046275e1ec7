import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughvol.gaussian import PathBatch, SimGrid, simulate_joint_paths
from roughvol.models import (
    RoughBergomiParams,
    SabrParams,
    bergomi_sigma_path,
    log_strike_convert,
    sabr_implied_vol,
    sabr_implied_vol_derivs,
    sabr_local_vol,
    sabr_local_vol_derivs,
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
        d1, _ = sabr_local_vol_derivs(100.0, SABR)
        assert d1 == pytest.approx(SABR.rho * SABR.nu / 100.0, rel=1e-12)

    def test_rho_zero_atm_slope_vanishes(self):
        p = SabrParams(alpha=0.3, nu=0.6, rho=0.0, s0=100.0)
        d1, _ = sabr_local_vol_derivs(100.0, p)
        assert d1 == pytest.approx(0.0, abs=1e-15)

    def test_nu_zero_derivatives_vanish(self):
        p = SabrParams(alpha=0.3, nu=0.0, rho=-0.6, s0=100.0)
        for K in (70.0, 100.0, 140.0):
            d1, d2 = sabr_local_vol_derivs(K, p)
            assert d1 == 0.0
            assert d2 == 0.0

    @pytest.mark.parametrize("K", [60.0, 85.0, 100.0, 120.0, 170.0])
    def test_derivs_match_finite_differences(self, K):
        h = 1e-4 * SABR.s0
        d1, d2 = sabr_local_vol_derivs(K, SABR)
        fd1 = (sabr_local_vol(K + h, SABR) - sabr_local_vol(K - h, SABR)) / (2 * h)
        fd2 = (
            sabr_local_vol(K + h, SABR)
            - 2 * sabr_local_vol(K, SABR)
            + sabr_local_vol(K - h, SABR)
        ) / h**2
        assert d1 == pytest.approx(fd1, rel=1e-6)
        assert d2 == pytest.approx(fd2, rel=1e-6)


class TestSabrImpliedVol:
    def test_atm_is_alpha_times_m(self):
        m = 1.0 + (0.25 * -0.6 * 0.6 * 0.3 + (2 - 3 * 0.36) / 24 * 0.36) * 0.5
        assert sabr_implied_vol(100.0, 0.5, SABR) == pytest.approx(0.3 * m, rel=1e-12)
        assert sabr_implied_vol(100.0, 0.5, SABR) == pytest.approx(0.298020, abs=5e-7)

    def test_short_maturity_atm_tends_to_alpha(self):
        assert sabr_implied_vol(100.0, 1e-12, SABR) == pytest.approx(0.3, rel=1e-10)

    def test_continuous_across_series_threshold(self):
        # both branches evaluated at the threshold z itself must agree
        from roughvol.models import _SABR_SERIES_THRESHOLD, _sabr_f, _sabr_m

        scale = SABR.alpha * _sabr_m(0.3, SABR)
        for sign in (+1, -1):
            z = sign * _SABR_SERIES_THRESHOLD
            below = _sabr_f(math.nextafter(z, 0.0), SABR.rho)
            above = _sabr_f(math.nextafter(z, 2.0 * z), SABR.rho)
            assert scale * abs(above - below) < 1e-10

    def test_atm_log_skew_is_half_local(self):
        # one-half rule: K dI/dK at ATM -> (rho nu)/2 as T -> 0
        d1, _ = sabr_implied_vol_derivs(100.0, 1e-10, SABR)
        assert 100.0 * d1 == pytest.approx(0.5 * SABR.rho * SABR.nu, rel=1e-8)

    def test_one_half_rule_ratio(self):
        local_d1, _ = sabr_local_vol_derivs(100.0, SABR)
        ratios = []
        for T in (0.2, 0.05, 1e-3, 1e-6):
            iv_d1, _ = sabr_implied_vol_derivs(100.0, T, SABR)
            ratios.append(local_d1 / iv_d1)
        assert ratios[-1] == pytest.approx(2.0, rel=1e-6)
        # monotone approach to the limit
        assert abs(ratios[0] - 2.0) > abs(ratios[-1] - 2.0)

    def test_rho_zero_atm_first_derivative_vanishes(self):
        p = SabrParams(alpha=0.3, nu=0.6, rho=0.0, s0=100.0)
        d1, _ = sabr_implied_vol_derivs(100.0, 0.25, p)
        assert d1 == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("K", [60.0, 85.0, 99.0, 100.0, 101.0, 120.0, 170.0])
    @pytest.mark.parametrize("T", [0.02, 0.5])
    def test_derivs_match_finite_differences(self, K, T):
        h = 1e-4 * SABR.s0
        d1, d2 = sabr_implied_vol_derivs(K, T, SABR)
        up = sabr_implied_vol(K + h, T, SABR)
        mid = sabr_implied_vol(K, T, SABR)
        dn = sabr_implied_vol(K - h, T, SABR)
        assert d1 == pytest.approx((up - dn) / (2 * h), rel=1e-6)
        assert d2 == pytest.approx((up - 2 * mid + dn) / h**2, rel=1e-5)


class TestLogStrikeConvert:
    def test_zero_derivatives(self):
        assert log_strike_convert(0.0, 0.0, 100.0) == (0.0, 0.0)

    def test_log_function_case(self):
        # f(K) = log K: f' = 1/K, f'' = -1/K^2 -> dg/dk = 1, d2g/dk2 = 0
        dk, dkk = log_strike_convert(1 / 100.0, -1 / 100.0**2, 100.0)
        assert dk == pytest.approx(1.0, rel=1e-14)
        assert dkk == pytest.approx(0.0, abs=1e-14)

    def test_sabr_atm_log_skew(self):
        d1, d2 = sabr_local_vol_derivs(100.0, SABR)
        dk, _ = log_strike_convert(d1, d2, 100.0)
        assert dk == pytest.approx(SABR.rho * SABR.nu, rel=1e-12)
        assert dk == pytest.approx(-0.36, rel=1e-12)

    @given(
        k=st.floats(20.0, 500.0),
        b=st.floats(-0.2, 0.2),
        c=st.floats(-0.1, 0.1),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_chain_rule_on_quadratics(self, k, b, c):
        # f(K) = a + b log K + c (log K)^2 has exact log-strike derivatives
        lk = math.log(k)
        dK = (b + 2 * c * lk) / k
        dKK = (2 * c - b - 2 * c * lk) / k**2
        dk, dkk = log_strike_convert(dK, dKK, k)
        assert dk == pytest.approx(b + 2 * c * lk, rel=1e-9, abs=1e-12)
        assert dkk == pytest.approx(2 * c, rel=1e-9, abs=1e-9)


class TestSabrCurvatureLimits:
    def test_atm_log_curvatures(self):
        # closed-form short-end targets used by the asymptotics module
        a, nu, rho = SABR.alpha, SABR.nu, SABR.rho
        T = 1e-8
        d1, d2 = sabr_local_vol_derivs(100.0, SABR)
        _, local_kk = log_strike_convert(d1, d2, 100.0)
        assert local_kk == pytest.approx(nu**2 / a * (1 - rho**2), rel=1e-10)
        i1, i2 = sabr_implied_vol_derivs(100.0, T, SABR)
        _, impl_kk = log_strike_convert(i1, i2, 100.0)
        assert impl_kk == pytest.approx(nu**2 / a * (1.0 / 3.0 - rho**2 / 2.0), rel=1e-6)
