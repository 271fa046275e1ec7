"""Tests for short-maturity limit constants and power-law fitting.

The closed-form rough Bergomi curvature limit is checked against an
independent adaptive quadrature of its three kernel integrals
(``oracles.bergomi_curvature_terms_quad``), against the H = 1/2 collapse to
the lognormal-SABR value, and against the uncorrelated special case. The
skew limit is checked against a direct 2-d quadrature of its defining
kernel integral.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate

from oracles import bergomi_curvature_terms_quad
from roughvol.asymptotics import (
    PowerLawFit,
    TermSeries,
    bergomi_curvature_limit,
    bergomi_skew_limit,
    curvature_bracket,
    fit_power_law,
    implied_curv_from_local,
    local_curv_from_implied,
    sabr_curvature_gap,
    skew_ratio_limit,
)
from roughvol.models import RoughBergomiParams, SabrParams, sabr_atm_curvatures


def bergomi(hurst: float, rho: float = -0.6, nu: float = 1.1) -> RoughBergomiParams:
    return RoughBergomiParams(s0=100.0, sigma0=0.3, nu=nu, rho=rho, hurst=hurst)


class TestSkewRatioLimit:
    def test_diffusive_half(self):
        assert skew_ratio_limit(0.5) == 0.5

    def test_rough_value(self):
        assert abs(skew_ratio_limit(0.2) - 1.0 / 1.7) < 1e-15
        assert abs(skew_ratio_limit(0.2) - 0.5882) < 1e-4

    def test_monotone_decreasing_with_range(self):
        h = np.linspace(0.001, 0.999, 200)
        vals = np.array([skew_ratio_limit(x) for x in h])
        assert np.all(np.diff(vals) < 0.0)
        assert np.all(vals > 0.4)
        assert np.all(vals < 2.0 / 3.0)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3])
    def test_domain(self, bad):
        with pytest.raises(ValueError, match="hurst"):
            skew_ratio_limit(bad)


class TestBergomiSkewLimit:
    @pytest.mark.parametrize("hurst", [0.2, 0.5])
    @pytest.mark.parametrize("t", [0.7, 1.0])
    def test_kernel_double_integral_reduction(self, hurst, t):
        # int_0^T int_r^T (u-r)^(H-1/2) du dr = T^(H+3/2)/((H+1/2)(H+3/2))
        num, err = integrate.dblquad(
            lambda u, r: (u - r) ** (hurst - 0.5),
            0.0,
            t,
            lambda r: r,
            t,
        )
        closed = t ** (hurst + 1.5) / ((hurst + 0.5) * (hurst + 1.5))
        assert abs(num - closed) < 1e-6 * closed

    @pytest.mark.parametrize("hurst", [0.2, 0.5])
    def test_limit_matches_kernel_quadrature(self, hurst):
        # skew limit = rho/(2 sigma0^2) * 2 nu sqrt(2H) sigma0^2 * I(1)
        p = bergomi(hurst)
        kernel_integral, _ = integrate.dblquad(
            lambda u, r: (u - r) ** (hurst - 0.5),
            0.0,
            1.0,
            lambda r: r,
            1.0,
        )
        expected = p.rho * p.nu * math.sqrt(2.0 * hurst) * kernel_integral
        assert abs(bergomi_skew_limit(p) - expected) < 1e-6 * abs(expected)

    def test_example_values(self):
        assert abs(bergomi_skew_limit(bergomi(0.5)) - (-0.33)) < 1e-15
        rough = bergomi_skew_limit(bergomi(0.2))
        assert abs(rough - (-0.66 * math.sqrt(0.4) / (0.7 * 1.7))) < 1e-15
        assert abs(rough - (-0.35078)) < 1e-4

    def test_odd_in_rho(self):
        assert bergomi_skew_limit(bergomi(0.2, rho=0.0)) == 0.0
        assert bergomi_skew_limit(bergomi(0.3, rho=0.6)) == -bergomi_skew_limit(
            bergomi(0.3, rho=-0.6)
        )


class TestCurvatureBracket:
    def test_diffusive_half(self):
        assert abs(curvature_bracket(0.5) - (-1.0 / 6.0)) < 1e-15

    def test_rough_value(self):
        direct = 3.0 / (1.7 * 1.2) - 6.0 / 1.7**2 + 1.0 / 2.4
        assert abs(curvature_bracket(0.2) - direct) < 1e-15
        assert abs(curvature_bracket(0.2) - (-0.18886)) < 2e-5

    def test_finite_and_continuous(self):
        h = np.linspace(0.001, 0.999, 1000)
        vals = np.array([curvature_bracket(x) for x in h])
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(np.diff(vals))) < 0.01

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5])
    def test_domain(self, bad):
        with pytest.raises(ValueError, match="hurst"):
            curvature_bracket(bad)


class TestCurvatureTransfer:
    def test_half_rule_coefficients(self):
        got = implied_curv_from_local(0.5, 0.3, 0.4356, 2.0)
        assert abs(got - (-0.4356 / (6.0 * 0.3) + 2.0 / 3.0)) < 1e-14

    def test_uncorrelated_case(self):
        assert abs(
            implied_curv_from_local(0.2, 0.3, 0.0, 1.87) - 1.87 / 2.4
        ) < 1e-15

    @pytest.mark.parametrize("hurst", [0.2, 0.5, 0.7])
    def test_round_trip(self, hurst):
        lim_skew_local_sq = 0.355613
        lim_curv_local = 1.87
        implied = implied_curv_from_local(
            hurst, 0.3, lim_skew_local_sq, lim_curv_local
        )
        # the inverse consumes the implied skew; the transfer identifies
        # local skew^2 with (H + 3/2)^2 x implied skew^2
        recovered = local_curv_from_implied(
            hurst, 0.3, lim_skew_local_sq / (hurst + 1.5) ** 2, implied
        )
        assert abs(recovered - lim_curv_local) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError, match="sigma0"):
            implied_curv_from_local(0.2, 0.0, 0.1, 1.0)
        with pytest.raises(ValueError, match="hurst"):
            implied_curv_from_local(1.0, 0.3, 0.1, 1.0)
        with pytest.raises(ValueError, match="skew"):
            local_curv_from_implied(0.2, 0.3, -0.1, 1.0)


def assert_matches_oracle(p: RoughBergomiParams) -> None:
    # The quadrature has no absolute floor, so it resolves the limit itself to
    # 1e-10 even where the terms nearly cancel (H = 0.02, rho = -0.6).
    terms = bergomi_curvature_terms_quad(p)
    got = bergomi_curvature_limit(p)
    assert abs(got - sum(terms)) < 1e-10 * abs(sum(terms)), (p, got, terms)


class TestBergomiCurvatureLimit:
    @pytest.mark.parametrize("hurst", [0.02, 0.2, 0.35, 0.5, 0.98])
    def test_terms_match_closed_forms(self, hurst):
        for rho in (0.0, -0.6):
            assert_matches_oracle(bergomi(hurst, rho=rho))

    def test_uncorrelated_half_value(self):
        # only the first term survives at rho = 0
        val = bergomi_curvature_limit(bergomi(0.5, rho=0.0))
        assert abs(val - 1.21 * 0.5 / (0.3 * 1.0 * 1.5)) < 1e-12
        assert abs(val - 1.34444) < 1e-5

    def test_half_collapses_to_lognormal_sabr(self):
        p = bergomi(0.5)
        want = p.nu**2 / p.sigma0 * (1.0 / 3.0 - p.rho**2 / 2.0)
        assert abs(bergomi_curvature_limit(p) - want) < 1e-12 * abs(want)

    def test_rough_total(self):
        assert_matches_oracle(bergomi(0.2))
        assert abs(bergomi_curvature_limit(bergomi(0.2)) - 0.55531857) < 1e-8

    def test_nu_zero(self):
        assert bergomi_curvature_limit(bergomi(0.2, nu=0.0)) == 0.0

    def test_even_in_rho(self):
        plus = bergomi_curvature_limit(bergomi(0.2, rho=0.6))
        minus = bergomi_curvature_limit(bergomi(0.2, rho=-0.6))
        assert abs(plus - minus) < 1e-15

    def test_needs_no_numerical_integration(self, src_env):
        # The limit is arithmetic: computing it must not import scipy.integrate.
        code = (
            "import sys, roughvol\n"
            "from roughvol.models import RoughBergomiParams\n"
            "p = RoughBergomiParams(s0=100.0, sigma0=0.3, nu=1.1, rho=-0.6, hurst=0.2)\n"
            "roughvol.bergomi_curvature_limit(p)\n"
            "print('scipy.integrate' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, timeout=120, env=src_env,
        )
        assert out.stdout.strip() == "False"


class TestSabrCurvatureGap:
    def test_example_value(self):
        p = SabrParams(alpha=0.3, nu=0.6, rho=-0.6, s0=100.0)
        assert abs(sabr_curvature_gap(p) - 0.072) < 1e-15

    def test_rho_zero(self):
        p = SabrParams(alpha=0.3, nu=0.6, rho=0.0, s0=100.0)
        assert sabr_curvature_gap(p) == 0.0

    def test_matches_analytic_smiles_near_zero(self):
        # (local curvature)/3 - implied curvature at T = 1e-4, log-strike ATM
        p = SabrParams(alpha=0.3, nu=0.6, rho=-0.6, s0=100.0)
        curv_lv, curv_iv = sabr_atm_curvatures(p, 1e-4)
        gap = curv_lv / 3.0 - curv_iv
        assert abs(gap - sabr_curvature_gap(p)) < 0.01 * sabr_curvature_gap(p)


class TestTermSeries:
    def test_construction(self):
        s = TermSeries(
            maturities=[0.1, 0.2, 0.4],
            values=[1.0, 2.0, 3.0],
            std_errors=[0.0, 0.0, 0.0],
            label="ratio",
        )
        assert s.maturities.size == s.values.size == s.std_errors.size == 3
        assert s.label == "ratio"
        assert s.maturities.dtype == np.float64

    def test_validation(self):
        with pytest.raises(ValueError, match="length"):
            TermSeries([0.1, 0.2], [1.0], [0.0, 0.0], "x")
        with pytest.raises(ValueError, match="increasing"):
            TermSeries([0.2, 0.1], [1.0, 2.0], [0.0, 0.0], "x")
        with pytest.raises(ValueError, match="positive"):
            TermSeries([0.0, 0.1], [1.0, 2.0], [0.0, 0.0], "x")
        with pytest.raises(ValueError, match="empty"):
            TermSeries([], [], [], "x")


def make_series(ts: np.ndarray, vals: np.ndarray) -> TermSeries:
    return TermSeries(ts, vals, np.zeros_like(ts), "test")


class TestFitPowerLaw:
    def ladder(self, lo=0.005, hi=0.24, n=12) -> np.ndarray:
        return np.geomspace(lo, hi, n)

    def test_exact_recovery(self):
        ts = self.ladder()
        fit = fit_power_law(make_series(ts, 3.0 * ts**-0.6))
        assert abs(fit.exponent - (-0.6)) < 1e-12
        assert abs(fit.intercept - math.log(3.0)) < 1e-12
        assert fit.r_squared > 1.0 - 1e-12
        assert np.max(np.abs(fit.residuals)) < 1e-12

    def test_negative_series(self):
        ts = self.ladder()
        fit = fit_power_law(make_series(ts, -2.0 * ts**0.4))
        assert abs(fit.exponent - 0.4) < 1e-12
        assert abs(fit.intercept - math.log(2.0)) < 1e-12

    def test_scale_invariance(self):
        ts = self.ladder()
        vals = 1.7 * ts**-0.31
        rng = np.random.default_rng(3)
        vals *= np.exp(0.05 * rng.standard_normal(ts.size))
        base = fit_power_law(make_series(ts, vals))
        scaled = fit_power_law(make_series(ts, 5.0 * vals))
        assert abs(scaled.exponent - base.exponent) < 1e-12
        assert abs(scaled.intercept - base.intercept - math.log(5.0)) < 1e-12
        assert 0.0 <= scaled.r_squared <= 1.0

    def test_default_window_ignores_long_maturities(self):
        ts = np.geomspace(0.004, 1.0, 24)
        vals = 3.0 * ts**-0.6
        vals[ts > 0.25] = 99.0  # corrupt outside the default window
        fit = fit_power_law(make_series(ts, vals))
        assert abs(fit.exponent - (-0.6)) < 1e-12

    def test_constant_series(self):
        ts = self.ladder()
        fit = fit_power_law(make_series(ts, np.full(ts.size, 2.5)))
        assert abs(fit.exponent) < 1e-12
        assert fit.r_squared == 1.0

    def test_errors(self):
        # three points inside FIT_WINDOW, then none
        for ts in (np.array([0.005, 0.006, 0.008, 0.5, 1.0]), np.array([0.5, 1.0, 2.0, 3.0])):
            with pytest.raises(ValueError, match="4 points"):
                fit_power_law(make_series(ts, ts**2))

    def test_one_sign_keeps_the_window(self):
        fit = fit_power_law(make_series(self.ladder(), np.full(12, -2.0)))
        assert fit.window == (0.0, 0.25)
        assert fit.residuals.size == 12

    @pytest.mark.parametrize("late", [-1.0, 0.0])
    def test_late_flip_or_zero_cuts_the_fit(self, late):
        ts = self.ladder()
        vals = 3.0 * ts**-0.6
        vals[5] = late
        vals[8] = -1.0  # beyond the cut, not read
        fit = fit_power_law(make_series(ts, vals))
        assert fit.exponent == pytest.approx(-0.6, abs=1e-12)
        assert fit.residuals.size == 5
        assert fit.window == (0.0, 0.5 * (ts[4] + ts[5]))

    @pytest.mark.parametrize("index", [0, 1, 3])
    @pytest.mark.parametrize("early", [-1.0, 0.0])
    def test_early_flip_or_zero_raises(self, index, early):
        ts = self.ladder()
        vals = 3.0 * ts**-0.6
        vals[index] = early
        with pytest.raises(ArithmeticError, match="'test' changes sign before four"):
            fit_power_law(make_series(ts, vals))

    @pytest.mark.parametrize("failed", [[0], [3], [7], [0, 4]])
    def test_nan_points_are_skipped_not_sign_changes(self, failed):
        # a failed maturity is a NaN point: the fit reads the finite ones and
        # keeps the window
        ts = np.geomspace(0.01, 0.2, 8)
        vals = 3.0 * ts**-0.6
        vals[failed] = np.nan
        fit = fit_power_law(make_series(ts, vals))
        assert fit.exponent == pytest.approx(-0.6, abs=1e-12)
        assert fit.residuals.size == 8 - len(failed)
        assert fit.window == (0.0, 0.25)

    def test_nan_points_do_not_count_towards_four(self):
        ts = np.geomspace(0.01, 0.2, 5)
        vals = 3.0 * ts**-0.6
        vals[2] = np.nan
        vals[4] = -1.0
        with pytest.raises(ArithmeticError, match="changes sign"):
            fit_power_law(make_series(ts, vals))
        vals[0] = np.nan
        with pytest.raises(ValueError, match="got 3"):
            fit_power_law(make_series(ts, vals))

    def test_sign_change_after_a_nan_point_still_cuts(self):
        ts = np.geomspace(0.01, 0.2, 8)
        vals = 3.0 * ts**-0.6
        vals[1], vals[6] = np.nan, -1.0
        fit = fit_power_law(make_series(ts, vals))
        assert fit.residuals.size == 5
        assert fit.window == (0.0, 0.5 * (ts[5] + ts[6]))

    def test_power_law_fit_validation(self):
        with pytest.raises(ValueError, match="r_squared"):
            PowerLawFit(
                exponent=1.0,
                intercept=0.0,
                r_squared=1.2,
                residuals=np.zeros(4),
                window=(0.0, 0.25),
            )
