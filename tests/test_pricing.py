"""Pricing layer tests: Black-Scholes, implied vol, conditional estimators."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from roughvol._stats import delta_method, mean_and_se, weighted_level_fit
from roughvol.gaussian import SimGrid, simulate_joint_paths
from roughvol.models import RoughBergomiParams, SabrParams, bergomi_sigma_path
from roughvol.models import log_strike_convert, sabr_implied_vol, sabr_implied_vol_derivs
from roughvol.pricing import (
    ConditionalLaw,
    ImpliedVolBoundsError,
    SkewEstimate,
    SmileSlice,
    bs_d1_d2,
    bs_price,
    bs_vega,
    implied_curvature_fd,
    implied_skew_digital,
    implied_skew_fd,
    implied_vol,
    log_euler_call_price,
    log_euler_terminal,
    mc_digital,
    mixing_call_price,
    mixing_put_price,
    mixing_smile_slice,
)

BERGOMI = RoughBergomiParams(s0=100.0, sigma0=0.3, nu=1.1, rho=-0.6, hurst=0.2)

_SIM_CACHE = {}


def _simulated(params, t=0.25, steps=64, paths=20000, seed=7):
    """Cached (sigma path, batch) pair so expensive sims run once per config."""
    key = (params, t, steps, paths, seed)
    if key not in _SIM_CACHE:
        grid = SimGrid(t, steps)
        batch = simulate_joint_paths(grid, params.hurst, paths, seed)
        _SIM_CACHE[key] = (bergomi_sigma_path(batch, params), batch)
    return _SIM_CACHE[key]


# ---------------------------------------------------------------------------
# statistics helpers
# ---------------------------------------------------------------------------


class TestStats:
    def test_mean_and_se(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        m, se = mean_and_se(x)
        assert m == pytest.approx(2.5)
        assert se == pytest.approx(x.std(ddof=1) / 2.0)

    def test_delta_method_identity_matches_mean_and_se(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(500, 1))
        v, se = delta_method(x, lambda m: m[0])
        m, se_ref = mean_and_se(x[:, 0])
        assert v == pytest.approx(m)
        assert se == pytest.approx(se_ref, rel=1e-6)

    def test_delta_method_affine_exact(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(400, 3))
        a = np.array([2.0, -1.0, 0.5])
        v, se = delta_method(feats, lambda m: float(a @ m) + 3.0)
        cov = np.cov(feats, rowvar=False) / 400
        assert v == pytest.approx(a @ feats.mean(axis=0) + 3.0)
        assert se == pytest.approx(math.sqrt(a @ cov @ a), rel=1e-6)

    def test_delta_method_ratio(self):
        # SE of a ratio matches the classical first-order formula.
        rng = np.random.default_rng(2)
        feats = np.column_stack(
            [3.0 + 0.1 * rng.normal(size=2000), 2.0 + 0.1 * rng.normal(size=2000)]
        )
        v, se = delta_method(feats, lambda m: m[0] / m[1])
        mu = feats.mean(axis=0)
        cov = np.cov(feats, rowvar=False) / 2000
        grad = np.array([1.0 / mu[1], -mu[0] / mu[1] ** 2])
        assert v == pytest.approx(mu[0] / mu[1])
        assert se == pytest.approx(math.sqrt(grad @ cov @ grad), rel=1e-5)

    def test_weighted_level_fit_recovers_exact_model(self):
        t = np.array([0.01, 0.02, 0.05, 0.1, 0.2])
        vals = 0.7 + 1.3 * t**0.4
        level, se = weighted_level_fit(t, vals, np.full(5, 0.01), powers=(0.4,))
        assert level == pytest.approx(0.7, abs=1e-12)
        assert se > 0

    def test_weighted_level_fit_constant_se(self):
        # Constant model, equal weights: SE of the level is se / sqrt(n).
        vals = np.full(9, 2.0)
        level, se = weighted_level_fit(np.linspace(1, 2, 9), vals, np.full(9, 0.3), powers=())
        assert level == pytest.approx(2.0)
        assert se == pytest.approx(0.3 / 3.0, rel=1e-12)

    def test_weighted_level_fit_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            weighted_level_fit([1.0, 2.0], [1.0, 2.0], [0.1, 0.1], powers=(1.0,))
        with pytest.raises(ValueError):
            weighted_level_fit([1, 2, 3, 4], [1, 2, 3, 4], [0.1, 0.0, 0.1, 0.1])


# ---------------------------------------------------------------------------
# Black-Scholes primitives
# ---------------------------------------------------------------------------


class TestBlackScholes:
    def test_known_atm_value(self):
        # 100 * (2 * ndtr(0.15) - 1)
        assert bs_price(100.0, 100.0, 1.0, 0.3) == pytest.approx(11.923538474048499, rel=1e-12)

    def test_zero_vol_is_payoff(self):
        got = bs_price(100.0, np.array([80.0, 100.0, 120.0]), 0.5, 0.0)
        np.testing.assert_allclose(got, [20.0, 0.0, 0.0])

    def test_monotone_in_vol_and_strike(self):
        sigmas = np.linspace(0.05, 1.5, 30)
        prices = bs_price(100.0, 110.0, 0.5, sigmas)
        assert np.all(np.diff(prices) > 0)
        strikes = np.linspace(50.0, 200.0, 40)
        assert np.all(np.diff(bs_price(100.0, strikes, 0.5, 0.3)) < 0)

    def test_d1_d2_gap(self):
        d1, d2 = bs_d1_d2(100.0, 90.0, 0.25, 0.4)
        assert d1 - d2 == pytest.approx(0.4 * 0.5)

    def test_vega_matches_finite_difference(self):
        h = 1e-6
        for k in (80.0, 100.0, 125.0):
            fd = (bs_price(100.0, k, 0.7, 0.3 + h) - bs_price(100.0, k, 0.7, 0.3 - h)) / (2 * h)
            assert bs_vega(100.0, k, 0.7, 0.3) == pytest.approx(fd, rel=1e-7)

    def test_price_bounds(self):
        s, k = 100.0, 70.0
        p = bs_price(s, k, 2.0, 0.8)
        assert max(s - k, 0.0) < p < s


class TestImpliedVol:
    def test_atm_round_trip(self):
        price = bs_price(100.0, 100.0, 0.25, 0.3)
        assert implied_vol(price, 100.0, 100.0, 0.25) == pytest.approx(0.3, abs=1e-10)

    def test_round_trip_grid(self):
        # The vol information lives in the time value. Nodes are skipped when
        # |d1| > 8 (price within ulps of its bound) or when the time value is
        # below 1e-7 of the price (cancellation against the intrinsic part
        # caps the recoverable precision). 75 of the 100 nodes remain.
        for sigma in (0.05, 0.1, 0.3, 0.8, 2.0):
            for m in (0.5, 0.8, 1.0, 1.2, 2.0):
                for t in (0.01, 0.25, 1.0, 2.0):
                    s, k = 100.0, 100.0 * m
                    d1, _ = bs_d1_d2(s, k, t, sigma)
                    price = bs_price(s, k, t, sigma)
                    if abs(d1) > 8.0 or price - max(s - k, 0.0) < 1e-7 * price:
                        continue
                    iv = implied_vol(price, s, k, t)
                    assert iv == pytest.approx(sigma, rel=1e-8, abs=1e-10)
                    assert abs(bs_price(s, k, t, iv) - price) < 1e-12 * s

    def test_deep_otm_stress(self):
        s, k, t = 100.0, 200.0, 0.25
        price = 1e-6 * s
        iv = implied_vol(price, s, k, t)
        assert 0.0 < iv < 5.0
        assert abs(bs_price(s, k, t, iv) - price) < 1e-12 * s

    def test_bounds_errors_name_the_bound(self):
        with pytest.raises(ImpliedVolBoundsError, match="intrinsic"):
            implied_vol(5.0, 100.0, 95.0, 0.5)
        with pytest.raises(ImpliedVolBoundsError, match="spot"):
            implied_vol(100.0, 100.0, 95.0, 0.5)
        with pytest.raises(ImpliedVolBoundsError, match="intrinsic"):
            implied_vol(0.0, 100.0, 120.0, 0.5)

    def test_rejects_nonsense_inputs(self):
        with pytest.raises(ValueError):
            implied_vol(5.0, 100.0, 100.0, -0.5)
        with pytest.raises(ValueError):
            implied_vol(math.nan, 100.0, 100.0, 0.5)


# ---------------------------------------------------------------------------
# conditional estimators
# ---------------------------------------------------------------------------


class TestMixingEstimators:
    def test_maturity_must_match_grid(self):
        sig, _ = _simulated(BERGOMI)
        with pytest.raises(ValueError, match="beyond"):
            mixing_call_price(sig, BERGOMI, 0.5, 100.0)

    def test_put_call_parity_and_martingale(self):
        sig, _ = _simulated(BERGOMI)
        k = 110.0
        call, _ = mixing_call_price(sig, BERGOMI, 0.25, k)
        put, _ = mixing_put_price(sig, BERGOMI, 0.25, k)
        v = sig.total_var()
        m = sig.total_sdw()
        s_eff = BERGOMI.s0 * np.exp(BERGOMI.rho * m - 0.5 * BERGOMI.rho**2 * v)
        mean_eff, se_eff = mean_and_se(s_eff)
        # parity holds path by path, hence exactly for the averages
        assert call - put == pytest.approx(mean_eff - k, abs=1e-9)
        # the effective spot is an exact martingale up to MC error
        assert abs(mean_eff - BERGOMI.s0) < 3.0 * se_eff

    def test_nu_zero_is_exact(self):
        p = RoughBergomiParams(s0=100.0, sigma0=0.3, nu=0.0, rho=-0.6, hurst=0.2)
        sig, _ = _simulated(p, paths=50)
        price, se = mixing_call_price(sig, p, 0.25, 105.0)
        assert se == 0.0
        assert price == pytest.approx(bs_price(100.0, 105.0, 0.25, 0.3), rel=1e-14)
        prob, se_d = mc_digital(sig, p, 0.25, 100.0)
        assert se_d == 0.0
        assert prob == pytest.approx(ndtr(-0.3 * 0.5 / 2.0), rel=1e-14)
        sl = mixing_smile_slice(sig, p, 0.25, [95.0, 100.0, 105.0])
        np.testing.assert_allclose(sl.vols, 0.3)
        np.testing.assert_allclose(sl.std_errors, 0.0)
        assert implied_skew_digital(sig, p, 0.25).value == pytest.approx(0.0, abs=1e-12)

    def test_digital_matches_indicator_when_uncorrelated(self):
        p = RoughBergomiParams(s0=100.0, sigma0=0.3, nu=1.1, rho=0.0, hurst=0.2)
        sig, batch = _simulated(p, paths=40000)
        prob, se = mc_digital(sig, p, 0.25, 100.0)
        s_t = log_euler_terminal(sig, batch, p)
        ind, se_ind = mean_and_se((s_t > 100.0).astype(float))
        assert abs(prob - ind) < 3.0 * math.hypot(se, se_ind)
        # conditioning must not lose accuracy but should cut the error
        assert se < se_ind

    def test_call_agrees_with_log_euler(self):
        p = RoughBergomiParams(s0=100.0, sigma0=0.3, nu=1.1, rho=-0.6, hurst=0.5)
        sig, batch = _simulated(p, t=0.1, steps=64, paths=40000, seed=11)
        mix, se_mix = mixing_call_price(sig, p, 0.1, 100.0)
        raw, se_raw = log_euler_call_price(sig, batch, p, 100.0)
        assert abs(mix - raw) < 3.0 * math.hypot(se_mix, se_raw)
        assert se_mix < se_raw

    def test_digital_bounds_and_strike_monotonicity(self):
        sig, _ = _simulated(BERGOMI)
        probs = []
        for k in (80.0, 100.0, 125.0):
            prob, se = mc_digital(sig, BERGOMI, 0.25, k)
            assert 0.0 < prob < 1.0
            assert se > 0
            probs.append(prob)
        assert probs[0] > probs[1] > probs[2]

    def test_perfect_correlation_collapses_residual(self):
        p = RoughBergomiParams(s0=100.0, sigma0=0.3, nu=0.5, rho=-1.0, hurst=0.3)
        sig, _ = _simulated(p, paths=4000)
        price, se = mixing_call_price(sig, p, 0.25, 100.0)
        v = sig.total_var()
        m = sig.total_sdw()
        s_eff = p.s0 * np.exp(-m - 0.5 * v)
        expect = np.maximum(s_eff - 100.0, 0.0).mean()
        assert price == pytest.approx(expect, rel=1e-12)
        prob, _ = mc_digital(sig, p, 0.25, 100.0)
        assert prob == pytest.approx((s_eff > 100.0).mean(), abs=1e-12)

    def test_rejects_bad_strike(self):
        sig, _ = _simulated(BERGOMI)
        with pytest.raises(ValueError, match="strike"):
            mixing_call_price(sig, BERGOMI, 0.25, -5.0)


# ---------------------------------------------------------------------------
# smile slices and finite differences
# ---------------------------------------------------------------------------


def _quadratic_slice(a, b, c, k_center=100.0, h=0.05, t=0.25, cov=None):
    ks = k_center * np.exp(np.array([-h, 0.0, h]))
    x = np.log(ks / k_center)
    vols = a + b * x + c * x**2
    ses = np.full(3, 1e-3)
    return SmileSlice(maturity=t, strikes=ks, vols=vols, std_errors=ses, vol_cov=cov)


class TestSmileSlice:
    def test_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            SmileSlice(0.25, [100.0, 90.0, 110.0], [0.3] * 3, [0.0] * 3)
        with pytest.raises(ValueError, match="positive"):
            SmileSlice(0.25, [90.0, 100.0, 110.0], [0.3, -0.1, 0.3], [0.0] * 3)
        with pytest.raises(ValueError, match="symmetric"):
            SmileSlice(
                0.25,
                [90.0, 100.0, 110.0],
                [0.3] * 3,
                [0.0] * 3,
                vol_cov=np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            )

    def test_fd_exact_on_quadratics(self):
        sl = _quadratic_slice(a=0.3, b=-0.21, c=0.8)
        assert implied_skew_fd(sl).value == pytest.approx(-0.21, abs=1e-12)
        assert implied_curvature_fd(sl).value == pytest.approx(1.6, abs=1e-10)

    def test_fd_rejects_nonuniform_spacing(self):
        ks = [90.0, 100.0, 111.0]
        sl = SmileSlice(0.25, ks, [0.32, 0.3, 0.31], [1e-3] * 3)
        with pytest.raises(ValueError, match="uniform"):
            implied_skew_fd(sl)

    def test_fd_needs_three_strikes(self):
        sl = SmileSlice(0.25, [90.0, 100.0], [0.31, 0.3], [1e-3] * 2)
        with pytest.raises(ValueError, match="three"):
            implied_skew_fd(sl)

    def test_common_noise_cancels_in_skew_error(self):
        # Fully correlated noise shifts all three vols together, so the
        # centered difference removes it; the diagonal reading keeps it.
        cov = np.full((3, 3), 1e-6)
        sl = _quadratic_slice(0.3, -0.2, 0.5, cov=cov)
        assert implied_skew_fd(sl).std_error == pytest.approx(0.0, abs=1e-12)
        sl_diag = _quadratic_slice(0.3, -0.2, 0.5, cov=np.diag(np.full(3, 1e-6)))
        assert implied_skew_fd(sl_diag).std_error > 0

    def test_fd_converges_on_smooth_smile(self):
        sabr = SabrParams(alpha=0.3, nu=0.6, rho=-0.6, s0=100.0)
        t = 0.5
        dk, dkk = sabr_implied_vol_derivs(100.0, t, sabr)
        skew_exact, _ = log_strike_convert(dk, dkk, 100.0)
        errs = []
        for h in (0.02, 0.01):
            ks = 100.0 * np.exp(np.array([-h, 0.0, h]))
            vols = np.array([sabr_implied_vol(float(k), t, sabr) for k in ks])
            sl = SmileSlice(t, ks, vols, np.full(3, 1e-6))
            errs.append(abs(implied_skew_fd(sl).value - skew_exact))
        assert errs[0] < 1e-4
        assert errs[1] < errs[0] / 3.0  # second-order shrink

    def test_simulated_slice_consistency(self):
        sig, _ = _simulated(BERGOMI)
        h = 0.02
        ks = [100.0 * math.exp(-h), 100.0, 100.0 * math.exp(h)]
        sl = mixing_smile_slice(sig, BERGOMI, 0.25, ks)
        assert sl.vol_cov is not None
        assert np.all(sl.std_errors > 0)
        assert np.all(np.linalg.eigvalsh(sl.vol_cov) > -1e-18)
        # the ATM vol equals the one-strike inversion
        price, _ = mixing_call_price(sig, BERGOMI, 0.25, 100.0)
        assert sl.vols[1] == pytest.approx(implied_vol(price, 100.0, 100.0, 0.25), abs=1e-12)

    def test_digital_and_fd_skew_agree(self):
        sig, _ = _simulated(BERGOMI)
        dig = implied_skew_digital(sig, BERGOMI, 0.25)
        h = 0.01
        ks = [100.0 * math.exp(-h), 100.0, 100.0 * math.exp(h)]
        sl = mixing_smile_slice(sig, BERGOMI, 0.25, ks)
        fd = implied_skew_fd(sl)
        assert dig.method == "digital"
        assert fd.method == "finite-difference"
        # same target up to O(h^2) bias, which is far below the MC noise here
        assert abs(dig.value - fd.value) < 4.0 * math.hypot(dig.std_error, fd.std_error) + 5e-4
        assert dig.value < 0  # negative skew for rho < 0

    @pytest.mark.parametrize("t", [0.004, 0.05, 1.0])
    def test_digital_skew_error_is_joint_over_call_and_digital(self, t):
        # the skew K (N(d2(I)) - D) / vega(I) reads the implied vol I of the
        # call mean, so its error is the delta method over (call, digital);
        # here with the analytic gradient: dN(d2)/dI = -phi(d2) sqrt(t) / 2 at
        # the money and dvega/dI = vega d1 d2 / I
        sig, _ = _simulated(BERGOMI, t=t, steps=32)
        est = implied_skew_digital(sig, BERGOMI, t)
        law = ConditionalLaw(sig, BERGOMI, t)
        feats = np.column_stack([law.call(100.0), law.digital(100.0)])
        call, digital = feats.mean(axis=0)
        cov = np.cov(feats, rowvar=False) / feats.shape[0]
        iv = implied_vol(call, 100.0, 100.0, t)
        vega = bs_vega(100.0, 100.0, t, iv)
        d1, d2 = (float(d) for d in bs_d1_d2(100.0, 100.0, t, iv))
        phi2 = math.exp(-0.5 * d2 * d2) / math.sqrt(2.0 * math.pi)
        ds_di = 100.0 * (-phi2 * math.sqrt(t) / 2.0 - (ndtr(d2) - digital) * d1 * d2 / iv) / vega
        grad = np.array([ds_di / vega, -100.0 / vega])
        assert est.std_error == pytest.approx(math.sqrt(grad @ cov @ grad), rel=1e-9)
        # the digital-only error misses the noise of the fitted implied vol
        assert est.std_error > 100.0 * math.sqrt(cov[1, 1]) / vega

    def test_skew_estimate_validation(self):
        with pytest.raises(ValueError):
            SkewEstimate(maturity=-1.0, value=0.1, std_error=0.0, method="digital")
        with pytest.raises(ValueError):
            SkewEstimate(maturity=0.25, value=math.inf, std_error=0.0, method="digital")
        with pytest.raises(ValueError):
            SkewEstimate(maturity=0.25, value=0.1, std_error=math.inf, method="digital")
