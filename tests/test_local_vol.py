"""Local volatility tests: density weights, analytic skew, Dupire oracle."""

import math
import warnings

import numpy as np
import pytest

from roughvol._stats import delta_method
from roughvol.gaussian import SimGrid, simulate_joint_paths
from roughvol.models import RoughBergomiParams, bergomi_sigma_path
from roughvol.local_vol import (
    LowWeightWarning,
    dupire_local_vol_fd,
    grid_step_index,
    local_vol_curvature_fd,
    mixing_local_vol,
    mixing_local_vol_skew,
    mixing_price_grid,
)
from roughvol.pricing import (
    ConditionalLaw,
    bs_price,
    implied_curvature_fd,
    implied_skew_fd,
    mixing_smile_slice,
)

BERGOMI = RoughBergomiParams(s0=100.0, sigma0=0.3, nu=1.1, rho=-0.6, hurst=0.2)

_SIM_CACHE = {}


def _simulated(params, t=0.25, steps=64, paths=20000, seed=7):
    key = (params, t, steps, paths, seed)
    if key not in _SIM_CACHE:
        grid = SimGrid(t, steps)
        batch = simulate_joint_paths(grid, params.hurst, paths, seed)
        _SIM_CACHE[key] = bergomi_sigma_path(batch, params)
    return _SIM_CACHE[key]


class TestMixingLocalVol:
    def test_nu_zero_flat_exact(self):
        p = RoughBergomiParams(s0=100.0, sigma0=0.3, nu=0.0, rho=-0.5, hurst=0.3)
        sig = _simulated(p, paths=50)
        for k in (80.0, 100.0, 130.0):
            vol, se = mixing_local_vol(sig, p, 0.25, k)
            assert vol == 0.3 and se == 0.0

    def test_rho_zero_short_maturity_continuity(self):
        # local vol is continuous at (T, K) -> (0, S0); at T = 1e-3 the
        # remaining O(T^{2H}) drift sits below the MC noise at this size
        p = RoughBergomiParams(s0=100.0, sigma0=0.3, nu=1.1, rho=0.0, hurst=0.2)
        sig = _simulated(p, t=0.001, steps=32, paths=5000, seed=5)
        vol, se = mixing_local_vol(sig, p, 0.001, 100.0)
        assert abs(vol - 0.3) < 3.0 * se

    def test_level_positive_with_error(self):
        sig = _simulated(BERGOMI)
        vol, se = mixing_local_vol(sig, BERGOMI, 0.25, 100.0)
        assert vol > 0 and se > 0

    def test_low_ess_warns(self):
        sig = _simulated(BERGOMI, paths=2000, seed=3)
        with pytest.warns(LowWeightWarning, match="effective sample size"):
            mixing_local_vol(sig, BERGOMI, 0.25, 300.0)

    def test_no_mass_raises(self):
        # far enough out that the Gaussian kernel underflows on every path
        sig = _simulated(BERGOMI, paths=2000, seed=3)
        with pytest.raises(ValueError, match="density mass"):
            mixing_local_vol(sig, BERGOMI, 0.25, 1e60)

    def test_perfect_correlation_rejected(self):
        p = RoughBergomiParams(s0=100.0, sigma0=0.3, nu=0.5, rho=1.0, hurst=0.3)
        sig = _simulated(p, paths=200, seed=2)
        with pytest.raises(ValueError, match="rho"):
            mixing_local_vol(sig, p, 0.25, 100.0)

    def test_weight_normalization(self):
        # each path's conditional density integrates to one over strikes, so
        # the strike-quadrature of E[w] must return 1 up to truncation
        law = ConditionalLaw(_simulated(BERGOMI), BERGOMI, 0.25)
        ks = 100.0 * np.exp(np.linspace(-2.0, 2.0, 161))
        means = np.array([law.density(float(k))[:, 0].mean() for k in ks])
        integral = np.trapezoid(means, ks)
        assert abs(integral - 1.0) < 0.01


class TestMixingLocalVolSkew:
    def test_nu_zero(self):
        p = RoughBergomiParams(s0=100.0, sigma0=0.3, nu=0.0, rho=-0.5, hurst=0.3)
        sig = _simulated(p, paths=50)
        est = mixing_local_vol_skew(sig, p, 0.25, 100.0)
        assert est.value == 0.0 and est.std_error == 0.0
        assert est.method == "analytic"

    def test_negative_for_negative_rho(self):
        sig = _simulated(BERGOMI)
        est = mixing_local_vol_skew(sig, BERGOMI, 0.25, 100.0)
        assert est.value < 0
        assert abs(est.value) > 5.0 * est.std_error

    def test_matches_fd_of_level(self):
        # centered FD of the level at K +/- 0.01*S0 on the same paths
        sig = _simulated(BERGOMI)
        an = mixing_local_vol_skew(sig, BERGOMI, 0.25, 100.0)
        law = ConditionalLaw(sig, BERGOMI, 0.25)
        feats = np.hstack([law.density(101.0)[:, :2], law.density(99.0)[:, :2]])
        fd, fd_se = delta_method(
            feats, lambda m: 100.0 * (law.local_vol(m[:2]) - law.local_vol(m[2:])) / 2.0
        )
        assert abs(an.value - fd) < 3.0 * math.hypot(an.std_error, fd_se)

    def test_is_the_small_bump_limit_of_fd(self):
        # on fixed paths the FD-analytic gap is pure truncation: it must
        # scale as h^2, pinning the analytic formula as the h -> 0 limit
        law = ConditionalLaw(_simulated(BERGOMI), BERGOMI, 0.25)
        f0 = law.density(100.0)
        gaps = []
        for hk in (1.0, 0.5):
            fp = law.density(100.0 + hk)[:, :2]
            fm = law.density(100.0 - hk)[:, :2]
            feats = np.hstack([f0, fp, fm])

            def g(m, hk=hk):
                fd = 100.0 * (law.local_vol(m[4:6]) - law.local_vol(m[6:8])) / (2 * hk)
                return law.local_skew(m[:4], 100.0) - fd

            gap, _ = delta_method(feats, g)
            gaps.append(gap)
        assert gaps[1] == pytest.approx(gaps[0] / 4.0, rel=0.15)

    def test_one_half_rule_ratio(self):
        # H = 1/2: local skew ~ 2x implied skew at short maturity; bounds
        # allow the finite-T correction and the MC noise at this size
        p = RoughBergomiParams(s0=100.0, sigma0=0.3, nu=1.1, rho=-0.6, hurst=0.5)
        sig = _simulated(p, t=0.01, steps=64, paths=40000, seed=9)
        lv = mixing_local_vol_skew(sig, p, 0.01, 100.0)
        h = 0.01
        ks = [100.0 * math.exp(-h), 100.0, 100.0 * math.exp(h)]
        iv = implied_skew_fd(mixing_smile_slice(sig, p, 0.01, ks))
        assert lv.value < 0 and iv.value < 0
        assert 1.6 < lv.value / iv.value < 2.6


class TestLocalVolCurvatureFd:
    def test_nu_zero(self):
        p = RoughBergomiParams(s0=100.0, sigma0=0.3, nu=0.0, rho=-0.5, hurst=0.3)
        sig = _simulated(p, paths=50)
        est = local_vol_curvature_fd(sig, p, 0.25, 0.05)
        assert est.value == 0.0 and est.std_error == 0.0

    def test_rejects_bad_bump(self):
        sig = _simulated(BERGOMI)
        with pytest.raises(ValueError, match="bump"):
            local_vol_curvature_fd(sig, BERGOMI, 0.25, 0.0)

    def test_exact_on_linear_skew_stub(self, monkeypatch):
        # with the skew reader stubbed to a linear function of log-strike the
        # centered difference must return its slope exactly
        monkeypatch.setattr(
            ConditionalLaw, "local_skew", lambda self, m, k: -0.2 + 1.5 * math.log(k / 100.0)
        )
        sig = _simulated(BERGOMI, paths=500, seed=4)
        est = local_vol_curvature_fd(sig, BERGOMI, 0.25, 0.05)
        assert est.value == pytest.approx(1.5, abs=1e-10)
        assert est.std_error == pytest.approx(0.0, abs=1e-12)

    def test_local_curvature_exceeds_implied_at_short_maturity(self):
        # diffusive vol-of-vol model: the local smile bends more than the
        # implied smile near expiry
        p = RoughBergomiParams(s0=100.0, sigma0=0.3, nu=1.1, rho=-0.6, hurst=0.5)
        sig = _simulated(p, t=0.1, steps=64, paths=60000, seed=9)
        h = 0.1
        c_loc = local_vol_curvature_fd(sig, p, 0.1, h)
        ks = [100.0 * math.exp(-h), 100.0, 100.0 * math.exp(h)]
        c_imp = implied_curvature_fd(mixing_smile_slice(sig, p, 0.1, ks))
        assert c_loc.value - c_imp.value > 3.0 * math.hypot(
            c_loc.std_error, c_imp.std_error
        )


class TestDupire:
    def test_flat_black_scholes_grid(self):
        ts = np.array([0.245, 0.25, 0.255])
        ks = np.array([99.0, 100.0, 101.0])
        prices = np.array([[bs_price(100.0, k, t, 0.3) for k in ks] for t in ts])
        vol, se = dupire_local_vol_fd(prices, ts, ks)
        assert vol == pytest.approx(0.3, rel=1e-3)
        assert math.isnan(se)

    def test_nu_zero_grid_is_exact_flat(self):
        p = RoughBergomiParams(s0=100.0, sigma0=0.3, nu=0.0, rho=-0.6, hurst=0.2)
        sig = _simulated(p, paths=50)
        ts = np.array([0.145, 0.15, 0.155])
        ks = np.array([99.0, 100.0, 101.0])
        prices, cov = mixing_price_grid(sig, p, ts, ks)
        assert np.all(cov == 0.0)
        vol, _ = dupire_local_vol_fd(prices, ts, ks, cov)
        assert vol == pytest.approx(0.3, rel=1e-3)

    def test_butterfly_violation_rejected(self):
        ts = np.array([0.24, 0.25, 0.26])
        ks = np.array([95.0, 100.0, 105.0])
        prices = np.array([[bs_price(100.0, k, t, 0.3) for k in ks] for t in ts])
        prices[1, 1] = 0.5 * (prices[1, 0] + prices[1, 2]) + 1e-6
        with pytest.raises(ValueError, match="butterfly"):
            dupire_local_vol_fd(prices, ts, ks)

    def test_calendar_violation_rejected(self):
        ts = np.array([0.24, 0.25, 0.26])
        ks = np.array([95.0, 100.0, 105.0])
        prices = np.array([[bs_price(100.0, k, t, 0.3) for k in ks] for t in ts])
        prices[2, 1], prices[0, 1] = prices[0, 1], prices[2, 1]
        with pytest.raises(ValueError, match="calendar"):
            dupire_local_vol_fd(prices, ts, ks)

    def test_nonuniform_grids_rejected(self):
        prices = np.full((3, 3), 1.0)
        with pytest.raises(ValueError, match="uniform"):
            dupire_local_vol_fd(prices, [0.1, 0.2, 0.4], [95.0, 100.0, 105.0])
        with pytest.raises(ValueError, match="uniform"):
            dupire_local_vol_fd(prices, [0.1, 0.2, 0.3], [90.0, 100.0, 105.0])

    def test_grid_step_index(self):
        sig = _simulated(BERGOMI, t=0.32, steps=256, paths=50, seed=1)
        assert grid_step_index(sig, 0.32) == 256
        assert grid_step_index(sig, 0.16) == 128
        with pytest.raises(ValueError, match="grid"):
            grid_step_index(sig, 0.1601)
        with pytest.raises(ValueError, match="grid"):
            grid_step_index(sig, 0.5)

    def test_off_grid_maturity_rejected(self):
        sig = _simulated(BERGOMI, t=0.32, steps=256, paths=200, seed=1)
        with pytest.raises(ValueError, match="grid"):
            mixing_price_grid(sig, BERGOMI, [0.1, 0.2001, 0.3], [99.0, 100.0, 101.0])

    @pytest.mark.parametrize("hurst", [0.2, 0.5])
    def test_oracle_equivalence_grid(self, hurst):
        # the density-ratio estimator and the Dupire reader must agree on a
        # 3x3 grid of (T, K) centers; one sliced simulation supplies both
        p = RoughBergomiParams(s0=100.0, sigma0=0.3, nu=1.1, rho=-0.6, hurst=hurst)
        sig = _simulated(p, t=0.32, steps=256, paths=12000, seed=21)
        d_t, d_k = 0.01, 1.0
        for tc in (0.2, 0.25, 0.3):
            ts = np.array([tc - d_t, tc, tc + d_t])
            sub = sig.truncated(grid_step_index(sig, tc))
            for kc in (90.0, 100.0, 110.0):
                ks = np.array([kc - d_k, kc, kc + d_k])
                prices, cov = mixing_price_grid(sig, p, ts, ks)
                d_vol, d_se = dupire_local_vol_fd(prices, ts, ks, cov)
                m_vol, m_se = mixing_local_vol(sub, p, tc, kc)
                assert abs(m_vol - d_vol) < 3.0 * math.hypot(m_se, d_se), (
                    f"H={hurst} T={tc} K={kc}: mixing {m_vol:.5f}+-{m_se:.5f} "
                    f"vs Dupire {d_vol:.5f}+-{d_se:.5f}"
                )
