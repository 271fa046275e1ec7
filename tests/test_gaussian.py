import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from roughvol import gaussian
from roughvol.gaussian import (
    SimGrid,
    orthogonal_increments,
    simulate_joint_paths,
    volterra_autocovariance,
    volterra_autocovariance_quad,
    volterra_cross_covariance,
)


class TestSimGrid:
    def test_uniform_grid_ends_at_maturity(self):
        g = SimGrid(0.5, 8)
        assert g.times[0] == pytest.approx(0.0625)
        assert g.times[-1] == 0.5
        assert np.all(np.diff(g.times) > 0)
        np.testing.assert_allclose(np.diff(g.times), g.dt)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            SimGrid(-1.0, 8)
        with pytest.raises(ValueError):
            SimGrid(1.0, 0)
        with pytest.raises(ValueError):
            SimGrid(math.nan, 8)

    def test_times_are_read_only(self):
        g = SimGrid(1.0, 4)
        with pytest.raises(ValueError):
            g.times[0] = 99.0


class TestVolterraAutocovariance:
    def test_brownian_case_is_min(self):
        # kernel is identically 1 at H = 1/2
        assert volterra_autocovariance(1.0, 1.0, 0.5) == pytest.approx(1.0, abs=1e-14)
        assert volterra_autocovariance(2.0, 1.0, 0.5) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("tau", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("H", [0.2, 0.5, 0.8])
    def test_equal_times_closed_form(self, tau, H):
        assert volterra_autocovariance(tau, tau, H) == pytest.approx(
            tau ** (2 * H) / (2 * H), rel=1e-12
        )

    @pytest.mark.parametrize(
        "t,s,H",
        [(1.0, 0.3, 0.2), (0.25, 0.2, 0.35), (3.0, 2.9, 0.45), (1.0, 0.999, 0.1), (2.0, 0.1, 0.9)],
    )
    def test_matches_adaptive_quadrature(self, t, s, H):
        cf = volterra_autocovariance(t, s, H)
        q = volterra_autocovariance_quad(t, s, H)
        assert cf == pytest.approx(q, rel=1e-10)

    @given(
        t=st.floats(0.01, 5.0),
        s=st.floats(0.01, 5.0),
        H=st.floats(0.05, 0.95),
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_positive(self, t, s, H):
        a = volterra_autocovariance(t, s, H)
        b = volterra_autocovariance(s, t, H)
        assert a == pytest.approx(b, rel=1e-12)
        assert a > 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            volterra_autocovariance(math.inf, 1.0, 0.3)
        with pytest.raises(ValueError):
            volterra_autocovariance(1.0, math.nan, 0.3)
        with pytest.raises(ValueError):
            volterra_autocovariance(1.0, 1.0, 1.5)


class TestVolterraCrossCovariance:
    def test_brownian_case(self):
        assert volterra_cross_covariance(1.0, 1.0, 0.5) == pytest.approx(1.0, abs=1e-14)

    def test_rough_equal_times(self):
        assert volterra_cross_covariance(1.0, 1.0, 0.2) == pytest.approx(1 / 0.7, rel=1e-12)

    def test_vanishing_window(self):
        for H in (0.2, 0.5, 0.8):
            assert volterra_cross_covariance(1.0, 0.0, H) == 0.0
            assert volterra_cross_covariance(1.0, 1e-12, H) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("t,s,H", [(1.0, 0.4, 0.2), (0.5, 0.5, 0.7), (0.3, 1.0, 0.45)])
    def test_matches_direct_kernel_integral(self, t, s, H):
        # Cov(W^H_t, W_s) = int_0^{min(t,s)} (t-u)^{H-1/2} du
        from scipy.integrate import quad

        ref, _ = quad(lambda u: (t - u) ** (H - 0.5), 0.0, min(t, s), epsrel=1e-12)
        assert volterra_cross_covariance(t, s, H) == pytest.approx(ref, rel=1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            volterra_cross_covariance(math.nan, 1.0, 0.3)
        with pytest.raises(ValueError):
            volterra_cross_covariance(1.0, -0.5, 0.3)


class TestSimulateJointPaths:
    def test_h_half_reduces_to_cumsum(self):
        # maturity chosen so dt is not a binary fraction
        g = SimGrid(0.1, 100)
        b = simulate_joint_paths(g, 0.5, 500, seed=11)
        assert np.max(np.abs(b.wh - np.cumsum(b.dW, axis=1))) < 1e-10

    def test_same_seed_bit_identical(self):
        g = SimGrid(1.0, 32)
        a = simulate_joint_paths(g, 0.3, 300, seed=123)
        b = simulate_joint_paths(g, 0.3, 300, seed=123)
        assert np.array_equal(a.dW, b.dW)
        assert np.array_equal(a.wh, b.wh)

    def test_path_i_independent_of_batch_size(self):
        g = SimGrid(1.0, 16)
        small = simulate_joint_paths(g, 0.2, 10, seed=5)
        large = simulate_joint_paths(g, 0.2, 9000, seed=5)
        assert np.array_equal(small.wh, large.wh[:10])
        assert np.array_equal(small.dW, large.dW[:10])

    def test_different_seeds_differ(self):
        g = SimGrid(1.0, 16)
        a = simulate_joint_paths(g, 0.2, 10, seed=1)
        b = simulate_joint_paths(g, 0.2, 10, seed=2)
        assert not np.array_equal(a.wh, b.wh)

    @pytest.mark.parametrize("H", [0.2, 0.5])
    def test_moments_match_theory(self, H):
        g = SimGrid(1.0, 32)
        n = 100_000
        b = simulate_joint_paths(g, H, n, seed=2024)
        for idx in (7, 31):
            t = g.times[idx]
            x = b.wh[:, idx]
            target_var = t ** (2 * H) / (2 * H)
            se_mean = x.std() / math.sqrt(n)
            assert abs(x.mean()) < 3 * se_mean
            # Gaussian sampling error of the variance estimator
            se_var = target_var * math.sqrt(2.0 / (n - 1))
            assert abs(x.var() - target_var) < 3 * se_var

    def test_cross_covariance_matches_formula(self):
        g = SimGrid(1.0, 16)
        H = 0.3
        n = 100_000
        b = simulate_joint_paths(g, H, n, seed=77)
        w = np.cumsum(b.dW, axis=1)
        for i, j in [(15, 7), (7, 15), (10, 10)]:
            t, s = g.times[i], g.times[j]
            x, y = b.wh[:, i], w[:, j]
            emp = np.mean(x * y) - x.mean() * y.mean()
            ref = volterra_cross_covariance(t, s, H)
            se = math.sqrt((x.var() * y.var() + emp**2) / n)
            assert abs(emp - ref) < 3 * se

    def test_autocovariance_matches_formula(self):
        g = SimGrid(1.0, 16)
        H = 0.2
        n = 100_000
        b = simulate_joint_paths(g, H, n, seed=99)
        for i, j in [(15, 3), (8, 12)]:
            x, y = b.wh[:, i], b.wh[:, j]
            emp = np.mean(x * y) - x.mean() * y.mean()
            ref = volterra_autocovariance(g.times[i], g.times[j], H)
            se = math.sqrt((x.var() * y.var() + emp**2) / n)
            assert abs(emp - ref) < 3 * se

    @pytest.mark.parametrize("H", [0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9])
    def test_factorization_needs_at_most_one_jitter_pass(self, H):
        g = SimGrid(1.0, 128)
        b = simulate_joint_paths(g, H, 2, seed=3)
        assert b.factorization in ("cholesky", "cholesky+jitter", "degenerate")
        if b.factorization == "cholesky+jitter":
            assert b.jitter > 0.0
        else:
            assert b.jitter == 0.0

    def test_step_cap_enforced(self):
        g = SimGrid(1.0, 4096)
        with pytest.raises(ValueError, match="cap"):
            simulate_joint_paths(g, 0.3, 2, seed=0)

    def test_rejects_bad_hurst_and_counts(self):
        g = SimGrid(1.0, 8)
        with pytest.raises(ValueError):
            simulate_joint_paths(g, 0.0, 2, seed=0)
        with pytest.raises(ValueError):
            simulate_joint_paths(g, 1.0, 2, seed=0)
        with pytest.raises(ValueError):
            simulate_joint_paths(g, 0.3, 0, seed=0)

    def test_outputs_read_only(self):
        g = SimGrid(1.0, 8)
        b = simulate_joint_paths(g, 0.3, 4, seed=0)
        with pytest.raises(ValueError):
            b.wh[0, 0] = 1.0


class TestUnitGridFactors:
    @pytest.mark.parametrize("n", [16, 128])
    @pytest.mark.parametrize("H", [0.02, 0.2, 0.5, 0.98])
    @pytest.mark.parametrize("T", [0.004, 0.05, 1.0, 3.0])
    def test_scaled_factors_match_direct_build(self, T, H, n):
        grid = SimGrid(T, n)
        A = gaussian._cross_with_increments(grid.times, H)
        cov_hh = gaussian._autocov_matrix(grid.times, H)
        coef = A / grid.dt
        L, method, jitter = gaussian._factor_conditional(
            cov_hh - coef @ A.T, float(np.max(np.diag(cov_hh)))
        )
        s_coef, s_L, s_method, s_jitter = gaussian._grid_factors(grid, H)
        assert s_method == method
        assert method == ("degenerate" if H == 0.5 else "cholesky")
        assert s_jitter == pytest.approx(jitter, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(s_coef, coef, rtol=1e-12, atol=0.0)
        # L is compared through the covariance it draws, in units of
        # Var(W^H_T): at H = 0.98 the conditional covariance is so badly
        # conditioned that round-off of the direct build alone moves single
        # entries of L by ~1e-10 of max |L|.
        var_scale = T ** (2 * H) / (2 * H)
        assert np.max(np.abs(s_L @ s_L.T - L @ L.T)) <= 1e-12 * var_scale

    @pytest.mark.parametrize("H", [0.02, 0.2, 0.5, 0.98])
    def test_autocov_triangle_is_bitwise_the_full_formula(self, H):
        times = SimGrid(0.37, 200).times
        a = H + 0.5
        lo = np.minimum(times[:, None], times[None, :])
        hi = np.maximum(times[:, None], times[None, :])
        full = lo**a * hi ** (H - 0.5) / a * special.hyp2f1(0.5 - H, 1.0, a + 1.0, lo / hi)
        np.fill_diagonal(full, times ** (2.0 * H) / (2.0 * H))
        full = 0.5 * (full + full.T)
        assert np.array_equal(gaussian._autocov_matrix(times, H), full)

    def test_one_factorization_per_steps_and_hurst(self, monkeypatch):
        monkeypatch.setattr(gaussian, "_FACTOR_CACHE", {})
        calls = []
        real = gaussian._factor_conditional

        def counting(cond, scale):
            calls.append(cond.shape)
            return real(cond, scale)

        monkeypatch.setattr(gaussian, "_factor_conditional", counting)
        for T in (0.01, 0.3, 2.0):
            simulate_joint_paths(SimGrid(T, 32), 0.3, 2, seed=0)
        assert calls == [(32, 32)]
        simulate_joint_paths(SimGrid(0.3, 16), 0.3, 2, seed=0)
        simulate_joint_paths(SimGrid(0.3, 32), 0.4, 2, seed=0)
        assert calls == [(32, 32), (16, 16), (32, 32)]

    @pytest.mark.parametrize("H", [0.02, 0.98])
    def test_extreme_hurst_at_the_step_cap(self, H):
        # Volterra moments of W^H_T at the 2048-step cap, 4096 paths (one block)
        grid = SimGrid(1.0, 2048)
        batch = simulate_joint_paths(grid, H, 4096, seed=2048)
        assert batch.factorization == "cholesky"
        assert batch.jitter == 0.0
        wh_t = batch.wh[:, -1]
        w_t = batch.dW.sum(axis=1)
        for sample, target in (
            (wh_t**2, grid.maturity ** (2 * H) / (2 * H)),
            (wh_t * w_t, volterra_cross_covariance(grid.maturity, grid.maturity, H)),
        ):
            z = (sample.mean() - target) / (sample.std(ddof=1) / math.sqrt(sample.size))
            assert abs(z) < 4.0


class TestOrthogonalIncrements:
    def test_deterministic_and_shaped(self):
        g = SimGrid(0.5, 16)
        a = orthogonal_increments(g, 100, seed=42)
        b = orthogonal_increments(g, 100, seed=42)
        assert np.array_equal(a, b)
        assert a.shape == (100, 16)

    def test_independent_of_joint_leg(self):
        g = SimGrid(1.0, 8)
        n = 50_000
        batch = simulate_joint_paths(g, 0.3, n, seed=42)
        db = orthogonal_increments(g, n, seed=42)
        # same master seed, separate stream: correlation compatible with 0
        x, y = batch.dW[:, 0], db[:, 0]
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 3 / math.sqrt(n)

    def test_variance_is_dt(self):
        g = SimGrid(1.0, 4)
        db = orthogonal_increments(g, 50_000, seed=9)
        se = g.dt * math.sqrt(2.0 / (db.shape[0] - 1))
        assert abs(db[:, 2].var() - g.dt) < 3 * se
