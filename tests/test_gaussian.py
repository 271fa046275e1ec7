import ctypes
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from oracles import orthogonal_increments, volterra_autocovariance_quad
from roughvol import gaussian
from roughvol.experiments import _INT_RANGES
from roughvol.gaussian import SimGrid, simulate_joint_paths, volterra_cross_covariance

# kernel of the triangular products: TRMM where the loaded OpenBLAS binds it
TRIANGULAR = "trmm" if gaussian._openblas()[1] else "gemm"


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
    """The closed form the engine factors, ``_autocov_matrix`` on increasing times."""

    def test_brownian_case_is_min(self):
        # kernel is identically 1 at H = 1/2
        cov = gaussian._autocov_matrix(np.array([1.0, 2.0]), 0.5)
        np.testing.assert_allclose(cov, [[1.0, 1.0], [1.0, 2.0]], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("tau", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("H", [0.2, 0.5, 0.8])
    def test_equal_times_closed_form(self, tau, H):
        cov = gaussian._autocov_matrix(np.array([0.5 * tau, tau]), H)
        assert cov[1, 1] == pytest.approx(tau ** (2 * H) / (2 * H), rel=1e-12)
        assert cov[1, 1] == pytest.approx(volterra_autocovariance_quad(tau, tau, H), rel=1e-10)

    @pytest.mark.parametrize(
        "t,s,H",
        [(1.0, 0.3, 0.2), (0.25, 0.2, 0.35), (3.0, 2.9, 0.45), (1.0, 0.999, 0.1), (2.0, 0.1, 0.9)],
    )
    def test_matches_adaptive_quadrature(self, t, s, H):
        cf = gaussian._autocov_matrix(np.array([s, t]), H)[0, 1]
        q = volterra_autocovariance_quad(t, s, H)
        assert cf == pytest.approx(q, rel=1e-10)

    @given(
        t=st.floats(0.01, 5.0),
        s=st.floats(0.01, 5.0),
        H=st.floats(0.05, 0.95),
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_positive(self, t, s, H):
        cov = gaussian._autocov_matrix(np.unique([t, s]), H)
        np.testing.assert_array_equal(cov, cov.T)
        assert np.all(cov > 0.0)


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

    # a last block of a few rows would take other BLAS kernels (gemv at one
    # row, a small-matrix kernel at a few more) unless padded to full height
    @pytest.mark.parametrize("n_steps", [8, 64, 256])
    @pytest.mark.parametrize("tail", [1, 2, 3, 17])
    @pytest.mark.parametrize("H", [0.2, 0.5])
    def test_short_last_block_is_the_rows_of_the_full_block(self, H, tail, n_steps):
        g = SimGrid(0.05, n_steps)
        short = simulate_joint_paths(g, H, 4096 + tail, seed=7)
        full = simulate_joint_paths(g, H, 2 * 4096, seed=7)
        assert short.dW.tobytes() == full.dW[: 4096 + tail].tobytes()
        assert short.wh.tobytes() == full.wh[: 4096 + tail].tobytes()

    # a group ends on a block boundary or at the last path, as in the runners
    @pytest.mark.parametrize("first_block,n_paths", [(1, 4096), (2, 4096 + 7), (3, 7)])
    @pytest.mark.parametrize("H", [0.2, 0.5])
    def test_group_is_the_rows_of_the_full_batch(self, H, first_block, n_paths):
        g = SimGrid(0.3, 8)
        full = simulate_joint_paths(g, H, 3 * 4096 + 7, seed=17)
        group = simulate_joint_paths(g, H, n_paths, seed=17, first_block=first_block)
        rows = slice(first_block * 4096, first_block * 4096 + n_paths)
        assert group.first_block == first_block
        assert group.dW.tobytes() == full.dW[rows].tobytes()
        assert group.wh.tobytes() == full.wh[rows].tobytes()
        # the orthogonal leg of the same rows
        ortho = orthogonal_increments(g, n_paths, seed=17, first_block=first_block)
        assert ortho.tobytes() == orthogonal_increments(g, 3 * 4096 + 7, seed=17)[rows].tobytes()

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
            ref = gaussian._autocov_matrix(g.times, H)[i, j]
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
        # one cap, read by the engine and by the config's n_steps range
        assert gaussian.MAX_STEPS == 2048
        g = SimGrid(1.0, gaussian.MAX_STEPS + 1)
        with pytest.raises(ValueError, match="cap of 2048"):
            simulate_joint_paths(g, 0.3, 2, seed=0)
        assert _INT_RANGES["n_steps"] == (1, gaussian.MAX_STEPS)

    def test_rejects_bad_hurst_and_counts(self):
        g = SimGrid(1.0, 8)
        with pytest.raises(ValueError):
            simulate_joint_paths(g, 0.0, 2, seed=0)
        with pytest.raises(ValueError):
            simulate_joint_paths(g, 1.0, 2, seed=0)
        with pytest.raises(ValueError):
            simulate_joint_paths(g, 0.3, 0, seed=0)

    def test_outputs_read_only(self):
        # dW and W^H are views of one buffer: both read-only, n_paths rows each
        g = SimGrid(1.0, 8)
        for n_paths in (1, 4, 4097):
            b = simulate_joint_paths(g, 0.3, n_paths, seed=0)
            for arr in (b.dW, b.wh):
                assert arr.shape == (n_paths, 8)
                with pytest.raises(ValueError, match="read-only"):
                    arr[-1, 0] = 1.0


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


def _serial_joint_paths(grid, H, n_paths, seed):
    """Oracle: one full block at a time, each from a fresh Philox draw of its
    own shape, W^H as the sum of the two block products (also at H = 1/2),
    and a last, partial block cut after its products."""
    n = grid.n_steps
    coef, L, _, _ = gaussian._grid_factors(grid, H)
    dW, wh = np.empty((n_paths, n)), np.empty((n_paths, n))
    for b in range(-(-n_paths // gaussian._BLOCK)):
        start = b * gaussian._BLOCK
        take = min(gaussian._BLOCK, n_paths - start)
        key = np.array([seed, b << 2], dtype=np.uint64)
        z = np.random.Generator(np.random.Philox(key=key)).standard_normal(
            (gaussian._BLOCK, 2 * n)
        )
        dw_blk = math.sqrt(grid.dt) * z[:, :n]
        dW[start : start + take] = dw_blk[:take]
        wh[start : start + take] = (dw_blk @ coef.T + z[:, n:] @ L.T)[:take]
    return dW, wh


class TestParallelDraws:
    @pytest.mark.parametrize("H", [0.2, 0.5])
    @pytest.mark.parametrize("n_paths", [1, 4095, 4096, 4097, 3 * 4096 + 1])
    def test_matches_serial_block_oracle_bitwise(self, H, n_paths):
        g = SimGrid(0.3, 8)
        batch = simulate_joint_paths(g, H, n_paths, seed=17)
        dW, wh = _serial_joint_paths(g, H, n_paths, 17)
        assert batch.factorization == ("degenerate" if H == 0.5 else "cholesky")
        assert dW.tobytes() == batch.dW.tobytes()
        assert wh.tobytes() == batch.wh.tobytes()

    # path counts on both sides of the 4096-path block boundaries
    @pytest.mark.parametrize("n_paths", [1, 4095, 4097, 3 * 4096 + 1])
    def test_orthogonal_leg_independent_of_worker_count(self, n_paths, monkeypatch):
        g = SimGrid(0.3, 8)
        runs = []
        for workers in (1, 3):
            monkeypatch.setattr(gaussian, "_WORKERS", workers)
            runs.append(orthogonal_increments(g, n_paths, seed=5).tobytes())
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_traced_draws_stay_on_the_calling_thread(self, workers, monkeypatch):
        # wrapped the way the benchmark tracer wraps it: a module attribute
        monkeypatch.setattr(gaussian, "_WORKERS", workers)
        original = gaussian._block_normals
        threads, drawn = set(), []

        def counting(seed, block, leg, shape):
            threads.add(threading.get_ident())
            drawn.append(math.prod(shape))
            return original(seed, block, leg, shape)

        monkeypatch.setattr(gaussian, "_block_normals", counting)
        n_paths, n = 3 * 4096 + 1, 8
        # one draw pass per batch, no padding rows in the last block
        simulate_joint_paths(SimGrid(0.3, n), 0.2, n_paths, seed=2)
        assert drawn == [n_paths * 2 * n]
        orthogonal_increments(SimGrid(0.3, n), n_paths, seed=2)
        assert drawn == [n_paths * 2 * n, n_paths * n]
        assert threads == {threading.get_ident()}

    def test_a_failing_block_raises_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(gaussian, "_WORKERS", 2)

        class Broken:
            def __init__(self, key):
                raise RuntimeError("broken stream")

        monkeypatch.setattr(np.random, "Philox", Broken)
        with pytest.raises(RuntimeError, match="broken stream"):
            orthogonal_increments(SimGrid(1.0, 4), 2 * 4096, seed=1)


class TestPooledProducts:
    @pytest.mark.parametrize("n_paths", [1, 4097, 5121, 3 * 4096 + 1027])
    def test_independent_of_worker_count(self, n_paths, monkeypatch):
        g = SimGrid(0.05, 256)
        runs = []
        for workers in (1, 3):
            monkeypatch.setattr(gaussian, "_WORKERS", workers)
            batch = simulate_joint_paths(g, 0.2, n_paths, seed=3)
            runs.append((batch.dW.tobytes(), batch.wh.tobytes()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("n_paths", [1, 1023, 1025, 2047, 4097, 5121, 3 * 4096 + 1027])
    def test_every_kernel_call_multiplies_one_piece(self, n_paths, workers, monkeypatch):
        copies, trmm = gaussian._openblas()
        shapes = []

        def recording(tri, b):
            shapes.append(b.shape)
            if trmm:
                trmm(tri, b)
            else:
                np.matmul(b, tri.T, out=b)

        monkeypatch.setattr(gaussian, "_WORKERS", workers)
        monkeypatch.setattr(gaussian, "_OPENBLAS", (copies, recording))
        n = 16
        batch = simulate_joint_paths(SimGrid(0.05, n), 0.2, n_paths, seed=3)
        assert batch.product == "trmm"  # the recording kernel stands in for dtrmm
        # two calls per piece (L_c, then A/dt), every one of exactly _PIECE rows
        assert shapes == [(gaussian._PIECE, n)] * (2 * -(-n_paths // gaussian._PIECE))
        dW, wh = _serial_joint_paths(batch.grid, 0.2, n_paths, 3)
        assert dW.tobytes() == batch.dW.tobytes()
        np.testing.assert_allclose(batch.wh, wh, rtol=1e-12, atol=1e-12 * np.abs(wh).max())

    def _thread_counts(self):
        return [get() for get, _ in gaussian._openblas()[0]]

    @pytest.mark.parametrize("fail", [False, True])
    def test_one_blas_thread_per_job_then_restored(self, fail, monkeypatch):
        before = self._thread_counts()
        if not before:
            pytest.skip("no OpenBLAS copy is loaded")
        monkeypatch.setattr(gaussian, "_WORKERS", 2)
        original, seen = gaussian._fan_out, []

        def recording(job, n_jobs, workers=None):
            def wrapped(i):
                seen.append(self._thread_counts())
                if fail and i == 1:
                    raise RuntimeError("broken piece")
                job(i)

            # the normal draws fan out too, at the caller's thread counts
            original(wrapped if job.__name__ == "product" else job, n_jobs, workers)

        monkeypatch.setattr(gaussian, "_fan_out", recording)
        grid = SimGrid(0.05, 16)
        if fail:
            with pytest.raises(RuntimeError, match="broken piece"):
                simulate_joint_paths(grid, 0.2, 2 * 4096, seed=3)
        else:
            simulate_joint_paths(grid, 0.2, 2 * 4096, seed=3)
            assert len(seen) == -(-2 * 4096 // gaussian._PIECE)
        assert seen and all(counts == [1] * len(before) for counts in seen)
        assert self._thread_counts() == before

    def test_without_openblas_the_products_run_inline(self, monkeypatch):
        g = SimGrid(0.05, 64)
        pooled = simulate_joint_paths(g, 0.2, 2 * 4096 + 5, seed=3)
        original, calls = gaussian._fan_out, []

        def recording(job, n_jobs, workers=None):
            calls.append((job.__name__, workers))
            original(job, n_jobs, workers)

        monkeypatch.setattr(gaussian, "_fan_out", recording)
        monkeypatch.setattr(gaussian, "_OPENBLAS", ([], gaussian._openblas()[1]))
        inline = simulate_joint_paths(g, 0.2, 2 * 4096 + 5, seed=3)
        assert ("product", 1) in calls
        assert pooled.wh.tobytes() == inline.wh.tobytes()
        assert pooled.dW.tobytes() == inline.dW.tobytes()


class TestTriangularProducts:
    """TRMM applies the triangular factors of every method, GEMM them where a
    binding fails its check. The two kernels sum in different orders, so
    batches are held to the serial GEMM oracle at 1e-12 of the path scale;
    only engine runs against each other are compared bitwise."""

    @staticmethod
    def _check_against_oracle(batch):
        dW, wh = _serial_joint_paths(batch.grid, batch.hurst, batch.n_paths, batch.seed)
        assert dW.tobytes() == batch.dW.tobytes()
        np.testing.assert_allclose(batch.wh, wh, rtol=1e-12, atol=1e-12 * np.abs(wh).max())

    def test_eigh_clip_factor_is_lower_triangular(self):
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        lam = np.array([-0.5, -1e-3, *np.geomspace(1e-6, 2.0, 10)])
        cond = (q * lam) @ q.T  # symmetric, indefinite
        L, method, jitter = gaussian._factor_conditional(cond, 1.0)
        assert (method, jitter) == ("eigh-clip", 0.0)
        assert L.flags.c_contiguous
        assert np.array_equal(L, np.tril(L))
        eigvals, eigvecs = np.linalg.eigh(0.5 * (cond + cond.T))
        clipped = (eigvecs * np.clip(eigvals, 1e-13 * eigvals[-1], None)) @ eigvecs.T
        assert np.max(np.abs(L @ L.T - clipped)) <= 1e-12 * np.max(np.abs(clipped))

    def test_eigh_clip_runs_the_triangular_path_at_any_worker_count(self, monkeypatch):
        def no_cholesky(a):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(gaussian, "_FACTOR_CACHE", {})
        monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
        runs = []
        for workers in (1, 3):
            monkeypatch.setattr(gaussian, "_WORKERS", workers)
            batch = simulate_joint_paths(SimGrid(0.05, 64), 0.2, 4097, seed=3)
            assert (batch.factorization, batch.product) == ("eigh-clip", TRIANGULAR)
            self._check_against_oracle(batch)
            runs.append((batch.dW.tobytes(), batch.wh.tobytes()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("H", [0.2, 0.5])
    @pytest.mark.parametrize("n_steps", [512, 1024])
    def test_trmm_matches_gemm(self, n_steps, H):
        if gaussian._openblas()[1] is None:
            pytest.skip("the loaded BLAS has no usable dtrmm")
        batch = simulate_joint_paths(SimGrid(0.05, n_steps), H, 1100, seed=4)
        assert batch.product == "trmm"
        self._check_against_oracle(batch)

    def test_path_i_independent_of_n_paths_and_workers(self, monkeypatch):
        g = SimGrid(0.05, 1024)
        runs = {}
        for workers, n_paths in ((1, 4097), (3, 4097), (3, 1025), (3, 1)):
            monkeypatch.setattr(gaussian, "_WORKERS", workers)
            runs[workers, n_paths] = simulate_joint_paths(g, 0.2, n_paths, seed=6)
        full = runs[1, 4097]
        self._check_against_oracle(full)
        for batch in runs.values():
            assert batch.dW.tobytes() == full.dW[: batch.n_paths].tobytes()
            assert batch.wh.tobytes() == full.wh[: batch.n_paths].tobytes()

    @pytest.mark.parametrize("fault", ["raises", "transposes"])
    def test_a_bad_binding_falls_back_to_gemm(self, fault, monkeypatch):
        real_bind = gaussian._bind_trmm

        def bad_bind(fn):
            if fn is None:
                return None
            real_bind(fn)  # declares the symbol's argument types

            def bad(*args):
                if fault == "raises":
                    raise ctypes.ArgumentError("argument 6: wrong type")
                fn(*args[:3], 111, *args[4:])  # NoTrans: b @ tri, not b @ tri.T

            return real_bind(bad)

        monkeypatch.setattr(gaussian, "_bind_trmm", bad_bind)
        monkeypatch.setattr(gaussian, "_OPENBLAS", None)
        assert gaussian._openblas()[1] is None
        batch = simulate_joint_paths(SimGrid(0.05, 64), 0.2, 4097, seed=8)
        assert batch.product == "gemm"
        self._check_against_oracle(batch)


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
