"""Desk-scale acceptance runs for the documented smile-asymptotics claims.

Each criterion appends one pass/fail line to the session report (printed in
the terminal summary) and asserts it. Monte Carlo criteria run at desk
scale, 200000 paths x 256 steps per maturity, off the default master seed,
so every number here is reproducible from the CLI with the same config.
"""

import math
import time

import numpy as np
import pytest

from roughvol._stats import delta_method, weighted_level_fit
from roughvol.asymptotics import (
    TermSeries,
    bergomi_skew_limit,
    curvature_bracket,
    fit_power_law,
    local_curv_from_implied,
    sabr_curvature_gap,
    skew_ratio_limit,
)
from roughvol.experiments import (
    ExperimentConfig,
    run_power_law,
    run_sabr_curvature,
    run_selftest,
    run_skew_ratio,
)
from roughvol.gaussian import SimGrid, simulate_joint_paths
from roughvol.local_vol import (
    dupire_local_vol_fd,
    grid_step_index,
    mixing_local_vol,
    mixing_price_grid,
)
from roughvol.models import RoughBergomiParams, bergomi_sigma_path
from roughvol.pricing import ConditionalLaw, implied_vol


def check(report, number, name, ok, detail):
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    report.append(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Desk-scale fixtures, one heavy run each, shared across criteria
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def skew_h05():
    config = ExperimentConfig.from_mapping("skew-ratio", {"model": {"hurst": 0.5}})
    result = run_skew_ratio(config)
    assert result.flags == (), result.flags
    return result


@pytest.fixture(scope="module")
def skew_h02():
    result = run_skew_ratio(ExperimentConfig.from_mapping("skew-ratio"))
    assert result.flags == (), result.flags
    return result


@pytest.fixture(scope="module")
def power_h02():
    result = run_power_law(ExperimentConfig.from_mapping("power-law"))
    assert result.flags == (), result.flags
    return result


def ratio_criterion(result, hurst, tol_point, tol_fit):
    """Pointwise and fitted-level readings of the skew-ratio table."""
    limit = skew_ratio_limit(hurst)
    table = result.table
    points = table["ratio"][:3]
    point_ok = bool(np.all(np.abs(points - limit) < tol_point))
    mask = table["T"] <= 0.25
    level, level_se = weighted_level_fit(
        table["T"][mask],
        table["ratio"][mask],
        table["se_ratio"][mask],
        powers=(2.0 * hurst,),
    )
    fit_ok = abs(level - limit) < tol_fit
    detail = (
        f"ratio at 3 smallest T = {points[0]:.3f}/{points[1]:.3f}/{points[2]:.3f} "
        f"(limit {limit:.4f} +- {tol_point}), fitted level {level:.4f} "
        f"+- {level_se:.4f} (tol {tol_fit})"
    )
    return point_ok and fit_ok, detail


class TestSkewRatioRule:
    def test_criterion_1_half_rule(self, skew_h05, acceptance_report):
        ok, detail = ratio_criterion(skew_h05, 0.5, 0.05, 0.02)
        check(acceptance_report, 1, "skew ratio H=0.5", ok, detail)

    def test_criterion_2_rough_rule(self, skew_h02, acceptance_report):
        ok, detail = ratio_criterion(skew_h02, 0.2, 0.05, 0.03)
        check(acceptance_report, 2, "skew ratio H=0.2", ok, detail)


class TestSkewLimit:
    @staticmethod
    def point_skew(hurst):
        config = ExperimentConfig.from_mapping(
            "skew-ratio", {"maturities": [0.01], "model": {"hurst": hurst}}
        )
        result = run_skew_ratio(config)
        return (
            float(result.table["skew_iv"][0]),
            float(result.table["se_iv"][0]),
            config.bergomi_params(),
        )

    def test_criterion_3_skew_limit(self, acceptance_report):
        skew5, se5, p5 = self.point_skew(0.5)
        target5 = bergomi_skew_limit(p5)
        dev5 = abs(skew5 - target5) / abs(target5)

        skew2, se2, p2 = self.point_skew(0.2)
        scaled2 = 0.01 ** (0.5 - 0.2) * skew2
        target2 = bergomi_skew_limit(p2)
        dev2 = abs(scaled2 - target2) / abs(target2)

        ok = dev5 < 0.10 and dev2 < 0.10
        detail = (
            f"H=0.5: skew(0.01) = {skew5:.4f} +- {se5:.4f} vs {target5:.4f} "
            f"({dev5:.1%}); H=0.2: T^0.3*skew = {scaled2:.4f} vs {target2:.4f} "
            f"({dev2:.1%}); both < 10%"
        )
        check(acceptance_report, 3, "rough Bergomi skew limit", ok, detail)


class TestSabrAnalytic:
    def test_criterion_4_curvature_gap(self, acceptance_report):
        config = ExperimentConfig.from_mapping(
            "sabr-curvature", {"maturities": [1e-3, 1e-2]}
        )
        result = run_sabr_curvature(config)
        limit = sabr_curvature_gap(config.sabr_params())
        gap = float(result.table["gap"][0])
        dev = abs(gap - limit) / limit
        ok = limit == pytest.approx(0.072, abs=1e-15) and dev < 0.01
        detail = f"gap(T=1e-3) = {gap:.6f} vs {limit:.3f} ({dev:.2%} < 1%)"
        check(acceptance_report, 4, "SABR curvature gap", ok, detail)

    def test_criterion_5_uncorrelated_ratio(self, acceptance_report):
        config = ExperimentConfig.from_mapping(
            "sabr-curvature", {"maturities": [1e-3, 1e-2], "model": {"rho": 0.0}}
        )
        result = run_sabr_curvature(config)
        ratio = float(result.table["ratio"][0])
        dev = abs(ratio - 1.0 / 3.0)
        ok = dev < 0.01
        detail = f"curvature ratio(T=1e-3, rho=0) = {ratio:.5f} vs 1/3 (dev {dev:.5f} < 0.01)"
        check(acceptance_report, 5, "uncorrelated ratio 1/3", ok, detail)


# ---------------------------------------------------------------------------
# Curvature transfer: joint residual of the implied->local formula
# ---------------------------------------------------------------------------


def transfer_residual(p, t, h, n_paths, n_steps, seed):
    """Scaled transfer residual D(T) with one joint standard error.

    D(T) = 2(1+H)[T^{1-2H} curv_iv - 4 C(H)/sigma0 (T^{1/2-H} skew_iv)^2]
           - T^{1-2H} curv_lv, all three estimates read off the same paths
    through a single delta method, so their correlation is kept.
    """
    batch = simulate_joint_paths(SimGrid(t, n_steps), p.hurst, n_paths, seed)
    law = ConditionalLaw(bergomi_sigma_path(batch, p), p, t)
    del batch
    s0 = p.s0
    km, kp = s0 * math.exp(-h), s0 * math.exp(h)
    features = np.column_stack(
        [law.call(km), law.call(s0), law.call(kp), law.digital(s0)]
        + [law.density(kp), law.density(km)]
    )
    curv_scale = t ** (1.0 - 2.0 * p.hurst)
    skew_scale = t ** (0.5 - p.hurst)

    def g(m):
        iv_m = implied_vol(m[0], s0, km, t)
        iv_0 = implied_vol(m[1], s0, s0, t)
        iv_p = implied_vol(m[2], s0, kp, t)
        curv_iv = (iv_p - 2.0 * iv_0 + iv_m) / (h * h)
        skew_iv = law.implied_skew(m[1:4:2], s0)
        curv_lv = (law.local_skew(m[4:8], kp) - law.local_skew(m[8:12], km)) / (2.0 * h)
        c_hat = local_curv_from_implied(
            p.hurst, p.sigma0, (skew_scale * skew_iv) ** 2, curv_scale * curv_iv
        )
        return c_hat - curv_scale * curv_lv

    return delta_method(features, g)


@pytest.fixture(scope="module")
def transfer_h02():
    config = ExperimentConfig.from_mapping("power-law")
    p = config.bergomi_params()
    t_top = float(config.maturities[-1])
    rows = []
    for i in range(5):
        t = float(config.maturities[i])
        h = config.curvature_bump * math.sqrt(t / t_top)
        value, se = transfer_residual(
            p, t, h, config.n_paths, config.n_steps, config.maturity_seed(i)
        )
        rows.append((t, value, se))
    return rows


class TestCurvatureTransfer:
    def test_criterion_6_transfer(self, transfer_h02, acceptance_report):
        ts = np.array([r[0] for r in transfer_h02])
        values = np.array([r[1] for r in transfer_h02])
        ses = np.array([r[2] for r in transfer_h02])
        level, level_se = weighted_level_fit(ts, values, ses, powers=(0.4,))
        ok = abs(level) <= 3.0 * level_se
        detail = (
            f"formula-minus-measured local curvature limit = {level:+.4f} "
            f"+- {level_se:.4f} (|z| = {abs(level) / level_se:.2f}, need <= 3)"
        )
        check(acceptance_report, 6, "curvature transfer H=0.2", ok, detail)


class TestPowerLaws:
    def test_criterion_7_exponents(self, skew_h02, power_h02, acceptance_report):
        skew_series = TermSeries(
            skew_h02.table["T"],
            skew_h02.table["skew_iv"],
            skew_h02.table["se_iv"],
            "implied ATM skew",
        )
        skew_fit = fit_power_law(skew_series, (0.0, 0.25))
        iv_fit = power_h02.fits["curv_iv"]
        lv_fit = power_h02.fits["curv_lv"]
        diff = abs(iv_fit.exponent - lv_fit.exponent)
        ok = (
            abs(skew_fit.exponent - (-0.3)) < 0.05
            and abs(iv_fit.exponent - (-0.6)) < 0.1
            and abs(lv_fit.exponent - (-0.6)) < 0.1
            and diff < 0.1
        )
        detail = (
            f"skew exponent {skew_fit.exponent:.3f} (-0.3 +- 0.05), curvature "
            f"exponents {iv_fit.exponent:.3f}/{lv_fit.exponent:.3f} (-0.6 +- 0.1), "
            f"difference {diff:.3f} < 0.1"
        )
        check(acceptance_report, 7, "power laws H=0.2", ok, detail)


class TestOracleEquivalence:
    def test_criterion_8_dupire_grid(self, acceptance_report):
        worst = (0.0, "")
        for hurst in (0.2, 0.5):
            p = RoughBergomiParams(s0=100.0, sigma0=0.3, nu=1.1, rho=-0.6, hurst=hurst)
            batch = simulate_joint_paths(SimGrid(0.32, 256), hurst, 200_000, 20_260_815)
            sig = bergomi_sigma_path(batch, p)
            del batch
            for tc in (0.2, 0.25, 0.3):
                ts = np.array([tc - 0.01, tc, tc + 0.01])
                sub = sig.truncated(grid_step_index(sig, tc))
                for kc in (90.0, 100.0, 110.0):
                    ks = np.array([kc - 1.0, kc, kc + 1.0])
                    prices, cov = mixing_price_grid(sig, p, ts, ks)
                    d_vol, d_se = dupire_local_vol_fd(prices, ts, ks, cov)
                    m_vol, m_se = mixing_local_vol(sub, p, tc, kc)
                    z = abs(m_vol - d_vol) / math.hypot(m_se, d_se)
                    if z > worst[0]:
                        worst = (z, f"H={hurst} T={tc} K={kc:.0f}")
            del sig
        ok = worst[0] < 3.0
        detail = f"worst |z| over 2x3x3 nodes = {worst[0]:.2f} at {worst[1]} (need < 3)"
        check(acceptance_report, 8, "mixing vs Dupire local vol", ok, detail)


class TestNumericsSuite:
    def test_criterion_9_selftest(self, acceptance_report):
        start = time.perf_counter()
        checks = run_selftest()
        elapsed = time.perf_counter() - start
        failed = [c for c in checks if not c.passed]
        ok = not failed and elapsed < 300.0
        if failed:
            detail = "; ".join(f"{c.name}: {c.detail}" for c in failed)
        else:
            detail = f"all {len(checks)} checks passed in {elapsed:.1f}s (< 300s)"
        check(acceptance_report, 9, "numerics suite", ok, detail)
