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

from roughvol._stats import weighted_level_fit
from roughvol.asymptotics import (
    TermSeries,
    bergomi_curvature_limit,
    bergomi_skew_limit,
    curvature_bracket,
    fit_power_law,
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
# Curvature transfer and the implied curvature limit, read off the power-law
# table: its transfer column is the joint residual of the implied->local
# formula, with one delta-method SE per maturity
# ---------------------------------------------------------------------------


class TestCurvatureTransfer:
    def test_criterion_6_transfer(self, power_h02, acceptance_report):
        hurst = power_h02.config.bergomi_params().hurst
        ts, values, ses = (power_h02.table[name] for name in ("T", "transfer", "se_transfer"))
        mask = ts <= 0.25
        level, level_se = weighted_level_fit(
            ts[mask], values[mask], ses[mask], powers=(2.0 * hurst,)
        )
        ok = abs(level) <= 3.0 * level_se
        detail = (
            f"formula-minus-measured local curvature limit = {level:+.4f} "
            f"+- {level_se:.4f} (|z| = {abs(level) / level_se:.2f}, need <= 3)"
        )
        check(acceptance_report, 6, "curvature transfer H=0.2", ok, detail)

    def test_criterion_6_rejects_classical_transfer(self, power_h02, acceptance_report):
        # the inverse-SE^2-weighted mean of the five shortest rows (a level
        # fit with no T term) has an SE of ~0.04, enough to tell
        # (H + 3/2)^2 = 2.89 from 4. The factor-4 residual is the
        # (H + 3/2)^2 one plus coef * S^2 with S = T^(1/2-H) skew_iv; the
        # table holds no covariance of the two columns, so the triangle
        # inequality bounds its SE from above.
        p = power_h02.config.bergomi_params()
        names = ("T", "skew_iv", "se_iv", "transfer", "se_transfer")
        ts, skew, skew_se, values, ses = (power_h02.table[name][:5] for name in names)
        skew, skew_se = ts ** (0.5 - p.hurst) * skew, ts ** (0.5 - p.hurst) * skew_se
        coef = 2.0 * (1.0 + p.hurst) * curvature_bracket(p.hurst) / p.sigma0
        coef *= (p.hurst + 1.5) ** 2 - 4.0
        mean, se = weighted_level_fit(ts, values, ses, powers=())
        mean4, se4 = weighted_level_fit(
            ts, values + coef * skew**2, ses + np.abs(2.0 * coef * skew) * skew_se, powers=()
        )
        ok = abs(mean) <= 3.0 * se and abs(mean4) >= 3.0 * se4
        detail = (
            f"weighted mean residual, (H+3/2)^2 transfer {mean:+.4f} +- {se:.4f} "
            f"(|z| = {abs(mean) / se:.2f}, need <= 3); factor-4 transfer "
            f"{mean4:+.4f} +- {se4:.4f} (|z| = {abs(mean4) / se4:.2f}, need >= 3)"
        )
        check(acceptance_report, "6b", "transfer power H=0.2", ok, detail)

    def test_criterion_6c_curvature_limit(self, power_h02, acceptance_report):
        p = power_h02.config.bergomi_params()
        ts, curv, curv_se = (power_h02.table[name] for name in ("T", "curv_iv", "se_curv_iv"))
        mask = ts <= 0.02
        scale = ts[mask] ** (1.0 - 2.0 * p.hurst)
        mean, se = weighted_level_fit(
            ts[mask], scale * curv[mask], scale * curv_se[mask], powers=()
        )
        limit = bergomi_curvature_limit(p)
        z = abs(mean - limit) / se
        ok = z <= 3.0
        detail = (
            f"weighted mean of T^(1-2H) curv_iv over {int(mask.sum())} maturities "
            f"T <= 0.02 = {mean:.4f} +- {se:.4f} vs limit {limit:.4f} "
            f"(|z| = {z:.2f}, need <= 3)"
        )
        check(acceptance_report, "6c", "implied curvature limit H=0.2", ok, detail)


class TestPowerLaws:
    def test_criterion_7_exponents(self, skew_h02, power_h02, acceptance_report):
        skew_series = TermSeries(
            skew_h02.table["T"],
            skew_h02.table["skew_iv"],
            skew_h02.table["se_iv"],
            "implied ATM skew",
        )
        skew_fit = fit_power_law(skew_series)
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
