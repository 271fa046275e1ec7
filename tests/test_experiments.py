"""Tests for experiment configuration, runners, outputs and the selftest."""

import json
import math
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import roughvol.experiments as experiments
import roughvol.gaussian as gaussian
import roughvol.pricing as pricing
from roughvol._stats import delta_method
from roughvol.asymptotics import local_curv_from_implied, sabr_curvature_gap
from roughvol.experiments import (
    ConfigError,
    ExperimentConfig,
    run_experiment,
    run_power_law,
    run_sabr_curvature,
    run_selftest,
    run_skew_ratio,
    write_outputs,
)
from roughvol.gaussian import SimGrid, simulate_joint_paths
from roughvol.models import SigmaPath, bergomi_sigma_path
from roughvol.pricing import ConditionalLaw, ImpliedVolBoundsError, implied_skew_digital

TINY = {"n_paths": 1500, "n_steps": 8}
# kernel of the triangular products: TRMM where the loaded OpenBLAS binds it
TRIANGULAR = "trmm" if gaussian._openblas()[1] else "gemm"


def tiny_config(experiment="skew-ratio", **kwargs):
    merged = {"maturities": [0.05, 0.1, 0.2], **TINY, **kwargs}
    return ExperimentConfig.from_mapping(experiment, merged)


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig.from_mapping("skew-ratio")
        assert config.n_paths == 200_000
        assert config.n_steps == 256
        assert config.maturities.size == 24
        assert config.maturities[0] == pytest.approx(0.004)
        assert config.maturities[-1] == pytest.approx(1.0)
        assert config.model["hurst"] == 0.2
        assert config.format == "csv+svg"

    def test_sabr_defaults(self):
        config = ExperimentConfig.from_mapping("sabr-curvature")
        assert config.maturities[0] == pytest.approx(0.001)
        assert set(config.model) == {"s0", "alpha", "nu", "rho"}

    def test_ladder_is_geometric(self):
        config = ExperimentConfig.from_mapping("skew-ratio")
        ratios = config.maturities[1:] / config.maturities[:-1]
        assert np.allclose(ratios, ratios[0])
        assert ratios[0] == pytest.approx(250.0 ** (1.0 / 23.0))
        assert ratios[0] == pytest.approx(1.27, abs=0.01)

    def test_override_order(self):
        config = ExperimentConfig.from_mapping(
            "skew-ratio",
            {"seed": 7, "n_paths": 1000},
            {"seed": 9, "n_steps": 32},
        )
        assert config.seed == 9  # override beats file
        assert config.n_paths == 1000  # file beats default
        assert config.n_steps == 32

    def test_none_overrides_are_skipped(self):
        config = ExperimentConfig.from_mapping("skew-ratio", {"seed": 7}, {"seed": None})
        assert config.seed == 7

    def test_model_merge(self):
        config = ExperimentConfig.from_mapping("skew-ratio", {"model": {"hurst": 0.5}})
        assert config.model["hurst"] == 0.5
        assert config.model["nu"] == 1.1  # other fields keep defaults
        p = config.bergomi_params()
        assert p.hurst == 0.5

    def test_all_errors_reported_at_once(self):
        with pytest.raises(ConfigError) as excinfo:
            ExperimentConfig.from_mapping(
                "skew-ratio",
                {
                    "bogus": 1,
                    "model": {"rho": 2.0, "hurst": 1.5},
                    "n_paths": 1,
                    "format": "pdf",
                },
            )
        message = str(excinfo.value)
        for fragment in ("bogus", "rho", "hurst", "n_paths", "format"):
            assert fragment in message

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            ExperimentConfig.from_mapping("frobnicate")

    def test_experiment_mismatch(self):
        with pytest.raises(ConfigError, match="config is for experiment"):
            ExperimentConfig.from_mapping("skew-ratio", {"experiment": "power-law"})

    def test_matching_experiment_key_is_fine(self):
        config = ExperimentConfig.from_mapping("power-law", {"experiment": "power-law"})
        assert config.experiment == "power-law"

    def test_unknown_model_parameter(self):
        with pytest.raises(ConfigError, match="unknown model parameter 'alpha'"):
            ExperimentConfig.from_mapping("skew-ratio", {"model": {"alpha": 0.2}})

    def test_ladder_object_form(self):
        config = ExperimentConfig.from_mapping(
            "skew-ratio", {"maturities": {"min": 0.01, "max": 1.0, "count": 5}}
        )
        assert config.maturities.size == 5
        assert config.maturities[0] == pytest.approx(0.01)

    @pytest.mark.parametrize(
        "bad, fragment",
        [
            ({"min": 0.0, "max": 1.0, "count": 5}, "0 < min < max"),
            ({"min": 0.5, "max": 0.1, "count": 5}, "0 < min < max"),
            ({"min": 0.1, "max": 1.0, "count": 1}, "count must be >= 2"),
            ({"min": 0.1, "max": 1.0, "count": 5, "step": 2}, "unknown keys"),
            ([0.2, 0.1], "strictly increasing"),
            ([0.1, 0.1], "strictly increasing"),
            ([-0.1, 0.2], "positive"),
            ([], "non-empty"),
            ("soon", "min/max/count"),
        ],
    )
    def test_bad_ladders(self, bad, fragment):
        with pytest.raises(ConfigError, match=fragment):
            ExperimentConfig.from_mapping("skew-ratio", {"maturities": bad})

    @pytest.mark.parametrize(
        "count, fragment",
        [
            (2.9, "count must be an integer"),
            ("3", "count must be an integer"),
            (10**12, "count must lie in"),
        ],
    )
    def test_bad_ladder_counts(self, count, fragment):
        # refused before any ladder is built: 10**12 maturities would not fit in memory
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=fragment):
                ExperimentConfig.from_mapping(
                    "skew-ratio", {"maturities": {"min": 0.01, "max": 1.0, "count": count}}
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_largest_ladder_accepted(self):
        spec = {"min": 0.01, "max": 1.0, "count": 10_000}
        config = ExperimentConfig.from_mapping("skew-ratio", {"maturities": spec})
        assert config.maturities.size == 10_000

    @pytest.mark.parametrize("form", ["range", "list"])
    def test_ladder_cap_in_both_forms(self, form):
        def spec(count):
            if form == "range":
                return {"min": 0.01, "max": 1.0, "count": count}
            return np.geomspace(0.01, 1.0, count).tolist()

        config = ExperimentConfig.from_mapping("skew-ratio", {"maturities": spec(10_000)})
        assert config.maturities.size == 10_000
        with pytest.raises(ConfigError, match="10000"):
            ExperimentConfig.from_mapping("skew-ratio", {"maturities": spec(10_001)})

    @pytest.mark.parametrize(
        "key, value", [("skew_bump", 0.005), ("curvature_bump", 0.05), ("window", [0.0, 0.25])]
    )
    def test_fixed_estimator_settings_are_not_keys(self, key, value):
        # the estimator widths and the fit window are constants of the program
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            ExperimentConfig.from_mapping("power-law", {key: value})
        assert key not in ExperimentConfig.from_mapping("power-law").to_dict()

    def test_integral_float_accepted(self):
        config = ExperimentConfig.from_mapping("skew-ratio", {"n_paths": 2000.0})
        assert config.n_paths == 2000

    @pytest.mark.parametrize(
        "key, value, fragment",
        [
            ("n_paths", True, "integer"),
            ("n_paths", 1.5, "integer"),
            ("n_steps", 4096, "[1, 2048]"),
            ("seed", -1, "seed"),
            ("seed", 2**64, "seed"),
            ("out_dir", "", "non-empty"),
            ("format", "pdf", "format"),
        ],
    )
    def test_scalar_validation(self, key, value, fragment):
        with pytest.raises(ConfigError, match=fragment if key != "seed" else "seed"):
            ExperimentConfig.from_mapping("skew-ratio", {key: value})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_model_values_rejected(self, value):
        with pytest.raises(ConfigError, match="nu must be finite"):
            ExperimentConfig.from_mapping("power-law", {"model": {"nu": value}})
        with pytest.raises(ConfigError, match="alpha must be finite"):
            ExperimentConfig.from_mapping("sabr-curvature", {"model": {"alpha": value}})

    @pytest.mark.parametrize("experiment", ["skew-ratio", "power-law"])
    @pytest.mark.parametrize("rho", [-1.0, 1.0])
    def test_monte_carlo_experiments_reject_unit_correlation(self, experiment, rho):
        with pytest.raises(ConfigError, match=r"rho must lie in \(-1, 1\)"):
            ExperimentConfig.from_mapping(experiment, {"model": {"rho": rho}})

    def test_seed_upper_bound_accepted(self):
        config = ExperimentConfig.from_mapping("skew-ratio", {"seed": 2**64 - 1})
        assert config.seed == 2**64 - 1

    def test_maturity_seeds_distinct_and_stable(self):
        config = tiny_config()
        seeds = [config.maturity_seed(i) for i in range(24)]
        assert len(set(seeds)) == 24
        other = tiny_config(maturities=[0.5, 2.0])  # ladder does not enter the seed
        assert other.maturity_seed(0) == seeds[0]
        assert tiny_config(seed=1).maturity_seed(0) != seeds[0]

    def test_to_dict_json_round_trip(self):
        config = tiny_config()
        echoed = json.loads(json.dumps(config.to_dict()))
        rebuilt = ExperimentConfig.from_mapping("skew-ratio", echoed)
        assert rebuilt.to_dict() == config.to_dict()
        assert np.array_equal(rebuilt.maturities, config.maturities)


@pytest.fixture(scope="module")
def skew_result():
    return run_skew_ratio(tiny_config())


@pytest.fixture(scope="module")
def power_result():
    config = ExperimentConfig.from_mapping(
        "power-law",
        {
            "maturities": [0.04, 0.06, 0.09, 0.14, 0.2],
            "n_paths": 6000,
            "n_steps": 16,
        },
    )
    return run_power_law(config)


class TestRunSkewRatio:
    @pytest.fixture
    def result(self, skew_result):
        return skew_result

    def test_columns_and_shapes(self, result):
        assert result.columns == (
            "T", "skew_iv", "se_iv", "skew_lv", "se_lv", "ratio", "se_ratio",
        )
        for name in result.columns:
            assert result.table[name].shape == (3,)
        assert np.array_equal(result.table["T"], [0.05, 0.1, 0.2])

    def test_ratio_is_quotient_of_reported_skews(self, result):
        expected = result.table["skew_iv"] / result.table["skew_lv"]
        assert np.allclose(result.table["ratio"], expected, rtol=1e-12)

    def test_standard_errors_positive(self, result):
        for name in ("se_iv", "se_lv", "se_ratio"):
            assert np.all(result.table[name] > 0)

    def test_no_flags_on_healthy_run(self, result):
        assert result.flags == ()

    def test_skews_negative_for_negative_rho(self, result):
        assert np.all(result.table["skew_iv"] < 0)
        assert np.all(result.table["skew_lv"] < 0)

    def test_reference_line_is_ratio_limit(self, result):
        (label, value), = result.ref_lines
        assert value == pytest.approx(1.0 / 1.7)
        assert "limit" in label

    def test_deterministic_repeat(self, result):
        again = run_skew_ratio(tiny_config())
        assert again.csv_text() == result.csv_text()

    def test_seed_changes_output(self, result):
        other = run_skew_ratio(tiny_config(seed=1))
        assert other.csv_text() != result.csv_text()

    def test_csv_text_round_trips(self, result):
        lines = result.csv_text().splitlines()
        assert lines[0] == "T,skew_iv,se_iv,skew_lv,se_lv,ratio,se_ratio"
        assert len(lines) == 4
        parsed = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert np.allclose(parsed[:, 1], result.table["skew_iv"], rtol=1e-11)

    def test_degenerate_nu_flags_nan_ratio(self):
        config = tiny_config(maturities=[0.1], model={"nu": 0.0}, n_paths=500)
        result = run_skew_ratio(config)
        assert math.isnan(result.table["ratio"][0])
        assert result.flags == ("T=0.1: local skew is zero, ratio undefined",)
        assert result.table["skew_lv"][0] == 0.0


class TestSkewControl:
    def test_controlled_errors_are_calibrated(self):
        # across 40 seeds the scatter of the controlled ratio and implied
        # skew matches their mean reported standard error
        p = ExperimentConfig.from_mapping("skew-ratio").bergomi_params()
        t, grid = 0.05, SimGrid(0.05, 64)
        ratios, skews = [], []
        for seed in range(40):
            sig = bergomi_sigma_path(simulate_joint_paths(grid, p.hurst, 8192, seed), p)
            ratios.append(experiments._skew_ratio_with_se(sig, p, t))
            skews.append(implied_skew_digital(sig, p, t))
        for pairs in (ratios, skews):
            values, ses = np.array(pairs).T
            assert 0.7 <= values.std(ddof=1) / ses.mean() <= 1.4


class TestEstimatorFailures:
    def test_failure_at_one_maturity_is_a_nan_row_and_a_flag(self, monkeypatch):
        real = experiments.implied_skew_digital

        def failing(sig, p, t):
            if t == 0.1:
                raise ImpliedVolBoundsError("price 0.0 is not below the spot")
            return real(sig, p, t)

        monkeypatch.setattr(experiments, "implied_skew_digital", failing)
        result = run_skew_ratio(tiny_config())
        assert np.array_equal(result.table["T"], [0.05, 0.1, 0.2])
        for name in result.columns[1:]:
            assert np.isnan(result.table[name][1])
            assert np.all(np.isfinite(result.table[name][[0, 2]]))
        assert result.flags == ("T=0.1: estimator failed: price 0.0 is not below the spot",)

    def test_failed_fd_check_keeps_the_row(self):
        # at T = 1e-5 the check's strike s0 e^-0.005 is many smile widths in
        # the money and its call mean falls below intrinsic; the digital
        # skew, the local skew and the ratio are still read off the paths
        config = ExperimentConfig.from_mapping(
            "skew-ratio", {"maturities": [1e-5, 3e-5, 1e-4], "n_paths": 20000}
        )
        result = run_skew_ratio(config)
        for name in result.columns:
            assert np.all(np.isfinite(result.table[name])), name
        (flag,) = result.flags
        assert flag.startswith("T=1e-05: finite-difference skew check failed: price ")
        assert "does not exceed the intrinsic value" in flag

    def test_flags_print_plain_floats(self):
        # at T = 1e-300 every call mean is the intrinsic value 0.0
        result = run_skew_ratio(tiny_config(maturities=[1e-300]))
        assert len(result.flags) == 1
        assert "price 0.0 does not exceed the intrinsic value 0.0" in result.flags[0]
        assert "np.float64" not in result.flags[0]

    def test_power_law_without_a_fit_is_flagged(self, tmp_path):
        # three maturities cannot carry a four-point power-law fit
        config = tiny_config("power-law", out_dir=str(tmp_path))
        result = run_power_law(config)
        assert result.fits == {}
        assert [f.split(":")[0] for f in result.flags] == ["curv_iv", "curv_lv"]
        assert all("no power-law fit" in f for f in result.flags)
        assert np.all(np.isfinite(result.table["curv_lv"]))
        assert [p.name for p in write_outputs(result)] == [
            "power-law.csv", "power-law.svg", "power-law.meta.json",
        ]

    def test_unplottable_run_still_writes_csv_and_meta(self, tmp_path, monkeypatch):
        def failing(*args):
            raise ValueError("no density mass at T=0.05, K=100")

        monkeypatch.setattr(experiments, "local_vol_curvature_fd", failing)
        config = tiny_config("power-law", maturities=[0.05], out_dir=str(tmp_path))
        result = run_power_law(config)
        assert np.isnan(result.table["curv_iv"][0])
        assert [p.name for p in write_outputs(result)] == ["power-law.csv", "power-law.meta.json"]


class TestSimulate:
    def test_groups_keep_the_terminal_columns_bitwise(self):
        # two groups: four full blocks, then one full block and a partial one
        n_paths, t = 37768, 0.05
        config = ExperimentConfig.from_mapping("skew-ratio", {"n_paths": n_paths, "n_steps": 16})
        p = config.bergomi_params()
        sig = experiments._simulate(p, config, 2, t, {})
        batch = simulate_joint_paths(SimGrid(t, 16), p.hurst, n_paths, config.maturity_seed(2))
        full = bergomi_sigma_path(batch, p)
        assert sig.grid == SimGrid(t, 1)
        assert sig.terminal_sigma().tobytes() == full.sigma[:, -1].tobytes()
        assert sig.total_var().tobytes() == full.total_var().tobytes()
        assert sig.total_sdw().tobytes() == full.total_sdw().tobytes()

    def test_desk_scale_maturity_holds_one_group(self):
        # one 65536 x 256 maturity held as one batch peaks at 672 MB of arrays;
        # one group's (dW, W^H) buffer and the sigma scratch peak near 82 MB
        config = ExperimentConfig.from_mapping("skew-ratio", {"n_paths": 65536, "n_steps": 256})
        tracemalloc.start()
        try:
            experiments._simulate(config.bergomi_params(), config, 0, 0.05, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6


class TestFactorization:
    @pytest.fixture
    def factor_calls(self, monkeypatch):
        """Methods returned by _factor_conditional, starting from an empty cache."""
        monkeypatch.setattr(gaussian, "_FACTOR_CACHE", {})
        calls = []
        real = gaussian._factor_conditional

        def recording(cond, scale):
            out = real(cond, scale)
            calls.append(out[1])
            return out

        monkeypatch.setattr(gaussian, "_factor_conditional", recording)
        return calls

    @pytest.mark.filterwarnings("ignore")  # tiny runs warn by design
    def test_one_factorization_for_the_whole_ladder(self, factor_calls):
        config = ExperimentConfig.from_mapping(
            "power-law",
            {"maturities": {"min": 0.004, "max": 1.0, "count": 8}, "n_paths": 500, "n_steps": 16},
        )
        run_power_law(config)
        assert factor_calls == ["cholesky"]

    def test_method_and_jitter_in_meta(self, factor_calls, tmp_path):
        result = run_skew_ratio(tiny_config(out_dir=str(tmp_path)))
        assert result.flags == ()
        write_outputs(result)
        meta = json.loads((tmp_path / "skew-ratio.meta.json").read_text())
        assert meta["factorization"] == {"method": "cholesky", "jitter": 0.0, "product": TRIANGULAR}
        assert factor_calls == ["cholesky"]

    def test_degenerate_method_at_half(self, factor_calls):
        result = run_skew_ratio(tiny_config(model={"hurst": 0.5}))
        assert result.meta_dict()["factorization"] == {
            "method": "degenerate", "jitter": 0.0, "product": TRIANGULAR
        }

    def test_eigh_clip_is_flagged(self, factor_calls, monkeypatch):
        real = gaussian._factor_conditional

        def clipped(cond, scale):
            L, _, _ = real(cond, scale)
            return L, "eigh-clip", 0.0

        monkeypatch.setattr(gaussian, "_factor_conditional", clipped)
        result = run_power_law(tiny_config("power-law"))
        assert result.meta_dict()["factorization"] == {
            "method": "eigh-clip", "jitter": 0.0, "product": TRIANGULAR
        }
        assert any("eigh-clip" in f for f in result.flags)

    def test_sabr_run_has_no_factorization(self):
        config = ExperimentConfig.from_mapping("sabr-curvature", {"maturities": [0.01, 0.1]})
        assert "factorization" not in run_sabr_curvature(config).meta_dict()


class TestRunSabrCurvature:
    def test_gap_approaches_limit(self):
        config = ExperimentConfig.from_mapping(
            "sabr-curvature", {"maturities": [1e-3, 1e-2, 0.1, 1.0]}
        )
        result = run_sabr_curvature(config)
        limit = sabr_curvature_gap(config.sabr_params())
        assert limit == pytest.approx(0.072)
        assert result.table["gap"][0] == pytest.approx(limit, rel=1e-3)
        # convergence is toward the short end
        assert abs(result.table["gap"][0] - limit) < abs(result.table["gap"][-1] - limit)

    def test_all_columns_analytic(self):
        result = run_sabr_curvature(
            ExperimentConfig.from_mapping("sabr-curvature", {"maturities": [0.01, 0.1]})
        )
        for name in result.columns:
            if name.startswith("se_"):
                assert np.all(result.table[name] == 0.0)
        assert np.allclose(
            result.table["ratio"],
            result.table["curv_iv"] / result.table["curv_lv"],
            rtol=1e-15,
        )
        assert result.table["curv_lv"][0] == result.table["curv_lv"][1]

    def test_zero_rho_ratio_limit(self):
        config = ExperimentConfig.from_mapping(
            "sabr-curvature", {"maturities": [1e-3, 0.5], "model": {"rho": 0.0}}
        )
        result = run_sabr_curvature(config)
        assert ("ratio limit 1/3", 1.0 / 3.0) in result.ref_lines
        assert result.table["ratio"][0] == pytest.approx(1.0 / 3.0, abs=0.01)

    def test_flat_vol_flags_ratio(self):
        config = ExperimentConfig.from_mapping(
            "sabr-curvature", {"maturities": [0.01, 0.1], "model": {"nu": 0.0}}
        )
        result = run_sabr_curvature(config)
        assert np.all(np.isnan(result.table["ratio"]))
        assert np.all(result.table["gap"] == 0.0)
        assert len(result.flags) == 1  # deduplicated


class TestRunPowerLaw:
    @pytest.fixture
    def result(self, power_result):
        return power_result

    def test_columns(self, result):
        assert result.columns == (
            "T", "curv_iv", "se_curv_iv", "curv_lv", "se_curv_lv", "skew_iv", "se_iv",
            "transfer", "se_transfer",
        )
        assert np.all(result.table["curv_lv"] > 0)
        for name in result.columns:
            assert np.all(np.isfinite(result.table[name])), name

    def test_transfer_is_the_formula_on_the_row(self, result):
        # the joint map reads the same feature means as the per-column
        # estimators, so the row's own columns reproduce it to round-off
        p = result.config.bergomi_params()
        table = result.table
        for i, t in enumerate(table["T"]):
            curv_scale = t ** (1.0 - 2.0 * p.hurst)
            skew_sq = (t ** (0.5 - p.hurst) * table["skew_iv"][i]) ** 2
            expected = local_curv_from_implied(
                p.hurst, p.sigma0, skew_sq, curv_scale * table["curv_iv"][i]
            ) - curv_scale * table["curv_lv"][i]
            assert table["transfer"][i] == pytest.approx(expected, rel=1e-8, abs=1e-10)
            assert table["se_transfer"][i] > 0

    def test_skew_is_the_digital_estimator(self, result):
        # the plain digital map on the row's own paths: the transfer beside
        # it reads the same uncontrolled means
        config, p = result.config, result.config.bergomi_params()
        for i, t in enumerate(result.table["T"]):
            sig = experiments._simulate(p, config, i, float(t), {})
            law = ConditionalLaw(sig, p, float(t))
            feats = np.column_stack([law.call(p.s0), law.digital(p.s0)])
            value, se = delta_method(feats, lambda m: law.implied_skew(m, p.s0))
            assert result.table["skew_iv"][i] == value
            assert result.table["se_iv"][i] == se

    def test_fits_present(self, result):
        assert set(result.fits) == {"curv_iv", "curv_lv"}
        for fit in result.fits.values():
            assert math.isfinite(fit.exponent)
            assert 0.0 <= fit.r_squared <= 1.0
        # rough local curvature blows up as T -> 0, so the slope is negative
        assert result.fits["curv_lv"].exponent < 0

    def test_meta_has_fits_and_difference(self, result):
        meta = result.meta_dict()
        assert set(meta["fits"]) == {"curv_iv", "curv_lv"}
        expected = abs(
            result.fits["curv_iv"].exponent - result.fits["curv_lv"].exponent
        )
        assert meta["exponent_difference"] == pytest.approx(expected)

    def test_plot_series_use_absolute_values(self, result):
        for series in result.plot_series:
            assert np.all(series.values >= 0)

    def test_late_sign_change_is_a_note_and_a_warning(self, monkeypatch):
        # curv_iv flips at the sixth of seven maturities: the fit keeps the
        # first five, and the note names the cut window
        ts = np.geomspace(0.01, 0.2, 7)

        def curv_iv(sl):
            return (-1.0 if sl.maturity == ts[5] else 3.0 * sl.maturity**-0.6), 0.1

        monkeypatch.setattr(experiments, "implied_curvature_fd", curv_iv)
        monkeypatch.setattr(
            experiments, "local_vol_curvature_fd", lambda sig, p, t, h: (t**-0.6, 0.1)
        )
        with pytest.warns(UserWarning, match="sign change inside window") as caught:
            result = run_power_law(tiny_config("power-law", maturities=list(ts)))
        hi = 0.5 * (ts[4] + ts[5])
        assert result.notes == (
            f"implied ATM curvature: sign change inside window, shrunk to (0, {hi:.6g})",
        )
        warned = [str(w.message) for w in caught if "sign change" in str(w.message)]
        assert tuple(warned) == result.notes
        assert result.fits["curv_iv"].window == (0.0, hi)
        assert result.fits["curv_iv"].residuals.size == 5
        assert result.fits["curv_lv"].window == (0.0, 0.25)
        assert result.flags == ()


class TestWriteOutputs:
    def test_csv_svg_meta_files(self, tmp_path):
        config = tiny_config(maturities=[0.05, 0.1], out_dir=str(tmp_path / "run"))
        result = run_experiment(config)
        paths = write_outputs(result)
        names = [p.name for p in paths]
        assert names == ["skew-ratio.csv", "skew-ratio.svg", "skew-ratio.meta.json"]
        assert paths[0].read_text(encoding="ascii") == result.csv_text()
        ET.fromstring(paths[1].read_text(encoding="utf-8"))
        meta = json.loads(paths[2].read_text())
        assert meta["config"]["seed"] == config.seed
        assert meta["config"]["n_paths"] == config.n_paths
        assert set(meta["versions"]) == {"python", "numpy", "scipy", "roughvol"}
        assert meta["flags"] == []
        assert meta["wall_time_seconds"] > 0

    @pytest.mark.parametrize("experiment", ["skew-ratio", "sabr-curvature", "power-law"])
    def test_meta_records_peak_rss(self, experiment, tmp_path):
        config = tiny_config(experiment, out_dir=str(tmp_path), format="csv")
        meta_path = write_outputs(run_experiment(config))[-1]
        peak = json.loads(meta_path.read_text())["peak_rss_mb"]
        # this process holds at least numpy and scipy: well over 10 MB
        assert isinstance(peak, float) and 10.0 < peak < 1e6

    def test_csv_only_format(self, tmp_path):
        config = tiny_config(
            maturities=[0.1], n_paths=500, out_dir=str(tmp_path), format="csv"
        )
        paths = write_outputs(run_experiment(config))
        assert [p.suffix for p in paths] == [".csv", ".json"]
        assert not (tmp_path / "skew-ratio.svg").exists()

    def test_identical_config_identical_bytes(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            config = tiny_config(
                maturities=[0.05, 0.1], out_dir=str(tmp_path / sub)
            )
            paths = write_outputs(run_experiment(config))
            blobs.append((paths[0].read_bytes(), paths[1].read_bytes()))
        assert blobs[0] == blobs[1]


class TestSelftest:
    def test_parity_check_catches_a_mispriced_call(self, monkeypatch):
        # a call 1% of spot too dear must break put-call parity
        real = pricing.bs_price
        monkeypatch.setattr(
            pricing, "bs_price", lambda s, k, t, sigma: real(s, k, t, sigma) + 0.01 * s
        )
        check = experiments._martingale_parity_check(1, 4000, 16)
        assert not check.passed, check.detail

    def test_martingale_check_catches_right_point_integrals(self, monkeypatch):
        # sigma at the right end of each cell depends on that cell's dW, so
        # s_eff from these V and M is no martingale; parity still holds
        def right_point(batch, p, terminal=False):
            sig = bergomi_sigma_path(batch, p)
            v = np.cumsum(sig.sigma**2 * batch.grid.dt, axis=1)
            m = np.cumsum(sig.sigma * batch.dW, axis=1)
            return SigmaPath(batch.grid, sig.sigma, v, m)

        monkeypatch.setattr(experiments, "bergomi_sigma_path", right_point)
        check = experiments._martingale_parity_check(1, 4000, 16)
        assert not check.passed, check.detail
        martingale, parity = check.detail.split(", ")
        assert float(martingale.split("= ")[1]) >= 3.0
        assert float(parity.split()[-1]) < 1e-12

    def test_all_checks_pass_small(self):
        checks = run_selftest(n_paths=4000, n_steps=32)
        assert len(checks) == 5
        failing = [c for c in checks if not c.passed]
        assert failing == [], [f"{c.name}: {c.detail}" for c in failing]

    def test_check_names_are_stable(self):
        names = [c.name for c in run_selftest(n_paths=2000, n_steps=16)]
        assert names == [
            "implied-vol round trip",
            "finite differences on a quadratic smile",
            "Volterra moment battery",
            "martingale and put-call parity",
            "deterministic-volatility collapse",
        ]
