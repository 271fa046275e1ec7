"""Tests for experiment configuration, runners, outputs and the selftest."""

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import roughvol.experiments as experiments
import roughvol.gaussian as gaussian
from roughvol.asymptotics import TermSeries, sabr_curvature_gap
from roughvol.experiments import (
    ConfigError,
    ExperimentConfig,
    _fit_with_shrink,
    run_experiment,
    run_power_law,
    run_sabr_curvature,
    run_selftest,
    run_skew_ratio,
    write_outputs,
)
from roughvol.pricing import ImpliedVolBoundsError

TINY = {"n_paths": 1500, "n_steps": 8}


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
        assert config.window == (0.0, 0.25)
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
            ("skew_bump", 0.0, "(0, 0.5)"),
            ("curvature_bump", 0.7, "(0, 0.5)"),
            ("window", [0.3, 0.1], "0 <= lo < hi"),
            ("window", "wide", "pair"),
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
        assert meta["factorization"] == {"method": "cholesky", "jitter": 0.0}
        assert factor_calls == ["cholesky"]

    def test_degenerate_method_at_half(self, factor_calls):
        result = run_skew_ratio(tiny_config(model={"hurst": 0.5}))
        assert result.meta_dict()["factorization"] == {"method": "degenerate", "jitter": 0.0}

    def test_eigh_clip_is_flagged(self, factor_calls, monkeypatch):
        real = gaussian._factor_conditional

        def clipped(cond, scale):
            L, _, _ = real(cond, scale)
            return L, "eigh-clip", 0.0

        monkeypatch.setattr(gaussian, "_factor_conditional", clipped)
        result = run_power_law(tiny_config("power-law"))
        assert result.meta_dict()["factorization"] == {"method": "eigh-clip", "jitter": 0.0}
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


class TestFitWithShrink:
    def make_series(self, values, label="curv"):
        ts = np.geomspace(0.01, 0.2, len(values))
        return TermSeries(ts, np.asarray(values, float), np.zeros(len(values)), label)

    def test_clean_series_untouched(self):
        ts = np.geomspace(0.01, 0.2, 6)
        series = TermSeries(ts, 3.0 * ts**-0.6, np.zeros(6), "curv")
        notes = []
        fit = _fit_with_shrink(series, (0.0, 0.25), notes)
        assert fit.exponent == pytest.approx(-0.6, abs=1e-12)
        assert notes == []

    def test_sign_change_shrinks_window(self):
        ts = np.geomspace(0.01, 0.2, 7)
        values = 3.0 * ts**-0.6
        values[5] = -1.0  # late flip: five clean points remain
        series = TermSeries(ts, values, np.zeros(7), "curv")
        notes = []
        with pytest.warns(UserWarning, match="sign change"):
            fit = _fit_with_shrink(series, (0.0, 0.25), notes)
        assert fit.exponent == pytest.approx(-0.6, abs=1e-12)
        assert len(notes) == 1 and "shrunk" in notes[0]

    def test_early_sign_change_raises(self):
        series = self.make_series([1.0, -1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ArithmeticError, match="changes sign"):
            _fit_with_shrink(series, (0.0, 0.25), [])


class TestRunPowerLaw:
    @pytest.fixture
    def result(self, power_result):
        return power_result

    def test_columns(self, result):
        assert result.columns == ("T", "curv_iv", "se_curv_iv", "curv_lv", "se_curv_lv")
        assert np.all(result.table["curv_lv"] > 0)

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
