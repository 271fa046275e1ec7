"""End-to-end tests of the ``roughvol`` command line interface."""

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roughvol import __version__
from roughvol.cli import main

TINY_SKEW = {
    "experiment": "skew-ratio",
    "maturities": [0.05, 0.1],
    "n_paths": 800,
    "n_steps": 8,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestArgumentParsing:
    def test_no_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_bad_format_choice_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["skew-ratio", "--format", "pdf"])
        assert excinfo.value.code == 2


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["skew-ratio", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "config error: cannot read config file" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["skew-ratio", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_json(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["skew-ratio", "--config", str(path)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_invalid_values_listed(self, tmp_path, capsys):
        config = write_config(
            tmp_path, {"bogus": 1, "model": {"hurst": 1.5}, "n_paths": 1}
        )
        assert main(["skew-ratio", "--config", config]) == 2
        err = capsys.readouterr().err
        for fragment in ("bogus", "hurst", "n_paths"):
            assert fragment in err

    def test_experiment_mismatch(self, tmp_path, capsys):
        config = write_config(tmp_path, {"experiment": "power-law"})
        assert main(["skew-ratio", "--config", config]) == 2
        assert "config is for experiment" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ('{"model": {"nu": Infinity}}', "nu must be finite"),
            ('{"model": {"sigma0": NaN}}', "sigma0 must be finite"),
            ('{"model": {"rho": -1}}', "rho must lie in (-1, 1)"),
        ],
    )
    def test_bad_model_values_exit_2(self, tmp_path, capsys, payload, fragment):
        path = tmp_path / "config.json"
        path.write_text(payload)
        assert main(["skew-ratio", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert fragment in capsys.readouterr().err
        assert not (tmp_path / "skew-ratio.csv").exists()  # nothing computed


class TestRuns:
    def test_skew_ratio_writes_outputs(self, tmp_path, capsys):
        config = write_config(tmp_path, TINY_SKEW)
        out = tmp_path / "out"
        code = main(["skew-ratio", "--config", config, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert (out / "skew-ratio.csv").exists()
        assert (out / "skew-ratio.svg").exists()
        assert (out / "skew-ratio.meta.json").exists()
        assert captured.out.count("wrote ") == 3

    def test_csv_only(self, tmp_path):
        config = write_config(tmp_path, {**TINY_SKEW, "maturities": [0.1]})
        out = tmp_path / "out"
        code = main(
            ["skew-ratio", "--config", config, "--out", str(out), "--format", "csv"]
        )
        assert code == 0
        assert not (out / "skew-ratio.svg").exists()
        assert (out / "skew-ratio.csv").exists()

    def test_flag_overrides_file(self, tmp_path):
        config = write_config(tmp_path, {**TINY_SKEW, "seed": 11, "maturities": [0.1]})
        out = tmp_path / "out"
        code = main(
            ["skew-ratio", "--config", config, "--out", str(out), "--seed", "12"]
        )
        assert code == 0
        meta = json.loads((out / "skew-ratio.meta.json").read_text())
        assert meta["config"]["seed"] == 12
        assert meta["config"]["n_paths"] == 800

    def test_identical_invocations_identical_bytes(self, tmp_path):
        config = write_config(tmp_path, TINY_SKEW)
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["skew-ratio", "--config", config, "--out", str(out)]) == 0
            blobs.append(
                (
                    (out / "skew-ratio.csv").read_bytes(),
                    (out / "skew-ratio.svg").read_bytes(),
                )
            )
        assert blobs[0] == blobs[1]

    def test_sabr_curvature_runs_fast(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["sabr-curvature", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        header = (out / "sabr-curvature.csv").read_text().splitlines()[0]
        assert header == (
            "T,curv_lv,se_curv_lv,curv_iv,se_curv_iv,gap,se_gap,ratio,se_ratio"
        )

    def test_power_law_prints_fits(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "experiment": "power-law",
                "maturities": [0.04, 0.06, 0.09, 0.14, 0.2],
                "n_paths": 4000,
                "n_steps": 16,
            },
        )
        out = tmp_path / "out"
        code = main(["power-law", "--config", config, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "fit curv_iv: exponent" in captured.out
        assert "fit curv_lv: exponent" in captured.out
        meta = json.loads((out / "power-law.meta.json").read_text())
        assert "exponent_difference" in meta

    def test_degenerate_run_exits_3(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {**TINY_SKEW, "maturities": [0.1], "model": {"nu": 0.0}},
        )
        out = tmp_path / "out"
        code = main(["skew-ratio", "--config", config, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert "flag:" in captured.err
        assert "numerical failure" in captured.err
        assert (out / "skew-ratio.csv").exists()  # outputs still land for inspection

    @pytest.mark.filterwarnings("ignore")  # two paths: low-weight and overflow warnings
    def test_failed_estimators_exit_3_with_outputs(self, tmp_path, capsys):
        # two paths put Monte Carlo prices outside the no-arbitrage bounds
        out = tmp_path / "out"
        code = main(["power-law", "--paths", "2", "--steps", "4", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert "estimator failed" in captured.err
        assert (out / "power-law.csv").exists()
        assert (out / "power-law.meta.json").exists()

    def test_overflowing_sabr_gap_exits_3_with_outputs(self, tmp_path, capsys):
        # validation accepts any finite nu, but nu^2 overflows in the gap limit
        config = write_config(tmp_path, {"model": {"nu": 1e200}})
        out = tmp_path / "out"
        code = main(["sabr-curvature", "--config", config, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert "gap limit" in captured.err
        assert (out / "sabr-curvature.csv").exists()
        assert (out / "sabr-curvature.meta.json").exists()


_VALID_MODELS = {
    "skew-ratio": dict(
        s0=st.floats(50.0, 200.0),
        sigma0=st.floats(0.05, 1.0),
        nu=st.floats(0.0, 3.0),
        rho=st.floats(-0.99, 0.99),
        hurst=st.floats(0.05, 0.95),
    ),
    "sabr-curvature": dict(
        s0=st.floats(50.0, 200.0),
        alpha=st.floats(0.05, 1.0),
        nu=st.floats(0.0, 3.0),
        rho=st.floats(-0.99, 0.99),
    ),
}
_VALID_MODELS["power-law"] = _VALID_MODELS["skew-ratio"]


@st.composite
def tiny_runs(draw):
    """A tiny run; half of them carry one model value validation must refuse."""
    experiment = draw(st.sampled_from(sorted(_VALID_MODELS)))
    model = draw(st.fixed_dictionaries(_VALID_MODELS[experiment]))
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(model)))
        edges = [-1.0, 1.0] if key == "rho" else []
        model[key] = draw(st.sampled_from([math.inf, -math.inf, math.nan, *edges]))
    maturities = draw(st.lists(st.floats(0.001, 1.0), min_size=1, max_size=3, unique=True))
    config = {
        "maturities": sorted(maturities),
        "n_paths": draw(st.integers(2, 64)),
        "n_steps": draw(st.integers(1, 8)),
        "model": model,
    }
    return experiment, config


class TestExitContract:
    @pytest.mark.filterwarnings("ignore")  # tiny runs warn by design
    @given(run=tiny_runs())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_tiny_configs_exit_0_2_or_3(self, run):
        experiment, config = run
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            code = main([experiment, "--config", str(path), "--out", tmp])
            assert code in (0, 2, 3)
            model = config["model"]
            refused = not all(map(math.isfinite, model.values())) or abs(model["rho"]) == 1.0
            assert (code == 2) == refused
            if code == 3:
                assert (Path(tmp) / f"{experiment}.csv").exists()


class TestSelftestCommand:
    def test_selftest_passes(self, capsys):
        code = main(["selftest", "--paths", "3000", "--steps", "16"])
        captured = capsys.readouterr()
        assert code == 0, captured.out
        assert "selftest: 5/5 checks passed" in captured.out
        assert captured.out.count("ok  ") == 5


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "roughvol.cli", "--version"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert __version__ in proc.stdout
