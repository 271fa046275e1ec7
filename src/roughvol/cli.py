"""Command-line entry point for the smile-asymptotics experiments.

Exit codes: 0 on success, 2 on configuration errors (reported before any
compute), 3 on numerical failure (non-convergence, flagged estimates, or
path arrays too large for the host) or on outputs that could not be written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from . import __version__
from .experiments import (
    _INT_RANGES,
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    _check_int,
    _output_paths,
    run_experiment,
    run_selftest,
    write_outputs,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughvol",
        description=(
            "Short-maturity implied/local volatility experiments: rough "
            "Bergomi skew ratios, SABR curvature transfer, and curvature "
            "power laws."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    help_lines = {
        "skew-ratio": "Monte Carlo implied/local ATM skew ratio over a maturity ladder",
        "sabr-curvature": "analytic SABR curvature gap and ratio term structures",
        "power-law": "Monte Carlo curvature power-law fits",
    }
    for name in EXPERIMENTS:
        sp = sub.add_parser(name, help=help_lines[name])
        sp.add_argument("--config", metavar="PATH", help="JSON configuration file")
        sp.add_argument("--seed", type=int, help="master seed (64-bit unsigned)")
        sp.add_argument("--paths", type=int, help="Monte Carlo paths per maturity")
        sp.add_argument("--steps", type=int, help="time steps per maturity")
        sp.add_argument("--out", metavar="DIR", help="output directory")
        sp.add_argument(
            "--format", choices=("csv", "csv+svg"), help="output file set"
        )
    st = sub.add_parser("selftest", help="run the fast numerics battery")
    st.add_argument("--seed", type=int, help="master seed (64-bit unsigned)")
    st.add_argument("--paths", type=int, help="Monte Carlo paths per check")
    st.add_argument("--steps", type=int, help="time steps per check")
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError("config file must hold a JSON object")
    return document


def _unwritable(path: Path) -> Optional[str]:
    """Why a file cannot be written at ``path``, or None if nothing shows it."""
    try:
        target = path.resolve()
    except (OSError, RuntimeError) as exc:  # RuntimeError: a symlink loop
        return str(exc)
    if not target.parent.is_dir():
        return f"{target.parent} is not a directory"
    if not os.access(target if target.exists() else target.parent, os.W_OK):
        return "permission denied"
    return None


def _selftest(args: argparse.Namespace) -> int:
    given = {"seed": args.seed, "n_paths": args.paths, "n_steps": args.steps}
    errors: List[str] = []
    kwargs = {
        key: _check_int(given, key, *_INT_RANGES[key], errors)
        for key, value in given.items()
        if value is not None
    }
    if errors:
        print(f"config error: {'; '.join(errors)}", file=sys.stderr)
        return 2
    try:
        checks = run_selftest(**kwargs)
    except MemoryError as exc:
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        return 3
    for check in checks:
        status = "ok  " if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.detail}")
    failed = sum(not check.passed for check in checks)
    print(f"selftest: {len(checks) - failed}/{len(checks)} checks passed")
    return 3 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "selftest":
        return _selftest(args)

    try:
        file_config = _load_config_file(args.config) if args.config else {}
        overrides = {
            "seed": args.seed,
            "n_paths": args.paths,
            "n_steps": args.steps,
            "out_dir": args.out,
            "format": args.format,
        }
        config = ExperimentConfig.from_mapping(args.command, file_config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(
            f"config error: cannot create output directory {config.out_dir!r}: {exc}",
            file=sys.stderr,
        )
        return 2
    # an output path that cannot be written would fail only after the whole run
    paths = _output_paths(config).values()
    blocked = [str(path) for path in paths if path.is_dir()]
    if blocked:
        print(f"config error: output paths are directories: {', '.join(blocked)}", file=sys.stderr)
        return 2
    unwritable = [f"{path} ({why})" for path in paths if (why := _unwritable(path))]
    if unwritable:
        print(f"config error: cannot write output paths: {', '.join(unwritable)}", file=sys.stderr)
        return 2

    try:
        result = run_experiment(config)
        written = write_outputs(result)
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: cannot write outputs: {exc}", file=sys.stderr)
        return 3

    for path in written:
        print(f"wrote {path}")
    for fit_name, fit in result.fits.items():
        print(
            f"fit {fit_name}: exponent {fit.exponent:.6g} "
            f"(r^2 {fit.r_squared:.4f})"
        )
    for note in result.notes:
        print(f"note: {note}")
    if result.flags:
        for flag in result.flags:
            print(f"flag: {flag}", file=sys.stderr)
        print(
            f"numerical failure: {len(result.flags)} flagged estimate(s)",
            file=sys.stderr,
        )
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
