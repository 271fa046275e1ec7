"""Run one workload once in this fresh process and report what it cost.

    python3 perfbench/child.py SPEC OUT_DIR RESULT [--trace]

SPEC is the JSON input written by run.py. The run writes its outputs to
OUT_DIR and a JSON report to RESULT. ``roughvol`` must be importable (run.py
puts the checkout's ``src`` on PYTHONPATH). The process is fresh so that the
factorization cache starts empty, as it does for every CLI user.

With ``--trace`` the module attributes the runners call are wrapped before
the run, so spans and counts are recorded at each layer boundary. Spans are
kept in memory and written to RESULT at the end; run.py turns them into
per-layer self times.
"""

from __future__ import annotations

import functools
import json
import math
import resource
import sys
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

# Fallback factorizations: what _factor_conditional returns when plain
# Cholesky fails.
_FALLBACKS = ("cholesky+jitter", "eigh-clip")


class Tracer:
    """Spans (name, start, end, parent index), exact counts and computed
    work, and gauges (largest or smallest value seen), all in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self._open: list = []
        self.counts: dict = defaultdict(int)
        self.gauges: dict = {}

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent]
        self.spans.append(record)
        self._open.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def gauge(self, name: str, value: float, pick=max) -> None:
        self.gauges[name] = pick(self.gauges.get(name, value), value)

    def wrap(self, module, attr: str, name=None, hook=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span named
        ``name`` (none if None) and then calls ``hook(args, result)``."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) if name else nullcontext():
                out = original(*args, **kwargs)
            if hook is not None:
                hook(args, out)
            return out

        setattr(module, attr, traced)

    def install(self) -> None:
        from roughvol import experiments, gaussian, local_vol, models, pricing

        def on_normals(args, out):
            self.counts["gaussian.normals_drawn"] += math.prod(args[3])

        def on_factor(args, out):
            self.counts["gaussian.factor_misses"] += 1
            self.counts["gaussian.factor_fallbacks"] += out[1] in _FALLBACKS

        def on_simulate(args, batch):
            self.gauge("gaussian.array_mb", (batch.dW.nbytes + batch.wh.nbytes) / 1e6)
            n = batch.grid.n_steps
            self.counts["gaussian.matmul_gflop"] += 4.0 * n * n * batch.n_paths / 1e9

        def on_sigma(args, sig):
            batch = args[0]
            out_bytes = sig.sigma.nbytes + sig.int_var.nbytes + sig.int_sdw.nbytes
            self.gauge("models.array_mb", out_bytes / 1e6)
            read_bytes = batch.dW.nbytes + batch.wh.nbytes
            self.counts["models.sigma_path_gb"] += (read_bytes + out_bytes) / 1e9

        def on_implied_vol(args, out):
            self.counts["pricing.implied_vol_calls"] += 1

        def on_delta(args, out):
            self.counts["stats.delta_method_calls"] += 1

        def on_weights(args, out):
            w = args[0]
            total = float(w.sum())
            ess_frac = total * total / float(w @ w) / w.size
            self.gauge("local_vol.min_ess_frac", ess_frac, min)

        for module in (experiments, gaussian):
            self.wrap(module, "simulate_joint_paths", "gaussian.simulate", on_simulate)
        self.wrap(gaussian, "_grid_factors", "gaussian.factor")
        self.wrap(gaussian, "_factor_conditional", None, on_factor)
        self.wrap(gaussian, "_block_normals", "gaussian.normals", on_normals)
        for module in (experiments, models):
            self.wrap(module, "bergomi_sigma_path", "models.sigma_path", on_sigma)
        for attr in (
            "implied_skew_digital",
            "mixing_smile_slice",
            "implied_skew_fd",
            "implied_curvature_fd",
            "_skew_ratio_with_se",
        ):
            self.wrap(experiments, attr, "pricing.estimator")
        for attr in ("mixing_local_vol_skew", "local_vol_curvature_fd"):
            self.wrap(experiments, attr, "local_vol.estimator")
        # mixing_price_grid prices calls; the Dupire reader and the
        # conditional-density level are the local-vol estimators.
        self.wrap(local_vol, "mixing_price_grid", "pricing.estimator")
        for attr in ("dupire_local_vol_fd", "mixing_local_vol"):
            self.wrap(local_vol, attr, "local_vol.estimator")
        self.wrap(local_vol, "_check_weights", None, on_weights)
        for module in (experiments, local_vol):
            self.wrap(module, "delta_method", "stats.delta_method", on_delta)
        for module in (experiments, pricing):
            self.wrap(module, "implied_vol", None, on_implied_vol)

    def report(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "gauges": self.gauges}


def run_dupire_grid(spec, params, grid, out_dir: Path, span) -> None:
    """Mixing local vol against Dupire on 3 x 3 (T, K) grids, one simulation
    per Hurst index; writes ``dupire-grid.csv`` with one row per node."""
    from roughvol import gaussian, local_vol, models

    rows = []
    for p in params:
        batch = gaussian.simulate_joint_paths(grid, p.hurst, spec["n_paths"], spec["seed"])
        sig = models.bergomi_sigma_path(batch, p)
        del batch
        for tc in spec["centres_t"]:
            ts = [tc - spec["step_t"], tc, tc + spec["step_t"]]
            sub = sig.truncated(local_vol.grid_step_index(sig, tc))
            for kc in spec["centres_k"]:
                ks = [kc - spec["step_k"], kc, kc + spec["step_k"]]
                prices, cov = local_vol.mixing_price_grid(sig, p, ts, ks)
                d_vol, d_se = local_vol.dupire_local_vol_fd(prices, ts, ks, cov)
                m_vol, m_se = local_vol.mixing_local_vol(sub, p, tc, kc)
                z = abs(m_vol - d_vol) / math.hypot(m_se, d_se)
                rows.append((p.hurst, tc, kc, m_vol, m_se, d_vol, d_se, z))
        del sig, sub
    with span("experiments.write"):
        lines = ["hurst,T,K,mixing_vol,mixing_se,dupire_vol,dupire_se,z"]
        lines += [",".join("%.12g" % v for v in row) for row in rows]
        (out_dir / "dupire-grid.csv").write_text("\n".join(lines) + "\n", encoding="ascii")


def main(argv) -> int:
    spec_path, out_dir, result_path = (Path(a) for a in argv[:3])
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    from roughvol import experiments, gaussian, models

    if spec["kind"] == "experiment":
        config = experiments.ExperimentConfig.from_mapping(
            spec["experiment"], spec["config"], {"out_dir": str(out_dir)}
        )
    else:
        params = [
            models.RoughBergomiParams(**dict(spec["model"], hurst=h))
            for h in spec["hursts"]
        ]
        grid = gaussian.SimGrid(spec["maturity"], spec["n_steps"])
    report = {"ready": time.monotonic()}

    tracer = Tracer() if "--trace" in argv[3:] else None
    if tracer is not None:
        tracer.install()
    span = tracer.span if tracer is not None else lambda name: nullcontext()
    out_dir.mkdir(parents=True, exist_ok=True)
    flags = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        if spec["kind"] == "experiment":
            with span("experiments.runner"):
                result = experiments.run_experiment(config)
            with span("experiments.write"):
                experiments.write_outputs(result)
            flags = list(result.flags)
        else:
            with span("experiments.runner"):
                run_dupire_grid(spec, params, grid, out_dir, span)
        wall = time.perf_counter() - start
    report.update(
        wall_s=wall,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        flags=flags,
        warnings=[w.category.__name__ for w in caught],
    )
    if tracer is not None:
        report["trace"] = tracer.report()
    result_path.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
