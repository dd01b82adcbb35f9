"""Spans around the calls into each innovlab layer, installed from outside.

`install` replaces module-level names that the pipeline looks up at call
time (``harness.simulate_ensemble``, ``criterion.weighted_ridge_fit``, ...)
with wrappers that record a span per call, so the traced run times the very
calls the pipeline makes; the package itself is not modified.  A span holds
name, start, end, parent and run id; spans stay in memory and are written
out by `Tracer.dump` when the run ends.

Two spans also record their peak memory: the largest resident set size seen
inside the span, less the size at its start, sampled every millisecond from
/proc/self/statm by a helper thread.  tracemalloc would count allocations
exactly but slows the per-path generator loop of `simulate_ensemble` about
fourfold, which would distort the very times these spans report.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from statistics import median

GIRSANOV = "girsanov.localize_reweight"

# (module, attribute, span name); each module is an innovlab submodule
WRAPPED = [
    ("harness", "simulate_ensemble", "models.simulate_ensemble"),
    ("harness", "ensemble_conditional_drift", "filtering.ensemble_conditional_drift"),
    ("harness", "innovation_values", "filtering.innovation_values"),
    ("harness", "criterion_levels", "criterion.criterion_levels"),
    ("harness", "gaussian_path_kl", "lingauss.gaussian_path_kl"),
    ("harness", "enumerate_atoms", "oracle.enumerate_atoms"),
    ("harness", "sample_quantized_ensemble", "oracle.sample_quantized_ensemble"),
    ("harness", "finite_bayes_filter", "oracle.finite_bayes_filter"),
    ("harness", "base_entropy_mc", "oracle.plugin_entropies"),
    ("harness", "pushforward_entropy_mc", "oracle.plugin_entropies"),
    ("harness", "estimator_crosscheck", "oracle.estimator_crosscheck"),
    ("harness", "log_weights_ensemble", GIRSANOV),
    ("harness", "normalization_diagnostic", GIRSANOV),
    ("harness", "reweight", GIRSANOV),
    ("models", "run_euler", "models.run_euler"),
    ("criterion", "weighted_ridge_fit", "filtering.ridge_fit"),
    ("criterion", "stop_indices", GIRSANOV),
    ("criterion", "active_mask", GIRSANOV),
    ("criterion", "log_weights_ensemble", GIRSANOV),
    ("criterion", "normalization_diagnostic", GIRSANOV),
    ("criterion", "reweight", GIRSANOV),
]
PEAK_SPANS = {"models.simulate_ensemble", "criterion.criterion_levels"}
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")

# per-layer metric -> unit, in the order they are reported
LAYER_METRICS = {
    "models.simulate_ensemble_s": "s",
    "models.run_euler_s": "s",
    "models.draws_s": "s",
    "models.simulate_ensemble_peak_mb": "MB",
    "filtering.ensemble_conditional_drift_s": "s",
    "filtering.innovation_values_s": "s",
    "filtering.features_s": "s",
    "filtering.ridge_fit_s": "s",
    "filtering.ridge_fit_calls": "count",
    "girsanov.localize_reweight_s": "s",
    "girsanov.distinct_weight_sets": "count",
    "girsanov.ess_frac_min": "ratio",
    "criterion.criterion_levels_s": "s",
    "criterion.criterion_levels_self_s": "s",
    "criterion.criterion_levels_peak_mb": "MB",
    "lingauss.gaussian_path_kl_s": "s",
    "oracle.enumerate_atoms_s": "s",
    "oracle.sample_quantized_ensemble_s": "s",
    "oracle.finite_bayes_filter_s": "s",
    "oracle.plugin_entropies_s": "s",
    "oracle.estimator_crosscheck_s": "s",
    "oracle.atoms": "count",
    "harness.self_s": "s",
    "harness.traced_total_s": "s",
    "harness.trace_overhead_frac": "ratio",
}


def rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_BYTES


class RssPeak:
    """Highest resident set size above the starting one, while running."""

    def __init__(self):
        self.base = self.peak = rss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self):
        while not self._stop.wait(0.001):
            self.peak = max(self.peak, rss_bytes())

    def finish(self) -> int:
        self._stop.set()
        self._thread.join()
        return max(self.peak, rss_bytes()) - self.base


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.ess_fracs: list[float] = []
        self.atoms = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "run_id": self.run_id,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        peak = RssPeak() if name in PEAK_SPANS else None
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            if peak is not None:
                rec["peak_bytes"] = peak.finish()
            self._stack.pop()

    def _wrap(self, fn, attr, name):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if attr == "reweight":
                self.ess_fracs.append(out.ess / out.size)
            elif attr == "enumerate_atoms":
                self.atoms += out.atoms
            return out
        return traced

    def install(self) -> None:
        import importlib

        for mod_name, attr, name in WRAPPED:
            mod = importlib.import_module(f"innovlab.{mod_name}")
            # a name the pipeline no longer calls is skipped; its metrics read 0
            if hasattr(mod, attr):
                setattr(mod, attr, self._wrap(getattr(mod, attr), attr, name))

        # features_at is a method: trace it through a subclass
        from innovlab import criterion

        if not hasattr(criterion, "FeatureBuilder"):
            return
        tracer = self

        class TracedFeatureBuilder(criterion.FeatureBuilder):
            def features_at(self, k):
                with tracer.span("filtering.features"):
                    return super().features_at(k)

        criterion.FeatureBuilder = TracedFeatureBuilder

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer numbers of one traced run (without the overhead ratio)."""
        dur = {}
        child_time = {}
        for rec in self.spans:
            d = rec["end"] - rec["start"]
            dur[rec["id"]] = d
            if rec["parent"] is not None:
                child_time[rec["parent"]] = child_time.get(rec["parent"], 0.0) + d

        def total(name):
            return sum(dur[r["id"]] for r in self.spans if r["name"] == name)

        def self_time(name):
            return sum(dur[r["id"]] - child_time.get(r["id"], 0.0)
                       for r in self.spans if r["name"] == name)

        def peak_mb(name):
            return max((r["peak_bytes"] for r in self.spans if r["name"] == name),
                       default=0) / 1e6

        def count(name):
            return sum(1 for r in self.spans if r["name"] == name)

        return {
            "models.simulate_ensemble_s": total("models.simulate_ensemble"),
            "models.run_euler_s": total("models.run_euler"),
            "models.draws_s": self_time("models.simulate_ensemble"),
            "models.simulate_ensemble_peak_mb": peak_mb("models.simulate_ensemble"),
            "filtering.ensemble_conditional_drift_s":
                total("filtering.ensemble_conditional_drift"),
            "filtering.innovation_values_s": total("filtering.innovation_values"),
            "filtering.features_s": total("filtering.features"),
            "filtering.ridge_fit_s": total("filtering.ridge_fit"),
            "filtering.ridge_fit_calls": count("filtering.ridge_fit"),
            "girsanov.localize_reweight_s": total(GIRSANOV),
            "girsanov.distinct_weight_sets": len(self.ess_fracs),
            "girsanov.ess_frac_min": min(self.ess_fracs, default=0.0),
            "criterion.criterion_levels_s": total("criterion.criterion_levels"),
            "criterion.criterion_levels_self_s": self_time("criterion.criterion_levels"),
            "criterion.criterion_levels_peak_mb": peak_mb("criterion.criterion_levels"),
            "lingauss.gaussian_path_kl_s": total("lingauss.gaussian_path_kl"),
            "oracle.enumerate_atoms_s": total("oracle.enumerate_atoms"),
            "oracle.sample_quantized_ensemble_s": total("oracle.sample_quantized_ensemble"),
            "oracle.finite_bayes_filter_s": total("oracle.finite_bayes_filter"),
            "oracle.plugin_entropies_s": total("oracle.plugin_entropies"),
            "oracle.estimator_crosscheck_s": total("oracle.estimator_crosscheck"),
            "oracle.atoms": self.atoms,
            "harness.self_s": self_time("harness.run_experiment"),
            "harness.traced_total_s": total("harness.run_experiment"),
        }


def median_metrics(samples: list[dict]) -> dict:
    return {k: median(s[k] for s in samples) for k in samples[0]}
