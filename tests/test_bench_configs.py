"""The benchmark's workload configs still parse and resolve, its output
checks still hold, and its tracer still finds the names it wraps.

`bench/child.py` builds every run from a workload's config text and its
overrides, then resolves the model.  A config-layer change that rejects
them would break every benchmark run; it fails here first.  So does a
program change that would fail the benchmark's correctness gate: every
workload runs at the self-test's scale and its checks must hold.
`bench/tracing.py` skips a wrapped name the package no longer has, so its
span silently reads 0; a rename fails here instead, and so does a ridge
fit moved out of the call that the tracer times.  The BLAS thread count
that `bench/child.py` records with each run must be the one the run used.
The bench files are executed from their source, so nothing is written
under bench/.
"""

import importlib
import runpy
import sys
from pathlib import Path

import pytest

from innovlab import harness

BENCH = Path(__file__).resolve().parents[1] / "bench"
_WORKLOADS_PY = runpy.run_path(str(BENCH / "workloads.py"))
WORKLOADS, CHECKS = _WORKLOADS_PY["WORKLOADS"], _WORKLOADS_PY["checks"]
SELF_TEST_SCALE = 0.05  # the path-count scale of bench/selftest.py
WRAPPED = runpy.run_path(str(BENCH / "tracing.py"))["WRAPPED"]

# wrapped names the package no longer has, whose spans read 0 until the
# tracer is re-pointed (ROADMAP item 5): a level's stopped drift is built
# by girsanov.localize inside log_weights_ensemble, the quantized level's
# plug-in entropies and weights are formed by criterion.plugin_level, and a
# crosscheck draws atom indices with oracle.sample_atoms, not paths
STALE_WRAPPED = {("criterion", "active_mask"),
                 ("harness", "base_entropy_mc"), ("harness", "pushforward_entropy_mc"),
                 ("harness", "reweight"), ("harness", "normalization_diagnostic"),
                 ("harness", "sample_quantized_ensemble")}


@pytest.mark.parametrize("scale", [1.0, SELF_TEST_SCALE])  # full size and the self-test's
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_workload_configs_parse_and_resolve(name, scale, tmp_path):
    workload = WORKLOADS[name]
    overrides = workload.overrides(workload.default_seed, scale, str(tmp_path))
    cfg = harness.parse_config(workload.config, **overrides)
    harness.resolve_model(cfg.model, cfg.model_params)
    assert (cfg.seed, cfg.paths, cfg.outdir) == (
        workload.default_seed, overrides["paths"], str(tmp_path))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_output_checks_hold_at_the_self_test_scale(name, tmp_path, monkeypatch):
    monkeypatch.delenv(harness.OUTDIR_ENV, raising=False)  # the run writes under tmp_path
    workload = WORKLOADS[name]
    overrides = workload.overrides(workload.default_seed, SELF_TEST_SCALE, str(tmp_path))
    record = harness.run_experiment(harness.parse_config(workload.config, **overrides))
    assert (tmp_path / "results.csv").exists()
    failed = [(check, observed, expected) for check, observed, expected in CHECKS(name, record)
              if observed != expected]
    assert failed == []


def test_every_traced_name_exists_but_the_listed_stale_ones():
    missing = {(module, attr) for module, attr, _ in WRAPPED
               if not hasattr(importlib.import_module(f"innovlab.{module}"), attr)}
    assert missing == STALE_WRAPPED


def test_recorded_blas_thread_count_is_the_one_the_run_used(monkeypatch):
    # child.py reads the count after the run returns; a run leaves the
    # count alone, so that is also the count every stage used
    monkeypatch.syspath_prepend(str(BENCH))  # child.py imports workloads
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        blas_info = runpy.run_path(str(BENCH / "child.py"))["blas_info"]
    finally:
        sys.modules.pop("workloads", None)
    seen = []
    innovation_values = harness.innovation_values

    def counting_innovation(*args, **kwargs):
        seen.append(blas_info()["threads"])
        return innovation_values(*args, **kwargs)

    monkeypatch.setattr(harness, "innovation_values", counting_innovation)
    before = blas_info()["threads"]
    harness.run_experiment(harness.ExperimentConfig(model="kalman-bucy", grid_n=16, paths=200),
                           persist=False)
    assert seen == [before] and blas_info()["threads"] == before


def test_traced_ridge_fit_spans_every_step_of_the_regression(monkeypatch):
    # filtering.ridge_fit times the criterion.weighted_ridge_fit calls; a
    # fit that ran outside that call would leave the metric reading 0
    from innovlab import criterion

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for module, attr, _ in WRAPPED:  # restored when the test ends
        mod = importlib.import_module(f"innovlab.{module}")
        if hasattr(mod, attr):
            monkeypatch.setattr(mod, attr, getattr(mod, attr))
    monkeypatch.setattr(criterion, "FeatureBuilder", criterion.FeatureBuilder)
    tracer = runpy.run_path(str(BENCH / "tracing.py"))["Tracer"](run_id="guard")
    tracer.install()
    harness.run_experiment(harness.ExperimentConfig(model="kalman-bucy", grid_n=16, paths=200),
                           persist=False)
    metrics = tracer.layer_metrics()
    assert metrics["filtering.ridge_fit_calls"] == 16
    assert metrics["filtering.ridge_fit_s"] > 0
