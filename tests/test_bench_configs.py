"""The benchmark's workload configs still parse and resolve, and its
tracer still finds the names it wraps.

`bench/child.py` builds every run from a workload's config text and its
overrides, then resolves the model.  A config-layer change that rejects
them would break every benchmark run; it fails here first.  `bench/tracing.py`
skips a wrapped name the package no longer has, so its span silently reads
0; a rename fails here instead.  Both files are executed from their source,
so nothing is written under bench/.
"""

import importlib
import runpy
from pathlib import Path

import pytest

from innovlab import harness

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOADS = runpy.run_path(str(BENCH / "workloads.py"))["WORKLOADS"]
WRAPPED = runpy.run_path(str(BENCH / "tracing.py"))["WRAPPED"]

# wrapped names the package no longer has, whose spans read 0 until the
# tracer is re-pointed (ROADMAP item 5): the Gaussian oracle is called as
# harness.linear_gaussian_summary, a level's stopped drift is built by
# girsanov.localize inside log_weights_ensemble, and the quantized level's
# plug-in entropies and weights are formed by criterion.plugin_level
STALE_WRAPPED = {("harness", "gaussian_path_kl"), ("criterion", "active_mask"),
                 ("harness", "base_entropy_mc"), ("harness", "pushforward_entropy_mc"),
                 ("harness", "reweight"), ("harness", "normalization_diagnostic")}


@pytest.mark.parametrize("scale", [1.0, 0.05])  # full size and the self-test's size
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_workload_configs_parse_and_resolve(name, scale, tmp_path):
    workload = WORKLOADS[name]
    overrides = workload.overrides(workload.default_seed, scale, str(tmp_path))
    cfg = harness.parse_config(workload.config, **overrides)
    harness.resolve_model(cfg.model, cfg.model_params)
    assert (cfg.seed, cfg.paths, cfg.outdir) == (
        workload.default_seed, overrides["paths"], str(tmp_path))


def test_every_traced_name_exists_but_the_listed_stale_ones():
    missing = {(module, attr) for module, attr, _ in WRAPPED
               if not hasattr(importlib.import_module(f"innovlab.{module}"), attr)}
    assert missing == STALE_WRAPPED
