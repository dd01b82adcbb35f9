"""The benchmark's workload configs still parse and resolve.

`bench/child.py` builds every run from a workload's config text and its
overrides, then resolves the model.  A config-layer change that rejects
them would break every benchmark run; it fails here first.  The workloads
file is executed from its source, so nothing is written under bench/.
"""

import runpy
from pathlib import Path

import pytest

from innovlab import harness

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOADS = runpy.run_path(str(BENCH / "workloads.py"))["WORKLOADS"]


@pytest.mark.parametrize("scale", [1.0, 0.05])  # full size and the self-test's size
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_workload_configs_parse_and_resolve(name, scale, tmp_path):
    workload = WORKLOADS[name]
    overrides = workload.overrides(workload.default_seed, scale, str(tmp_path))
    cfg = harness.parse_config(workload.config, **overrides)
    harness.resolve_model(cfg.model, cfg.model_params)
    assert (cfg.seed, cfg.paths, cfg.outdir) == (
        workload.default_seed, overrides["paths"], str(tmp_path))
