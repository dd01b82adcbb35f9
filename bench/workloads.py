"""Benchmark workloads: experiment configs and the checks on their outputs.

Each workload is one `harness.run_experiment` call.  The config text is the
flat ``key = value`` format that ``innovlab run`` reads; the benchmark adds
``seed``, ``paths`` (scaled down by the self-test) and ``outdir`` as
overrides.  A check compares an observed value with an expected one, so a
forced wrong expectation (see `force_wrong`) counts like any failed check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

EQUALITY = "EQUALITY-CONSISTENT"

# acceptance criterion 8's crosscheck tolerances
CROSSCHECK_TOL = 0.05
FILTER_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    paths: int
    min_paths: int
    default_seed: int

    def overrides(self, seed: int, scale: float, outdir: str) -> dict:
        paths = max(self.min_paths, round(self.paths * scale))
        return {"seed": seed, "paths": paths, "outdir": outdir}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="paper-kb512",
        config="""
            model       = kalman-bucy
            model.beta  = 1.0
            model.sigma = 1.0
            grid_n      = 512
            mode        = continuous
            workers     = 1
        """,
        paths=20000, min_paths=100, default_seed=20260808,
    ),
    Workload(
        name="oracle-crosscheck",
        config="""
            model       = independent
            mode        = crosscheck
            grid_n      = 3
            noise_nodes = 3
            aux_values  = -1.5, 1.5
            workers     = 1
        """,
        paths=100000, min_paths=1000, default_seed=1,
    ),
    # not in BENCHMARK.json, which has time for two workloads (NOTES.md):
    # run it by name to show a per-step or memory cost
    Workload(
        name="long-grid-tsirelson",
        config="""
            model        = tsirelson
            model.levels = 8
            grid_n       = 2048
            mode         = continuous
            workers      = 1
        """,
        paths=4000, min_paths=100, default_seed=20260808,
    ),
)}


def checks(workload: str, record) -> list[tuple[str, object, object]]:
    """(name, observed, expected) triples for one run's record."""
    from innovlab.criterion import inequality_check

    def ineq(row):
        return inequality_check(row["H_hat"], row["H_se"], row["E_hat"], row["E_se"])

    out = []
    if workload == "paper-kb512":
        out.append(("verdict", record.verdict, EQUALITY))
        out += [(f"inequality n={row['n']}", ineq(row), True) for row in record.levels]
    elif workload == "oracle-crosscheck":
        cc = record.diagnostics["crosscheck"]
        out.append(("crosscheck.passed", cc["passed"], True))
        out.append(("entropy_rel_error < 0.05", cc["entropy_rel_error"] < CROSSCHECK_TOL, True))
        out.append(("energy_rel_error < 0.05", cc["energy_rel_error"] < CROSSCHECK_TOL, True))
        out.append(("filter_deviation < 1e-8", cc["filter_deviation"] < FILTER_TOL, True))
    elif workload == "long-grid-tsirelson":
        for row in record.levels:
            finite = math.isfinite(row["gap"]) and math.isfinite(row["gap_se"])
            out.append((f"gap finite n={row['n']}", finite, True))
            out.append((f"inequality n={row['n']}", ineq(row), True))
    else:
        raise KeyError(workload)
    return out


def force_wrong(triples):
    """Replace the first check's expectation by one the output cannot meet."""
    name, observed, expected = triples[0]
    wrong = (not expected) if isinstance(expected, bool) else f"not {expected}"
    return [(name + " (forced wrong)", observed, wrong)] + triples[1:]
