"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to watch the lines appear.
The heavy model runs are shared through a module-scoped fixture; every
tolerance is pinned here, not configured elsewhere.
"""

import math
import time

import numpy as np
import pytest

import innovlab.harness as harness
from innovlab.core import RandomStream, TimeGrid
from innovlab.criterion import (
    EQUALITY_CONSISTENT,
    POSITIVE_GAP,
    criterion_levels,
    criterion_verdict,
)
from innovlab.filtering import BasisSpec
from innovlab.harness import PATH_BLOCK, ExperimentConfig, continuous_front_end, run_experiment
from innovlab.lingauss import gaussian_tilt
from innovlab.models import make_model
from innovlab.oracle import WitnessDrift, dpi_verdict, system_battery, witness_space

SEED = 20260808
M_DEFAULT = 20_000
EMA_BASIS = BasisSpec(ema_rates=(0.5, 1.0, 2.0, 4.0))

EQUALITY_MODELS = [
    ("zero", {}, 128),
    ("deterministic", {}, 128),
    ("linear-feedback", {"a": 1.0}, 128),
    ("kalman-bucy", {"beta": 1.0, "sigma": 1.0}, 512),
    ("independent", {}, 128),
]


def _announce(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} - {detail}")
    return ok


@pytest.fixture(scope="module")
def paper_runs():
    """One default-settings run per built-in model, shared across criteria."""
    runs = {}
    for name, params, steps in EQUALITY_MODELS + [("tsirelson", {"levels": 8}, 512)]:
        t0 = time.time()
        grid = TimeGrid(steps=steps)
        model = make_model(name, **params)
        Z, uhat, _ = continuous_front_end(model, grid, M_DEFAULT, RandomStream(seed=SEED))
        reports = criterion_levels(Z, uhat, grid)
        runs[name] = {
            "grid": grid, "model": model, "uhat": uhat, "Z": Z,
            "reports": reports, "elapsed": time.time() - t0,
        }
    return runs


def test_criterion_1_cameron_martin_exactness():
    t0 = time.time()
    grid = TimeGrid(steps=128)
    model = make_model("deterministic", shape="constant", value=1.0)
    Z, uhat, _ = continuous_front_end(model, grid, 10_000, RandomStream(seed=SEED))
    r = criterion_levels(Z, uhat, grid, levels=(math.inf,))[0]
    kl = gaussian_tilt(model, grid).innovation_kl()
    elapsed = time.time() - t0
    ok = (
        abs(r.entropy - 0.5) <= max(3 * r.entropy_se, 1e-12)
        and abs(r.energy - 0.5) <= max(3 * r.energy_se, 1e-12)
        and abs(kl - 0.5) <= 1e-10
        and elapsed < 120
    )
    assert _announce(1, ok,
                     f"Cameron-Martin: H={r.entropy:.12f} E={r.energy:.12f} "
                     f"kl={kl:.12f} ({elapsed:.0f}s)")


def test_criterion_2_entropy_energy_inequality(paper_runs):
    worst = -math.inf
    for name, run in paper_runs.items():
        for r in run["reports"]:
            slack = r.entropy - r.energy - 3 * math.hypot(r.entropy_se, r.energy_se)
            worst = max(worst, slack)
    # absolute 1e-12 absorbs reduction-order roundoff when H == E identically
    continuous_ok = worst <= 1e-12

    battery = system_battery(100, seed=7)
    dpi_ok = all(dpi_verdict(s).pushforward_entropy
                 <= dpi_verdict(s).base_entropy + 1e-12 for s in battery)
    ok = continuous_ok and dpi_ok
    assert _announce(2, ok,
                     f"entropy <= energy on all models/levels (worst slack {worst:.2e}); "
                     f"exact data-processing on 100 discrete instances: {dpi_ok}")


def test_criterion_3_equality_iff_measurability():
    battery = system_battery(100, seed=7)
    equal_cnt = strict_cnt = 0
    equiv_ok = True
    for s in battery:
        v = dpi_verdict(s)
        equiv_ok &= (abs(v.gap) <= 1e-12) == v.density_z_measurable
        if abs(v.gap) <= 1e-12:
            equal_cnt += 1
        else:
            strict_cnt += 1
    ok = equiv_ok and equal_cnt >= 10 and strict_cnt >= 10
    assert _announce(3, ok,
                     f"equality iff class-constant density on 100 instances "
                     f"(equality {equal_cnt}, strict {strict_cnt})")


def test_criterion_4_positive_gap_witness(tmp_path):
    t0 = time.time()
    _, system = witness_space()
    exact = dpi_verdict(system)
    cfg = ExperimentConfig(model=WitnessDrift.name, mode="crosscheck", grid_n=2,
                           paths=100_000, noise_nodes=2, erasure="sign-terminal",
                           seed=SEED, outdir=str(tmp_path))
    rec = run_experiment(cfg)
    gap_mc = rec.levels[0]["gap"]
    rel = abs(gap_mc - exact.gap) / exact.gap
    elapsed = time.time() - t0
    ok = (exact.gap > 1e-6 and rec.verdict == POSITIVE_GAP
          and rel <= 0.05 and elapsed < 300)
    assert _announce(4, ok,
                     f"witness: exact gap {exact.gap:.6f}, MC gap {gap_mc:.6f} "
                     f"(rel {rel:.2%}), verdict {rec.verdict} ({elapsed:.0f}s)")


def test_criterion_5_filtration_equality_models(paper_runs):
    verdicts = {}
    elapsed = 0.0
    for name, _, _ in EQUALITY_MODELS:
        run = paper_runs[name]
        verdicts[name] = criterion_verdict(run["reports"])
        elapsed += run["elapsed"]

    kb = paper_runs["kalman-bucy"]
    t0 = time.time()
    r = criterion_levels(kb["Z"], kb["uhat"], kb["grid"],
                         levels=(math.inf,), basis=EMA_BASIS)[0]
    elapsed += time.time() - t0
    kl = gaussian_tilt(kb["model"], kb["grid"]).innovation_kl()
    kb_ok = abs(r.entropy - kl) <= 3 * r.entropy_se

    ok = all(v == EQUALITY_CONSISTENT for v in verdicts.values()) and kb_ok and elapsed < 900
    assert _announce(5, ok,
                     f"verdicts {verdicts}; kalman oracle agreement "
                     f"|H-kl|={abs(r.entropy - kl):.2e} <= 3se={3 * r.entropy_se:.2e} "
                     f"({elapsed:.0f}s)")


def test_criterion_6_localized_normalization():
    stated = (0.5, 1.0, 2.0, 4.0, 8.0)
    all_ok = True
    detail = []
    for name, params, steps in [("deterministic", {}, 128), ("tsirelson", {"levels": 3}, 128)]:
        grid = TimeGrid(steps=steps)
        model = make_model(name, **params)
        Z, uhat, _ = continuous_front_end(model, grid, 10_000, RandomStream(seed=SEED))
        reports = criterion_levels(Z, uhat, grid, levels=stated)
        passed = [r.norm_passed for r in reports]
        all_ok &= all(passed)
        detail.append(f"{name}: {sum(passed)}/{len(passed)}")
    assert _announce(6, all_ok, f"normalization at n in {stated}: " + "; ".join(detail))


def test_normalization_diagnostic_matches_the_exact_rho_mean(paper_runs):
    # at level inf norm_mean estimates E_P[rho], which the Gaussian oracle
    # gives exactly for a linear model on its grid
    ok = True
    detail = []
    for name, _, _ in EQUALITY_MODELS:
        run = paper_runs[name]
        r = run["reports"][-1]
        assert math.isinf(r.level)
        exact = gaussian_tilt(run["model"], run["grid"]).rho_mean()
        ok &= abs(r.norm_mean - exact) <= max(3 * r.norm_se, 1e-12)
        detail.append(f"{name}: {r.norm_mean:.6f} +- {r.norm_se:.6f} vs {exact:.6f}")
    assert ok, "; ".join(detail)


def test_criterion_7_innovation_brownianity(paper_runs):
    ok = True
    detail = []
    for name, _, _ in EQUALITY_MODELS:
        run = paper_runs[name]
        dZ = np.diff(run["Z"], axis=1)
        dt = run["grid"].dt
        var_rel = abs(dZ.var() - dt) / dt
        x, y = dZ[:, :-1].ravel(), dZ[:, 1:].ravel()
        rho1 = float(np.corrcoef(x, y)[0, 1])
        bound = 3 / math.sqrt(dZ.shape[0] * dZ.shape[1])
        ok &= var_rel < 0.02 and abs(rho1) < bound
        detail.append(f"{name}: var off {var_rel:.3%}, rho1 {rho1:+.2e}")
    assert _announce(7, ok, "; ".join(detail))


def test_criterion_8_estimator_consistency():
    sizes = (1_000, 10_000, 100_000)
    errs_h = {M: [] for M in sizes}
    errs_e = {M: [] for M in sizes}
    final_ok = True
    for seed in range(1, 11):
        for M in sizes:
            cfg = ExperimentConfig(model="independent", mode="crosscheck", grid_n=3,
                                   paths=M, noise_nodes=3, aux_values=(-1.5, 1.5),
                                   seed=seed, outdir="runs/acceptance/crosscheck")
            rec = run_experiment(cfg, persist=False)
            cc = rec.diagnostics["crosscheck"]
            errs_h[M].append(cc["entropy_rel_error"])
            errs_e[M].append(cc["energy_rel_error"])
            if M == sizes[-1]:
                final_ok &= cc["entropy_rel_error"] < 0.05 and cc["energy_rel_error"] < 0.05
                final_ok &= cc["filter_deviation"] < 1e-8
    mh = [float(np.mean(errs_h[M])) for M in sizes]
    me = [float(np.mean(errs_e[M])) for M in sizes]
    monotone = mh[0] > mh[1] > mh[2] and me[0] > me[1] > me[2]
    ok = final_ok and monotone
    assert _announce(8, ok,
                     f"crosscheck m=3 N=3: mean entropy err {[f'{e:.3%}' for e in mh]}, "
                     f"mean energy err {[f'{e:.3%}' for e in me]} over 10 seeds")


def test_criterion_9_determinism_across_row_block_splits(tmp_path, monkeypatch):
    # two full row blocks and a partial one, against 1000-row blocks and
    # against the whole ensemble as one block
    paths = 2 * PATH_BLOCK + 3
    base = dict(model="kalman-bucy", model_params={"beta": 1.0, "sigma": 1.0},
                grid_n=64, paths=paths, seed=SEED)
    csv = []
    for block in (PATH_BLOCK, 1000, paths):
        monkeypatch.setattr(harness, "PATH_BLOCK", block)
        run_experiment(ExperimentConfig(**base, outdir=str(tmp_path / str(block))))
        csv.append((tmp_path / str(block) / "results.csv").read_bytes())
    ok = csv[0] == csv[1] == csv[2]
    assert _announce(9, ok, f"results.csv byte-identical across row-block splits: {ok}")


def test_criterion_10_tsirelson_exploratory(paper_runs):
    # reported, not gated: the truncated construction with an independent
    # uniform seed; no claim is made about its discretized gap
    run = paper_runs["tsirelson"]
    lines = []
    finite = True
    for r in run["reports"]:
        lo, hi = r.gap - 3 * r.gap_se, r.gap + 3 * r.gap_se
        finite &= math.isfinite(r.gap) and math.isfinite(r.gap_se)
        lines.append(f"n={r.level}: gap={r.gap:+.5f} CI3=[{lo:+.5f},{hi:+.5f}]")
    assert _announce(10, finite, "tsirelson K=8 (exploratory) " + "; ".join(lines))
