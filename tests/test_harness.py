import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import MISSING, fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from innovlab.cli import main as cli_main
import innovlab.core as core
import innovlab.criterion as criterion
import innovlab.harness as harness
import innovlab.lingauss as lingauss
import innovlab.models as models
from innovlab.core import RandomStream, TimeGrid
from innovlab.criterion import GAP_FLOOR
from innovlab.errors import (
    ConfigurationError,
    NumericalError,
    StageError,
    UnsupportedModelError,
    UsageError,
)
from innovlab.filtering import ensemble_conditional_drift, innovation_values
from innovlab.girsanov import MIN_DIAGNOSTIC_MEMBERS, log_weights_ensemble
from innovlab.harness import (
    OUTDIR_ENV,
    PATH_BLOCK,
    RESULT_COLUMNS,
    ExperimentConfig,
    continuous_front_end,
    parse_config,
    report,
    run_experiment,
    suite,
)
from innovlab.models import MODEL_NAMES, make_model, simulate_ensemble, workspace
from innovlab.oracle import (
    FiniteLaw,
    WitnessDrift,
    canonical_labels,
    enumerate_atoms,
    filter_deviation,
    finite_bayes_filter,
    gauss_quantized,
    match_atoms,
    sample_quantized_ensemble,
    witness_labels,
)

CFG_TEXT = """
# demo experiment
model = linear-feedback
model.a = 1.5
grid_n = 32
paths = 500
levels = 0.5, 2, inf
seed = 99
mode = continuous
outdir = {out}
"""

# frozen results.csv SHA-256 of four small configs: kalman-bucy as in the
# paper suite, at 400 paths and at two row blocks and a part (so that the
# front end and the Girsanov layer both cross block boundaries), the
# crosscheck of acceptance criterion 8, and the witness of `suite oracle`
# observed through its sign-erasing map.  Any change that moves a printed
# digit fails here; a documented re-baseline updates them.  The crosscheck
# config's exact gap is 0, and its paired gap_se reads EQUALITY-CONSISTENT.
FROZEN_RESULTS_SHA256 = {
    "kalman-bucy": (
        dict(model="kalman-bucy", model_params={"beta": 1.0, "sigma": 1.0},
             grid_n=32, paths=400, seed=7),
        "b9e7730f81dfe62a5b7e2ee4aae2fc5fe51fc5f0f49f69ea1dc51aa76f3ca9ff"),
    "kalman-bucy-blocks": (
        dict(model="kalman-bucy", model_params={"beta": 1.0, "sigma": 1.0},
             grid_n=32, paths=2 * PATH_BLOCK + 3, seed=7),
        "a90b19b2bcc8fc3c35fe15f61b635c2d8db86a8388798e02891ad0c712e073c2"),
    "crosscheck": (
        dict(model="independent", mode="crosscheck", grid_n=3, paths=1000,
             noise_nodes=3, aux_values=(-1.5, 1.5), seed=1),
        "af984fbce3a16f517f77bcb6fa86c058366e259fb33ff8821df405fb7aff1fdf"),
    "witness-erasure": (
        dict(model="witness-one-sided", mode="crosscheck", grid_n=2, noise_nodes=2,
             erasure="sign-terminal", paths=1000, seed=1),
        "7da61a823d3a127cb250e419b944a332222c0e2d5498f997cc061a56d5c4c68f"),
}

# frozen paths.csv SHA-256 of the "kalman-bucy-blocks" config run with
# write_paths = true: every path's log-weight, energy and terminal innovation
FROZEN_PATHS_SHA256 = "64e2a768c1742ac0612a7919eecdec10721e8a31c8067616f8a4af40e65de45f"


def test_config_roundtrip():
    # one config per mode, so that each sets only keys its mode reads;
    # between them every field but workers, which no mode reads, is moved
    # off its default
    continuous = ExperimentConfig(
        model="kalman-bucy", model_params={"beta": 1.0, "sigma": 2.0}, grid_n=64,
        horizon=2.5, paths=333, levels=(0.25, 3.0, math.inf), basis_window=3,
        basis_cubes=True, basis_ema=(0.5, 1.0), ridge=1e-6, gap_floor=0.03, seed=11,
        outdir="runs/every-field", write_paths=True)
    crosscheck = ExperimentConfig(
        model="independent", model_params={"g_shape": "sine", "amplitude": 0.5}, grid_n=7,
        mode="crosscheck", noise_nodes=2, aux_values=(1.5, -0.5), aux_probs=(0.25, 0.75),
        erasure="sign-terminal", crosscheck_tol=0.1)
    for f in fields(ExperimentConfig):
        default = f.default_factory() if f.default is MISSING else f.default
        moved = any(getattr(cfg, f.name) != default for cfg in (continuous, crosscheck))
        assert moved == (f.name != "workers"), f.name
    for cfg in (continuous, crosscheck):
        again = parse_config(cfg.to_text())
        assert again == cfg
        assert again.to_text() == cfg.to_text() and again.digest() == cfg.digest()


def test_config_parsing_and_overrides(tmp_path):
    cfg = parse_config(CFG_TEXT.format(out=tmp_path), paths=600)
    assert cfg.model == "linear-feedback"
    assert cfg.model_params == {"a": 1.5}
    assert cfg.paths == 600  # override wins
    assert cfg.levels == (0.5, 2.0, math.inf)


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigurationError):
        parse_config("modell = zero")
    with pytest.raises(ConfigurationError):
        parse_config("mode = streaming")
    with pytest.raises(ConfigurationError, match="unknown mode 'discrete'"):
        parse_config("mode = discrete")  # the quantized run without its crosscheck
    with pytest.raises(ConfigurationError, match="unknown mode 'discrete'"):
        ExperimentConfig(mode="discrete")
    with pytest.raises(ConfigurationError):
        parse_config("model = zero\npaths = 10")  # continuous needs >= 100
    with pytest.raises(ConfigurationError):
        parse_config("model_params = a")  # model parameters are model.<name> keys
    with pytest.raises(ConfigurationError):
        parse_config("paths = many")
    with pytest.raises(ConfigurationError, match="unknown key"):
        parse_config("basis_squares = true")  # a key of older configs


def test_config_rejects_a_key_given_twice():
    # the later line would silently win; a flag still overrides a file value
    for key, first, again in [("grid_n", "8", "16"), ("model.a", "1", "2")]:
        text = f"model = linear-feedback\n{key} = {first}\n# comment\n{key} = {again}\n"
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"line 4: {key} is given again (first on line 2)")):
            parse_config(text)
    assert parse_config("grid_n = 8\n", grid_n=16).grid_n == 16


def test_config_booleans_take_the_usual_spellings_in_any_case():
    for text, value in [("true", True), ("TRUE", True), ("1", True), ("Yes", True),
                        ("false", False), ("False", False), ("0", False), ("NO", False)]:
        assert parse_config(f"basis_cubes = {text}").basis_cubes is value
    # a misspelled boolean is an error, not false
    for line in ("write_paths = ture", "basis_cubes = on", "basis_cubes ="):
        key, val = (part.strip() for part in line.split("="))
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"line 2: bad value for {key}: {val!r}")):
            parse_config(f"model = zero\n{line}\n")


def test_readme_lists_exactly_the_config_keys():
    # README's "Recognized keys" paragraph names each key in backticks,
    # followed by its default in parentheses or by a comma
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("Recognized keys")
    paragraph = readme[start:readme.index("\n\n", start)]
    listed = re.findall(r"`([^`]+)`(?=\s\(|,)", paragraph)
    assert len(listed) == len(set(listed)), listed
    keys = {f.name for f in fields(ExperimentConfig)} - {"model_params"} | {"model.<param>"}
    assert set(listed) == keys


def test_run_experiment_zero_model(tmp_path):
    cfg = ExperimentConfig(model="zero", grid_n=16, paths=200, outdir=str(tmp_path))
    rec = run_experiment(cfg)
    assert rec.verdict == "EQUALITY-CONSISTENT"
    for row in rec.levels:
        assert row["H_hat"] == 0.0 and row["E_hat"] == 0.0
    # persistence: fixed csv header, valid jsonl, canonical config copy
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == ",".join(RESULT_COLUMNS)
    assert len(lines) == 1 + len(cfg.levels)
    payload = json.loads((tmp_path / "run.jsonl").read_text().splitlines()[0])
    assert payload["config_digest"] == cfg.digest()
    assert parse_config((tmp_path / "config.txt").read_text()) == cfg


def test_run_experiment_deterministic_cameron_martin(tmp_path):
    cfg = ExperimentConfig(model="deterministic", grid_n=64, paths=300,
                           levels=(math.inf,), outdir=str(tmp_path))
    rec = run_experiment(cfg)
    row = rec.levels[0]
    assert row["H_hat"] == pytest.approx(0.5, abs=1e-12)
    assert row["E_hat"] == pytest.approx(0.5, abs=1e-12)
    assert rec.diagnostics["gaussian_path_kl"] == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_front_end_blocks_match_the_whole_ensemble_reference(name):
    # two full row blocks and a partial one, each simulated, filtered and
    # innovated on its own: every drift rule, filter and the innovation act
    # row by row, so no bit may differ from the whole ensemble at once
    model = make_model(name, **({"levels": 2} if name == "tsirelson" else {}))
    grid, size, stream = TimeGrid(steps=16), 2 * PATH_BLOCK + 3, RandomStream(seed=5, substream=9)
    sim = simulate_ensemble(model, grid, size, stream)
    filt = ensemble_conditional_drift(model, sim)
    Z = innovation_values(sim.U, filt.values, grid.dt)
    stages = {}
    got_Z, got_uhat, method = continuous_front_end(model, grid, size, stream, stages)
    assert np.array_equal(got_Z, Z) and np.array_equal(got_uhat, filt.values)
    assert got_Z.flags.f_contiguous and got_uhat.flags.f_contiguous  # a step is contiguous
    assert method == filt.method
    assert set(stages) == {"simulate", "filter", "innovation"}


def test_front_end_stage_rises_add_up_to_the_run_rise(tmp_path):
    # every page of Z and uhat that the caller touches is touched inside
    # one of its stages, so its stages' peak rises sum to its whole rise
    # (a child's rows join the caller's pages only when it reads them); in a
    # fresh interpreter, with Z (4 blocks x 512 columns) at 16.8 MB, so
    # that a copy left outside the stages would show
    code = (
        "import resource\n"
        "from innovlab.core import PATH_BLOCK, RandomStream, TimeGrid\n"
        "from innovlab.harness import continuous_front_end\n"
        "from innovlab.models import make_model\n"
        "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6\n"
        "grid, stages = TimeGrid(steps=511), {}\n"
        "before = peak()\n"
        "continuous_front_end(make_model('independent'), grid, 4 * PATH_BLOCK,\n"
        "                     RandomStream(seed=3), stages)\n"
        "rise = peak() - before\n"
        "summed = sum(entry['peak_rise_mb'] for entry in stages.values())\n"
        "block = PATH_BLOCK * (grid.steps + 1) * 8 / 1e6\n"
        "assert abs(rise - summed) <= block, (rise, summed, stages)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_results_csv_byte_identical_across_same_process_reruns(tmp_path):
    cfg = dict(model="kalman-bucy", model_params={"beta": 1.0, "sigma": 1.0},
               grid_n=32, paths=400, seed=7)
    run_experiment(ExperimentConfig(**cfg, outdir=str(tmp_path / "first")))
    run_experiment(ExperimentConfig(**cfg, outdir=str(tmp_path / "second")))
    first = (tmp_path / "first" / "results.csv").read_bytes()
    second = (tmp_path / "second" / "results.csv").read_bytes()
    assert first == second


@pytest.mark.parametrize("name", FROZEN_RESULTS_SHA256)
def test_results_csv_matches_frozen_digest(tmp_path, name):
    cfg, digest = FROZEN_RESULTS_SHA256[name]
    run_experiment(ExperimentConfig(**cfg, outdir=str(tmp_path)))
    assert hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest() == digest


def test_results_csv_bytes_do_not_depend_on_the_blas_thread_count(tmp_path,
                                                                  other_blas_threads):
    # the frozen digests hold at OpenBLAS's default thread count; another
    # count must write the same bytes
    cfg, digest = FROZEN_RESULTS_SHA256["kalman-bucy"]
    run_experiment(ExperimentConfig(**cfg, outdir=str(tmp_path / "default")))
    with other_blas_threads:
        run_experiment(ExperimentConfig(**cfg, outdir=str(tmp_path / "other")))
    other = (tmp_path / "other" / "results.csv").read_bytes()
    assert (tmp_path / "default" / "results.csv").read_bytes() == other
    assert hashlib.sha256(other).hexdigest() == digest


def test_crosscheck_energy_does_not_depend_on_the_blas_thread_count(other_blas_threads):
    # acceptance criterion 8's config at its largest size: the plug-in
    # level's mean drift energy (`energy_mc`, which results.csv does not
    # print) and its other sums over the paths are count-weighted numpy sums
    # over the 54 atoms, which no BLAS call forms, so another thread count
    # gives the same bits
    cfg = ExperimentConfig(model="independent", mode="crosscheck", grid_n=3, paths=100_000,
                           noise_nodes=3, aux_values=(-1.5, 1.5), seed=1)
    default = run_experiment(cfg, persist=False)
    with other_blas_threads:
        other = run_experiment(cfg, persist=False)
    assert other.diagnostics["energy_mc"] == default.diagnostics["energy_mc"]
    assert other.levels == default.levels


def test_paths_csv_matches_frozen_digest(tmp_path):
    cfg, digest = FROZEN_RESULTS_SHA256["kalman-bucy-blocks"]
    run_experiment(ExperimentConfig(**cfg, outdir=str(tmp_path), write_paths=True))
    assert hashlib.sha256((tmp_path / "paths.csv").read_bytes()).hexdigest() == FROZEN_PATHS_SHA256
    assert hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest() == digest


def test_outdir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "envdir"
    monkeypatch.setenv(OUTDIR_ENV, str(target))
    cfg = ExperimentConfig(model="zero", grid_n=8, paths=150, levels=(math.inf,),
                           outdir=str(tmp_path / "ignored"))
    run_experiment(cfg)
    assert (target / "results.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_write_paths_summaries(tmp_path):
    cfg = ExperimentConfig(model="deterministic", grid_n=8, paths=120,
                           levels=(math.inf,), outdir=str(tmp_path), write_paths=True)
    run_experiment(cfg)
    lines = (tmp_path / "paths.csv").read_text().splitlines()
    assert lines[0] == "path,log_weight,drift_energy,terminal_innovation"
    assert len(lines) == 121


def test_run_without_persisting_writes_no_paths_file(tmp_path):
    cfg = ExperimentConfig(model="deterministic", grid_n=8, paths=120,
                           levels=(math.inf,), outdir=str(tmp_path), write_paths=True)
    rec = run_experiment(cfg, persist=False)
    assert list(tmp_path.iterdir()) == []
    assert "paths_file" not in rec.diagnostics


def test_negative_infinity_keeps_its_sign_in_every_file(tmp_path):
    plus, minus = (ExperimentConfig(model="deterministic", model_params={"value": v},
                                    outdir=str(tmp_path)) for v in (math.inf, -math.inf))
    assert plus.digest() != minus.digest()
    assert parse_config(minus.to_text()) == minus
    row = {"model": "deterministic", "n": math.inf, "H_hat": -math.inf, "E_hat": 0.5}
    harness._persist(minus, harness.ResultRecord(minus.digest(), "deterministic",
                                                 "continuous", "INCONCLUSIVE", [row], {}, 0.0))
    assert "model.value = -inf\n" in (tmp_path / "config.txt").read_text()
    assert (tmp_path / "results.csv").read_text().splitlines()[1].startswith(
        "deterministic,inf,-inf,,0.5,")
    stored = json.loads((tmp_path / "run.jsonl").read_text())["levels"][0]
    assert (stored["n"], stored["H_hat"]) == ("inf", "-inf")
    report(tmp_path)  # reads run.jsonl back
    assert (tmp_path / "curves.csv").read_text().splitlines()[1].startswith(
        "deterministic,inf,-inf,,0.5,")


def test_discrete_witness_run(tmp_path):
    cfg = ExperimentConfig(model=WitnessDrift.name, mode="crosscheck", grid_n=2,
                           paths=20000, noise_nodes=2, erasure="sign-terminal",
                           seed=3, outdir=str(tmp_path))
    rec = run_experiment(cfg)
    assert rec.verdict == "POSITIVE-GAP"
    d = rec.diagnostics
    assert d["exact_gap"] > 1e-6
    assert not d["density_z_measurable"]
    assert not d["u_recoverable_from_z"]
    # the MC gap should be near the enumerated one at this sample size
    assert rec.levels[0]["gap"] == pytest.approx(d["exact_gap"], rel=0.15)
    assert d["crosscheck"]["passed"]  # every quantized run checks itself


def test_crosscheck_mode_record(tmp_path):
    cfg = ExperimentConfig(model="independent", mode="crosscheck", grid_n=3,
                           paths=20000, noise_nodes=3, aux_values=(-1.5, 1.5),
                           seed=5, outdir=str(tmp_path))
    rec = run_experiment(cfg)
    cc = rec.diagnostics["crosscheck"]
    assert cc["filter_deviation"] < 1e-10
    assert cc["entropy_rel_error"] < 0.05
    assert cc["energy_rel_error"] < 0.05
    assert cc["passed"]


def test_crosscheck_compares_against_the_erased_observation():
    # the Monte Carlo entropy of a sign-terminal run estimates the erased
    # pushforward, so that is the exact value it must be checked against
    cfg = ExperimentConfig(model=WitnessDrift.name, mode="crosscheck", grid_n=2,
                           paths=20000, noise_nodes=2, erasure="sign-terminal", seed=3)
    cc = run_experiment(cfg, persist=False).diagnostics["crosscheck"]
    assert cc["entropy_rel_error"] < 0.05
    assert cc["passed"]


def test_paired_gap_se_vanishes_when_the_density_is_z_measurable():
    # the exact gap is 0, and the base and pushforward influence functions
    # are equal path by path, so only rounding is left of the paired se
    rec = run_experiment(ExperimentConfig(**FROZEN_RESULTS_SHA256["crosscheck"][0]),
                         persist=False)
    assert rec.diagnostics["density_z_measurable"]
    row = rec.levels[0]
    assert row["gap_se"] <= 1e-12
    assert row["verdict"] == "EQUALITY-CONSISTENT"


def test_paired_gap_se_on_the_erasure_witness():
    # the two plug-in estimates move together, so the paired se is below
    # the one that treats them as independent, and the gap clears the floor
    rec = run_experiment(ExperimentConfig(**FROZEN_RESULTS_SHA256["witness-erasure"][0]),
                         persist=False)
    assert not rec.diagnostics["density_z_measurable"]
    row = rec.levels[0]
    assert 0 < row["gap_se"] < math.hypot(row["E_se"], row["H_se"])
    assert row["gap"] - 3 * row["gap_se"] > GAP_FLOOR


def test_crosscheck_accepts_aux_values_in_any_order():
    # the order of the aux values changes which value a uniform draws, so
    # it moves the Monte Carlo estimates, but not the enumerated law: the
    # exact values and booleans are equal, the filter is exact, and both
    # orders pass at criterion 8's 100 000 paths (at 1 000 paths the 5 %
    # tolerance fails for about half of all seeds, in either order)
    exact = []
    for values in ((-1.5, 1.5), (1.5, -1.5)):
        cfg = {**FROZEN_RESULTS_SHA256["crosscheck"][0], "aux_values": values, "paths": 100_000}
        d = run_experiment(ExperimentConfig(**cfg), persist=False).diagnostics
        cc = d["crosscheck"]
        assert cc["filter_deviation"] < 1e-10
        assert cc["passed"]
        exact.append({k: v for k, v in d.items() if k.startswith("exact_")
                      or k in ("density_z_measurable", "u_recoverable_from_z")})
    assert len(exact[0]) == 6 and exact[0] == exact[1]


def test_result_record_serializes_infinities_nans_and_tuples_as_before():
    # JSON has no infinities: they are stored as strings, NaN as null, and
    # tuples as lists; the string is the one the field-by-field copy gave
    rec = harness.ResultRecord(
        "0123abcd", "independent", "crosscheck", "POSITIVE-GAP",
        [{"n": math.inf, "gap": math.nan, "verdict": "POSITIVE-GAP"}],
        {"levels": (0.5, math.inf), "stages": {"sample": {"seconds": 0.25}},
         "extremes": [-math.inf, (math.nan, 2)], "passed": True, "note": None},
        1.5, "0.1.0")
    assert rec.to_json() == (
        '{"config_digest": "0123abcd", "diagnostics": {"extremes": ["-inf", [null, 2]], '
        '"levels": [0.5, "inf"], "note": null, "passed": true, "stages": {"sample": '
        '{"seconds": 0.25}}}, "levels": [{"gap": null, "n": "inf", "verdict": '
        '"POSITIVE-GAP"}], "mode": "crosscheck", "model": "independent", "verdict": '
        '"POSITIVE-GAP", "version": "0.1.0", "wall_clock": 1.5}')


def test_report_renders_table_and_curves(tmp_path):
    cfg = ExperimentConfig(model="zero", grid_n=8, paths=150, levels=(1.0, math.inf),
                           outdir=str(tmp_path))
    run_experiment(cfg)
    text = report(tmp_path)
    assert "zero" in text and "EQUALITY-CONSISTENT" in text
    curves = (tmp_path / "curves.csv").read_text().splitlines()
    assert curves[0].startswith("model,n,H_hat")
    assert len(curves) == 3


def test_report_renders_missing_values_as_dash(tmp_path):
    row = {"model": "x", "n": 1.0, "H_hat": None, "E_hat": 0.1, "gap": 0.1,
           "gap_se": 0.0, "ess": 10.0, "verdict": "INCONCLUSIVE"}
    payload = {"config_digest": "d", "model": "x", "mode": "continuous",
               "verdict": "INCONCLUSIVE", "levels": [row], "diagnostics": {},
               "wall_clock": 0.0, "version": "0"}
    (tmp_path / "run.jsonl").write_text(json.dumps(payload) + "\n")
    text = report(tmp_path)
    assert "—" in text


def test_report_columns_align_for_every_model_name(tmp_path):
    records = []
    for name in MODEL_NAMES:
        row = {"model": name, "n": 1.0, "H_hat": 0.1, "E_hat": 0.1, "gap": 0.0,
               "gap_se": 0.0, "ess": 10.0, "verdict": "INCONCLUSIVE"}
        records.append(json.dumps({"config_digest": "d", "model": name, "mode": "crosscheck",
                                   "verdict": "INCONCLUSIVE", "levels": [row],
                                   "diagnostics": {}, "wall_clock": 0.0, "version": "0"}))
    (tmp_path / "run.jsonl").write_text("\n".join(records) + "\n")
    lines = report(tmp_path).splitlines()
    offset = lines[0].index(" n ") + 1
    rows = lines[1:1 + len(MODEL_NAMES)]
    assert [line[:offset].rstrip() for line in rows] == list(MODEL_NAMES)
    assert all(line[offset:].startswith("1.000000 ") for line in rows)


def test_report_needs_records(tmp_path):
    with pytest.raises(UsageError):
        report(tmp_path)


@pytest.mark.parametrize("name", ["smoke", "oracle"])
def test_cheap_suites_pass(tmp_path, capsys, name):
    assert suite(name, outdir=str(tmp_path)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.endswith(" ok") for line in lines), lines


def test_suite_unknown_name():
    with pytest.raises(UsageError):
        suite("warp")


def test_cli_exit_codes(tmp_path, capsys):
    assert cli_main(["list-models"]) == 0
    out = capsys.readouterr().out
    assert "tsirelson" in out and "kalman-bucy" in out
    assert cli_main(["suite", "warp"]) == 2


LOST_ORACLE_CFG = dict(model="linear-feedback", model_params={"a": -20.0}, grid_n=128,
                       paths=500, seed=3)


def test_a_failed_gaussian_oracle_keeps_every_level(tmp_path):
    # a tilt that the grid cannot integrate makes the Gaussian algebra lose
    # positivity; the run still writes every level and says why the exact
    # values are missing
    cfg = ExperimentConfig(**LOST_ORACLE_CFG, outdir=str(tmp_path))
    rec = run_experiment(cfg)
    error = rec.diagnostics["gaussian_oracle_error"]
    assert error.startswith("Gaussian algebra lost positivity")
    assert "gaussian_path_kl" not in rec.diagnostics
    # the failed stage keeps its time, like one that succeeds
    assert rec.diagnostics["stages"]["oracle"]["seconds"] > 0
    assert [row["n"] for row in rec.levels] == list(cfg.levels)
    assert len((tmp_path / "results.csv").read_text().splitlines()) == 1 + len(cfg.levels)
    payload = json.loads((tmp_path / "run.jsonl").read_text())
    assert payload["diagnostics"]["gaussian_oracle_error"] == error
    text = report(tmp_path)
    assert f"oracle[0] linear-feedback: Gaussian oracle failed: {error}" in text
    stage_line = next(line for line in text.splitlines() if line.startswith("stages[0]"))
    assert ", oracle " in stage_line


def test_a_level_with_too_few_effective_samples_is_inconclusive(tmp_path):
    # one path carries the whole level-inf weight: its gap_se is 0, so the
    # band is empty rather than narrow, and the level reads INCONCLUSIVE
    rec = run_experiment(ExperimentConfig(**LOST_ORACLE_CFG, outdir=str(tmp_path)))
    last = rec.levels[-1]
    assert last["n"] == math.inf and last["ess"] < MIN_DIAGNOSTIC_MEMBERS
    assert last["verdict"] == "INCONCLUSIVE"


def test_an_oracle_failure_other_than_numerical_still_fails_the_run(tmp_path, monkeypatch):
    def unsupported(model, grid):
        raise UnsupportedModelError("not linear after all")

    monkeypatch.setattr(harness, "gaussian_path_kl", unsupported)
    with pytest.raises(StageError, match="stage 'oracle' failed: not linear after all"):
        run_experiment(ExperimentConfig(model="kalman-bucy", grid_n=16, paths=200,
                                        outdir=str(tmp_path)))


def test_cli_prints_a_failed_gaussian_oracle(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(ExperimentConfig(**LOST_ORACLE_CFG, outdir=str(tmp_path / "run")).to_text())
    assert cli_main(["run", "--config", str(cfg_file)]) == 0
    out, err = capsys.readouterr()
    assert "verdict:" in out
    assert err.startswith("Gaussian oracle failed: Gaussian algebra lost positivity")
    assert cli_main(["report", "--in", str(tmp_path / "run")]) == 0
    assert "oracle[0] linear-feedback: Gaussian oracle failed: " in capsys.readouterr().out


def test_cli_runs_kalman_bucy_on_any_grid(tmp_path, capsys):
    # the discrete filter's error variance stays positive on every grid, so
    # a loud signal on a coarse one runs, Gaussian oracle included
    cfg = ExperimentConfig(model="kalman-bucy", model_params={"beta": 1.0, "sigma": 10.0},
                           grid_n=32, paths=200, outdir=str(tmp_path / "run"))
    (tmp_path / "exp.cfg").write_text(cfg.to_text())
    assert cli_main(["run", "--config", str(tmp_path / "exp.cfg")]) == 0
    assert "verdict:" in capsys.readouterr().out
    payload = json.loads((tmp_path / "run" / "run.jsonl").read_text())
    assert math.isfinite(payload["diagnostics"]["gaussian_path_kl"])


def test_cli_run_and_report(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(CFG_TEXT.format(out=tmp_path / "run"))
    assert cli_main(["run", "--config", str(cfg_file), "--paths", "300"]) == 0
    assert cli_main(["report", "--in", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize("cfg, stages", [
    (dict(model="kalman-bucy", grid_n=16, paths=200),
     ["configure", "oracle", "simulate", "filter", "innovation", "criterion", "release"]),
    (dict(model="tsirelson", model_params={"levels": 2}, grid_n=16, paths=200),
     ["configure", "simulate", "filter", "innovation", "criterion",  # no Gaussian oracle
      "release"]),
    (dict(model="independent", mode="crosscheck", grid_n=2, paths=500, noise_nodes=2,
          aux_values=(-1.0, 1.0)),
     ["configure", "enumerate", "sample", "filter", "innovation", "weights", "criterion",
      "crosscheck"]),
    (dict(model=WitnessDrift.name, mode="crosscheck", grid_n=2, paths=500, noise_nodes=2),
     ["configure", "enumerate", "sample", "filter", "innovation", "weights", "criterion",
      "crosscheck"]),
])
def test_run_records_stage_timings(tmp_path, cfg, stages):
    # the caller records its stages in the order they first run
    rec = run_experiment(ExperimentConfig(**cfg, outdir=str(tmp_path)))
    payload = json.loads((tmp_path / "run.jsonl").read_text().splitlines()[0])
    assert payload["diagnostics"]["stages"] == rec.diagnostics["stages"]
    assert list(rec.diagnostics["stages"]) == stages
    for entry in rec.diagnostics["stages"].values():
        assert set(entry) == {"seconds", "max_rss_mb", "peak_rise_mb"}
        assert entry["seconds"] >= 0 and entry["max_rss_mb"] > 0
        assert math.isfinite(entry["peak_rise_mb"]) and entry["peak_rise_mb"] >= 0
    line = report(tmp_path).splitlines()[-1]
    assert line.startswith(f"stages[0] {cfg['model']}: configure ")
    assert all(re.search(rf"\b{name} \d+\.\d{{3}}s \+\d+ MB", line) for name in stages)
    assert re.search(r"; peak RSS \d+ MB$", line)
    assert not {"blas_threads", "workers"} & set(payload["diagnostics"])


def test_a_continuous_run_releases_its_shared_maps_in_the_release_stage(monkeypatch):
    # the caller's Z and uhat are the last references to the shared maps:
    # they go inside the stage, whose seconds are the unmapping's
    maps, released = [], []
    mapped_array, stage = harness.mapped_array, harness._stage

    def tracked(*args, **kwargs):
        out = mapped_array(*args, **kwargs)
        maps.append(weakref.ref(out))
        return out

    def watched(stages, name, fn, *args, **kwargs):
        out = stage(stages, name, fn, *args, **kwargs)
        if name == "release":
            released.extend(ref() is None for ref in maps)
        return out

    monkeypatch.setattr(harness, "mapped_array", tracked)
    monkeypatch.setattr(harness, "_stage", watched)
    d = run_experiment(ExperimentConfig(model="zero", grid_n=8, paths=200),
                       persist=False).diagnostics
    assert released == [True, True]
    assert d["stages"]["release"]["seconds"] > 0
    assert list(d["stages"])[-1] == "release"


def test_every_recorded_stage_is_one_report_prints(tmp_path, max_processes):
    # `report` prints only the stages STAGES names, in its order: every
    # stage a run records, in the caller and in each forked child, must be
    # among them, and the caller records its stages in STAGES order
    max_processes(2)
    recorded = set()
    for cfg in (dict(model="kalman-bucy", grid_n=16, paths=2 * PATH_BLOCK + 3),
                dict(model="independent", mode="crosscheck", grid_n=2, paths=500,
                     noise_nodes=2, aux_values=(-1.0, 1.0))):
        d = run_experiment(ExperimentConfig(**cfg), persist=False).diagnostics
        in_order = iter(harness.STAGES)
        assert all(name in in_order for name in d["stages"]), list(d["stages"])
        recorded |= set(d["stages"])
        for forked in ("front_end", "criterion"):
            for child in d.get(forked, {}).get("children", []):
                recorded |= set(child["stages"])
    assert {"oracle", "crosscheck", "simulate", "sample"} <= recorded
    assert recorded <= set(harness.STAGES)


def test_front_end_sums_each_stage_peak_rise_over_its_blocks(max_processes, monkeypatch):
    # a peak that grows by 1 MB on every reading rises 1 MB per block stage:
    # blocks 0 and 2 in the caller, block 1 in the child
    max_processes(2)
    readings = iter(range(10**6))
    monkeypatch.setattr(harness, "_peak_rss_mb", lambda: float(next(readings)))
    stages, front_end = {}, {}
    continuous_front_end(make_model("zero"), TimeGrid(steps=4), 2 * PATH_BLOCK + 3,
                         RandomStream(seed=1), stages, front_end)
    (child,) = front_end["children"]
    assert front_end["processes"] == 2 and child["items"] == 1
    assert {name: entry["peak_rise_mb"] for name, entry in stages.items()} == {
        "simulate": 2.0, "filter": 2.0, "innovation": 2.0}
    assert {name: stages[name]["peak_rise_mb"] + entry["peak_rise_mb"]
            for name, entry in child["stages"].items()} == {
        "simulate": 3.0, "filter": 3.0, "innovation": 3.0}


def test_run_stages_start_no_thread(tmp_path, max_processes, monkeypatch):
    # the front end's blocks run in the calling thread and in a forked
    # child's only thread: while a block innovates, the caller has no thread
    # that was not alive before the run, and the child no thread but its own
    max_processes(2)
    log = tmp_path / "threads"

    def counting_innovation(*args, **kwargs):
        with log.open("a") as fh:
            fh.write(f"{os.getpid()} {threading.active_count()}\n")
        return innovation_values(*args, **kwargs)

    monkeypatch.setattr(harness, "innovation_values", counting_innovation)
    before = threading.active_count()
    run_experiment(ExperimentConfig(model="kalman-bucy", grid_n=16, paths=2 * PATH_BLOCK + 3),
                   persist=False)
    seen = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    caller = [count for pid, count in seen if pid == os.getpid()]
    child = [count for pid, count in seen if pid != os.getpid()]
    assert caller == [before] * 2 and child == [1]
    assert threading.active_count() == before


@pytest.mark.parametrize("model, params", [
    pytest.param("kalman-bucy", {"beta": 1.0, "sigma": 1.0}, id="kalman-bucy"),
    pytest.param("tsirelson", {"levels": 2}, id="tsirelson"),  # reads U at level boundaries
])
def test_results_csv_bytes_do_not_depend_on_the_front_end_processes(tmp_path, max_processes,
                                                                    model, params):
    # two full row blocks and a part, run by 1, 2 and 3 processes
    cfg = dict(model=model, model_params=params, grid_n=32, paths=2 * PATH_BLOCK + 3, seed=7)
    csv = []
    for processes in (1, 2, 3):
        max_processes(processes)
        rec = run_experiment(ExperimentConfig(**cfg, outdir=str(tmp_path / str(processes))))
        assert rec.diagnostics["front_end"]["processes"] == processes
        assert [c["items"] for c in rec.diagnostics["front_end"]["children"]] == \
            [1] * (processes - 1)
        csv.append((tmp_path / str(processes) / "results.csv").read_bytes())
    assert csv[0] == csv[1] == csv[2]


def test_each_front_end_process_fills_one_workspace(tmp_path, max_processes, monkeypatch):
    # four blocks over two processes: each process makes one workspace at
    # its first block, in its own process and so after the fork, and its
    # second block fills the same arrays
    max_processes(2)
    log = tmp_path / "work"
    make, simulate = harness.workspace, harness.simulate_ensemble

    def write(kind, work):
        held = " ".join(str(work[name].ctypes.data) for name in ("dB", "dU", "hidden"))
        with log.open("a") as fh:
            fh.write(f"{kind} {os.getpid()} {held}\n")

    def logged_workspace(*args):
        work = make(*args)
        write("made", work)
        return work

    def logged_simulate(*args):
        write("block", args[-1])
        return simulate(*args)

    monkeypatch.setattr(harness, "workspace", logged_workspace)
    monkeypatch.setattr(harness, "simulate_ensemble", logged_simulate)
    continuous_front_end(make_model("kalman-bucy"), TimeGrid(steps=4), 3 * PATH_BLOCK + 3,
                         RandomStream(seed=1))
    lines = [line.split(" ", 2) for line in log.read_text().splitlines()]
    made = {pid: held for kind, pid, held in lines if kind == "made"}
    assert len(made) == 2 and str(os.getpid()) in made
    assert sum(kind == "made" for kind, _, _ in lines) == 2
    blocks = [(pid, held) for kind, pid, held in lines if kind == "block"]
    assert sorted(blocks) == sorted((pid, held) for pid, held in made.items() for _ in (0, 1))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_front_end_leaves_no_child_after_a_run(max_processes):
    max_processes(2)
    run_experiment(ExperimentConfig(model="zero", grid_n=8, paths=2 * PATH_BLOCK + 3),
                   persist=False)
    _assert_no_child_left()


def _failing_innovation(where):
    """`innovation_values` that raises in the caller's blocks ("caller") or
    in the child's block, rows PATH_BLOCK.. ("child")."""
    caller = os.getpid()

    def innovation(*args, **kwargs):
        if (os.getpid() == caller) == (where == "caller"):
            raise NumericalError(f"innovation failed in the {where}")
        return innovation_values(*args, **kwargs)
    return innovation


def test_front_end_raises_a_childs_stage_error_as_its_own(max_processes, monkeypatch):
    max_processes(2)
    monkeypatch.setattr(harness, "innovation_values", _failing_innovation("child"))
    with pytest.raises(StageError) as info:
        continuous_front_end(make_model("zero"), TimeGrid(steps=4), 2 * PATH_BLOCK + 3,
                             RandomStream(seed=1))
    assert info.value.stage == "innovation"
    assert type(info.value.cause) is NumericalError
    assert str(info.value.cause) == "innovation failed in the child"
    assert str(info.value) == "stage 'innovation' failed: innovation failed in the child"
    _assert_no_child_left()


def test_front_end_kills_and_reaps_the_child_when_its_own_block_fails(max_processes, monkeypatch):
    # the child would sleep for a minute in its block; the caller's block 0
    # fails at once, and the call returns well before the minute is up
    max_processes(2)
    fail = _failing_innovation("caller")
    caller = os.getpid()

    def innovation(*args, **kwargs):
        if os.getpid() != caller:
            time.sleep(60)
        return fail(*args, **kwargs)

    monkeypatch.setattr(harness, "innovation_values", innovation)
    t0 = time.monotonic()
    with pytest.raises(StageError, match="innovation failed in the caller"):
        continuous_front_end(make_model("zero"), TimeGrid(steps=4), 2 * PATH_BLOCK + 3,
                             RandomStream(seed=1))
    assert time.monotonic() - t0 < 30
    _assert_no_child_left()


def test_cli_run_that_fails_in_the_front_end_leaves_no_child(tmp_path, capsys,
                                                             max_processes, monkeypatch):
    max_processes(2)
    monkeypatch.setattr(harness, "innovation_values", _failing_innovation("child"))
    cfg_file = tmp_path / "fail.cfg"
    cfg_file.write_text(f"model = zero\ngrid_n = 8\npaths = {2 * PATH_BLOCK + 3}\n"
                        f"outdir = {tmp_path / 'run'}\n")
    assert cli_main(["run", "--config", str(cfg_file)]) == 1
    assert capsys.readouterr().err == (
        "error: stage 'innovation' failed: innovation failed in the child\n")
    _assert_no_child_left()


# three row blocks, and default levels with 4 distinct stopping rules
SPLIT_CFG = dict(model="independent", grid_n=32, paths=2 * PATH_BLOCK + 3, seed=7)


def test_results_csv_bytes_do_not_depend_on_the_criterion_processes(tmp_path, max_processes):
    # the criterion runs min(P, weight sets) processes, so 3 processes
    # running it means at least 3 distinct weight sets
    csv = []
    for processes in (1, 2, 3):
        max_processes(processes)
        out = tmp_path / str(processes)
        rec = run_experiment(ExperimentConfig(**SPLIT_CFG, outdir=str(out)))
        _assert_no_child_left()
        forks = rec.diagnostics["criterion"]
        assert forks["processes"] == processes
        assert [c["items"] for c in forks["children"]] == {1: [], 2: [2], 3: [1, 1]}[processes]
        csv.append((out / "results.csv").read_bytes())
    assert csv[0] == csv[1] == csv[2]


# the criterion-8 config and the sign-erasing witness at six row blocks and
# a part: 1, 2 and 3 processes each draw the atoms of one contiguous range
# of it
@pytest.mark.parametrize("name", ["crosscheck", "witness-erasure"])
def test_crosscheck_does_not_depend_on_the_front_end_processes(tmp_path, max_processes, name):
    cfg = {**FROZEN_RESULTS_SHA256[name][0], "paths": 6 * PATH_BLOCK + 5}
    runs = []
    for processes in (1, 2, 3):
        max_processes(processes)
        out = tmp_path / str(processes)
        d = run_experiment(ExperimentConfig(**cfg, outdir=str(out))).diagnostics
        _assert_no_child_left()
        assert d["front_end"]["processes"] == processes
        children = d["front_end"]["children"]  # a child's items: its range's blocks
        assert [c["items"] for c in children] == {1: [], 2: [3], 3: [2, 2]}[processes]
        runs.append(((out / "results.csv").read_bytes(), d["crosscheck"], d["energy_mc"]))
    assert runs[0] == runs[1] == runs[2]


def test_a_crosscheck_run_maps_no_array(max_processes, monkeypatch):
    # each row range returns its paths' count on each atom, and the caller
    # forms the rest on the sampled atoms' rows, so nothing is mapped,
    # shared or not; in one process the spy sees every range
    real, calls = core.mapped_array, []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (core, harness, models):
        monkeypatch.setattr(module, "mapped_array", spy)
    max_processes(1)
    cfg = {**FROZEN_RESULTS_SHA256["crosscheck"][0], "paths": 2 * PATH_BLOCK + 3}
    run_experiment(ExperimentConfig(**cfg), persist=False)
    assert calls == []


def test_a_criterion_8_run_draws_one_noise_lane_row_per_path(max_processes, monkeypatch):
    # a path's aux uniform follows its N = 3 noise uniforms on its noise
    # lane, so each chunk of paths is one Philox call of 4 words a path:
    # one block, where a second lane would take a second; in one process
    # the spy sees every range
    real, calls = core.RandomStream.uniforms, []

    def spy(self, lane, m, n):
        calls.append((lane, m, n))
        return real(self, lane, m, n)

    monkeypatch.setattr(core.RandomStream, "uniforms", spy)
    max_processes(1)
    size = 2 * 8192 + 5
    cfg = {**FROZEN_RESULTS_SHA256["crosscheck"][0], "paths": size}
    run_experiment(ExperimentConfig(**cfg), persist=False)
    chunks = core.philox_chunks(size, 4)
    assert len(chunks) == 3
    assert calls == [(core.LANE_NOISE, c.stop - c.start, 4) for c in chunks]


def _per_path_crosscheck(cfg):
    """The quantized pipeline run on every sampled path, the reference for
    a crosscheck run's pipeline over its sampled atoms: each path's
    log-weight, energy and observation class, the filter deviation, and the
    paths' atoms."""
    model, grid = make_model(cfg.model, **cfg.model_params), cfg.grid()
    noise = gauss_quantized(cfg.noise_nodes, grid.dt)
    aux = FiniteLaw(cfg.aux_values, cfg.aux_probs or None) if cfg.aux_values else None
    sim = sample_quantized_ensemble(model, grid, cfg.paths, RandomStream(seed=cfg.seed),
                                    noise, aux)
    filt = finite_bayes_filter(model, sim, noise, aux)
    Z = innovation_values(sim.U, filt.values, grid.dt)
    labels = canonical_labels(Z[:, 1:] if cfg.erasure == "none" else witness_labels(Z))
    log_weights, energies = log_weights_ensemble(filt.values, Z, grid.dt)
    space = enumerate_atoms(model, grid, noise, aux)
    atoms = match_atoms(space, sim)
    return log_weights, energies, labels, filter_deviation(space, atoms, filt.values), atoms


# crosscheck configs, by frozen config, path count and changed keys
CROSSCHECK_CASES = [
    ("crosscheck", 2 * PATH_BLOCK + 3, {}),
    ("crosscheck", 100, {}),
    ("witness-erasure", 2 * PATH_BLOCK + 3, {}),
    ("crosscheck", 2 * PATH_BLOCK + 3, dict(aux_probs=(0.2, 0.8), erasure="sign-terminal")),
]
CROSSCHECK_IDS = ["criterion-8", "criterion-8-unsampled-atoms", "witness", "skewed-aux-erased"]


@pytest.mark.parametrize("name, paths, change", CROSSCHECK_CASES, ids=CROSSCHECK_IDS)
def test_a_crosscheck_run_gathers_the_per_path_pipeline_bit_for_bit(max_processes, monkeypatch,
                                                                    name, paths, change):
    # every step is row by row, so each value formed once per sampled atom
    # is, at each path's atom, the per-path pipeline's value bit for bit, and
    # the atoms' counts are the histogram of the paths' atoms; at 100 paths
    # some of the 54 atoms go unsampled, and they must not count
    seen = {}

    def spy(fn, key):
        def wrapped(*args, **kwargs):
            seen[key] = args
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(harness, "plugin_level", spy(harness.plugin_level, "level"))
    monkeypatch.setattr(harness, "estimator_crosscheck",
                        spy(harness.estimator_crosscheck, "crosscheck"))
    max_processes(2)
    cfg = ExperimentConfig(**{**FROZEN_RESULTS_SHA256[name][0], "paths": paths, **change})
    d = run_experiment(cfg, persist=False).diagnostics
    log_weights, energies, labels, deviation, atoms = _per_path_crosscheck(cfg)
    got_lw, got_energies, got_labels, counts, _ = seen["level"]
    sampled, rows, per_atom = np.unique(atoms, return_inverse=True, return_counts=True)
    assert np.array_equal(counts, per_atom)
    assert got_lw[rows].tobytes() == log_weights.tobytes()
    assert got_energies[rows].tobytes() == energies.tobytes()
    assert np.array_equal(got_labels[rows], labels)
    assert seen["crosscheck"][1] == deviation == d["crosscheck"]["filter_deviation"]
    assert d["atoms_sampled"] == len(sampled)
    if paths == 100:
        assert d["atoms_sampled"] < d["atoms"] == 54


def _plugin_level_inputs(name, paths, change):
    """The per-atom arguments a crosscheck run hands `plugin_level`."""
    seen = []
    plugin_level = harness.plugin_level

    def spy(*args):
        seen.append(args)
        return plugin_level(*args)

    cfg = ExperimentConfig(**{**FROZEN_RESULTS_SHA256[name][0], "paths": paths, **change})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "plugin_level", spy)
        run_experiment(cfg, persist=False)
    return seen[0][:4]


def _synthetic_plugin_inputs(seed):
    # log-weights N(0, 3^2) over 50 atoms spread the weights over orders of
    # magnitude, so a count-weighted sum over the atoms rounds otherwise
    # than the pairwise sum over 100 000 paths
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 50, size=100_000)
    return (rng.normal(0.0, 3.0, 50), rng.exponential(1.0, 50), rng.integers(0, 7, 50),
            np.bincount(rows, minlength=50))


SYNTHETIC_SEEDS = (0, 1, 2, 3, 6, 19)


def _per_path_deviation(log_weights, energies, labels, counts, paths):
    """The largest |plug-in level on the atoms with `counts` - the per-path
    level of the paths on atoms `paths`| over the report's finite floats and
    the mean drift energy, each over max(|per-path value|, per-path E_hat);
    infinite when another field differs."""
    level, energy_mc = criterion.plugin_level(log_weights, energies, labels, counts)
    per_path, per_path_energy = criterion.plugin_level(log_weights[paths], energies[paths],
                                                       labels[paths])
    pairs = [(getattr(level, f.name), getattr(per_path, f.name)) for f in fields(level)]
    worst = 0.0
    for got, want in [*pairs, (energy_mc, per_path_energy)]:
        if isinstance(want, float) and math.isfinite(want):
            worst = max(worst, abs(got - want) / max(abs(want), per_path.energy))
        elif got != want:
            return math.inf
    return worst


@pytest.mark.parametrize("inputs", [
    *(pytest.param(lambda case=case: _plugin_level_inputs(*case), id=case_id)
      for case, case_id in zip(CROSSCHECK_CASES, CROSSCHECK_IDS)),
    *(pytest.param(lambda seed=seed: _synthetic_plugin_inputs(seed), id=f"synthetic-{seed}")
      for seed in SYNTHETIC_SEEDS),
])
def test_the_per_atom_plugin_level_is_the_per_path_one_to_rounding(inputs):
    # a sum over the atoms weighted by their counts adds in another order
    # than the sum over the paths, so the two agree to rounding (2e-13
    # measured), and one path more on one atom is no rounding
    log_weights, energies, labels, counts = inputs()
    paths = np.repeat(np.arange(len(counts)), counts)
    assert _per_path_deviation(log_weights, energies, labels, counts, paths) <= 1e-12
    more = counts.copy()
    more[0] += 1
    assert _per_path_deviation(log_weights, energies, labels, more, paths) > 1e-12


def _exact_pushforward_entropy(log_weights, labels, counts):
    """The plug-in pushforward entropy sum_c q_c log(q_c / p_c) with the
    weights' total and the class sums of the shifted weights formed
    exactly, as Fractions, and float logs after that."""
    scaled = np.exp(log_weights - log_weights.max())
    mass = [Fraction(v) * c for v, c in zip(scaled.tolist(), counts.tolist())]
    total, paths = sum(mass), int(counts.sum())
    q, p = {}, {}
    for label, m, c in zip(labels.tolist(), mass, counts.tolist()):
        q[label], p[label] = q.get(label, 0) + m, p.get(label, 0) + c
    return math.fsum(float(q[c] / total) * math.log(q[c] / total / Fraction(p[c], paths))
                     for c in q)


@pytest.mark.parametrize("seed", SYNTHETIC_SEEDS)
def test_the_plugin_entropy_is_the_exact_sum_one_to_rounding(seed):
    # against the sums over the paths formed exactly, the plug-in entropy
    # is within 1e-14 relative (at most 9.3e-16 measured); sums over the
    # 100 000 paths in numpy's pairwise order were 3.9e-14 to 1.1e-13 off
    log_weights, energies, labels, counts = _synthetic_plugin_inputs(seed)
    level, _ = criterion.plugin_level(log_weights, energies, labels, counts)
    exact = _exact_pushforward_entropy(log_weights, labels, counts)
    assert abs(level.entropy - exact) <= 1e-14 * abs(exact)


def test_a_fully_observed_crosscheck_gap_is_rounding():
    # acceptance criterion 8's config at its largest size: its exact gap is
    # 0, and the count-weighted sums over its 54 atoms leave an ulp or two;
    # sums over the 100 000 paths left 7.27e-14
    cfg = ExperimentConfig(**{**FROZEN_RESULTS_SHA256["crosscheck"][0], "paths": 100_000})
    assert abs(run_experiment(cfg, persist=False).levels[0]["gap"]) <= 1e-15


def _traced_peak(fn, *args):
    """The most `fn(*args)` holds traced above what was held before it, in
    bytes, after a warm-up call for one-time caches."""
    fn(*args)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_plugin_level_holds_less_than_one_per_path_float_vector():
    # the criterion-8 config at 100 000 paths: the level is formed from its
    # 54 atoms and their path counts, so it holds no per-path vector (12 KB
    # measured); one (m,) float64 vector is 0.8 MB, and gathering the sums
    # over the paths one leaf at a time peaked at 0.47 MB
    args = _plugin_level_inputs("crosscheck", 100_000, {})
    assert args[3].sum() == 100_000
    assert _traced_peak(criterion.plugin_level, *args) < 64 * 1024


def _reweight_failing_in(where, stall=False):
    """`criterion.reweight` that raises in the caller ("caller") or in a
    forked child ("child"); with `stall`, everywhere else it sleeps for a
    minute first."""
    caller, reweight = os.getpid(), criterion.reweight

    def failing(log_weights):
        if (os.getpid() == caller) == (where == "caller"):
            raise NumericalError(f"reweight failed in the {where}")
        if stall:
            time.sleep(60)
        return reweight(log_weights)
    return failing


def test_criterion_raises_a_childs_error_as_its_own_stage_error(max_processes, monkeypatch):
    max_processes(2)
    monkeypatch.setattr(criterion, "reweight", _reweight_failing_in("child"))
    with pytest.raises(StageError) as info:
        run_experiment(ExperimentConfig(**SPLIT_CFG), persist=False)
    assert info.value.stage == "criterion"
    assert type(info.value.cause) is NumericalError
    assert str(info.value.cause) == "reweight failed in the child"
    _assert_no_child_left()


def test_criterion_kills_and_reaps_the_child_when_its_own_set_fails(max_processes,
                                                                    monkeypatch):
    # the child would sleep for a minute in its first set; the caller's
    # first set fails at once, and the run ends well before the minute is up
    max_processes(2)
    monkeypatch.setattr(criterion, "reweight", _reweight_failing_in("caller", stall=True))
    t0 = time.monotonic()
    with pytest.raises(StageError, match="stage 'criterion' failed: reweight failed in the "
                                         "caller"):
        run_experiment(ExperimentConfig(**SPLIT_CFG), persist=False)
    assert time.monotonic() - t0 < 30
    _assert_no_child_left()


def _no_fork(fn, items, cpu):
    """A `core._fork` that fails the test: nothing may fork."""
    raise AssertionError("a process forked")


def test_a_linear_run_computes_the_gaussian_oracle_before_it_forks(max_processes, monkeypatch):
    max_processes(2)
    calls = []
    fork, oracle = core._fork, harness.gaussian_path_kl

    def spy(name, fn):
        def called(*args):
            calls.append(name)
            return fn(*args)
        return called

    monkeypatch.setattr(core, "_fork", spy("fork", fork))
    monkeypatch.setattr(harness, "gaussian_path_kl", spy("oracle", oracle))
    rec = run_experiment(ExperimentConfig(model="kalman-bucy", grid_n=16,
                                          paths=2 * PATH_BLOCK + 3), persist=False)
    assert calls[:2] == ["oracle", "fork"] and calls.count("oracle") == 1
    assert list(rec.diagnostics["stages"]) == ["configure", "oracle", "simulate", "filter",
                                               "innovation", "criterion", "release"]
    _assert_no_child_left()


def test_a_linear_run_reads_one_functional_of_a_tilt_it_frees_before_it_forks(
        max_processes, monkeypatch):
    # a run records only the innovation side, so it evaluates that one
    # functional, once; and no tilt outlives the oracle stage, so its
    # matrices are not held through the forked stages
    max_processes(2)
    calls, tilts, alive_at_fork = [], [], []
    fork, tilt = core._fork, lingauss.gaussian_tilt

    def made(*args):
        made_tilt = tilt(*args)
        tilts.append(weakref.ref(made_tilt))
        return made_tilt

    def forked(*args):
        if not alive_at_fork:
            alive_at_fork.append([ref() is not None for ref in tilts])
        return fork(*args)

    def counted(name, functional):
        def call(self):
            calls.append(name)
            return functional(self)
        return call

    for name, value in vars(lingauss.GaussianTilt).copy().items():
        if callable(value) and not name.startswith("_"):
            monkeypatch.setattr(lingauss.GaussianTilt, name, counted(name, value))
    monkeypatch.setattr(lingauss, "gaussian_tilt", made)
    monkeypatch.setattr(core, "_fork", forked)
    rec = run_experiment(ExperimentConfig(model="kalman-bucy", grid_n=16,
                                          paths=2 * PATH_BLOCK + 3), persist=False)
    assert calls == ["innovation_kl"]
    assert alive_at_fork == [[False]]
    assert rec.diagnostics["gaussian_path_kl"] > 0
    _assert_no_child_left()


def test_an_oracle_failure_forks_no_child(max_processes, monkeypatch):
    def unsupported(model, grid):
        raise UnsupportedModelError("not linear after all")

    max_processes(2)
    monkeypatch.setattr(core, "_fork", _no_fork)
    monkeypatch.setattr(harness, "gaussian_path_kl", unsupported)
    with pytest.raises(StageError, match="stage 'oracle' failed: not linear after all"):
        run_experiment(ExperimentConfig(model="kalman-bucy", grid_n=8,
                                        paths=2 * PATH_BLOCK + 3), persist=False)


@pytest.mark.parametrize("grid_n, horizon, cause", [
    (100, 1.0, "grid with 100 steps cannot represent level times 2^-8; use a multiple of 256"),
    (256, 2.0, "tsirelson is defined on horizon 1"),
])
def test_cli_rejects_a_grid_the_model_cannot_use_before_anything_forks(
        tmp_path, capsys, max_processes, monkeypatch, grid_n, horizon, cause):
    max_processes(2)
    monkeypatch.setattr(core, "_fork", _no_fork)
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"model = tsirelson\ngrid_n = {grid_n}\nhorizon = {horizon}\n"
                        f"paths = {2 * PATH_BLOCK + 3}\noutdir = {tmp_path / 'run'}\n")
    assert cli_main(["run", "--config", str(cfg_file)]) == 1
    assert capsys.readouterr().err == f"error: stage 'configure' failed: {cause}\n"
    assert not (tmp_path / "run").exists()


def _dying_in_the_child(fn, die):
    """`fn`, which calls `die()` first when a forked child calls it."""
    caller = os.getpid()

    def dying(*args, **kwargs):
        if os.getpid() != caller:
            die()
        return fn(*args, **kwargs)
    return dying


@pytest.mark.parametrize("module, name, die, cfg, message", [
    pytest.param(harness, "innovation_values", lambda: os._exit(3),
                 dict(model="kalman-bucy", grid_n=16, paths=2 * PATH_BLOCK + 3),
                 r"forked child \d+ ended without a report \(exit status 3\)", id="front-end"),
    pytest.param(criterion, "reweight", lambda: os.kill(os.getpid(), signal.SIGKILL), SPLIT_CFG,
                 r"stage 'criterion' failed: forked child \d+ ended without a report "
                 r"\(killed by signal 9\)", id="criterion"),
])
def test_cli_reports_a_forked_child_that_ends_without_a_report(tmp_path, capsys, max_processes,
                                                               monkeypatch, module, name, die,
                                                               cfg, message):
    # one error line, no traceback, and every child reaped
    max_processes(2)
    monkeypatch.setattr(module, name, _dying_in_the_child(getattr(module, name), die))
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(ExperimentConfig(**cfg, outdir=str(tmp_path / "run")).to_text())
    assert cli_main(["run", "--config", str(cfg_file)]) == 1
    assert re.fullmatch(rf"error: {message}\n", capsys.readouterr().err)
    _assert_no_child_left()


def test_run_stage_seconds_add_up_to_no_more_than_the_wall_clock():
    # the stages run one after another, each block's stages too, so their
    # seconds cannot sum past the run's own
    rec = run_experiment(ExperimentConfig(model="kalman-bucy", grid_n=16,
                                          paths=2 * PATH_BLOCK + 3), persist=False)
    stages = rec.diagnostics["stages"]
    assert {"simulate", "filter", "innovation", "criterion"} <= set(stages)
    assert sum(entry["seconds"] for entry in stages.values()) <= rec.wall_clock


# per forked stage: its run's config, its record in the diagnostics, how
# many pieces its child runs with 2 processes, the stages that child
# records, and the line of `report` that prints the record
FORKED_STAGES = {
    "front_end": (SPLIT_CFG, "front_end", 1, ("simulate", "filter", "innovation"), -3),
    "criterion": (SPLIT_CFG, "criterion", 2, (), -2),
    "crosscheck": (dict(model="independent", mode="crosscheck", grid_n=2, paths=2 * PATH_BLOCK + 3,
                        noise_nodes=2, aux_values=(-1.0, 1.0)),
                   "front_end", 1, ("sample",), -2),
}


@pytest.mark.parametrize("processes", [1, 2])
@pytest.mark.parametrize("stage", sorted(FORKED_STAGES))
def test_run_records_and_reports_a_forked_stages_children(tmp_path, max_processes,
                                                          stage, processes):
    # each forked stage keeps the record `core.fork_map` returns, and
    # `report` prints it on one line with the caller's wait, front end
    # first, before the run's own stage line; with 2 processes the child
    # runs 1 of the 3 row blocks and 2 of the 4 weight sets of a continuous
    # run, and 1 of the 3 row blocks of a crosscheck, as one row range
    cfg, forked, items, child_stages, at = FORKED_STAGES[stage]
    max_processes(processes)
    rec = run_experiment(ExperimentConfig(**cfg, outdir=str(tmp_path)))
    record = json.loads((tmp_path / "run.jsonl").read_text())["diagnostics"][forked]
    lines = report(tmp_path).splitlines()
    line = lines[at]
    assert lines[-1].startswith("stages[0] independent: configure ")
    # the caller's wait for its children lies inside the criterion stage,
    # and in no stage of the front ends
    stages = rec.diagnostics["stages"]
    assert set(record) == {"processes", "wait_s", "children"}
    assert 0 <= record["wait_s"] <= (
        stages["criterion"]["seconds"] if stage == "criterion"
        else rec.wall_clock - sum(entry["seconds"] for entry in stages.values()))
    wait = f", wait {record['wait_s']:.3f}s"
    if processes == 1:
        assert record["processes"] == 1 and record["children"] == []
        assert line == f"{forked}[0] independent: processes 1{wait}"
        return
    (child,) = record["children"]
    assert record["processes"] == 2 and set(child) == {"items", "seconds", "stages",
                                                       "peak_rss_mb"}
    assert child["items"] == items and child["seconds"] > 0 and child["peak_rss_mb"] > 0
    assert set(child["stages"]) == set(child_stages)
    cells = "".join(rf"{name} \d+\.\d{{3}}s \+\d+ MB, " for name in child_stages)
    assert re.fullmatch(rf"{forked}\[0\] independent: processes 2{re.escape(wait)}; child 1: "
                        rf"items {items}, \d+\.\d{{3}}s, {cells}peak RSS \d+ MB", line)


def test_both_modes_write_level_rows_of_one_shape(tmp_path):
    # a crosscheck run's row comes from the same LevelReport as a continuous
    # run's, through the same filter, innovation and criterion stages
    runs = [dict(model="linear-feedback", grid_n=16, paths=200),
            dict(model=WitnessDrift.name, mode="crosscheck", grid_n=2, paths=500,
                 noise_nodes=2, erasure="sign-terminal")]
    keys = []
    for i, cfg in enumerate(runs):
        run_experiment(ExperimentConfig(**cfg, outdir=str(tmp_path / str(i))))
        payload = json.loads((tmp_path / str(i) / "run.jsonl").read_text())
        assert {"filter", "innovation", "criterion"} <= set(payload["diagnostics"]["stages"])
        keys += [set(row) for row in payload["levels"]]
    assert all(k == keys[0] for k in keys)


def _src_env():
    """Environment for a child interpreter that imports this checkout's package."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=src)


def test_cli_run_rejects_out_of_range_seed(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(CFG_TEXT.format(out=tmp_path / "run"))
    for seed in ("-1", str(2**64)):
        proc = subprocess.run([sys.executable, "-m", "innovlab.cli", "run", "--config",
                               str(cfg_file), "--seed", seed], cwd=tmp_path, env=_src_env(),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "stage 'configure'" in proc.stderr and "seed must be in [0, 2**64)" in proc.stderr
    assert not (tmp_path / "run").exists()


def test_cli_run_rejects_a_malformed_aux_law(tmp_path):
    cfg_file = tmp_path / "cc.cfg"
    cfg_file.write_text("model = independent\nmode = crosscheck\ngrid_n = 3\npaths = 1000\n"
                        "aux_values = -1.5, 1.5\naux_probs = 0.2, 0.3, 0.5\n"
                        f"outdir = {tmp_path / 'run'}\n")
    proc = subprocess.run([sys.executable, "-m", "innovlab.cli", "run", "--config",
                           str(cfg_file)], cwd=tmp_path, env=_src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "2 values but 3 probabilities" in proc.stderr
    assert not (tmp_path / "run").exists()


def test_cli_run_rejects_a_ridge_the_rescue_cannot_use(tmp_path, capsys, monkeypatch):
    # ridge = 0 would fail in the criterion stage after the whole
    # simulation, ridge = -1 would pass unnoticed: both stop before sampling
    import innovlab.harness as harness

    def no_sampling(*args, **kwargs):
        raise AssertionError("paths were drawn")

    monkeypatch.setattr(harness, "simulate_ensemble", no_sampling)
    for ridge in ("0", "-1"):
        cfg_file = tmp_path / "ridge.cfg"
        cfg_file.write_text(f"model = kalman-bucy\ngrid_n = 8\npaths = 200\nridge = {ridge}\n"
                            f"outdir = {tmp_path / 'run'}\n")
        assert cli_main(["run", "--config", str(cfg_file)]) == 1
        assert capsys.readouterr().err.startswith("error: ridge must be finite and positive")
        assert not (tmp_path / "run").exists()


CONFIG_OF_MODE = {
    "continuous": "model = independent\ngrid_n = 8\npaths = 200\n",
    "crosscheck": "model = independent\nmode = crosscheck\ngrid_n = 3\npaths = 200\n"
                  "aux_values = -1.5, 1.5\n",
}


@pytest.mark.parametrize("mode, line, reader", [
    ("crosscheck", "levels = 1", "only continuous mode does"),
    ("crosscheck", "basis_window = 2", "only continuous mode does"),
    ("crosscheck", "basis_cubes = true", "only continuous mode does"),
    ("crosscheck", "basis_ema = 0.5", "only continuous mode does"),
    ("crosscheck", "ridge = 0.001", "only continuous mode does"),
    ("crosscheck", "write_paths = true", "only continuous mode does"),
    ("continuous", "noise_nodes = 2", "only crosscheck mode does"),
    ("continuous", "aux_values = 5, -7", "only crosscheck mode does"),
    ("continuous", "aux_probs = 0.5, 0.5", "only crosscheck mode does"),
    ("continuous", "erasure = sign-terminal", "only crosscheck mode does"),
    ("continuous", "crosscheck_tol = 0.1", "only crosscheck mode does"),
    ("continuous", "workers = 2", "no mode does"),
    ("crosscheck", "workers = 2", "no mode does"),
])
def test_cli_run_rejects_a_key_its_mode_does_not_read(tmp_path, capsys, monkeypatch,
                                                      mode, line, reader):
    # the run would ignore the key, yet it would move the config digest:
    # the config fails before any atom is enumerated or path drawn
    def no_draws(*args, **kwargs):
        raise AssertionError("atoms enumerated or paths drawn")

    monkeypatch.setattr(harness, "enumerate_atoms", no_draws)
    monkeypatch.setattr(harness, "sample_atoms", no_draws)
    monkeypatch.setattr(harness, "simulate_ensemble", no_draws)
    cfg_file = tmp_path / "ignored.cfg"
    cfg_file.write_text(f"{CONFIG_OF_MODE[mode]}{line}\noutdir = {tmp_path / 'run'}\n")
    assert cli_main(["run", "--config", str(cfg_file)]) == 1
    assert capsys.readouterr().err == (
        f"error: {line} would be ignored: {mode} mode does not read it ({reader})\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("line", ["aux_values = 5, -7\naux_probs = 0.3, 0.3",
                                  "aux_probs = 0.5, 0.5"])
def test_cli_run_rejects_an_aux_law_for_a_model_without_an_aux_variable(
        tmp_path, capsys, monkeypatch, line):
    # the zero drift has no aux variable for the law to replace; the law
    # fails in configure, before it is even checked for summing to one
    def no_draws(*args, **kwargs):
        raise AssertionError("atoms enumerated or paths drawn")

    monkeypatch.setattr(harness, "enumerate_atoms", no_draws)
    monkeypatch.setattr(harness, "sample_atoms", no_draws)
    cfg_file = tmp_path / "zero.cfg"
    cfg_file.write_text(f"model = zero\nmode = crosscheck\ngrid_n = 3\npaths = 200\n"
                        f"{line}\noutdir = {tmp_path / 'run'}\n")
    assert cli_main(["run", "--config", str(cfg_file)]) == 1
    assert capsys.readouterr().err == (
        "error: stage 'configure' failed: aux_values and aux_probs would be ignored: "
        "model zero has no auxiliary variable\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("name, stage", [
    ("gauss_quantized", "configure"),
    ("FiniteLaw", "configure"),
    ("dpi_verdict", "enumerate"),
    ("sample_atoms", "sample"),
    ("finite_bayes_filter", "filter"),
    ("canonical_labels", "weights"),
    ("log_weights_ensemble", "weights"),
    ("estimator_crosscheck", "crosscheck"),
    ("conditional_energy_by_grouping", "crosscheck"),
])
def test_cli_run_names_the_stage_of_every_crosscheck_step(tmp_path, capsys, monkeypatch,
                                                          name, stage):
    # every step of a crosscheck run runs inside a stage, so a failure names it
    def failing(*args, **kwargs):
        raise NumericalError(f"{name} failed")

    monkeypatch.setattr(harness, name, failing)
    cfg_file = tmp_path / "crosscheck.cfg"
    cfg_file.write_text(f"model = independent\nmode = crosscheck\ngrid_n = 2\npaths = 500\n"
                        f"noise_nodes = 2\naux_values = -1, 1\noutdir = {tmp_path / 'run'}\n")
    assert cli_main(["run", "--config", str(cfg_file)]) == 1
    assert capsys.readouterr().err == f"error: stage '{stage}' failed: {name} failed\n"


def test_cli_run_refuses_too_many_noise_nodes_before_building_the_quadrature(
        tmp_path, capsys, monkeypatch):
    # the quadrature's companion matrix would take 80 GB at 100 000 nodes
    def no_quadrature(m):
        raise AssertionError("the quadrature was built")

    monkeypatch.setattr(np.polynomial.hermite_e, "hermegauss", no_quadrature)
    cfg_file = tmp_path / "nodes.cfg"
    cfg_file.write_text(f"model = zero\nmode = crosscheck\ngrid_n = 1\npaths = 200\n"
                        f"noise_nodes = 100000\noutdir = {tmp_path / 'run'}\n")
    assert cli_main(["run", "--config", str(cfg_file)]) == 1
    assert capsys.readouterr().err == (
        "error: stage 'configure' failed: need between 2 and 370 nodes, got 100000\n")
    assert not (tmp_path / "run").exists()


def test_cli_run_rejects_workers_and_the_removed_workers_flag(tmp_path, capsys, monkeypatch):
    # the front end shares its row blocks among the CPUs by itself: a config
    # asking for workers fails at configuration, as a key no mode reads, and
    # the flag is gone (a usage error)
    def no_sampling(*args, **kwargs):
        raise AssertionError("paths were drawn")

    monkeypatch.setattr(harness, "simulate_ensemble", no_sampling)
    cfg_file = tmp_path / "workers.cfg"
    cfg_file.write_text(f"model = zero\ngrid_n = 8\npaths = 200\nworkers = 2\n"
                        f"outdir = {tmp_path / 'run'}\n")
    assert cli_main(["run", "--config", str(cfg_file)]) == 1
    assert capsys.readouterr().err == (
        "error: workers = 2 would be ignored: continuous mode does not read it "
        "(no mode does)\n")
    cfg_file.write_text(f"model = zero\ngrid_n = 8\npaths = 200\n"
                        f"outdir = {tmp_path / 'run'}\n")
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["run", "--config", str(cfg_file), "--workers", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_run_rejects_too_few_paths_in_every_mode(tmp_path, capsys, monkeypatch):
    # the normalization diagnostic needs 100 members: a run with fewer stops
    # in configuration, before enumerating or sampling
    def no_draws(*args, **kwargs):
        raise AssertionError("atoms enumerated or paths drawn")

    monkeypatch.setattr(harness, "enumerate_atoms", no_draws)
    monkeypatch.setattr(harness, "sample_atoms", no_draws)
    monkeypatch.setattr(harness, "simulate_ensemble", no_draws)
    for mode in ("continuous", "crosscheck"):
        cfg_file = tmp_path / f"{mode}.cfg"
        cfg_file.write_text(f"model = independent\nmode = {mode}\ngrid_n = 3\n"
                            f"aux_values = -1.5, 1.5\noutdir = {tmp_path / 'run'}\n")
        for paths in ("50", "99"):
            assert cli_main(["run", "--config", str(cfg_file), "--paths", paths]) == 1
            assert capsys.readouterr().err == (
                f"error: {mode} mode needs at least 100 paths, got {paths}\n")
    assert not (tmp_path / "run").exists()


def test_cli_flags_override_file_values_before_validation(tmp_path, capsys):
    # a flag replaces a file value that would fail validation; a bad flag
    # fails with the message a bad file value gives
    cfg_file = tmp_path / "few.cfg"
    cfg_file.write_text(f"model = zero\ngrid_n = 8\npaths = 50\noutdir = {tmp_path / 'run'}\n")
    too_few = "error: continuous mode needs at least 100 paths, got 50\n"
    assert cli_main(["run", "--config", str(cfg_file)]) == 1
    assert capsys.readouterr().err == too_few
    assert cli_main(["run", "--config", str(cfg_file), "--paths", "200"]) == 0
    assert (tmp_path / "run" / "results.csv").exists()
    capsys.readouterr()
    cfg_file.write_text(f"model = zero\ngrid_n = 8\npaths = 200\noutdir = {tmp_path / 'bad'}\n")
    assert cli_main(["run", "--config", str(cfg_file), "--paths", "50"]) == 1
    assert capsys.readouterr().err == too_few
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("line, message", [
    ("levels =", "levels must be a non-empty list of positive numbers (inf allowed), got none"),
    ("levels = 1, 0", "levels must be a non-empty list of positive numbers (inf allowed), got 1, 0"),
    ("levels = nan, inf", "levels must be a non-empty list of positive numbers (inf allowed), "
                          "got nan, inf"),
    ("gap_floor = -1", "gap_floor must be finite and positive, got -1.0"),
    ("gap_floor = nan", "gap_floor must be finite and positive, got nan"),
    ("gap_floor = inf", "gap_floor must be finite and positive, got inf"),
    ("crosscheck_tol = -1", "crosscheck_tol must be finite and positive, got -1.0"),
    ("crosscheck_tol = 0", "crosscheck_tol must be finite and positive, got 0.0"),
])
@pytest.mark.parametrize("mode", ["continuous", "crosscheck"])
def test_cli_run_rejects_levels_floors_and_tolerances_before_sampling(
        tmp_path, capsys, monkeypatch, line, message, mode):
    # each would otherwise fail after sampling, or turn a verdict or a
    # crosscheck without an error
    def no_sampling(*args, **kwargs):
        raise AssertionError("paths were drawn")

    monkeypatch.setattr(harness, "simulate_ensemble", no_sampling)
    monkeypatch.setattr(harness, "sample_atoms", no_sampling)
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"model = independent\nmode = {mode}\ngrid_n = 3\n"
                        f"aux_values = -1.5, 1.5\n{line}\noutdir = {tmp_path / 'run'}\n")
    assert cli_main(["run", "--config", str(cfg_file)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("model, key", [("linear-feedback", "b"), ("deterministic", "valeu")])
def test_cli_run_rejects_a_parameter_the_model_does_not_take(tmp_path, capsys, model, key):
    # a constructor argument and a time-profile coefficient the model lacks
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"model = {model}\nmodel.{key} = 2\ngrid_n = 8\npaths = 200\n"
                        f"outdir = {tmp_path / 'run'}\n")
    assert cli_main(["run", "--config", str(cfg_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"model {model!r}" in err and repr(key) in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("model, line, message", [
    ("kalman-bucy", "model.beta = abc", "beta must be a finite number, got 'abc'"),
    ("kalman-bucy", "model.beta = nan", "beta must be a finite number, got nan"),
    ("tsirelson", "model.levels = 2.5", "levels must be a whole number, got 2.5"),
])
def test_cli_run_rejects_a_model_parameter_value_before_sampling(
        tmp_path, capsys, monkeypatch, model, line, message):
    # a raw TypeError traceback, a NaN that fails only in the criterion
    # stage and a silently truncated level count all stop at configure
    def no_sampling(*args, **kwargs):
        raise AssertionError("paths were drawn")

    monkeypatch.setattr(harness, "simulate_ensemble", no_sampling)
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"model = {model}\n{line}\ngrid_n = 256\npaths = 200\n"
                        f"outdir = {tmp_path / 'run'}\n")
    assert cli_main(["run", "--config", str(cfg_file)]) == 1
    assert capsys.readouterr().err == (
        f"error: stage 'configure' failed: model {model!r}: {message}\n")
    assert not (tmp_path / "run").exists()


def test_cli_run_aligns_rows_for_every_model_name(tmp_path, capsys):
    rows = []
    for name, extra in [(WitnessDrift.name, "mode = crosscheck\nnoise_nodes = 2\n"),
                        ("linear-feedback", "levels = inf\n")]:
        cfg_file = tmp_path / f"{name}.cfg"
        cfg_file.write_text(f"model = {name}\ngrid_n = 2\npaths = 200\n{extra}"
                            f"outdir = {tmp_path / name}\n")
        assert cli_main(["run", "--config", str(cfg_file)]) == 0
        rows.append(capsys.readouterr().out.splitlines()[0])
    assert rows[0].startswith(WitnessDrift.name) and rows[1].startswith("linear-feedback")
    assert rows[0].index(" n=") == rows[1].index(" n=")


def test_no_run_imports_scipy(tmp_path):
    # the package needs only numpy: importing it, a crosscheck run, a
    # kalman-bucy run (the Gaussian oracle's factorizations) and a tsirelson
    # run (the truncated-normal head filter) leave scipy unloaded, so a run
    # maps numpy's OpenBLAS and no second one
    runs = {
        "crosscheck": FROZEN_RESULTS_SHA256["crosscheck"][0],
        "kalman-bucy": FROZEN_RESULTS_SHA256["kalman-bucy"][0],
        "tsirelson": dict(model="tsirelson", model_params={"levels": 2}, grid_n=8,
                          paths=200, seed=7),
    }
    code = (
        "import sys, innovlab, innovlab.harness\n"
        "assert 'scipy' not in sys.modules, 'loaded by import'\n"
        "from innovlab.harness import ExperimentConfig, run_experiment\n"
    )
    for name, cfg in runs.items():
        code += (f"run_experiment(ExperimentConfig(**{cfg!r}), persist=False)\n"
                 f"assert 'scipy' not in sys.modules, 'loaded by the {name} run'\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("paths, arrays", [(2000, 6), (8000, 3.25)])
@pytest.mark.parametrize("model, params", [
    pytest.param("kalman-bucy", {"beta": 1.0, "sigma": 1.0}, id="kalman-bucy"),
    pytest.param("independent", {}, id="independent"),
])
def test_continuous_run_holds_at_most_six_ensemble_arrays(model, params, paths, arrays,
                                                         monkeypatch):
    # the whole ensemble lives only as Z and the filtered drift, two
    # (paths, grid_n) float64 arrays; each front-end process's workspace
    # (kalman-bucy's holds dB, hidden noise and dU of PATH_BLOCK rows; U and
    # drift are simulated in the block's rows of Z and uhat), the Girsanov
    # layer's block temporaries and the feature builder's buffers, in the
    # caller and in each forked child, come on top.  At 2000 paths a block
    # is half the ensemble; at 8000 an eighth, so one more whole-ensemble
    # array anywhere in the run, a simulation or a stopped drift, in the
    # caller or in a child, would break the tighter bound
    cfg = ExperimentConfig(model=model, model_params=params, grid_n=256, paths=paths, seed=7)
    run_experiment(cfg, persist=False)  # warm-up: imports and one-time caches
    peaks = {}
    stage = harness._stage

    def traced_stage(stages, name, *args, **kwargs):
        tracemalloc.reset_peak()
        try:
            return stage(stages, name, *args, **kwargs)
        finally:
            peaks[name] = max(peaks.get(name, 0), tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(harness, "_stage", traced_stage)
    tracemalloc.start()
    try:
        d = run_experiment(cfg, persist=False).diagnostics
    finally:
        tracemalloc.stop()
    # a forked child holds its own arrays beside the caller's: its traced
    # peak above what it shares with the caller adds to each of its stages
    for forked, names in (("front_end", ("simulate", "filter", "innovation")),
                          ("criterion", ("criterion",))):
        children = sum(child["traced_peak_mb"] for child in d[forked]["children"]) * 1e6
        for name in names:
            peaks[name] += children
    # tracemalloc does not see memory maps: Z and uhat, from the front end
    # until their release, and each front-end process's block workspace in
    # the front end's stages
    shared = cfg.paths * (2 * cfg.grid_n + 1) * 8
    work = (len(workspace(make_model(model, **params), cfg.grid(), 1))
            * min(PATH_BLOCK, cfg.paths) * cfg.grid_n * 8) * d["front_end"]["processes"]
    mapped = {"simulate": shared + work, "filter": shared + work,
              "innovation": shared + work, "criterion": shared, "release": shared}
    assert set(peaks) == {"configure", "oracle", *mapped}
    assert max(peak + mapped.get(name, 0) for name, peak in peaks.items()) \
        <= arrays * cfg.paths * cfg.grid_n * 8
